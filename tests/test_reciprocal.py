"""Tests for reciprocal relations (paper §5.4.1)."""

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.reciprocal import add_reciprocal_edges, add_reciprocal_relations
from repro.core.trainer import Trainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage


def _config(**kw):
    return ConfigSchema(
        entities={"ent": EntitySchema()},
        relations=[
            RelationSchema(name="a", lhs="ent", rhs="ent",
                           operator="translation"),
            RelationSchema(name="b", lhs="ent", rhs="ent",
                           operator="diagonal", weight=2.0),
        ],
        dimension=8,
        **kw,
    )


class TestAddReciprocalRelations:
    def test_doubles_relations(self):
        cfg = add_reciprocal_relations(_config())
        assert len(cfg.relations) == 4
        assert cfg.relations[2].name == "a_reciprocal"
        assert cfg.relations[3].name == "b_reciprocal"

    def test_twin_preserves_operator_and_weight(self):
        cfg = add_reciprocal_relations(_config())
        assert cfg.relations[3].operator == "diagonal"
        assert cfg.relations[3].weight == 2.0

    def test_twin_swaps_entity_types(self):
        base = ConfigSchema(
            entities={"user": EntitySchema(), "item": EntitySchema()},
            relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
            dimension=4,
        )
        cfg = add_reciprocal_relations(base)
        twin = cfg.relations[1]
        assert twin.lhs == "item" and twin.rhs == "user"

    def test_double_application_rejected(self):
        cfg = add_reciprocal_relations(_config())
        with pytest.raises(ValueError, match="already contains"):
            add_reciprocal_relations(cfg)


class TestAddReciprocalEdges:
    def test_duplicates_reversed(self):
        edges = EdgeList.from_tuples([(0, 0, 1), (2, 1, 3)])
        out = add_reciprocal_edges(edges, num_relations=2)
        assert len(out) == 4
        assert list(out)[2] == (1, 2, 0)
        assert list(out)[3] == (3, 3, 2)

    def test_weights_carried(self):
        src = np.asarray([0])
        edges = EdgeList(src, src.copy(), src + 1, np.asarray([2.5]))
        out = add_reciprocal_edges(edges, 1)
        np.testing.assert_allclose(out.weights, [2.5, 2.5])

    def test_out_of_range_relation_rejected(self):
        edges = EdgeList.from_tuples([(0, 5, 1)])
        with pytest.raises(ValueError, match="relation 5"):
            add_reciprocal_edges(edges, num_relations=2)


class TestReciprocalEvaluator:
    """The §5.4.1 protocol needs no wrapper: the doubled test set, ranked
    one-sided, asks each source query of ``(s, r, d)`` as the destination
    query of its twin ``(d, r', s)``."""

    def _trained(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        src = np.concatenate([np.arange(n), rng.integers(0, n, 800)])
        dst = np.concatenate([(np.arange(n) + 1) % n,
                              (src[n:] + rng.integers(1, 3, 800)) % n])
        edges = EdgeList(src, np.zeros(len(src), dtype=np.int64), dst)
        config = add_reciprocal_relations(ConfigSchema(
            entities={"ent": EntitySchema()},
            relations=[RelationSchema(name="next", lhs="ent", rhs="ent",
                                      operator="diagonal")],
            dimension=16, num_epochs=6, batch_size=200, chunk_size=50,
            num_batch_negs=10, num_uniform_negs=10, lr=0.1,
        ))
        entities = EntityStorage({"ent": n})
        model = EmbeddingModel(config, entities)
        Trainer(config, model, entities).train(add_reciprocal_edges(edges, 1))
        return model, edges

    def test_evaluates_both_directions(self):
        model, edges = self._trained()
        test = edges[:100]
        ev = LinkPredictionEvaluator(model)

        def one_sided(rel_params_1=None):
            if rel_params_1 is not None:
                model.rel_params[1][...] = rel_params_1
            return (ev.evaluate(add_reciprocal_edges(test, 1), both_sides=False),
                    ev.evaluate(test, both_sides=False),
                    ev.evaluate(EdgeList(test.dst, test.rel + 1, test.src),
                                both_sides=False))

        doubled, forward, reverse = one_sided()
        assert doubled.num_queries == 200
        assert 0 < doubled.mrr <= 1
        assert doubled.mrr == pytest.approx((forward.mrr + reverse.mrr) / 2)
        # Only the reverse half goes through r': moving r' leaves the
        # forward ranks alone and changes the reverse ones.
        moved, forward_after, reverse_after = one_sided(
            np.random.default_rng(1).standard_normal(
                model.rel_params[1].shape))
        assert forward_after == forward
        assert reverse_after.mrr != reverse.mrr
        assert moved.mrr == pytest.approx(
            (forward.mrr + reverse_after.mrr) / 2)

    def test_learns_better_than_random(self):
        model, edges = self._trained()
        m = LinkPredictionEvaluator(model).evaluate(
            add_reciprocal_edges(edges[:200], 1), both_sides=False)
        assert m.num_queries == 400
        assert m.mrr > 0.15  # random over 120 entities is about 0.04
