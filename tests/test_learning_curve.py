"""Tests for the learning-curve recorder."""

import numpy as np

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.eval.learning_curve import LearningCurve
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage


def _graph(n=150, extra=1000, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(n)
    dst = (src + 1) % n
    es = rng.integers(0, n, extra)
    ed = (es + rng.integers(1, 4, extra)) % n
    return EdgeList(
        np.concatenate([src, es]),
        np.zeros(n + extra, dtype=np.int64),
        np.concatenate([dst, ed]),
    )


class TestLearningCurve:
    def test_record_points(self):
        curve = LearningCurve(label="test")
        curve.record(0, 0.5, 0.8)
        curve.record(1, 0.6, 0.9)
        assert len(curve.points) == 2
        assert curve.best_mrr() == 0.6
        assert curve.points[1].wallclock >= curve.points[0].wallclock

    def test_time_to_mrr(self):
        curve = LearningCurve()
        curve.record(0, 0.3, 0.0)
        curve.record(1, 0.7, 0.0)
        assert curve.time_to_mrr(0.5) == curve.points[1].wallclock
        assert curve.time_to_mrr(0.99) is None

    def test_restart_clock(self):
        curve = LearningCurve()
        curve.record(0, 0.5, 0.5)
        curve.restart_clock()
        assert curve.points == []

    def test_callback_with_trainer(self):
        """The callback plugs into Trainer.after_epoch and records
        monotone-ish improving MRR on a learnable graph."""
        edges = _graph()
        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(
                    name="r", lhs="node", rhs="node", operator="translation"
                )
            ],
            dimension=16, num_epochs=4, batch_size=200, chunk_size=50,
            lr=0.1, num_batch_negs=10, num_uniform_negs=10,
        )
        entities = EntityStorage({"node": 150})
        model = EmbeddingModel(config, entities)
        trainer = Trainer(config, model, entities)
        curve = LearningCurve(label="pbg")
        cb = curve.make_callback(
            model, edges[:300], num_candidates=50, max_eval_edges=200,
        )
        trainer.train(edges, after_epoch=cb)
        assert len(curve.points) == 4
        assert [p.epoch for p in curve.points] == [0, 1, 2, 3]
        # Quality after training beats the first epoch's quality.
        assert curve.points[-1].mrr >= curve.points[0].mrr * 0.8
        assert curve.best_mrr() > 0.1

    def test_eval_subsampling(self):
        edges = _graph()
        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[RelationSchema(name="r", lhs="node", rhs="node")],
            dimension=8, num_epochs=1, batch_size=100, chunk_size=20,
            num_batch_negs=5, num_uniform_negs=5,
        )
        entities = EntityStorage({"node": 150})
        model = EmbeddingModel(config, entities)
        trainer = Trainer(config, model, entities)
        curve = LearningCurve()
        cb = curve.make_callback(
            model, edges, num_candidates=20, max_eval_edges=50
        )
        trainer.train(edges, after_epoch=cb)
        assert len(curve.points) == 1
