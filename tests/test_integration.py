"""End-to-end integration tests across modules.

These exercise the whole pipeline — data generation, configuration,
(partitioned / distributed / featurized) training, checkpointing and
evaluation — the way the examples and benchmarks use it.
"""

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.tables import FeaturizedEmbeddingTable
from repro.core.trainer import Trainer
from repro.datasets import (
    knowledge_graph,
    social_network,
    split_with_coverage,
    user_item_graph,
)
from repro.distributed.cluster import DistributedTrainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import (
    PartitionAbsent,
    PartitionedEmbeddingStorage,
    StorageError,
)


class TestSocialPipeline:
    def test_social_training_beats_random(self):
        g = social_network(800, 8000, seed=0)
        train, test = split_with_coverage(
            g.edges, [0.75, 0.25], np.random.default_rng(0)
        )
        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[RelationSchema(name="f", lhs="node", rhs="node")],
            dimension=32, num_epochs=6, batch_size=500, chunk_size=50,
            lr=0.1, comparator="cos", margin=0.1,
        )
        entities = EntityStorage({"node": g.num_nodes})
        model = EmbeddingModel(config, entities)
        Trainer(config, model, entities).train(train)
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(
            test[:800], num_candidates=200, rng=np.random.default_rng(0)
        )
        # Random would give MRR ≈ Σ 1/r / 200 ≈ 0.03.
        assert m.mrr > 0.08
        assert m.hits_at[10] > 0.2


class TestKnowledgePipeline:
    def test_multirelation_training(self):
        kg = knowledge_graph(1000, 12, 15000, noise=0.02, seed=1)
        train, valid, test = split_with_coverage(
            kg.edges, [0.9, 0.05, 0.05], np.random.default_rng(1)
        )
        config = ConfigSchema(
            entities={"ent": EntitySchema()},
            relations=[
                RelationSchema(
                    name=f"r{i}", lhs="ent", rhs="ent", operator="translation"
                )
                for i in range(12)
            ],
            dimension=32, num_epochs=8, batch_size=500, chunk_size=50,
            lr=0.1,
        )
        entities = EntityStorage({"ent": kg.num_entities})
        model = EmbeddingModel(config, entities)
        Trainer(config, model, entities).train(train)
        ev = LinkPredictionEvaluator(model, filter_edges=[train, valid, test])
        raw = ev.evaluate(
            test[:600], num_candidates=200, rng=np.random.default_rng(0)
        )
        filt = ev.evaluate(
            test[:600], num_candidates=200, filtered=True,
            rng=np.random.default_rng(0),
        )
        assert raw.mrr > 0.08
        assert filt.mrr >= raw.mrr


class TestTypedNegatives:
    def test_bipartite_graph_trains_with_two_entity_types(self):
        """User→item edges: negatives must come from the item table, so
        scores between users never enter the loss. We verify the model
        learns item preference despite wildly unbalanced type sizes."""
        edges, user_cat, item_cat = user_item_graph(2000, 60, 10000, seed=2)
        config = ConfigSchema(
            entities={"user": EntitySchema(), "item": EntitySchema()},
            relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
            dimension=16, num_epochs=6, batch_size=500, chunk_size=50,
            lr=0.1,
        )
        entities = EntityStorage({"user": 2000, "item": 60})
        model = EmbeddingModel(config, entities)
        Trainer(config, model, entities).train(edges)
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(
            edges[:500], num_candidates=None, both_sides=False,
            rng=np.random.default_rng(0),
        )
        # Ranking over all 60 items; category structure should place the
        # true item well above the 30 wrong-category items on average.
        assert m.mr < 25


class TestFeaturizedPipeline:
    def test_featurized_entity_type_trains(self):
        """Items are bags of tag-features; the feature table learns."""
        rng = np.random.default_rng(3)
        n_users, n_items, n_tags = 300, 40, 15
        item_tags = [
            list(rng.choice(n_tags, size=2, replace=False))
            for _ in range(n_items)
        ]
        config = ConfigSchema(
            entities={
                "user": EntitySchema(),
                "item": EntitySchema(featurized=True),
            },
            relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
            dimension=16, num_epochs=5, batch_size=200, chunk_size=50,
            lr=0.1,
        )
        entities = EntityStorage({"user": n_users, "item": n_items})
        model = EmbeddingModel(config, entities)
        table = FeaturizedEmbeddingTable.create(
            item_tags, n_tags, 16, rng
        )
        model.set_table("item", 0, table)
        before = table.feature_weights.copy()

        src = rng.integers(0, n_users, 3000)
        dst = rng.integers(0, n_items, 3000)
        from repro.graph.edgelist import EdgeList

        edges = EdgeList(src, np.zeros(3000, dtype=np.int64), dst)
        Trainer(config, model, entities).train(edges)
        assert not np.allclose(table.feature_weights, before)
        emb = model.global_embeddings("item")
        assert emb.shape == (n_items, 16)


class TestCheckpointResume:
    def test_checkpoint_and_resume_equivalent_scores(self, tmp_path):
        from repro.core.tables import DenseEmbeddingTable
        from repro.graph.storage import CheckpointStorage

        g = social_network(200, 2000, seed=4)
        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(
                    name="f", lhs="node", rhs="node", operator="translation"
                )
            ],
            dimension=16, num_epochs=3, batch_size=200, chunk_size=50,
        )
        entities = EntityStorage({"node": 200})
        model = EmbeddingModel(config, entities)
        Trainer(config, model, entities).train(g.edges)

        ckpt = CheckpointStorage(tmp_path)
        ckpt.save_config(config.to_json())
        t = model.get_table("node", 0)
        ckpt.partitions.save("node", 0, t.weights, t.optimizer.state)
        ckpt.save_shared(model.get_shared_params())

        config2 = ConfigSchema.from_json(ckpt.load_config())
        model2 = EmbeddingModel(config2, EntityStorage({"node": 200}))
        emb, state = ckpt.partitions.load("node", 0)
        model2.set_table("node", 0, DenseEmbeddingTable(emb, state))
        model2.set_shared_params(ckpt.load_shared())

        ev1 = LinkPredictionEvaluator(model)
        ev2 = LinkPredictionEvaluator(model2)
        m1 = ev1.evaluate(
            g.edges[:200], num_candidates=50, rng=np.random.default_rng(0)
        )
        m2 = ev2.evaluate(
            g.edges[:200], num_candidates=50, rng=np.random.default_rng(0)
        )
        assert m1.mrr == pytest.approx(m2.mrr, abs=1e-4)


@pytest.mark.slow
class TestPartitionedVsDistributedParity:
    def test_three_training_modes_similar_quality(self, tmp_path):
        """Unpartitioned, partitioned-with-swap, and 2-machine
        distributed training land in the same quality band."""
        g = social_network(600, 7000, seed=5)
        train, test = split_with_coverage(
            g.edges, [0.8, 0.2], np.random.default_rng(5)
        )
        mrrs = {}

        def make_config(nparts, machines):
            return ConfigSchema(
                entities={"node": EntitySchema(num_partitions=nparts)},
                relations=[
                    RelationSchema(
                        name="f", lhs="node", rhs="node",
                        operator="translation",
                    )
                ],
                dimension=32, num_epochs=6, batch_size=500, chunk_size=50,
                lr=0.1, num_machines=machines, seed=11,
            )

        # Unpartitioned single machine.
        cfg = make_config(1, 1)
        ents = EntityStorage({"node": 600})
        model = EmbeddingModel(cfg, ents)
        Trainer(cfg, model, ents).train(train)
        mrrs["1p"] = LinkPredictionEvaluator(model).evaluate(
            test[:500], num_candidates=100, rng=np.random.default_rng(0)
        ).mrr

        # 4 partitions with disk swap.
        cfg = make_config(4, 1)
        ents = EntityStorage({"node": 600})
        ents.set_partitioning(
            "node", partition_entities(600, 4, np.random.default_rng(5))
        )
        model = EmbeddingModel(cfg, ents)
        storage = PartitionedEmbeddingStorage(tmp_path)
        Trainer(cfg, model, ents, storage).train(train)
        from repro.core.tables import DenseEmbeddingTable

        for p in range(4):
            if not model.has_table("node", p):
                model.set_table(
                    "node", p, DenseEmbeddingTable(*storage.load("node", p))
                )
        mrrs["4p"] = LinkPredictionEvaluator(model).evaluate(
            test[:500], num_candidates=100, rng=np.random.default_rng(0)
        ).mrr

        # 2 machines, 4 partitions.
        cfg = make_config(4, 2)
        ents = EntityStorage({"node": 600})
        ents.set_partitioning(
            "node", partition_entities(600, 4, np.random.default_rng(5))
        )
        model, _ = DistributedTrainer(cfg, ents).train(train)
        mrrs["2m"] = LinkPredictionEvaluator(model).evaluate(
            test[:500], num_candidates=100, rng=np.random.default_rng(0)
        ).mrr

        assert mrrs["1p"] > 0.08
        assert mrrs["4p"] > 0.6 * mrrs["1p"]
        assert mrrs["2m"] > 0.6 * mrrs["1p"]


class TestFailureInjection:
    def test_corrupt_partition_file_raises(self, tmp_path):
        """A corrupt swap file stops training, serial or pipelined, with
        a typed error instead of being re-initialised as random rows
        (which would silently discard that partition's training), and is
        left as it was. Only a missing file means "initialise it"."""
        g = social_network(200, 1500, seed=6)
        entities = EntityStorage({"node": 200})
        entities.set_partitioning(
            "node", partition_entities(200, 2, np.random.default_rng(0))
        )
        for pipeline in (False, True):
            config = ConfigSchema(
                entities={"node": EntitySchema(num_partitions=2)},
                relations=[RelationSchema(name="f", lhs="node", rhs="node")],
                dimension=8, num_epochs=1, batch_size=100, chunk_size=20,
                pipeline=pipeline,
            )
            root = tmp_path / str(pipeline)
            storage = PartitionedEmbeddingStorage(root)
            model = EmbeddingModel(config, entities)
            Trainer(config, model, entities, storage).train(g.edges)
            assert storage.stored_partitions("node") == [0, 1]
            path = storage.path("node", 0)
            path.write_bytes(b"junk")
            retrain = Trainer(
                config, EmbeddingModel(config, entities), entities, storage
            )
            with pytest.raises(StorageError, match="corrupt") as info:
                retrain.train(g.edges)
            assert not isinstance(info.value, PartitionAbsent)
            assert path.read_bytes() == b"junk"

    def test_isolated_nodes_are_harmless(self):
        """Nodes with no edges simply keep their random embeddings."""
        from repro.graph.edgelist import EdgeList

        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[RelationSchema(name="f", lhs="node", rhs="node")],
            dimension=8, num_epochs=2, batch_size=50, chunk_size=10,
            num_batch_negs=5, num_uniform_negs=5,
        )
        entities = EntityStorage({"node": 100})
        model = EmbeddingModel(config, entities)
        # Only nodes 0..9 have edges.
        edges = EdgeList.from_tuples(
            [(i, 0, (i + 1) % 10) for i in range(10)]
        )
        Trainer(config, model, entities).train(edges)
        emb = model.global_embeddings("node")
        assert np.isfinite(emb).all()
