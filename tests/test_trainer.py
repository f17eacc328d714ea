"""Tests for the single-machine partitioned trainer."""

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage


def _ring_graph(n=200, extra=1500, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(n)
    dst = (src + 1) % n
    es = rng.integers(0, n, extra)
    ed = (es + rng.integers(1, 4, extra)) % n
    src = np.concatenate([src, es])
    dst = np.concatenate([dst, ed])
    return EdgeList(src, np.zeros(len(src), dtype=np.int64), dst)


def _config(nparts=1, **kw):
    defaults = dict(
        dimension=16, num_epochs=4, batch_size=200, chunk_size=50,
        lr=0.1, num_batch_negs=10, num_uniform_negs=10,
    )
    defaults.update(kw)
    return ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(
                name="link", lhs="node", rhs="node", operator="translation"
            )
        ],
        **defaults,
    )


def _setup(nparts=1, n=200, tmp_path=None, seed=0, **kw):
    config = _config(nparts, **kw)
    entities = EntityStorage({"node": n})
    entities.set_partitioning(
        "node", partition_entities(n, nparts, np.random.default_rng(seed))
    )
    model = EmbeddingModel(config, entities, np.random.default_rng(seed))
    storage = (
        PartitionedEmbeddingStorage(tmp_path) if tmp_path is not None else None
    )
    trainer = Trainer(
        config, model, entities, storage, np.random.default_rng(seed)
    )
    return config, entities, model, trainer


class TestSingleMachine:
    def test_loss_decreases(self):
        _, _, _, trainer = _setup()
        stats = trainer.train(_ring_graph())
        assert stats.epochs[-1].mean_loss < stats.epochs[0].mean_loss

    def test_learns_ring_structure(self):
        """On a near-deterministic graph MRR must get high."""
        config, entities, model, trainer = _setup(num_epochs=10)
        edges = _ring_graph()
        trainer.train(edges)
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(
            edges[:500], num_candidates=100,
            rng=np.random.default_rng(0),
        )
        assert m.mrr > 0.35
        assert m.hits_at[10] > 0.7

    def test_stats_accounting(self):
        _, _, _, trainer = _setup(num_epochs=3)
        edges = _ring_graph()
        stats = trainer.train(edges)
        assert len(stats.epochs) == 3
        assert stats.total_edges == 3 * len(edges)
        assert stats.edges_per_second > 0
        assert stats.peak_resident_bytes > 0
        assert stats.total_time > 0

    def test_zero_epochs(self):
        _, _, _, trainer = _setup(num_epochs=0)
        stats = trainer.train(_ring_graph())
        assert stats.epochs == []

    def test_after_epoch_callback(self):
        _, _, _, trainer = _setup(num_epochs=3)
        calls = []
        trainer.train(
            _ring_graph(), after_epoch=lambda e, s: calls.append(e)
        )
        assert calls == [0, 1, 2]

    def test_multiworker_trains(self):
        _, _, model, trainer = _setup(num_epochs=3, num_workers=4)
        stats = trainer.train(_ring_graph())
        assert stats.epochs[-1].mean_loss < stats.epochs[0].mean_loss


class TestPartitionedTraining:
    def test_requires_storage(self):
        config = _config(nparts=4)
        entities = EntityStorage({"node": 200})
        entities.set_partitioning(
            "node", partition_entities(200, 4, np.random.default_rng(0))
        )
        model = EmbeddingModel(config, entities)
        with pytest.raises(ValueError, match="Storage"):
            Trainer(config, model, entities)

    def test_one_store_per_run(self, tmp_path):
        """With a checkpoint directory the run's partition store is the
        checkpoint's own: a directory store rooted elsewhere is refused,
        and with none given the checkpoint holds every partition."""
        from repro.core.checkpointing import load_model

        kw = dict(nparts=4, num_epochs=2, checkpoint_dir=str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="one partition store"):
            _setup(tmp_path=tmp_path / "elsewhere", **kw)
        _, _, model, trainer = _setup(**kw)
        trainer.train(_ring_graph())
        assert len(model.resident_tables()) <= 2
        _, _, loaded, _ = load_model(tmp_path / "ckpt")
        assert sorted(loaded.resident_tables()) == [
            ("node", p) for p in range(4)
        ]
        for key in model.resident_tables():
            np.testing.assert_array_equal(
                loaded.get_table(*key).weights, model.get_table(*key).weights
            )

    def test_partitioned_swaps_to_disk(self, tmp_path):
        config, entities, model, trainer = _setup(
            nparts=4, tmp_path=tmp_path, num_epochs=2
        )
        stats = trainer.train(_ring_graph())
        assert stats.epochs[0].swaps > 0
        # At most two node partitions resident at any time.
        assert len(model.resident_tables()) <= 2
        storage = trainer.storage
        assert storage.stored_partitions("node") == [0, 1, 2, 3]

    def test_partitioned_quality_close_to_unpartitioned(self, tmp_path):
        """The paper's headline: partitioning barely hurts quality."""
        edges = _ring_graph(n=300, extra=3000)
        results = {}
        for nparts in (1, 4):
            config, entities, model, trainer = _setup(
                nparts=nparts, n=300,
                tmp_path=tmp_path / str(nparts) if nparts > 1 else None,
                num_epochs=8, seed=1,
            )
            trainer.train(edges)
            model_full = _load_full_model(
                config, entities, model, trainer
            )
            ev = LinkPredictionEvaluator(model_full)
            results[nparts] = ev.evaluate(
                edges[:800], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert results[4] > 0.6 * results[1]

    def test_partitioned_peak_memory_lower(self, tmp_path):
        edges = _ring_graph(n=400, extra=2000)
        peaks = {}
        for nparts in (1, 8):
            config, entities, model, trainer = _setup(
                nparts=nparts, n=400,
                tmp_path=tmp_path / str(nparts) if nparts > 1 else None,
                num_epochs=1,
            )
            stats = trainer.train(edges)
            peaks[nparts] = stats.peak_resident_bytes
        assert peaks[8] < 0.5 * peaks[1]

    def test_empty_bucket_is_skipped(self, tmp_path):
        """A sparse graph leaves some buckets empty; training proceeds."""
        config, entities, model, trainer = _setup(
            nparts=4, n=100, tmp_path=tmp_path, num_epochs=1
        )
        edges = EdgeList.from_tuples([(0, 0, 1), (1, 0, 2), (5, 0, 6)])
        stats = trainer.train(edges)
        assert stats.epochs[0].num_edges == 3

    def test_resume_from_storage(self, tmp_path):
        """A second trainer on the same storage picks up the state."""
        edges = _ring_graph()
        config, entities, model, trainer = _setup(
            nparts=2, tmp_path=tmp_path, num_epochs=2
        )
        trainer.train(edges)
        table_after = trainer.storage.load("node", 0)[0].copy()

        config2, entities2, model2, trainer2 = _setup(
            nparts=2, tmp_path=tmp_path, num_epochs=0
        )
        # Trigger a swap-in of partition 0 via a 1-epoch run.
        trainer2.config = config2.replace(num_epochs=1)
        trainer2.train(edges)
        # The resumed run must have started from the stored weights, so
        # partition 0 on disk should differ from a fresh init (it moved)
        # but be correlated with the first run's final state.
        resumed = trainer2.storage.load("node", 0)[0]
        corr = np.corrcoef(table_after.ravel(), resumed.ravel())[0, 1]
        assert corr > 0.5


def _load_full_model(config, entities, model, trainer):
    """Make sure all partitions are resident for evaluation."""
    from repro.core.tables import DenseEmbeddingTable

    if trainer.storage is None:
        return model
    for part in range(entities.num_partitions("node")):
        if not model.has_table("node", part):
            emb, state = trainer.storage.load("node", part)
            model.set_table("node", part, DenseEmbeddingTable(emb, state))
    return model


class TestBucketOrders:
    @pytest.mark.parametrize(
        "order", ["inside_out", "outside_in", "chained", "random"]
    )
    def test_all_orders_train(self, tmp_path, order):
        config, entities, model, trainer = _setup(
            nparts=4, tmp_path=tmp_path, num_epochs=2, bucket_order=order
        )
        stats = trainer.train(_ring_graph())
        assert stats.epochs[-1].num_edges > 0


class TestInTrainingEval:
    def test_eval_fraction_records_mrr(self):
        _, _, _, trainer = _setup(num_epochs=4, eval_fraction=0.1)
        stats = trainer.train(_ring_graph())
        last = stats.epochs[-1]
        assert last.num_eval_edges > 0
        assert 0 <= last.eval_mrr_before <= 1
        assert 0 <= last.eval_mrr_after <= 1
        # Later epochs: the bucket's embeddings are already informative
        # before training it, and the final epoch's post-training eval
        # beats the first epoch's pre-training eval.
        assert last.eval_mrr_after > stats.epochs[0].eval_mrr_before

    def test_eval_edges_excluded_from_training(self):
        _, _, _, trainer = _setup(num_epochs=1, eval_fraction=0.25)
        edges = _ring_graph()
        stats = trainer.train(edges)
        trained = stats.epochs[0].num_edges
        held = stats.epochs[0].num_eval_edges
        assert trained + held == len(edges)
        assert held >= int(0.2 * len(edges))

    def test_zero_fraction_no_eval(self):
        _, _, _, trainer = _setup(num_epochs=1)
        stats = trainer.train(_ring_graph())
        assert stats.epochs[0].num_eval_edges == 0

    def test_partitioned_eval(self, tmp_path):
        _, _, _, trainer = _setup(
            nparts=4, tmp_path=tmp_path, num_epochs=2, eval_fraction=0.1
        )
        stats = trainer.train(_ring_graph())
        assert stats.epochs[-1].num_eval_edges > 0


class TestStratumPasses:
    """Paper footnote 3: sub-epoch bucket interleaving."""

    def test_all_edges_trained_exactly_once_per_epoch(self, tmp_path):
        _, _, _, trainer = _setup(
            nparts=2, tmp_path=tmp_path, num_epochs=1, stratum_passes=4
        )
        edges = _ring_graph()
        stats = trainer.train(edges)
        assert stats.epochs[0].num_edges == len(edges)

    def test_more_swaps_with_more_passes(self, tmp_path):
        swaps = {}
        for passes in (1, 3):
            _, _, _, trainer = _setup(
                nparts=4, tmp_path=tmp_path / str(passes), num_epochs=1,
                stratum_passes=passes,
            )
            stats = trainer.train(_ring_graph())
            swaps[passes] = stats.epochs[0].swaps
        assert swaps[3] > swaps[1]

    def test_quality_not_degraded(self, tmp_path):
        edges = _ring_graph(n=300, extra=3000)
        mrrs = {}
        for passes in (1, 4):
            config, entities, model, trainer = _setup(
                nparts=4, n=300, tmp_path=tmp_path / f"p{passes}",
                num_epochs=6, stratum_passes=passes, seed=1,
            )
            trainer.train(edges)
            model_full = _load_full_model(config, entities, model, trainer)
            ev = LinkPredictionEvaluator(model_full)
            mrrs[passes] = ev.evaluate(
                edges[:600], num_candidates=100,
                rng=np.random.default_rng(0),
            ).mrr
        assert mrrs[4] > 0.7 * mrrs[1]

    def test_invalid_passes_rejected(self):
        with pytest.raises(ValueError, match="stratum_passes"):
            _config(stratum_passes=0)


def _train_batch_chunk_by_chunk(self, bucket, batch, rng):
    """The reference the batch step replaced: one update per chunk."""
    from repro.core.batching import iterate_chunks
    from repro.core.model import ChunkStats

    stats = ChunkStats()
    table = self.model.get_table("node", 0)
    for rel_id, chunk in iterate_chunks(batch, self.config.chunk_size):
        stats.merge(self.model.forward_backward_chunk(
            rel_id, chunk.src, chunk.dst, table, table, rng,
            edge_weights=chunk.weights,
        ))
    return stats


def test_one_update_per_batch_learns_like_one_per_chunk(monkeypatch):
    """Quality guard at the benchmark's training shape (batch 1000 as
    ten chunks of 100, 50 + 50 negatives, cos, d = 64): ten times fewer
    Adagrad steps must not cost held-out MRR. Seeds are fixed; the two
    runs differ by ~1 %."""
    from repro.config import single_entity_config
    from repro.core.trainer import BucketExecutor
    from repro.datasets.social import livejournal_like

    graph = livejournal_like(2000)
    train, test = graph.edges.split([0.9, 0.1], np.random.default_rng(1))
    mrr = {}
    for stepping in ("batch", "chunk"):
        if stepping == "chunk":
            monkeypatch.setattr(
                BucketExecutor, "_train_batch", _train_batch_chunk_by_chunk
            )
        config = single_entity_config(
            comparator="cos", dimension=64, num_epochs=5, batch_size=1000,
            chunk_size=100, num_batch_negs=50, num_uniform_negs=50, seed=1,
        )
        entities = EntityStorage({"node": graph.num_nodes})
        model = EmbeddingModel(config, entities, np.random.default_rng(1))
        Trainer(
            config, model, entities, rng=np.random.default_rng(1)
        ).train(train)
        mrr[stepping] = LinkPredictionEvaluator(model).evaluate(
            test, num_candidates=1000, rng=np.random.default_rng(0)
        ).mrr
    assert mrr["chunk"] > 0.04  # a random ranking of 1000 scores ~0.0075
    assert mrr["batch"] == pytest.approx(mrr["chunk"], rel=0.05)
