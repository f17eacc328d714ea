"""Tests for pipelined bucket training (prefetch + cache + writeback).

The load-bearing property is *bit-identical equivalence*: under a fixed
seed the pipelined trainer must produce exactly the embeddings and
optimizer state of the serial path, because prefetching only moves disk
reads off the critical path and never perturbs RNG consumption order.
"""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import hooks
from repro.config import single_entity_config
from repro.core.checkpointing import save_model
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.core.trainer import PipelineStats, Trainer
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import (
    PartitionAbsent,
    PartitionPipeline,
    PartitionedEmbeddingStorage,
    StorageError,
)
from repro.stats.memory import MemoryModel
from tests.helpers import counts, record_thread_starts


def make_edges(num_nodes=200, num_edges=3000, seed=42) -> EdgeList:
    rng = np.random.default_rng(seed)
    return EdgeList(
        rng.integers(0, num_nodes, num_edges, dtype=np.int64),
        np.zeros(num_edges, dtype=np.int64),
        rng.integers(0, num_nodes, num_edges, dtype=np.int64),
    )


def train_run(
    tmp_path,
    *,
    pipeline: bool,
    num_partitions: int,
    budget=None,
    num_nodes=200,
    num_epochs=2,
    seed=0,
    storage_cls=PartitionedEmbeddingStorage,
    checkpoint_dir=None,
    **config_kw,
):
    """Train a small homogeneous graph; returns (model, stats, storage)."""
    config = single_entity_config(
        num_partitions=num_partitions,
        dimension=8,
        num_epochs=num_epochs,
        batch_size=200,
        chunk_size=50,
        seed=seed,
        pipeline=pipeline,
        partition_cache_budget=budget,
        checkpoint_dir=checkpoint_dir,
        **config_kw,
    )
    entities = EntityStorage({"node": num_nodes})
    if num_partitions > 1:
        entities.set_partitioning(
            "node",
            partition_entities(
                num_nodes, num_partitions, np.random.default_rng(seed)
            ),
        )
    model = EmbeddingModel(config, entities, np.random.default_rng(seed))
    # A run has one partition store: the checkpoint's, when it has one.
    store_root = (
        tmp_path / ("pipe" if pipeline else "serial")
        if checkpoint_dir is None
        else Path(checkpoint_dir) / "embeddings"
    )
    storage = storage_cls(store_root) if num_partitions > 1 else None
    trainer = Trainer(
        config, model, entities, storage, np.random.default_rng(seed)
    )
    stats = trainer.train(make_edges(num_nodes), )
    # Reload evicted partitions so the full model is comparable.
    if storage is not None:
        for p in range(num_partitions):
            if not model.has_table("node", p):
                w, s = storage.load("node", p)
                model.set_table("node", p, DenseEmbeddingTable(w, s))
    return model, stats, storage


class TestEquivalence:
    @pytest.mark.parametrize("num_partitions", [1, 4])
    def test_bit_identical_embeddings(self, tmp_path, num_partitions):
        serial, _, _ = train_run(
            tmp_path, pipeline=False, num_partitions=num_partitions
        )
        piped, _, _ = train_run(
            tmp_path, pipeline=True, num_partitions=num_partitions
        )
        np.testing.assert_array_equal(
            serial.global_embeddings("node"), piped.global_embeddings("node")
        )
        for p in range(num_partitions):
            np.testing.assert_array_equal(
                serial.get_table("node", p).optimizer.state,
                piped.get_table("node", p).optimizer.state,
            )

    def test_bit_identical_with_zero_cache_budget(self, tmp_path):
        """budget=0 disables retention but must not affect results."""
        serial, _, _ = train_run(tmp_path, pipeline=False, num_partitions=4)
        piped, stats, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4, budget=0
        )
        np.testing.assert_array_equal(
            serial.global_embeddings("node"), piped.global_embeddings("node")
        )
        # Nothing can be retained, so nothing can be served from memory.
        assert stats.pipeline.prefetch_hits == 0
        assert stats.pipeline.cache_evictions > 0

    def test_bit_identical_with_stratum_passes(self, tmp_path):
        serial, _, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4, stratum_passes=2
        )
        piped, _, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4, stratum_passes=2
        )
        np.testing.assert_array_equal(
            serial.global_embeddings("node"), piped.global_embeddings("node")
        )

    def test_same_loss_and_swap_trajectory(self, tmp_path):
        _, s_serial, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4
        )
        _, s_piped, _ = train_run(tmp_path, pipeline=True, num_partitions=4)
        for e_s, e_p in zip(s_serial.epochs, s_piped.epochs):
            assert e_s.loss == e_p.loss
            assert e_s.num_edges == e_p.num_edges
            # Identical evict/load decisions as the serial path.
            assert e_s.swaps == e_p.swaps

    def test_pipeline_flag_ignored_when_unpartitioned(self, tmp_path):
        """pipeline=True with one partition needs no storage at all."""
        model, stats, _ = train_run(
            tmp_path, pipeline=True, num_partitions=1
        )
        assert stats.pipeline.prefetch_hits == 0
        assert stats.pipeline.prefetch_misses == 0
        assert model.global_embeddings("node").shape == (200, 8)


    def test_serial_run_is_inline_and_threadless(self, tmp_path, monkeypatch):
        """The serial reference run is the pipeline's synchronous mode:
        every partition load and save happens on the thread that called
        ``train``, and no writeback or prefetch thread is started."""
        started = record_thread_starts(monkeypatch)
        io_threads = []

        class Recording(PartitionedEmbeddingStorage):
            def load(self, entity_type, part):
                io_threads.append(threading.current_thread())
                return super().load(entity_type, part)

            def save(self, entity_type, part, embeddings, optim_state):
                io_threads.append(threading.current_thread())
                super().save(entity_type, part, embeddings, optim_state)

        train_run(
            tmp_path, pipeline=False, num_partitions=4,
            storage_cls=Recording,
        )
        assert io_threads
        assert set(io_threads) == {threading.current_thread()}
        assert started == []


class TestCacheAccounting:
    def test_inside_out_cache_hits(self, tmp_path):
        """With an unlimited budget every partition stays in memory
        after its first epoch, so epoch >= 1 swap-ins are all hits."""
        _, stats, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4,
            bucket_order="inside_out", num_epochs=3,
        )
        first, *rest = stats.epochs
        # Epoch 0: first-touch initialisations are misses by definition,
        # but inside-out's (n, m), (m, n) pairing still re-serves
        # evicted partitions from the cache.
        assert first.pipeline.prefetch_misses == 4  # one init per partition
        assert first.pipeline.prefetch_hits > 0
        for epoch_stats in rest:
            assert epoch_stats.pipeline.prefetch_misses == 0
            assert epoch_stats.pipeline.prefetch_hits > 0
        assert stats.pipeline.hit_rate > 0.5

    def test_per_epoch_stats_sum_to_run_total(self, tmp_path):
        _, stats, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4, num_epochs=3
        )
        total = PipelineStats()
        for e in stats.epochs:
            total.merge(e.pipeline)
        assert stats.pipeline.prefetch_hits == total.prefetch_hits
        assert stats.pipeline.prefetch_misses == total.prefetch_misses

    def test_serial_mode_reports_zero_pipeline_stats(self, tmp_path):
        _, stats, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4
        )
        p = stats.pipeline
        assert (p.prefetch_hits, p.prefetch_misses, p.cache_evictions) == (
            0, 0, 0,
        )
        assert p.writeback_stall_time == 0.0


class SlowSaveStorage(PartitionedEmbeddingStorage):
    """Storage whose saves are slow enough to still be in flight when a
    checkpoint is requested (writeback always lags training here)."""

    def __init__(self, root, delay=0.05):
        super().__init__(root)
        self.delay = delay
        self.completed_saves = 0
        self._save_lock = threading.Lock()

    def save(self, entity_type, part, embeddings, optim_state):
        time.sleep(self.delay)
        super().save(entity_type, part, embeddings, optim_state)
        with self._save_lock:
            self.completed_saves += 1


class GatedStorage(PartitionedEmbeddingStorage):
    """Saves block until ``gate`` is set (at most 5 s)."""

    def __init__(self, root):
        super().__init__(root)
        self.gate = threading.Event()
        self.saved_parts = []

    def save(self, entity_type, part, *arrays, **kw):
        self.gate.wait(5.0)
        super().save(entity_type, part, *arrays, **kw)
        self.saved_parts.append(part)


def _live_threads(name):
    """Names of the live worker threads of the pipeline called ``name``."""
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith(name)
    )


class TestWritebackDurability:
    def test_checkpoint_drains_inflight_writebacks(self, tmp_path):
        """Training with slow async saves + per-epoch checkpoints: the
        checkpoint barrier must drain the queue, so after training every
        partition's stored bytes equal the final in-memory state."""
        model, stats, storage = train_run(
            tmp_path, pipeline=True, num_partitions=4, num_epochs=1,
            storage_cls=SlowSaveStorage,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert storage.stored_partitions("node") == [0, 1, 2, 3]
        for p in range(4):
            table = model.get_table("node", p)
            disk_w, disk_s = storage.load("node", p)
            np.testing.assert_array_equal(disk_w, table.weights)
            np.testing.assert_array_equal(disk_s, table.optimizer.state)

    def test_save_model_barrier_runs_before_write(self, tmp_path):
        """save_model(barrier=...) must invoke the barrier before
        persisting anything — simulating the crash-consistency
        contract: a checkpoint is only declared after the drain."""
        store = SlowSaveStorage(tmp_path / "swap", delay=0.2)
        pipe = PartitionPipeline(store)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((6, 4)).astype(np.float32)
        s = rng.random(6).astype(np.float32)
        pipe.persist("node", 0, w, s)
        # The write is still in flight: nothing on disk yet.
        assert not store.exists("node", 0)

        config = single_entity_config(num_partitions=1)
        entities = EntityStorage({"node": 6})
        model = EmbeddingModel(config, entities, np.random.default_rng(0))
        model.init_partition("node", 0, np.random.default_rng(0))
        events = []
        save_model(
            tmp_path / "ckpt", model, entities,
            barrier=lambda: events.append(pipe.drain()),
        )
        assert len(events) == 1  # barrier ran
        assert store.exists("node", 0)  # ...and drained the queue
        np.testing.assert_array_equal(store.load("node", 0)[0], w)
        pipe.close()

    def test_failed_write_is_sticky(self, tmp_path):
        """The first failed background write surfaces, typed, on the
        drain and on every later call; the writes queued behind it are
        abandoned, and close() still stops both threads."""
        attempts = []

        class BrokenStorage(GatedStorage):
            def save(self, entity_type, part, *arrays, **kw):
                self.gate.wait(5.0)
                attempts.append(part)
                raise OSError("disk on fire")

        pipe = PartitionPipeline(
            BrokenStorage(tmp_path / "swap"), name="sticky"
        )
        w, s = np.zeros((2, 2), np.float32), np.zeros(2, np.float32)
        pipe.park("node", 0, w, s)
        pipe.persist("node", 1, w, s)  # queued behind the failing write
        pipe.storage.gate.set()
        failed = pytest.raises(
            StorageError, match="background partition write"
        )
        with failed:
            pipe.drain()
        with failed:
            pipe.park("node", 2, w, s)
        with failed:
            pipe.persist("node", 3, w, s)
        with failed:
            pipe.take("node", 0)
        with failed:
            pipe.drain()
        with failed:
            pipe.close()
        assert attempts == [0]
        assert _live_threads("sticky") == []

    def test_flush_before_reuse_blocks_on_pending_write(self, tmp_path):
        """take() of a parked partition with an in-flight write must
        not return until the write lands (the caller will mutate the
        arrays)."""
        store = SlowSaveStorage(tmp_path / "swap", delay=0.15)
        pipe = PartitionPipeline(store)
        w = np.ones((4, 2), np.float32)
        s = np.ones(4, np.float32)
        pipe.park("node", 0, w, s)
        got, from_staged = pipe.take("node", 0)  # blocks on the save
        assert from_staged and got[0] is w
        assert store.completed_saves == 1
        assert counts(pipe.metrics)["pipeline.writeback_stall_time"] > 0.0
        pipe.close()

    def test_take_returns_after_on_flushed(self, tmp_path):
        """The land is reported before the write counts as done: when
        take() hands a parked partition back, its ``on_flushed`` (the
        lock-server commit, in a cluster) has already run."""
        store = GatedStorage(tmp_path / "swap")
        pipe = PartitionPipeline(store)
        events = []
        pipe.park(
            "node", 0, *_part(),
            on_flushed=lambda: (time.sleep(0.05), events.append("flushed")),
        )
        threading.Timer(0.05, store.gate.set).start()
        pipe.take("node", 0)
        events.append("taken")
        assert events == ["flushed", "taken"]
        pipe.close()

    def test_second_park_of_a_key_lands_last(self, tmp_path):
        """Writes of one key land in park order, so a partition parked
        again before its first write landed ends up in the backend with
        the second bytes (and is handed back out with them)."""
        # A double park is what the ownership tracker (armed suite-wide
        # under REPRO_LOCKDEP=1) exists to flag; no trainer does it,
        # and this test is about the bytes.
        hooks.uninstall_ownership_tracker()
        store = GatedStorage(tmp_path / "swap")
        pipe = PartitionPipeline(store)
        first, second = _part(seed=1), _part(seed=2)
        pipe.park("node", 0, *first)
        pipe.park("node", 0, *second)
        store.gate.set()
        pipe.drain()
        assert store.saved_parts == [0, 0]
        np.testing.assert_array_equal(store.load("node", 0)[0], second[0])
        got, from_staged = pipe.take("node", 0)
        assert from_staged and got[0] is second[0]
        pipe.close()


def _part(seed=0, n=8, d=4):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n, d)).astype(np.float32),
        rng.random(n).astype(np.float32),
    )


class TestPartitionPipeline:
    """Unit tests for the bundled prefetch/cache/writeback subsystem
    shared by the single-machine and distributed trainers."""

    def test_park_take_roundtrip(self, tmp_path):
        pipe = PartitionPipeline(PartitionedEmbeddingStorage(tmp_path))
        w, s = _part()
        pipe.park("node", 0, w, s)
        got, from_cache = pipe.take("node", 0)
        assert from_cache
        np.testing.assert_array_equal(got[0], w)
        pipe.close()

    def test_take_missing_returns_none(self, tmp_path):
        pipe = PartitionPipeline(PartitionedEmbeddingStorage(tmp_path))
        got, from_cache = pipe.take("node", 7)
        assert got is None and not from_cache
        pipe.close()

    def test_schedule_prefetch_hits_cache(self, tmp_path):
        storage = PartitionedEmbeddingStorage(tmp_path)
        storage.save("node", 0, *_part())
        pipe = PartitionPipeline(storage)
        assert pipe.schedule([("node", 0), ("node", 1)]) == 2
        pipe.settle()
        assert pipe.schedule([("node", 0)]) == 0  # already staged
        _, from_cache = pipe.take("node", 0)
        assert from_cache
        got, from_cache = pipe.take("node", 1)  # nothing stored
        assert got is None and not from_cache
        pipe.close()

    def test_one_thread_per_pool_and_none_when_synchronous(
        self, tmp_path, monkeypatch
    ):
        started = record_thread_starts(monkeypatch)
        storage = PartitionedEmbeddingStorage(tmp_path)
        storage.save("node", 9, *_part())
        for synchronous in (True, False):
            pipe = PartitionPipeline(
                storage, name="counted", synchronous=synchronous
            )
            for part in range(3):
                pipe.park("node", part, *_part())
            pipe.drain()
            for part in range(3):
                pipe.take("node", part)
            pipe.schedule([("node", 9)])
            pipe.settle()
            pipe.close()
            if synchronous:
                assert started == []
        assert sorted(started) == [
            "counted-prefetch_0", "counted-writeback_0",
        ]

    def test_schedule_noop_at_zero_budget(self, tmp_path):
        storage = PartitionedEmbeddingStorage(tmp_path)
        storage.save("node", 0, *_part())
        pipe = PartitionPipeline(storage, budget_bytes=0)
        assert pipe.schedule([("node", 0)]) == 0
        pipe.close()

    def test_stale_hit_falls_back_to_backend(self, tmp_path):
        """A cache hit the validator rejects must be discarded and
        re-read from the backend (the distributed staleness path)."""
        storage = PartitionedEmbeddingStorage(tmp_path)
        fresh_w, fresh_s = _part(seed=9)
        stale_w, stale_s = _part(seed=1)
        storage.save("node", 0, stale_w, stale_s)
        pipe = PartitionPipeline(
            storage, validate=lambda et, p: False
        )
        pipe.schedule([("node", 0)])
        pipe.settle()  # the stale copy is staged ...
        storage.save("node", 0, fresh_w, fresh_s)  # ... then superseded
        got, from_cache = pipe.take("node", 0)
        assert not from_cache
        assert counts(pipe.metrics)["pipeline.stale_prefetches"] == 1
        np.testing.assert_array_equal(got[0], fresh_w)
        pipe.close()

    def test_on_flushed_fires_once_after_land(self, tmp_path):
        pipe = PartitionPipeline(PartitionedEmbeddingStorage(tmp_path))
        events = []
        w, s = _part()
        pipe.park("node", 0, w, s, on_flushed=lambda: events.append(0))
        pipe.drain()
        pipe.drain()  # nothing outstanding; must not re-fire
        assert events == [0]
        pipe.close()

    def test_on_flushed_fires_on_budget_eviction(self, tmp_path):
        """A park evicted by the byte budget reports its land before
        the entry is dropped — the distributed lock deferral relies on
        it — and exactly once."""
        storage = PartitionedEmbeddingStorage(tmp_path)
        events = []
        pipe = PartitionPipeline(storage, budget_bytes=0)
        w, s = _part()
        pipe.park("node", 0, w, s, on_flushed=lambda: events.append(0))
        assert events == [0]
        assert storage.exists("node", 0)
        assert pipe.nbytes() == 0
        assert counts(pipe.metrics)["pipeline.cache_evictions"] == 1
        pipe.drain()
        assert events == [0]
        pipe.close()

    def test_synchronous_park_forwards_dirty_rows(self):
        """The inline save of synchronous mode must hand the backend
        the dirty-row hint the park carries, or a delta-capable backend
        gets a full push; a hint-less park must not grow one."""

        class RecordingBackend:
            def __init__(self):
                self.saves = []

            def save(self, entity_type, part, embeddings, optim_state,
                     **kwargs):
                self.saves.append((part, kwargs))

        backend = RecordingBackend()
        pipe = PartitionPipeline(backend, synchronous=True)
        rows = np.array([1, 3])
        pipe.park("node", 0, *_part(), dirty_rows=rows)
        pipe.park("node", 1, *_part())
        assert [part for part, _ in backend.saves] == [0, 1]
        assert backend.saves[0][1]["dirty_rows"] is rows
        assert backend.saves[1][1] == {}

    def test_synchronous_mode_is_inline_and_threadless(self, tmp_path):
        """``synchronous=True``: park lands (and reports) before it
        returns, persist writes inline, take reads the backend,
        schedule/settle/drain find nothing to do — all on the calling
        thread, with no worker thread behind it."""
        calls = []

        class Recording(PartitionedEmbeddingStorage):
            def load(self, entity_type, part):
                calls.append(("load", part, threading.current_thread()))
                return super().load(entity_type, part)

            def save(self, entity_type, part, embeddings, optim_state):
                calls.append(("save", part, threading.current_thread()))
                super().save(entity_type, part, embeddings, optim_state)

        before = set(threading.enumerate())
        pipe = PartitionPipeline(
            Recording(tmp_path), budget_bytes=None, synchronous=True
        )
        events = []
        w, s = _part()
        pipe.park("node", 0, w, s, on_flushed=lambda: events.append(0))
        assert events == [0] and pipe.storage.exists("node", 0)
        assert pipe.nbytes() == 0  # nothing retained
        pipe.persist("node", 1, w, s)
        assert pipe.storage.exists("node", 1)
        assert pipe.schedule([("node", 0)]) == 0
        assert pipe.settle() == 0.0
        got, from_cache = pipe.take("node", 0)
        assert not from_cache
        np.testing.assert_array_equal(got[0], w)
        pipe.drain()
        me = threading.current_thread()
        assert [(op, part) for op, part, _ in calls] == [
            ("save", 0), ("save", 1), ("load", 0),
        ]
        assert all(thread is me for _, _, thread in calls)
        assert set(threading.enumerate()) == before
        pipe.close()


class TestMemoryModel:
    def _setup(self, budget):
        config = single_entity_config(
            num_partitions=4, dimension=8,
            pipeline=True, partition_cache_budget=budget,
        )
        entities = EntityStorage({"node": 400})
        entities.set_partitioning(
            "node", partition_entities(400, 4, np.random.default_rng(0))
        )
        return MemoryModel(config, entities)

    def test_unlimited_budget_caps_at_all_partitions(self):
        mm = self._setup(None)
        all_parts = sum(mm.partition_bytes("node", p) for p in range(4))
        assert mm.partition_cache_peak_bytes() == all_parts
        assert mm.pipelined_peak_bytes() == (
            mm.single_machine_peak_bytes() + all_parts
        )

    def test_budget_zero_matches_serial_footprint(self):
        mm = self._setup(0)
        assert mm.pipelined_peak_bytes() == mm.single_machine_peak_bytes()

    def test_finite_budget_is_respected(self):
        budget = 100
        mm = self._setup(budget)
        assert mm.partition_cache_peak_bytes() == budget

    def test_trainer_peak_includes_cache(self, tmp_path):
        _, serial_stats, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4
        )
        _, piped_stats, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4
        )
        # The pipelined run reports cache bytes in its peak, so it is
        # at least as large as the serial peak.
        assert (
            piped_stats.peak_resident_bytes
            >= serial_stats.peak_resident_bytes
        )


class TestNoDoublePush:
    """Nothing re-submits a write: the one submitted at park time is
    the only one a partition gets, however often the barrier runs."""

    def test_no_double_version_on_server_backend(self, tmp_path):
        """End-to-end on the versioned backend: park + drain + drain
        must land exactly one server version, or every other machine's
        delta baseline is spuriously invalidated."""
        from repro.distributed.partition_server import (
            PartitionServer,
            PartitionServerStorage,
        )

        server = PartitionServer(1)
        pipe = PartitionPipeline(PartitionServerStorage(server))
        w = np.ones((4, 2), np.float32)
        s = np.ones(4, np.float32)
        pipe.park("node", 0, w, s)
        pipe.drain()
        pipe.drain()  # the entry is clean now; nothing to do
        assert server.version("node", 0) == 1
        pipe.close()


class TestAbsentIsNotCorrupt:
    """Only a partition the backend does not have comes back as None
    ("initialise it"); unusable stored bytes raise, whichever thread
    read them."""

    @pytest.fixture
    def store(self, tmp_path):
        store = PartitionedEmbeddingStorage(tmp_path / "swap")
        store.save("node", 0, np.ones((3, 2), np.float32),
                   np.zeros(3, np.float32))
        (tmp_path / "swap" / "node" / "part-00001.npz").write_bytes(b"junk")
        return store

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_take(self, store, synchronous):
        pipe = PartitionPipeline(store, synchronous=synchronous)
        assert pipe.take("node", 2) == (None, False)
        with pytest.raises(StorageError, match="corrupt") as info:
            pipe.take("node", 1)
        assert not isinstance(info.value, PartitionAbsent)
        got, _ = pipe.take("node", 0)
        np.testing.assert_array_equal(got[0], np.ones((3, 2)))
        pipe.close()

    def test_prefetch_raises_at_settle(self, store):
        pipe = PartitionPipeline(store, name="absent")
        assert pipe.schedule([("node", 2), ("node", 1)]) == 2
        with pytest.raises(StorageError, match="corrupt") as info:
            pipe.settle()
        assert not isinstance(info.value, PartitionAbsent)
        pipe.close()
        assert _live_threads("absent") == []

    def test_server_backend_absent_is_typed(self):
        from repro.distributed.partition_server import (
            PartitionServer,
            PartitionServerStorage,
        )

        pipe = PartitionPipeline(
            PartitionServerStorage(PartitionServer(1)), synchronous=True
        )
        with pytest.raises(PartitionAbsent):
            pipe.storage.load("node", 0)
        assert pipe.take("node", 0) == (None, False)
