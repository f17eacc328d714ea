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
        """The serial reference run is the pipeline at budget 0: every
        partition load and save happens on the thread that called
        ``train``, and no writeback or prefetch thread is started."""
        started = record_thread_starts(monkeypatch)
        io_threads = []

        class Recording(PartitionedEmbeddingStorage):
            def load(self, entity_type, part):
                io_threads.append(threading.current_thread())
                return super().load(entity_type, part)

            def save(self, entity_type, part, *arrays, **kw):
                io_threads.append(threading.current_thread())
                super().save(entity_type, part, *arrays, **kw)

        train_run(
            tmp_path, pipeline=False, num_partitions=4,
            storage_cls=Recording,
        )
        assert io_threads
        assert set(io_threads) == {threading.current_thread()}
        # A training lane may start; no partition I/O thread does.
        assert not [
            name for name in started if "writeback" in name or "prefetch" in name
        ]


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
        """The serial run reports zero hits and zero waits. Its cache
        holds zero bytes, so every swap-in is a miss and every eviction
        is a cache eviction."""
        _, stats, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4
        )
        _, piped, _ = train_run(tmp_path, pipeline=True, num_partitions=4)
        p = stats.pipeline
        assert p.prefetch_hits == 0
        # Both runs swap the same partitions in.
        assert p.prefetch_misses == (
            piped.pipeline.prefetch_hits + piped.pipeline.prefetch_misses
        )
        assert p.prefetch_misses + p.cache_evictions == sum(
            e.swaps for e in stats.epochs
        )
        assert p.writeback_stall_time == p.prefetch_wait_time == 0.0


class SlowSaveStorage(PartitionedEmbeddingStorage):
    """Storage whose saves are slow enough to still be in flight when a
    checkpoint is requested (writeback always lags training here)."""

    def __init__(self, root, delay=0.05):
        super().__init__(root)
        self.delay = delay
        self.completed_saves = 0
        self._save_lock = threading.Lock()

    def save(self, entity_type, part, *arrays, **kw):
        time.sleep(self.delay)
        super().save(entity_type, part, *arrays, **kw)
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
            StorageError, match="partition write failed"
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

    def test_zero_budget_write_fails_in_its_park(self, tmp_path):
        """At budget 0 the write runs inside the park, so the park that
        submitted a failing write raises it, typed; the failure stays
        sticky, and nothing is left staged."""
        class BrokenStorage(PartitionedEmbeddingStorage):
            def save(self, *args, **kw):
                raise OSError("disk on fire")

        pipe = PartitionPipeline(BrokenStorage(tmp_path), budget_bytes=0)
        w, s = _part()
        failed = pytest.raises(StorageError, match="disk on fire")
        with failed:
            pipe.park("node", 0, w, s)
        assert pipe.nbytes() == 0
        with failed:
            pipe.persist("node", 1, w, s)
        with failed:
            pipe.close()

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_checkpointed_epoch_saves_each_partition_once(
        self, tmp_path, monkeypatch, pipeline
    ):
        """From the epoch-end flush to the end of the checkpoint, no
        partition is written twice: the resident ones go to the store
        once (the checkpoint's write), and every evicted one only by
        its own park."""
        from repro.core.trainer import BucketExecutor

        saves, marks = [], []
        save, flush = PartitionedEmbeddingStorage.save, BucketExecutor.flush

        def counting_save(self, entity_type, part, *arrays, **kw):
            saves.append((entity_type, part))
            return save(self, entity_type, part, *arrays, **kw)

        def marking_flush(self, keep_resident):
            marks.append(len(saves))
            return flush(self, keep_resident)

        monkeypatch.setattr(PartitionedEmbeddingStorage, "save", counting_save)
        monkeypatch.setattr(BucketExecutor, "flush", marking_flush)
        config = single_entity_config(
            num_partitions=4, dimension=8, num_epochs=2, batch_size=200,
            chunk_size=50, pipeline=pipeline,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        entities = EntityStorage({"node": 200})
        entities.set_partitioning(
            "node", partition_entities(200, 4, np.random.default_rng(0))
        )
        model = EmbeddingModel(config, entities, np.random.default_rng(0))
        trainer = Trainer(config, model, entities, rng=np.random.default_rng(0))
        ends = []
        trainer.train(make_edges(), after_epoch=lambda e, s: ends.append(
            (len(saves), set(model.resident_tables()))
        ))
        assert len(marks) == len(ends) == 2
        for start, (end, resident) in zip(marks, ends):
            window = saves[start:end]
            assert len(window) == len(set(window)), window
            assert resident <= set(window)

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
        hooks.install_ownership_tracker(None)
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
        """Budget 0 starts no thread, and each of its writes has landed
        when the park that made it returns; any other budget starts one
        thread per pool."""
        started = record_thread_starts(monkeypatch)
        storage = PartitionedEmbeddingStorage(tmp_path)
        storage.save("node", 9, *_part())
        for budget in (0, None):
            pipe = PartitionPipeline(storage, budget_bytes=budget, name="counted")
            for part in range(3):
                pipe.park("node", part, *_part())
                if budget == 0:
                    assert storage.exists("node", part)
            pipe.drain()
            for part in range(3):
                pipe.take("node", part)
            pipe.schedule([("node", 9)])
            pipe.settle()
            pipe.close()
            if budget == 0:
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
        """The inline save of budget 0 must hand the backend the
        dirty-row hint the park carries, or a delta-capable backend
        gets a full push; a hint-less park must not grow one."""

        class RecordingBackend:
            def __init__(self):
                self.saves = []

            def save(self, entity_type, part, embeddings, optim_state,
                     **kwargs):
                self.saves.append((part, kwargs))

        backend = RecordingBackend()
        pipe = PartitionPipeline(backend, budget_bytes=0)
        rows = np.array([1, 3])
        pipe.park("node", 0, *_part(), dirty_rows=rows)
        pipe.park("node", 1, *_part())
        assert [part for part, _ in backend.saves] == [0, 1]
        assert backend.saves[0][1]["dirty_rows"] is rows
        assert backend.saves[1][1] == {"dirty_rows": None}

    def test_synchronous_mode_is_inline_and_threadless(self, tmp_path):
        """Budget 0: park lands (and reports) before it returns,
        persist writes inline, take reads the backend,
        schedule/settle/drain find nothing to do — all on the calling
        thread, with no worker thread behind it."""
        calls = []

        class Recording(PartitionedEmbeddingStorage):
            def load(self, entity_type, part):
                calls.append(("load", part, threading.current_thread()))
                return super().load(entity_type, part)

            def save(self, entity_type, part, *arrays, **kw):
                calls.append(("save", part, threading.current_thread()))
                super().save(entity_type, part, *arrays, **kw)

        before = set(threading.enumerate())
        pipe = PartitionPipeline(Recording(tmp_path), budget_bytes=0)
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
        store.path("node", 1).write_bytes(b"junk")
        return store

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_take(self, store, synchronous):
        pipe = PartitionPipeline(
            store, budget_bytes=0 if synchronous else None
        )
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
            PartitionServerStorage(PartitionServer(1)), budget_bytes=0
        )
        with pytest.raises(PartitionAbsent):
            pipe.storage.load("node", 0)
        assert pipe.take("node", 0) == (None, False)
