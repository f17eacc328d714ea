"""Tests for the runtime race-detection harness (repro.analysis.lockdep).

Three layers: the lock-order cycle detector on seeded good/bad
acquisition patterns, the partition ownership state machine on legal
and illegal lifecycles, and an end-to-end stress test running real
pipelined (single-machine and distributed) training under full
instrumentation with the strict flag where a seeded schedule must come
out clean.
"""

import threading

import numpy as np
import pytest

from repro.analysis import hooks, lockdep
from repro.analysis.lockdep import (
    LockdepRegistry,
    LockOrderError,
    OwnershipError,
    PartitionOwnershipTracker,
)
from repro.config import (
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    single_entity_config,
)
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.distributed.cluster import DistributedTrainer
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage


class TestLockOrder:
    def test_consistent_order_is_clean(self):
        reg = LockdepRegistry()
        a = reg.make_lock("A")
        b = reg.make_lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        reg.assert_no_cycles()

    def test_ab_ba_cycle_detected(self):
        reg = LockdepRegistry()
        a = reg.make_lock("A")
        b = reg.make_lock("B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(LockOrderError, match="cycle"):
            reg.assert_no_cycles()

    def test_strict_raises_at_the_closing_edge(self):
        reg = LockdepRegistry(strict=True)
        a = reg.make_lock("A")
        b = reg.make_lock("B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_three_lock_cycle_detected(self):
        reg = LockdepRegistry()
        a, b, c = (reg.make_lock(n) for n in "ABC")
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
        with pytest.raises(LockOrderError):
            reg.assert_no_cycles()

    def test_reentrant_rlock_adds_no_self_edge(self):
        reg = LockdepRegistry()
        r = reg.make_rlock("R")
        with r:
            with r:
                pass
        assert reg.edges == {}
        reg.assert_no_cycles()

    def test_cross_thread_opposite_order_detected(self):
        """The canonical deadlock: two threads taking A/B in opposite
        orders — flagged even though this run never wedged."""
        reg = LockdepRegistry()
        a = reg.make_lock("A")
        b = reg.make_lock("B")
        barrier = threading.Barrier(2, timeout=10)

        def forward():
            with a:
                barrier.wait()
                with b:
                    pass

        def backward():
            barrier.wait()
            # Serialise after forward() has recorded A->B so the test
            # observes the edge deterministically, not a real deadlock.
            with a:
                pass
            with b:
                with a:
                    pass

        t1 = threading.Thread(target=forward)
        t2 = threading.Thread(target=backward)
        t1.start(), t2.start()
        t1.join(timeout=10), t2.join(timeout=10)
        with pytest.raises(LockOrderError):
            reg.assert_no_cycles()

    def test_condition_wait_releases_held_state(self):
        """Waiting on an instrumented condition must not pin a hold
        edge: another thread acquiring cv-then-other while the waiter
        sleeps holding (conceptually) cv must not create a false cycle."""
        reg = LockdepRegistry()
        cv = reg.make_condition(name="CV")
        other = reg.make_lock("OTHER")
        ready = threading.Event()

        def waiter():
            with cv:
                ready.set()
                cv.wait(timeout=10)
                # Re-acquired after the wait: taking OTHER now records
                # CV->OTHER, matching the notifier's order.
                with other:
                    pass

        t = threading.Thread(target=waiter)
        t.start()
        assert ready.wait(timeout=10)
        with cv:
            with other:  # CV -> OTHER, same direction
                pass
            cv.notify_all()
        t.join(timeout=10)
        reg.assert_no_cycles()

    def test_install_patches_threading_factories(self):
        reg = LockdepRegistry()
        plain = threading.Lock
        with reg:
            patched = threading.Lock()
            assert isinstance(patched, lockdep._InstrumentedLock)
            # Stdlib primitives built on Condition still work.
            ev = threading.Event()
            ev.set()
            assert ev.wait(timeout=1)
        assert threading.Lock is plain
        reg.assert_no_cycles()


class TestOwnership:
    def test_legal_pipeline_lifecycle(self):
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.staged("user", 0)  # prefetch fill
        view.resident("user", 0, from_cache=True)  # take
        view.parked("user", 0)  # evict dirty
        view.landed("user", 0)  # push-back landed
        view.dropped("user", 0)  # budget eviction
        view.resident("user", 0, from_cache=False)  # sync re-fetch
        view.saved("user", 0)  # serial blocking save
        tracker.assert_clean()
        assert tracker.transitions == 7

    def test_double_resident_rejected(self):
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.resident("user", 3, from_cache=False)
        with pytest.raises(OwnershipError, match="resident -> resident"):
            view.resident("user", 3, from_cache=False)

    def test_park_of_self_initialised_partition_is_legal(self):
        """Residency can begin invisibly (the model initialises a
        partition in place), so a park may be a partition's first
        tracked event."""
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.parked("user", 1)
        view.landed("user", 1)
        tracker.assert_clean()

    def test_double_park_rejected(self):
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.parked("user", 1)
        with pytest.raises(OwnershipError, match="writeback -> writeback"):
            view.parked("user", 1)

    def test_park_of_staged_copy_rejected(self):
        """A prefetched copy must be adopted (resident) before it can
        be dirty-evicted."""
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.staged("user", 1)
        with pytest.raises(OwnershipError):
            view.parked("user", 1)

    def test_prefetch_stomping_resident_rejected(self):
        tracker = PartitionOwnershipTracker(strict=True)
        view = tracker.register_owner("m0")
        view.resident("user", 2, from_cache=False)
        with pytest.raises(OwnershipError):
            view.staged("user", 2)

    def test_per_owner_isolation(self):
        """Machine B's stale staged copy is legal while machine A holds
        the partition resident — states are per owner."""
        tracker = PartitionOwnershipTracker(strict=True)
        a = tracker.register_owner("mA")
        b = tracker.register_owner("mB")
        a.resident("user", 0, from_cache=False)
        b.staged("user", 0)
        tracker.assert_clean()

    def test_non_strict_records_and_continues(self):
        tracker = PartitionOwnershipTracker()
        view = tracker.register_owner("m0")
        view.staged("user", 0)
        view.parked("user", 0)  # illegal: staged copy never adopted
        view.landed("user", 0)  # legal from the applied state
        assert len(tracker.violations) == 1
        with pytest.raises(OwnershipError):
            tracker.assert_clean()


class _Harness:
    """Installs full instrumentation for the duration of a with-block
    and checks zero cycles / zero illegal transitions on exit."""

    def __enter__(self):
        self.registry = LockdepRegistry()
        self.tracker = PartitionOwnershipTracker()
        self.registry.install()
        hooks.install_ownership_tracker(self.tracker)
        return self

    def __exit__(self, exc_type, *rest):
        hooks.uninstall_ownership_tracker()
        self.registry.uninstall()
        if exc_type is None:
            self.registry.assert_no_cycles()
            self.tracker.assert_clean()


def _edges(n=200, extra=1500, seed=0):
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


def _cluster(num_machines, nparts, n=200, seed=0, **kw):
    defaults = dict(
        dimension=8, num_epochs=2, batch_size=200, chunk_size=50,
        lr=0.1, num_batch_negs=5, num_uniform_negs=5,
        parameter_sync_interval=2,
    )
    defaults.update(kw)
    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(
                name="link", lhs="node", rhs="node", operator="translation"
            )
        ],
        num_machines=num_machines,
        **defaults,
    )
    entities = EntityStorage({"node": n})
    entities.set_partitioning(
        "node", partition_entities(n, nparts, np.random.default_rng(seed))
    )
    return DistributedTrainer(config.replace(seed=seed), entities)


class TestInstrumentedTraining:
    def test_pipelined_trainer_clean(self, tmp_path):
        """Single-machine pipelined training (prefetch + writeback +
        real partition swaps) under full instrumentation."""
        n, nparts = 200, 4
        config = single_entity_config(
            num_partitions=nparts, dimension=8, num_epochs=2,
            batch_size=200, chunk_size=50, seed=5, pipeline=True,
        )
        with _Harness() as h:
            entities = EntityStorage({"node": n})
            entities.set_partitioning(
                "node",
                partition_entities(n, nparts, np.random.default_rng(5)),
            )
            model = EmbeddingModel(config, entities, np.random.default_rng(5))
            storage = PartitionedEmbeddingStorage(tmp_path / "parts")
            trainer = Trainer(
                config, model, entities, storage, np.random.default_rng(5)
            )
            trainer.train(_edges(n, seed=5))
        assert h.tracker.transitions > 0, "ownership hooks never fired"

    def test_distributed_seeded_schedule_clean(self):
        """Thread-mode distributed training — the full stack (lock
        server, partition server, per-machine pipelines, writeback
        commits) under instrumentation, over a few seeds so bucket
        schedules differ."""
        for seed in (0, 1, 2):
            with _Harness() as h:
                trainer = _cluster(2, 4, seed=seed, pipeline=True)
                model, stats = trainer.train(_edges(seed=seed))
            assert model is not None
            assert h.tracker.transitions > 0, "ownership hooks never fired"

    def test_distributed_serial_path_clean(self):
        """The serial (non-pipelined) distributed path reports through
        the backend adapter instead of a pipeline; it must be clean
        too."""
        with _Harness() as h:
            trainer = _cluster(2, 4, seed=3, pipeline=False)
            trainer.train(_edges(seed=3))
        assert h.tracker.transitions > 0
