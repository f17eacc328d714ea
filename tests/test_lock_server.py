"""Tests for the distributed lock server."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BUCKET_ORDER_NAMES
from repro.distributed.lock_server import LockServer
from repro.graph.buckets import Visit, bucket_order


def _warmed(p: int) -> LockServer:
    """Drain one epoch serially so every partition is initialised, then
    open a round that lists the off-diagonal buckets first: a machine's
    first grant, ``(0, 1)``, locks two partitions."""
    ls = LockServer(p, p)
    while (b := ls.acquire(0)) is not None:
        ls.release(0, b)
    grid = [Visit(i, j) for i in range(p) for j in range(p)]
    ls.new_epoch(sorted(grid, key=lambda v: v.lhs == v.rhs))
    return ls


class TestBasicProtocol:
    def test_acquire_release_cycle(self):
        ls = LockServer(2, 2)
        bucket = ls.acquire(0)
        assert bucket is not None
        ls.release(0, bucket)
        assert ls.remaining_count() == 3

    def test_all_buckets_eventually_served(self):
        ls = LockServer(3, 3)
        served = []
        while True:
            b = ls.acquire(0)
            if b is None:
                break
            served.append(b)
            ls.release(0, b)
        assert len(served) == 9
        assert len(set(served)) == 9
        assert ls.acquire(0, wait=True) is None

    def test_disjoint_partitions_concurrent(self):
        """Two machines must never hold overlapping partitions.

        (Warm the server through one epoch first — at cold start the
        alignment invariant serialises on the very first bucket.)
        """
        ls = _warmed(4)
        b0 = ls.acquire(0)
        b1 = ls.acquire(1)
        assert b1 is not None
        assert {b0.lhs, b0.rhs} & {b1.lhs, b1.rhs} == set()

    def test_machine_cannot_double_acquire(self):
        ls = LockServer(4, 4)
        ls.acquire(0)
        with pytest.raises(RuntimeError, match="already holds"):
            ls.acquire(0)

    def test_release_requires_ownership(self):
        ls = LockServer(2, 2)
        b = ls.acquire(0)
        with pytest.raises(RuntimeError, match="does not hold"):
            ls.release(1, b)

    def test_p_over_2_machines_busy(self):
        """On a warmed P x P grid, P/2 machines can hold buckets at once."""
        p = 8
        ls = _warmed(p)
        held = []
        for m in range(p // 2):
            b = ls.acquire(m)
            assert b is not None, f"machine {m} starved"
            held.append((m, b))
        # A further machine is starved while all partitions are locked
        # only if every held bucket uses 2 distinct partitions.
        used = set()
        for _, b in held:
            used.update((b.lhs, b.rhs))
        if len(used) == p:
            assert ls.acquire(99) is None


class TestInitInvariant:
    def test_first_bucket_fresh_allowed(self):
        ls = LockServer(4, 4)
        assert ls.acquire(0) is not None

    def test_concurrent_fresh_fresh_blocked(self):
        """While the very first bucket is in flight, a second machine
        may not open a disjoint (hence doubly-fresh) bucket."""
        ls = LockServer(4, 4)
        b0 = ls.acquire(0)
        b1 = ls.acquire(1)
        if b1 is not None:
            # Any bucket granted concurrently must overlap... it can't
            # (locked) — so it must have been refused.
            raise AssertionError(f"granted fresh-fresh bucket {b1} next to {b0}")
        ls.release(0, b0)
        # Now initialised partitions exist; machine 1 gets a bucket
        # sharing one of them.
        b1 = ls.acquire(1)
        assert b1 is not None
        assert {b1.lhs, b1.rhs} & {b0.lhs, b0.rhs}

    def test_seen_partition_sequence(self):
        """Serial consumption respects the alignment invariant."""
        ls = LockServer(6, 6)
        seen: set[int] = set()
        first = True
        while True:
            b = ls.acquire(0)
            if b is None:
                break
            if not first:
                assert {b.lhs, b.rhs} & seen, f"unaligned bucket {b}"
            seen.update((b.lhs, b.rhs))
            first = False
            ls.release(0, b)

    def test_invariant_carries_across_epochs(self):
        ls = LockServer(2, 2)
        while True:
            b = ls.acquire(0)
            if b is None:
                break
            ls.release(0, b)
        ls.new_epoch()
        # Second epoch: every partition initialised, any bucket is fine.
        b = ls.acquire(0)
        assert b is not None


class TestAffinity:
    def test_prefers_shared_partition(self):
        ls = LockServer(4, 4)
        b0 = ls.acquire(0)
        ls.release(0, b0)
        b1 = ls.acquire(0)
        assert {b1.lhs, b1.rhs} & {b0.lhs, b0.rhs}
        assert ls.stats.affinity_hits >= 1


class TestEpochs:
    def test_new_epoch_restores_buckets(self):
        ls = LockServer(2, 2)
        b = ls.acquire(0)
        ls.release(0, b)
        assert ls.remaining_count() == 3
        while (b := ls.acquire(0)) is not None:
            ls.release(0, b)
        ls.new_epoch()
        assert ls.remaining_count() == 4

    def test_new_epoch_with_active_bucket_fails(self):
        ls = LockServer(2, 2)
        ls.acquire(0)
        with pytest.raises(RuntimeError, match="active"):
            ls.new_epoch()

    def test_stats_counters(self):
        ls = LockServer(2, 2)
        b = ls.acquire(0)
        ls.release(0, b)
        assert ls.stats.acquires == 1
        # epochs counts *completed* epoch resets: 0 while the first
        # epoch is still in progress (regression: the constructor used
        # to count itself as an epoch).
        assert ls.stats.epochs == 0
        while (b := ls.acquire(0)) is not None:
            ls.release(0, b)
        ls.new_epoch()
        assert ls.stats.epochs == 1

    def test_failed_acquires_count_starvation_not_round_ends(self):
        ls = _warmed(2)  # its drain ended in a no at the round's end
        assert ls.stats.failed_acquires == 0
        b0 = ls.acquire(0)  # (0, 1): both partitions
        assert ls.remaining_count() == 3 and ls.acquire(1) is None
        assert ls.stats.failed_acquires == 1  # buckets remain, all locked
        ls.release(0, b0)
        while (b := ls.acquire(0)) is not None:
            ls.release(0, b)
        assert ls.acquire(1) is None  # after the round's last grant
        assert ls.stats.failed_acquires == 1

    def test_affinity_state_explicit_after_init(self):
        """The scheduler's affinity state exists from construction
        (regression: it used to be hasattr-lazily created mid-lock)."""
        ls = LockServer(2, 2)
        assert ls._prev == {}
        b = ls.acquire(0)
        ls.release(0, b)
        assert ls._prev == {0: b}


class TestReservation:
    def test_reserve_predicts_next_acquire_single_machine(self):
        """With no contention the reservation is always correct."""
        ls = _warmed(4)
        b0 = ls.acquire(0)
        r = ls.reserve(0)
        assert r is not None
        ls.release(0, b0)
        assert ls.acquire(0) == r
        assert ls.stats.reservation_hits == 1
        assert ls.stats.reservation_misses == 0

    def test_reserve_is_advisory(self):
        """reserve() must not change any scheduling state."""
        ls = _warmed(4)
        before = ls.remaining_count()
        r = ls.reserve(0)
        assert r is not None
        assert ls.remaining_count() == before
        # The predicted bucket is still grantable to anyone.
        assert ls.acquire(1) is not None

    def test_reserve_before_first_acquire(self):
        ls = LockServer(4, 4)
        r = ls.reserve(0)
        assert r == ls.acquire(0)
        assert ls.stats.reservation_hits == 1

    def test_reserved_then_stolen_counts_miss(self):
        """A reservation that loses to another machine's acquire falls
        back gracefully and counts a miss."""
        ls = _warmed(4)
        b0 = ls.acquire(0)
        ls.release(0, b0)
        r = ls.reserve(0)
        assert r is not None
        # Machine 1 churns until it happens to hold the reserved bucket.
        while (b := ls.acquire(1)) is not None and b != r:
            ls.release(1, b)
        assert b == r  # stolen
        granted = ls.acquire(0)
        assert granted is not None and granted != r
        assert ls.stats.reservation_misses == 1
        assert ls.stats.reservation_hits == 0

    def test_reservation_under_full_occupancy(self):
        """At P/2 occupancy a machine's reservation can only use the
        partitions it would itself free."""
        p = 8
        ls = _warmed(p)
        held = {}
        for m in range(p // 2):
            held[m] = ls.acquire(m)
            assert held[m] is not None
        used = {q for b in held.values() for q in (b.lhs, b.rhs)}
        if len(used) == p:  # grid fully occupied
            for m, b in held.items():
                r = ls.reserve(m)
                if r is not None:
                    assert {r.lhs, r.rhs} <= {b.lhs, b.rhs}
            # Reservations changed nothing: a fifth machine still starves.
            assert ls.acquire(99) is None

    def test_reserve_returns_none_when_grid_drained(self):
        ls = LockServer(2, 2)
        while (b := ls.acquire(0)) is not None:
            ls.release(0, b)
        assert ls.reserve(0) is None


class TestGrantOrder:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reserve_before_release_is_the_next_grant(self, data):
        """``reserve`` and ``acquire`` share one grant order: taken just
        before a machine releases, the reservation is that machine's
        next grant (``None`` included) whenever no other machine acquires,
        releases or commits in between."""
        machines = data.draw(st.integers(2, 3), label="machines")
        p = data.draw(st.integers(2, 5), label="partitions")
        ls = LockServer(p, p)
        held: dict = {}
        reserved: dict = {}
        uncommitted: dict = {m: [] for m in range(machines)}
        for _ in range(data.draw(st.integers(1, 60), label="steps")):
            m = data.draw(st.integers(0, machines - 1))
            if m in held:
                reserved[m] = ls.reserve(m)
                bucket = held.pop(m)
                defer = data.draw(st.booleans())
                ls.release(m, bucket, defer=defer)
                if defer:
                    uncommitted[m] += [bucket.lhs, bucket.rhs]
            elif uncommitted[m] and data.draw(st.booleans()):
                # Lifts the deferral for others only: m's own grant is
                # unchanged, so its reservation stays comparable.
                ls.commit_partition(m, uncommitted[m].pop())
            else:
                granted = ls.acquire(m)
                if m in reserved:
                    assert granted == reserved.pop(m)
                if granted is not None:
                    held[m] = granted
            for other in range(machines):
                if other != m:
                    reserved.pop(other, None)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grants_on_a_drawn_list(self, data):
        """Handed an epoch's drawn list (``config.bucket_order`` × stratum
        passes), the server grants every visit once, keeps
        reserve-before-release equal to the next grant, hands a lone
        machine its successor, and refuses a bucket on two uninitialised
        partitions once another machine holds or has released one."""
        machines = data.draw(st.integers(2, 3), label="machines")
        p = data.draw(st.integers(2, 5), label="partitions")
        order = bucket_order(
            data.draw(st.sampled_from(BUCKET_ORDER_NAMES), label="order"),
            p, p, np.random.default_rng(data.draw(st.integers(0, 9))),
        )
        visits = [
            Visit(b.lhs, b.rhs, s)
            for s in range(data.draw(st.integers(1, 2), label="passes"))
            for b in order
        ]
        ls = LockServer(p, p)
        ls.new_epoch(visits)
        held: dict = {}
        reserved: dict = {}
        granted: list = []
        last: dict = {}
        released: set = set()
        trained: set = set()
        for _ in range(data.draw(st.integers(1, 80), label="steps")):
            m = data.draw(st.integers(0, machines - 1))
            if m in held:
                reserved[m] = ls.reserve(m)
                bucket = held.pop(m)
                ls.release(m, bucket)
                released.add(m)
                trained.update((bucket.lhs, bucket.rhs))
            else:
                got = ls.acquire(m)
                if m in reserved:
                    assert got == reserved.pop(m)
                if got is None:
                    continue
                pos = visits.index(got)  # a visit names its stratum
                if not held and released <= {m}:
                    # Alone so far: the successor, as drawn.
                    assert pos == last.get(m, -1) + 1
                if not {got.lhs, got.rhs} & trained:
                    assert set(held) | released <= {m}
                held[m], last[m] = got, pos
                granted.append(got)
            for other in range(machines):
                if other != m:
                    reserved.pop(other, None)
        assert len(granted) == len(set(granted)) <= len(visits)
        assert set(granted) <= set(visits)


class TestDeferredRelease:
    def test_deferred_partitions_blocked_for_others(self):
        """After release(defer=True) the partitions stay unavailable to
        other machines until committed (their fetch would observe the
        pre-push bytes on the partition server)."""
        ls = _warmed(2)
        b = ls.acquire(0)
        ls.release(0, b, defer=True)
        # Every bucket of a 2x2 grid touches partition 0 or 1.
        assert ls.acquire(1) is None
        ls.commit_partition(0, b.lhs)
        ls.commit_partition(0, b.rhs)
        assert ls.acquire(1) is not None

    def test_deferred_partitions_reacquirable_by_owner(self):
        """The releasing machine holds the freshest copy resident, so
        its own next acquire may reclaim deferred partitions."""
        ls = _warmed(2)
        b = ls.acquire(0)
        ls.release(0, b, defer=True)
        b2 = ls.acquire(0)
        assert b2 is not None
        # Reclaiming cleared the deferral: a late commit is a no-op and
        # must not unlock the partitions now held by machine 0.
        ls.commit_partition(0, b2.lhs)
        ls.commit_partition(0, b2.rhs)
        assert ls.acquire(1) is None  # still locked by machine 0
        ls.release(0, b2)

    def test_commit_wrong_machine_is_noop(self):
        ls = _warmed(2)
        b = ls.acquire(0)
        ls.release(0, b, defer=True)
        ls.commit_partition(1, b.lhs)  # not machine 1's deferral
        assert ls.acquire(1) is None

    def test_new_epoch_with_uncommitted_deferrals_fails(self):
        ls = LockServer(2, 2)
        buckets = []
        while (b := ls.acquire(0)) is not None:
            buckets.append(b)
            # Defer the final release and never commit it.
            ls.release(0, b, defer=len(buckets) == 4)
        with pytest.raises(RuntimeError, match="deferred"):
            ls.new_epoch()


def _blocked_acquire(ls: LockServer, machine: int):
    """Start ``acquire(machine, wait=True)`` on a thread and check that
    it blocks; returns the thread and the list that gets its outcome
    (a bucket, None, or the exception it raised)."""
    out: list = []

    def run():
        try:
            out.append(ls.acquire(machine, wait=True))
        except RuntimeError as exc:
            out.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(0.1)
    assert thread.is_alive() and out == []
    return thread, out


class TestWaitingAcquire:
    """``acquire(m, wait=True)``: a starved machine sleeps in the server
    until a release, a lifted deferral or the round's last grant."""

    @pytest.mark.parametrize("frees", ["release", "commit"])
    def test_returns_once_a_peer_frees_a_bucket(self, frees):
        ls = _warmed(2)
        misses = ls.stats.failed_acquires
        b0 = ls.acquire(0)  # (0, 1): both partitions
        if frees == "commit":
            ls.release(0, b0, defer=True)
        thread, out = _blocked_acquire(ls, 1)
        if frees == "release":
            ls.release(0, b0)
        else:
            ls.commit_partition(0, b0.lhs)
            ls.commit_partition(0, b0.rhs)
        thread.join(5)
        assert not thread.is_alive() and isinstance(out[0], Visit)
        assert ls.stats.failed_acquires == misses  # waiting is no miss

    def test_returns_none_once_the_round_is_granted(self):
        ls = _warmed(2)
        b0 = ls.acquire(0)
        ls.release(0, b0, defer=True)  # machine 1 may take nothing
        thread, out = _blocked_acquire(ls, 1)
        while (b := ls.acquire(0)) is not None:  # the owner reclaims
            ls.release(0, b, defer=True)
        thread.join(5)
        assert not thread.is_alive() and out == [None]
        assert ls.acquire(1, wait=True) is None  # no bucket left: no wait

    def test_abort_wakes_a_waiting_acquire(self):
        ls = _warmed(2)
        ls.acquire(0)
        thread, out = _blocked_acquire(ls, 1)
        ls.abort()
        thread.join(5)
        assert not thread.is_alive() and "aborted" in str(out[0])
        with pytest.raises(RuntimeError, match="aborted"):
            ls.acquire(2)


class TestConcurrency:
    def test_threaded_consumption_no_overlap_no_loss(self):
        """8 threads drain a 8x8 grid; locks must never overlap and all
        buckets must be served exactly once."""
        p = 8
        ls = LockServer(p, p)
        served: list[Visit] = []
        served_lock = threading.Lock()
        live_partitions: set[int] = set()
        live_lock = threading.Lock()
        errors: list[str] = []

        def worker(machine):
            rng = np.random.default_rng(machine)
            while True:
                b = ls.acquire(machine, wait=True)
                if b is None:
                    return
                with live_lock:
                    if {b.lhs, b.rhs} & live_partitions:
                        errors.append(f"overlap on {b}")
                    live_partitions.update((b.lhs, b.rhs))
                # simulate work
                for _ in range(int(rng.integers(1, 100))):
                    pass
                with live_lock:
                    live_partitions.difference_update((b.lhs, b.rhs))
                with served_lock:
                    served.append(b)
                ls.release(machine, b)

        threads = [
            threading.Thread(target=worker, args=(m,)) for m in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often: a lost wake-up hangs
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(served) == p * p
        assert len(set(served)) == p * p
