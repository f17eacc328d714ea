"""The bucket lock server (paper Section 4.2).

One logical instance coordinates all machines: a machine asks for a
bucket; the server returns one whose two partitions are currently
unlocked, preferring buckets that share a partition with the machine's
previous bucket (to minimise partition-server traffic), and enforcing
the alignment invariant — only the first bucket of a run may operate on
two uninitialised partitions (Section 4.1).

Up to ``P/2`` machines can hold disjoint buckets on a ``P x P`` grid,
which is why the paper pairs ``M`` machines with ``2M`` partitions.
A machine that finds no eligible bucket idles and retries — the
"incomplete occupancy" overhead discussed with Table 3.

Two-phase reservation protocol (pipelined distributed training)
---------------------------------------------------------------

:meth:`LockServer.reserve` predicts the bucket a machine's *next*
:meth:`~LockServer.acquire` would be granted — the same affinity /
alignment preference order, evaluated as if the machine had already
released its current bucket. Reservations are purely advisory: they
never lock partitions and never change what ``acquire`` later grants,
so scheduling is identical with and without them. A machine uses the
prediction to prefetch the reserved bucket's partitions from the
partition server while still training the current bucket; a reservation
that loses to another machine's acquire simply costs a prefetch miss
(``reservation_misses`` counts them, hits/misses give the reservation
accuracy).

Deferred release (the network flush-before-reuse invariant)
-----------------------------------------------------------

With asynchronous partition push-back, a machine's updated bytes may
still be in flight when the next machine wants the partition. A
``release(..., defer=True)`` therefore keeps the bucket's partitions
*deferred*: unavailable to other machines (who would fetch stale bytes
from the partition server) but immediately re-acquirable by the owner
(whose resident copy is the freshest). :meth:`commit_partition` — called
by the owner once the push lands — lifts the deferral. This is the PR-1 flush-before-reuse rule applied to the
network path: no consumer may observe a partition whose latest write
has not landed.

Every machine defers, in both pipeline modes (releasing without
deferral and pushing lazily at the next swap was the historical
release/fetch race). With ``pipeline=False`` the push is synchronous
and the commit follows it on the machine's own thread; with
``pipeline=True`` the writeback thread commits as pushes land. Either
way a partition *index* is committed once, after the pushes of every
entity type that has a partition with that index.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import telemetry
from repro.graph.buckets import Bucket
from repro.telemetry.metrics import MetricsRegistry, view

__all__ = ["LockServer", "LockServerStats"]


@dataclass
class LockServerStats:
    """Counters for diagnosing scheduling behaviour.

    ``epochs`` counts *completed* epoch resets (:meth:`LockServer.new_epoch`
    calls), so it reads 0 while the first training epoch is still running.
    """

    acquires: int = 0
    failed_acquires: int = 0
    affinity_hits: int = 0
    epochs: int = 0
    reservations: int = 0
    reservation_hits: int = 0
    reservation_misses: int = 0


@dataclass
class _State:
    remaining: "set[Bucket]" = field(default_factory=set)
    locked_partitions: "set[int]" = field(default_factory=set)
    initialized_partitions: "set[int]" = field(default_factory=set)
    active: "dict[int, Bucket]" = field(default_factory=dict)
    #: partition -> machine: released but the machine's async push-back
    #: has not landed yet; unavailable to everyone but that machine.
    deferred: "dict[int, int]" = field(default_factory=dict)
    done_any: bool = False


class LockServer:  # public-guard: _lock
    """Thread-safe bucket scheduler over a partition grid.

    Partitions are treated symmetrically (the common case of one
    partitioned entity scheme on both edge sides): locking bucket
    ``(i, j)`` locks partitions ``{i, j}``.
    """

    def __init__(self, nparts_lhs: int, nparts_rhs: int) -> None:
        if nparts_lhs < 1 or nparts_rhs < 1:
            raise ValueError("partition counts must be >= 1")
        self.nparts_lhs = nparts_lhs
        self.nparts_rhs = nparts_rhs
        self._all_buckets = [
            Bucket(i, j)
            for i in range(nparts_lhs)
            for j in range(nparts_rhs)
        ]
        self._lock = threading.Lock()
        # Scheduling counters live in a metrics registry, one per
        # LockServerStats field; ``stats`` is a view of it. Counters
        # carry their own leaf locks, so bumping them under _lock is safe.
        self._metrics = MetricsRegistry()
        self._c_acquires = self._metrics.counter("lockserver.acquires")
        self._c_failed = self._metrics.counter("lockserver.failed_acquires")
        self._c_affinity = self._metrics.counter("lockserver.affinity_hits")
        self._c_epochs = self._metrics.counter("lockserver.epochs")
        self._c_reservations = self._metrics.counter("lockserver.reservations")
        self._c_res_hits = self._metrics.counter("lockserver.reservation_hits")
        self._c_res_misses = self._metrics.counter(
            "lockserver.reservation_misses"
        )
        # Per-machine previous bucket (affinity) and outstanding advisory
        # reservation; both survive epoch resets.
        self._prev: "dict[int, Bucket]" = {}  # guarded-by: _lock
        self._reserved: "dict[int, Bucket]" = {}  # guarded-by: _lock
        self._state = _State(remaining=set(self._all_buckets))  # guarded-by: _lock

    @property
    def stats(self) -> LockServerStats:  # lint: no-lock (counter-backed)
        return view(LockServerStats, self._metrics)

    # ------------------------------------------------------------------

    def new_epoch(self) -> None:
        """Reset the remaining-bucket set for a new pass over the grid.

        Initialised partitions carry over between epochs (they are
        trained, hence aligned); active locks must have been released
        and deferred push-backs committed.
        """
        with self._lock:
            if self._state.active:
                raise RuntimeError(
                    f"cannot start an epoch with active buckets: "
                    f"{self._state.active}"
                )
            if self._state.deferred:
                raise RuntimeError(
                    f"cannot start an epoch with uncommitted deferred "
                    f"partitions: {self._state.deferred} (machines must "
                    f"drain their push-back queues before the epoch "
                    f"barrier)"
                )
            self._state = _State(
                remaining=set(self._all_buckets),
                initialized_partitions=self._state.initialized_partitions,
                done_any=self._state.done_any,
            )
            # A reservation made against the drained grid is meaningless
            # for the fresh one; scoring it would skew accuracy stats.
            self._reserved.clear()
            self._c_epochs.inc()

    def _select(
        self,
        machine: int,
        remaining: "set[Bucket]",
        locked: "set[int]",
        deferred: "dict[int, int]",
        initialized: "set[int]",
        prev: "Bucket | None",
        done_any: bool,
        has_active: bool,
    ) -> "tuple[Bucket | None, tuple | None]":
        """The shared preference order of ``acquire`` and ``reserve``:
        (1) buckets sharing a partition with the machine's previous
        bucket (partition reuse), (2) buckets with the most initialised
        partitions (alignment), (3) grid order."""
        best: Bucket | None = None
        best_key: tuple | None = None
        for bucket in remaining:
            parts = {bucket.lhs, bucket.rhs}
            if parts & locked:
                continue
            if any(deferred.get(p, machine) != machine for p in parts):
                # Another machine's push-back for this partition has not
                # landed on the partition server yet; fetching it now
                # would observe stale bytes.
                continue
            n_init = len(parts & initialized)
            if n_init == 0 and (done_any or has_active):
                # Alignment invariant: only the very first bucket of
                # a run may touch two uninitialised partitions — a
                # concurrent fresh-fresh bucket would seed a second,
                # unaligned embedding space.
                continue
            affinity = 0
            if prev is not None:
                affinity = len(parts & {prev.lhs, prev.rhs})
            key = (affinity, n_init, -bucket.lhs, -bucket.rhs)
            if best_key is None or key > best_key:
                best, best_key = bucket, key
        return best, best_key

    def acquire(self, machine: int):  # lint: no-lock (locks in _acquire)
        """Request a bucket for ``machine``; None if nothing is eligible.

        Partitions deferred by this machine (released with
        ``defer=True``, push-back still in flight) are re-acquirable by
        it — its resident copy is the freshest — and reclaiming them
        clears the deferral.
        """
        with telemetry.span(
            "lock.acquire", cat="lock", machine=machine
        ) as sp:
            bucket = self._acquire(machine)
            sp.note(granted=bucket is not None)
            if bucket is not None:
                sp.note(bucket=f"{bucket.lhs},{bucket.rhs}")
            return bucket

    def _acquire(self, machine: int) -> Bucket | None:
        with self._lock:
            st = self._state
            if machine in st.active:
                raise RuntimeError(
                    f"machine {machine} already holds {st.active[machine]}"
                )
            best, best_key = self._select(
                machine,
                st.remaining,
                st.locked_partitions,
                st.deferred,
                st.initialized_partitions,
                self._prev.get(machine),
                st.done_any,
                bool(st.active),
            )
            if best is None:
                self._c_failed.inc()
                return None
            reserved = self._reserved.pop(machine, None)
            if reserved is not None:
                if reserved == best:
                    self._c_res_hits.inc()
                else:
                    self._c_res_misses.inc()
            st.remaining.discard(best)
            for p in (best.lhs, best.rhs):
                st.deferred.pop(p, None)
                st.locked_partitions.add(p)
            st.active[machine] = best
            self._c_acquires.inc()
            if best_key[0] > 0:
                self._c_affinity.inc()
            return best

    def reserve(self, machine: int):  # lint: no-lock (locks in _reserve)
        """Predict (without locking anything) the bucket this machine's
        next :meth:`acquire` would be granted, evaluated as if it had
        already released its current bucket. Purely advisory — used to
        prefetch the next bucket's partitions during training; the
        prediction can be invalidated by any other machine's acquire.
        """
        with telemetry.span(
            "lock.reserve", cat="lock", machine=machine
        ) as sp:
            bucket = self._reserve(machine)
            if bucket is not None:
                sp.note(bucket=f"{bucket.lhs},{bucket.rhs}")
            return bucket

    def _reserve(self, machine: int) -> Bucket | None:
        with self._lock:
            st = self._state
            cur = st.active.get(machine)
            locked = set(st.locked_partitions)
            initialized = set(st.initialized_partitions)
            prev = self._prev.get(machine)
            done_any = st.done_any
            others_active = bool(
                {m for m in st.active if m != machine}
            )
            if cur is not None:
                locked.difference_update((cur.lhs, cur.rhs))
                initialized.update((cur.lhs, cur.rhs))
                prev = cur
                done_any = True
            best, _ = self._select(
                machine,
                st.remaining,
                locked,
                st.deferred,
                initialized,
                prev,
                done_any,
                others_active,
            )
            if best is None:
                self._reserved.pop(machine, None)
                return None
            self._c_reservations.inc()
            self._reserved[machine] = best
            return best

    def release(
        self, machine: int, bucket: Bucket, defer: bool = False
    ) -> None:
        """Return a trained bucket; unlocks and marks partitions aligned.

        With ``defer=True`` (pipelined distributed mode) the partitions
        stay unavailable to *other* machines until
        :meth:`commit_partition` confirms the releasing machine's
        asynchronous push-back has landed on the partition server.
        """
        with telemetry.span(
            "lock.release", cat="lock", machine=machine,
            bucket=f"{bucket.lhs},{bucket.rhs}", defer=defer,
        ), self._lock:
            st = self._state
            if st.active.get(machine) != bucket:
                raise RuntimeError(
                    f"machine {machine} does not hold {bucket} "
                    f"(holds {st.active.get(machine)})"
                )
            del st.active[machine]
            st.locked_partitions.difference_update((bucket.lhs, bucket.rhs))
            if defer:
                for p in (bucket.lhs, bucket.rhs):
                    st.deferred[p] = machine
            st.initialized_partitions.update((bucket.lhs, bucket.rhs))
            st.done_any = True
            self._prev[machine] = bucket

    def commit_partition(self, machine: int, part: int) -> None:
        """Confirm that ``machine``'s deferred push-back of ``part`` has
        landed on the partition server; the partition becomes available
        to everyone. No-op if the machine reclaimed the partition in the
        meantime (its acquire cleared the deferral) — safe to call from
        writeback threads without coordination."""
        with telemetry.span(
            "lock.commit", cat="lock", machine=machine, part=part
        ), self._lock:
            if self._state.deferred.get(part) == machine:
                del self._state.deferred[part]

    def remaining_count(self) -> int:
        with self._lock:
            return len(self._state.remaining)

    def epoch_done(self) -> bool:
        with self._lock:
            return not self._state.remaining and not self._state.active
