"""The bucket lock server (paper Section 4.2): the one schedule.

Either trainer opens one *round* per epoch with :meth:`LockServer.new_epoch`:
the epoch's visit list (``config.bucket_order`` drawn once, repeated per
stratum pass, as :class:`~repro.graph.buckets.Visit` s; grid order at
stratum 0 if no list is given). Every visit is granted exactly once, to
a machine whose request finds both its partitions unlocked, preferring:

1. the machine's *successor*, the visit after its last grant of the
   round (the first visit if it has had none), checked in O(1);
2. else, scanning the remaining visits, the most partitions shared
   with the machine's previous bucket, then the most initialised
   partitions, then the earliest list position.

So one machine is granted exactly the drawn list. The alignment rule
(Section 4.1) refuses a visit on two uninitialised partitions once
*another* machine holds a bucket or has released one in this run: on
one machine it never applies (``random`` stays random); in a cluster
it corrects an order that would seed a second, unaligned space.

Up to ``P/2`` machines can hold disjoint buckets on a ``P x P`` grid,
which is why the paper pairs ``M`` machines with ``2M`` partitions.
A machine that finds no eligible visit waits inside
``acquire(machine, wait=True)`` until a grant, a release, a lifted
deferral or :meth:`~LockServer.abort` changes the grid — the
"incomplete occupancy" overhead discussed with Table 3.

:meth:`LockServer.reserve` predicts a machine's next grant by the same
preference order, as if it had released its current bucket; machines
whose pipeline can prefetch (budget other than 0) prefetch it while
training (on one machine it is the next visit). Reservations are
advisory: they lock nothing and never change a grant; one lost to
another machine costs a prefetch miss (``reservation_misses``).

Deferred release (network flush-before-reuse): a cluster machine
releases with ``defer=True``, so the bucket's partitions stay
unavailable to *other* machines — who would fetch stale bytes from the
partition server — until :meth:`commit_partition` reports that the
push-back landed; the owner, whose resident copy is freshest, may
reclaim them at once. An index commits when the machine's last copy of
it, of any entity type, has landed: on the evicting thread, right after
the push, when the machine's pipeline has budget 0 (``pipeline=False``),
else on its writeback thread.
The single-machine trainer has no peer and releases without deferral.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro import telemetry
from repro.graph.buckets import Visit
from repro.telemetry.metrics import MetricsRegistry, view

__all__ = ["LockServer", "LockServerStats"]


@dataclass
class LockServerStats:
    """Counters for diagnosing scheduling behaviour.

    ``epochs`` counts the rounds :meth:`LockServer.new_epoch` opened;
    either trainer opens one per epoch, so a run ends at
    ``num_epochs``. ``failed_acquires`` counts starvations: non-waiting
    acquires that found nothing while the round still had visits
    (locked or deferred by peers). An acquire after the round's last
    grant is no miss.
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
    """One round: its visit list, and who holds or awaits what."""

    visits: "list[Visit]"
    #: positions in ``visits`` not granted yet
    remaining: "set[int]"
    initialized_partitions: "set[int]"
    locked_partitions: "set[int]" = field(default_factory=set)
    active: "dict[int, Visit]" = field(default_factory=dict)
    #: machine -> position of its last grant of this round
    last: "dict[int, int]" = field(default_factory=dict)
    #: partition -> machine: released but the machine's async push-back
    #: has not landed yet; unavailable to everyone but that machine.
    deferred: "dict[int, int]" = field(default_factory=dict)


class LockServer:  # public-guard: _lock
    """Thread-safe visit scheduler over a partition grid.

    Partitions are treated symmetrically (the common case of one
    partitioned entity scheme on both edge sides): locking bucket
    ``(i, j)`` locks partitions ``{i, j}``.
    """

    def __init__(self, nparts_lhs: int, nparts_rhs: int) -> None:
        if nparts_lhs < 1 or nparts_rhs < 1:
            raise ValueError("partition counts must be >= 1")
        self.nparts_lhs = nparts_lhs
        self.nparts_rhs = nparts_rhs
        self._lock = threading.Condition()  # waiting acquires sleep on it
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
        self._prev: "dict[int, Visit]" = {}  # guarded-by: _lock
        self._reserved: "dict[int, Visit]" = {}  # guarded-by: _lock
        #: machines that have released a bucket in this run
        self._released: "set[int]" = set()  # guarded-by: _lock
        self._state = self._round(None, set())  # guarded-by: _lock
        self._aborted = False  # guarded-by: _lock

    @property
    def stats(self) -> LockServerStats:  # lint: no-lock (counter-backed)
        return view(LockServerStats, self._metrics)

    # ------------------------------------------------------------------

    def _round(self, visits, initialized: "set[int]") -> _State:  # lint: no-lock (fresh state)
        if visits is None:  # grid order
            visits = [Visit(i, j) for i in range(self.nparts_lhs) for j in range(self.nparts_rhs)]
        visits = list(visits)
        return _State(visits, set(range(len(visits))), initialized)

    def new_epoch(self, visits: "Iterable[Visit] | None" = None) -> None:
        """Open a new round that grants each of ``visits`` once,
        preferring list order (grid order at stratum 0 when not given).

        Initialised partitions carry over between rounds (they are
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
            self._state = self._round(
                visits, self._state.initialized_partitions
            )
            # A reservation made against the drained grid is meaningless
            # for the fresh one; scoring it would skew accuracy stats.
            self._reserved.clear()
            self._c_epochs.inc()

    def _select(
        self, machine: int, state: _State, releasing: "Visit | None" = None
    ) -> "tuple[int | None, tuple | None]":
        """The preference order of ``acquire`` and ``reserve`` (module
        docstring): the machine's successor if eligible, else the
        eligible remaining visit of largest ``(affinity, initialised
        partitions, -position)``, evaluated as if ``releasing`` (the
        machine's current visit) were released. Returns ``(position,
        key)``, or ``(None, None)``."""
        freed = () if releasing is None else (releasing.lhs, releasing.rhs)
        prev = self._prev.get(machine) if releasing is None else releasing
        reuse = set() if prev is None else {prev.lhs, prev.rhs}
        # Alignment invariant: once another machine trains, a bucket on
        # two uninitialised partitions would seed a second, unaligned
        # embedding space.
        fresh_ok = all(m == machine for m in (*state.active, *self._released))

        def key(pos: int) -> "tuple | None":
            visit = state.visits[pos]
            parts = {visit.lhs, visit.rhs}
            for p in parts:
                if p in state.locked_partitions and p not in freed:
                    return None
                if state.deferred.get(p, machine) != machine:
                    # Another machine's push-back for this partition has
                    # not landed on the partition server yet; fetching
                    # it now would observe stale bytes.
                    return None
            n_init = sum(
                p in state.initialized_partitions or p in freed for p in parts
            )
            if n_init == 0 and not fresh_ok:
                return None
            return len(parts & reuse), n_init, -pos

        successor = state.last.get(machine, -1) + 1
        if successor in state.remaining:
            best = key(successor)
            if best is not None:
                return successor, best
        best = max(filter(None, map(key, state.remaining)), default=None)
        return (None, None) if best is None else (-best[2], best)

    def acquire(self, machine: int, wait: bool = False) -> Visit | None:
        """Request a visit for ``machine``; None if nothing is eligible.

        With ``wait``, block until one is, or return None once the round
        has no visit left; after :meth:`abort`, raise ``RuntimeError``.
        Partitions deferred by this machine (released with
        ``defer=True``, push-back still in flight) are re-acquirable by
        it — its resident copy is the freshest — and reclaiming them
        clears the deferral.
        """
        with telemetry.span(
            "lock.acquire", cat="lock", machine=machine
        ) as sp, self._lock:
            while True:
                if self._aborted:
                    raise RuntimeError("lock server aborted: a machine failed")
                st = self._state
                if machine in st.active:
                    raise RuntimeError(
                        f"machine {machine} already holds {st.active[machine]}"
                    )
                pos, key = self._select(machine, st)
                if pos is not None:
                    break
                if wait and st.remaining:
                    self._lock.wait()
                    continue
                if st.remaining:  # starved, not past the round's end
                    self._c_failed.inc()
                sp.note(granted=False)
                return None
            best = st.visits[pos]
            reserved = self._reserved.pop(machine, None)
            if reserved is not None:
                if reserved == best:
                    self._c_res_hits.inc()
                else:
                    self._c_res_misses.inc()
            st.remaining.discard(pos)
            st.last[machine] = pos
            for p in (best.lhs, best.rhs):
                st.deferred.pop(p, None)
                st.locked_partitions.add(p)
            st.active[machine] = best
            self._c_acquires.inc()
            if key[0] > 0:
                self._c_affinity.inc()
            self._lock.notify_all()  # the round's last grant ends waits
            sp.note(granted=True, bucket=f"{best.lhs},{best.rhs}")
            return best

    def reserve(self, machine: int) -> Visit | None:
        """Predict (without locking anything) the visit this machine's
        next :meth:`acquire` would be granted, evaluated as if it had
        already released its current bucket. Purely advisory — used to
        prefetch the next bucket's partitions during training; the
        prediction can be invalidated by any other machine's acquire.
        """
        with telemetry.span(
            "lock.reserve", cat="lock", machine=machine
        ) as sp, self._lock:
            st = self._state
            pos, _ = self._select(machine, st, st.active.get(machine))
            if pos is None:
                self._reserved.pop(machine, None)
                return None
            self._c_reservations.inc()
            visit = self._reserved[machine] = st.visits[pos]
            sp.note(bucket=f"{visit.lhs},{visit.rhs}")
            return visit

    def release(
        self, machine: int, bucket: Visit, defer: bool = False
    ) -> None:
        """Return a trained visit; unlocks and marks partitions aligned.

        With ``defer=True`` (distributed mode) the partitions stay
        unavailable to *other* machines until :meth:`commit_partition`
        confirms the releasing machine's asynchronous push-back has
        landed on the partition server.
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
            self._released.add(machine)
            self._prev[machine] = bucket
            self._lock.notify_all()

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
                self._lock.notify_all()

    def abort(self) -> None:
        """Make every waiting and later :meth:`acquire` raise."""
        with self._lock:
            self._aborted = True
            self._lock.notify_all()

    def remaining_count(self) -> int:
        with self._lock:
            return len(self._state.remaining)
