"""Runtime race-detection harness: lock-order tracking + partition ownership.

Two cooperating checkers, both opt-in (zero cost when off):

**Lock-order tracking** (:class:`LockdepRegistry`). While installed, every
lock created through :func:`threading.Lock` / :func:`threading.RLock` /
:class:`threading.Condition` is wrapped so each acquisition records a
directed edge ``A -> B`` for every lock ``A`` the acquiring thread
already holds. Locks are classified by *creation site* (file:line), so
all instances of e.g. ``PartitionPipeline._lock`` collapse into one node —
the same aggregation kernel lockdep uses. A cycle in the edge graph
means two threads can acquire the same locks in opposite orders, i.e.
a potential deadlock, even if the unlucky interleaving never happened
in this run. ``Condition.wait`` is handled correctly: the underlying
lock is released for the duration of the wait, so waiting does not
pin a spurious hold edge.

**Partition ownership** (:class:`PartitionOwnershipTracker`). Each
machine's view of a partition must be in exactly one state:

- ``on-server`` — no local copy; the backend (disk / partition server)
  holds the only bytes (the default state);
- ``staged`` — a *clean* copy sits in the prefetch cache;
- ``resident`` — the main thread owns the arrays inside the model;
- ``writeback`` — parked dirty, a push-back is in flight.

Legal transitions are exactly the pipeline's lifecycle::

    on-server ──prefetch──▶ staged ──take──▶ resident ──park──▶ writeback
        ▲                     │ ▲                                  │
        └──────evict/stale────┘ └───────────push landed────────────┘

plus ``on-server → resident`` (synchronous fetch or first-touch
initialisation) and ``resident → on-server`` (a blocking save outside
any pipeline). Anything else — a double-resident partition, a prefetch
stomping a resident table, a park of bytes that were never resident —
is recorded as a violation. Hooks are wired into
:class:`~repro.graph.storage.PartitionPipeline` — every trainer's
partition I/O goes through one, in serial mode too — through
:mod:`repro.analysis.hooks`.

The pytest fixture in ``tests/conftest.py`` activates both under
``REPRO_LOCKDEP=1`` and asserts zero cycles / zero illegal transitions
at teardown, so the existing pipeline and cluster tests double as race
tests.
"""

from __future__ import annotations

import threading
import traceback

__all__ = [
    "LockOrderError",
    "OwnershipError",
    "LockdepRegistry",
    "PartitionOwnershipTracker",
    "OwnerView",
    "ON_SERVER",
    "STAGED",
    "RESIDENT",
    "WRITEBACK",
]

# Keep references to the real factories: the registry's own internals
# (and the wrappers it creates) must never route through the patched
# ones, or installing the harness would recurse.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition


class LockOrderError(RuntimeError):
    """A lock-acquisition-order cycle (potential deadlock) was found."""


class OwnershipError(RuntimeError):
    """An illegal partition ownership transition was attempted."""


def _creation_site(skip_prefixes: "tuple[str, ...]") -> str:
    """``file:line`` of the nearest stack frame outside this module and
    the threading machinery — the lock's *class* for aggregation."""
    for frame in reversed(traceback.extract_stack()):
        fname = frame.filename
        if fname.endswith(("lockdep.py", "threading.py")):
            continue
        if any(fname.endswith(p) for p in skip_prefixes):
            continue
        short = fname.rsplit("/", 1)[-1]
        return f"{short}:{frame.lineno}"
    return "<unknown>"


class _HeldRecord:
    __slots__ = ("lock_id", "name", "count")

    def __init__(self, lock_id: int, name: str) -> None:
        self.lock_id = lock_id
        self.name = name
        self.count = 1


class LockdepRegistry:
    """Records the global lock-acquisition-order graph.

    ``strict=True`` raises :class:`LockOrderError` the moment a cycle-
    closing edge is recorded (unit tests); the default records it in
    ``violations`` so a wedged production path cannot also wedge the
    reporter, and the pytest fixture asserts the list is empty at
    teardown.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._lock = _REAL_LOCK()
        #: name -> set of names acquired while name was held
        self.edges: "dict[str, set[str]]" = {}
        #: (a, b) -> human-readable site of the first observation
        self.edge_sites: "dict[tuple[str, str], str]" = {}
        self.violations: "list[str]" = []
        self._held = threading.local()
        self._installed = False
        self._saved: "dict[str, object]" = {}

    # -- held-lock bookkeeping (called from wrapper locks) -------------

    def _stack(self) -> "list[_HeldRecord]":
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquired(self, lock_id: int, name: str) -> None:
        """The calling thread now holds ``lock_id``; record order edges
        against every lock it already held (re-entrant re-acquisitions
        add no edges)."""
        stack = self._stack()
        for rec in stack:
            if rec.lock_id == lock_id:
                rec.count += 1
                return
        new_edges = []
        for rec in stack:
            if rec.name != name:
                new_edges.append(rec.name)
        stack.append(_HeldRecord(lock_id, name))
        if not new_edges:
            return
        site = _creation_site(())
        with self._lock:
            for held_name in new_edges:
                succ = self.edges.setdefault(held_name, set())
                if name in succ:
                    continue
                succ.add(name)
                self.edge_sites[(held_name, name)] = site
                cycle = self._find_path(name, held_name)
                if cycle is not None:
                    self._report_cycle([held_name] + cycle, site)

    def note_released(self, lock_id: int) -> None:
        """The calling thread released (one level of) ``lock_id``."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            rec = stack[i]
            if rec.lock_id == lock_id:
                rec.count -= 1
                if rec.count <= 0:
                    del stack[i]
                return

    def note_released_fully(self, lock_id: int) -> int:
        """Drop ``lock_id`` from the held stack entirely (RLock
        ``_release_save``); returns the recursion count dropped."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            rec = stack[i]
            if rec.lock_id == lock_id:
                count = rec.count
                del stack[i]
                return count
        return 0

    def restore_held(self, lock_id: int, name: str, count: int) -> None:
        """Re-push a fully released lock (RLock ``_acquire_restore``)."""
        if count <= 0:
            return
        self.note_acquired(lock_id, name)
        stack = self._stack()
        stack[-1].count = count

    # -- cycle machinery ----------------------------------------------

    def _find_path(self, src: str, dst: str) -> "list[str] | None":
        """DFS path ``src -> ... -> dst`` in the edge graph (caller
        holds ``self._lock``)."""
        seen = {src}
        path: "list[str]" = [src]

        def walk(node: str) -> bool:
            if node == dst:
                return True
            for nxt in sorted(self.edges.get(node, ())):
                if nxt in seen:
                    continue
                seen.add(nxt)
                path.append(nxt)
                if walk(nxt):
                    return True
                path.pop()
            return False

        return path if walk(src) else None

    def _report_cycle(self, cycle: "list[str]", site: str) -> None:
        msg = (
            "lock-order cycle (potential deadlock): "
            + " -> ".join(cycle + [cycle[0]])
            + f" (closing edge observed at {site})"
        )
        self.violations.append(msg)
        if self.strict:
            raise LockOrderError(msg)

    def assert_no_cycles(self) -> None:
        if self.violations:
            raise LockOrderError(
                "lock-order violations:\n  " + "\n  ".join(self.violations)
            )

    # -- wrapper factories / monkeypatching ----------------------------

    def make_lock(self, name: "str | None" = None):
        return _InstrumentedLock(self, _REAL_LOCK(), name or _creation_site(()))

    def make_rlock(self, name: "str | None" = None):
        return _InstrumentedLock(
            self, _REAL_RLOCK(), name or _creation_site(()), reentrant=True
        )

    def make_condition(self, lock=None, name: "str | None" = None):
        # The *real* Condition class drives an instrumented lock: its
        # wait() releases through the wrapper, so held-lock state stays
        # truthful for the duration of every wait.
        if lock is None:
            lock = self.make_rlock(name)
        return _REAL_CONDITION(lock)

    def install(self) -> None:
        """Patch the ``threading`` factories so every lock created
        while installed is instrumented (existing locks are untouched)."""
        if self._installed:
            return
        self._saved = {
            "Lock": threading.Lock,
            "RLock": threading.RLock,
            "Condition": threading.Condition,
        }
        threading.Lock = lambda: self.make_lock()  # type: ignore[assignment]
        threading.RLock = lambda: self.make_rlock()  # type: ignore[assignment]
        threading.Condition = (  # type: ignore[assignment]
            lambda lock=None: self.make_condition(lock)
        )
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._saved["Lock"]  # type: ignore[assignment]
        threading.RLock = self._saved["RLock"]  # type: ignore[assignment]
        threading.Condition = self._saved["Condition"]  # type: ignore[assignment]
        self._installed = False

    def __enter__(self) -> "LockdepRegistry":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


class _InstrumentedLock:
    """Lock/RLock wrapper reporting acquisitions to a registry.

    Implements the full lock protocol *plus* the private
    ``_release_save`` / ``_acquire_restore`` / ``_is_owned`` trio, so a
    real :class:`threading.Condition` (and therefore ``Barrier``,
    ``Event``, ...) built on top of it keeps exact re-entrancy
    semantics while every release/re-acquire around a wait is tracked.
    """

    __slots__ = ("_registry", "_inner", "name", "_reentrant")

    def __init__(self, registry, inner, name: str, reentrant: bool = False):
        self._registry = registry
        self._inner = inner
        self.name = name
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._registry.note_acquired(id(self), self.name)
        return got

    def release(self) -> None:
        self._registry.note_released(id(self))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<lockdep {self.name} wrapping {self._inner!r}>"

    # -- Condition integration ----------------------------------------

    def _release_save(self):
        count = self._registry.note_released_fully(id(self))
        if hasattr(self._inner, "_release_save"):
            return (self._inner._release_save(), count)
        self._inner.release()
        return (None, count)

    def _acquire_restore(self, state) -> None:
        inner_state, count = state
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(inner_state)
        else:
            self._inner.acquire()
        self._registry.restore_held(id(self), self.name, max(count, 1))

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        # Plain locks: owned iff *someone* holds it and this thread has
        # it on its held stack.
        for rec in self._registry._stack():
            if rec.lock_id == id(self):
                return True
        return False


# ----------------------------------------------------------------------
# Partition ownership state machine
# ----------------------------------------------------------------------

ON_SERVER = "on-server"
STAGED = "staged"
RESIDENT = "resident"
WRITEBACK = "writeback"

#: new state -> set of states it may legally be entered from.
#: Residency can begin invisibly — the model initialises a partition
#: in place on first touch, which no hook observes — so the first
#: tracked event for such a partition is its write-back (``on-server
#: -> writeback`` on park, ``on-server -> on-server`` on a blocking
#: save outside any pipeline). A staged copy, by contrast, must be adopted
#: (``resident``) before it may be parked.
_LEGAL_FROM = {
    STAGED: {ON_SERVER, WRITEBACK},
    RESIDENT: {ON_SERVER, STAGED},
    WRITEBACK: {RESIDENT, ON_SERVER},
    ON_SERVER: {STAGED, RESIDENT, WRITEBACK, ON_SERVER},
}


class PartitionOwnershipTracker:
    """Per-owner partition state machine with legal-transition checks.

    One tracker serves a whole test run; each pipeline registers an
    :class:`OwnerView` (one per machine), because
    "exactly one state" is a per-machine property — machine A holding a
    partition resident while machine B still has a stale staged copy is
    legal (the version check handles it), but a single machine holding
    a partition resident twice is not.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._lock = _REAL_LOCK()
        self._state: "dict[tuple[str, str, int], str]" = {}
        self.violations: "list[str]" = []
        self.transitions = 0

    def register_owner(self, owner: str) -> "OwnerView":
        return OwnerView(self, owner)

    def state(self, owner: str, entity_type: str, part: int) -> str:
        with self._lock:
            return self._state.get((owner, entity_type, part), ON_SERVER)

    def transition(
        self,
        owner: str,
        entity_type: str,
        part: int,
        new: str,
        expect: "tuple[str, ...] | None" = None,
    ) -> None:
        """Move ``(entity_type, part)`` for ``owner`` into ``new``.

        The move must be legal per the lifecycle graph *and*, when
        ``expect`` narrows it, come from one of those states."""
        key = (owner, entity_type, part)
        with self._lock:
            cur = self._state.get(key, ON_SERVER)
            allowed = _LEGAL_FROM.get(new, set())
            if expect is not None:
                allowed = allowed & set(expect)
            if cur not in allowed:
                msg = (
                    f"illegal partition ownership transition for {owner}: "
                    f"({entity_type!r}, {part}) {cur} -> {new} "
                    f"(legal from: {sorted(allowed)})"
                )
                self.violations.append(msg)
                if self.strict:
                    raise OwnershipError(msg)
                # Fall through and apply anyway: tracking must follow
                # the system's actual behaviour or every later
                # transition of this key would cascade-misfire.
            if new == ON_SERVER:
                self._state.pop(key, None)
            else:
                self._state[key] = new
            self.transitions += 1

    def assert_clean(self) -> None:
        if self.violations:
            raise OwnershipError(
                "partition ownership violations:\n  "
                + "\n  ".join(self.violations)
            )


class OwnerView:
    """A tracker bound to one owner (one machine's pipeline/backend).

    The production hooks call these thin wrappers; method names mirror
    the pipeline events rather than raw states so call sites read as
    documentation.
    """

    __slots__ = ("tracker", "owner")

    def __init__(self, tracker: PartitionOwnershipTracker, owner: str):
        self.tracker = tracker
        self.owner = owner

    def staged(self, entity_type: str, part: int) -> None:
        """A clean copy entered the staging cache (prefetch fill or a
        landed push-back retained in cache)."""
        self.tracker.transition(self.owner, entity_type, part, STAGED)

    def resident(self, entity_type: str, part: int, from_cache: bool) -> None:
        """The main thread took ownership (cache hit, synchronous
        fetch, or first-touch initialisation)."""
        expect = (STAGED,) if from_cache else (ON_SERVER,)
        self.tracker.transition(
            self.owner, entity_type, part, RESIDENT, expect
        )

    def parked(self, entity_type: str, part: int) -> None:
        """A dirty eviction: arrays handed to the writeback path.

        Legal from ``resident`` or, for a partition the model
        initialised itself (residency began invisibly), ``on-server``;
        never from ``staged`` (a prefetched copy must be adopted before
        it can be dirty) or ``writeback`` (double park)."""
        self.tracker.transition(
            self.owner, entity_type, part, WRITEBACK, (RESIDENT, ON_SERVER)
        )

    def landed(self, entity_type: str, part: int) -> None:
        """The in-flight push-back reached the backend; the retained
        cache copy is now clean."""
        self.tracker.transition(
            self.owner, entity_type, part, STAGED, (WRITEBACK,)
        )

    def dropped(self, entity_type: str, part: int) -> None:
        """A staged copy left the pipeline (budget eviction or a stale
        copy discarded); the backend again holds the only bytes.
        Dropping a ``resident`` or ``writeback`` partition is illegal —
        those bytes are live."""
        self.tracker.transition(
            self.owner, entity_type, part, ON_SERVER, (STAGED,)
        )

    def saved(self, entity_type: str, part: int) -> None:
        """A blocking save returned the bytes to the backend without
        passing through a pipeline (no trainer does this any more; the
        pipeline's synchronous mode reports park/landed/dropped)."""
        self.tracker.transition(self.owner, entity_type, part, ON_SERVER)
