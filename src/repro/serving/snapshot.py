"""Atomic snapshot swap for a live serving index.

:class:`SnapshotManager` owns the pointer from "the server" to "the
snapshot being served" (an mmap table + a built index). The contract
that makes a swap safe without pausing traffic:

- A query **pins** the snapshot it runs against (:meth:`acquire`
  refcounts it) and uses only that pinned view end to end — it can
  never mix the old table with the new index or vice versa.
- :meth:`refresh` loads and builds the *new* snapshot completely
  before touching the pointer; the swap itself is a pointer write
  under the lock. In-flight queries keep their pinned old snapshot;
  queries that start after the swap see only the new one.
- A retired snapshot's mmaps are closed only after its refcount
  drains to zero — and the close happens *outside* the lock (closing
  a mapping is I/O).
- A version that fails to open (a damaged or missing file) is
  *refused*: the live snapshot keeps serving, ``serve.refused`` counts
  it once, and it is not reopened until ``CURRENT`` moves on.

The expensive work (mapping and CRC-checking the shards, k-means build)
happens with no lock held, so queries on the old snapshot proceed at
full speed during a refresh. Two concurrent refreshes are safe: the
loser's snapshot is discarded (version numbers only move forward).
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from pathlib import Path

from repro import telemetry
from repro.serving import shards as shards_mod
from repro.serving.index import ExactIndex, ServingError
from repro.serving.shards import MmapShardedTable

__all__ = ["SnapshotManager"]

_LOG = logging.getLogger(__name__)


class _Snapshot:
    """One pinned-able (version, table, index) triple."""

    __slots__ = ("version", "table", "index", "refs", "retired")

    def __init__(self, version: int, table, index) -> None:
        self.version = version
        self.table = table
        self.index = index
        self.refs = 0
        self.retired = False


def _default_index_factory(table: MmapShardedTable):
    """Exact scan with the snapshot's own comparator."""
    return ExactIndex(comparator=table.comparator).build(table)


class SnapshotManager:  # public-guard: _lock
    """Versioned serving snapshots with refcounted atomic swap.

    Parameters
    ----------
    root:
        Snapshot root directory (``CURRENT`` + ``v-*`` version dirs,
        see :mod:`repro.serving.shards`).
    index_factory:
        ``f(table) -> built KnnIndex``; defaults to the exact scan.
        The factory runs outside the manager lock — it may be slow.
    """

    def __init__(
        self,
        root: "str | Path",
        index_factory=None,
        metrics=None,
    ) -> None:
        self.root = Path(root)
        self._index_factory = (
            index_factory
            if index_factory is not None
            else _default_index_factory
        )
        self._lock = threading.Lock()
        self._live: "_Snapshot | None" = None  # guarded-by: _lock
        self._retired: "list[_Snapshot]" = []  # guarded-by: _lock
        self._refused: "int | None" = None  # guarded-by: _lock
        if metrics is None:
            from repro.telemetry.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        # Counters are leaf-locked; safe to touch under _lock.
        self._m_swaps = metrics.counter("serve.swaps")
        self._m_refreshes = metrics.counter("serve.refreshes")
        self._m_refused = metrics.counter("serve.refused")

    # -- refresh / swap ------------------------------------------------

    def refresh(self) -> bool:
        """Pick up ``CURRENT`` if it moved; returns True on a swap.

        Loading the table and building the index happen before (and
        outside) the lock; the swap is a pointer write. No-op (False)
        when nothing is published, the live version is current or the
        published one was refused. A version that fails to open raises
        only when there is no live snapshot to keep serving.
        """
        self._m_refreshes.inc()
        published = shards_mod.current_version(self.root)
        with self._lock:
            live, refused = self._live, self._refused
        live_version = live.version if live is not None else None
        if published is None or published in (live_version, refused):
            return False
        try:
            table = MmapShardedTable(self.root / f"v-{published:06d}")
        except ServingError as exc:
            with self._lock:
                if self._refused != published:
                    self._refused = published
                    self._m_refused.inc()
                live = self._live
            if live is None:
                raise
            _LOG.warning(
                "refused snapshot v%d, still serving v%d: %s",
                published, live.version, exc,
            )
            return False
        index = self._index_factory(table)
        fresh = _Snapshot(published, table, index)
        to_close: "list[_Snapshot]" = []
        swapped = False
        with telemetry.span(
            "serve.swap", cat="serve",
            to_version=published, from_version=live_version,
        ):
            with self._lock:
                old = self._live
                if old is not None and old.version >= fresh.version:
                    # A concurrent refresh won; discard ours.
                    fresh.retired = True
                    to_close.append(fresh)
                else:
                    self._live = fresh
                    swapped = True
                    self._m_swaps.inc()
                    if old is not None:
                        old.retired = True
                        if old.refs == 0:
                            to_close.append(old)
                        else:
                            self._retired.append(old)
        for snap in to_close:
            snap.table.close()
        return swapped

    # -- query-side pinning --------------------------------------------

    @contextmanager
    def acquire(self):
        """Pin the live snapshot for the duration of the ``with`` body.

        Yields the :class:`_Snapshot` (``.version``/``.table``/
        ``.index``). The pinned snapshot survives any number of
        concurrent swaps; its mmaps stay open until released.
        """
        with self._lock:
            snap = self._live
            if snap is None:
                raise ServingError(
                    f"no snapshot loaded from {self.root}; publish one "
                    f"and call refresh()"
                )
            snap.refs += 1
        try:
            yield snap
        finally:
            to_close = None
            with self._lock:
                snap.refs -= 1
                if snap.retired and snap.refs == 0:
                    if snap in self._retired:
                        self._retired.remove(snap)
                    to_close = snap
            if to_close is not None:
                to_close.table.close()

    # -- introspection / shutdown --------------------------------------

    def current_version(self) -> "int | None":
        with self._lock:
            return self._live.version if self._live is not None else None

    def retired_count(self) -> int:
        """Retired snapshots still pinned by in-flight queries."""
        with self._lock:
            return len(self._retired)

    def close(self) -> None:
        """Release everything (caller guarantees no queries in flight)."""
        with self._lock:
            snaps = list(self._retired)
            if self._live is not None:
                snaps.append(self._live)
            self._live = None
            self._retired = []
        for snap in snaps:
            snap.table.close()
