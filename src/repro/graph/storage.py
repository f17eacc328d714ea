"""On-disk storage for partitioned embeddings and checkpoints.

When a model exceeds memory, PBG keeps only the two partitions of the
current bucket in RAM and swaps the rest to disk (paper Section 4.1);
model checkpoints go to a shared filesystem in distributed mode
(Figure 2). Both paths are implemented here on top of ``.npz`` files
with atomic write-then-rename semantics, so a crash mid-write never
corrupts an existing partition.

For pipelined training (overlapping bucket I/O with compute, the
latency-hiding trick of Section 4.1) this module also provides:

- :class:`WritebackQueue` — a single background thread that persists
  evicted partitions off the critical path, with per-key pending
  tracking so callers can wait for a specific partition's write
  (flush-before-reuse) or drain everything (checkpoint barrier).
- :class:`PartitionCache` — a byte-budgeted LRU cache of partition
  arrays sitting in front of a :class:`PartitionedEmbeddingStorage`,
  with dirty/clean tracking. Partitions shared by consecutive buckets
  are served from memory instead of being re-read from disk.
- :class:`PartitionPipeline` — the bundle of the two plus a prefetch
  thread, behind one small API (``settle`` / ``park`` / ``persist`` /
  ``take`` / ``schedule`` / ``drain``). The single-machine trainer backs
  it with disk storage; the distributed trainer backs it with a
  partition-server adapter
  (:class:`~repro.distributed.partition_server.PartitionServerStorage`),
  so the same flush-before-reuse and drain-barrier invariants govern
  both the disk and the network path. Serial training is its
  synchronous mode: the same calls with no thread behind them.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.analysis import hooks
from repro.graph import compression
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "PartitionedEmbeddingStorage",
    "CheckpointStorage",
    "StorageError",
    "WritebackQueue",
    "PartitionCache",
    "PartitionPipeline",
]


class StorageError(RuntimeError):
    """Raised when stored data is missing or corrupt."""


def _atomic_savez(path: Path, **arrays: np.ndarray) -> None:
    """Write an ``.npz`` atomically (tmp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class PartitionedEmbeddingStorage:
    """Disk store for per-partition embeddings + optimizer state.

    Layout: ``{root}/{entity_type}/part-{p:05d}.npz`` holding the wire
    payload of the configured partition codec — for the default
    ``codec="none"`` that is arrays ``embeddings`` (n x d float32) and
    ``optim_state`` (the row-Adagrad accumulator, one float per row),
    i.e. the historical format. Files are self-describing (the codec
    name is stored alongside the arrays), so :meth:`load` reads any
    codec regardless of what this instance writes; legacy files without
    a marker decode as fp32.
    """

    def __init__(self, root: "str | Path", codec: str = "none") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.codec = compression.get_codec(codec)

    def _path(self, entity_type: str, part: int) -> Path:
        return self.root / entity_type / f"part-{part:05d}.npz"

    def save(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        """Persist one partition (atomically), encoded with this
        store's codec. ``dirty_rows`` is accepted for interface parity
        with the partition-server adapter (delta writeback); a file
        must stay a complete self-contained snapshot, so it is ignored
        and the full partition is written."""
        if len(embeddings) != len(optim_state):
            raise ValueError(
                "embeddings and optimizer state must have matching rows"
            )
        with telemetry.span(
            "storage.save", cat="transfer", entity=entity_type, part=part,
            bytes=int(embeddings.nbytes + optim_state.nbytes),
        ):
            _atomic_savez(
                self._path(entity_type, part),
                **self.codec.encode(embeddings, optim_state),
            )

    def load(
        self, entity_type: str, part: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Load one partition; raises :class:`StorageError` if absent/corrupt."""
        path = self._path(entity_type, part)
        if not path.exists():
            raise StorageError(f"no stored partition at {path}")
        try:
            with telemetry.span(
                "storage.load", cat="transfer", entity=entity_type, part=part,
            ) as sp:
                with np.load(path) as data:
                    payload = {k: data[k] for k in data.files}
                codec = compression.get_codec(
                    compression.payload_codec_name(payload)
                )
                embeddings, optim_state = codec.decode(payload)
                sp.note(bytes=int(embeddings.nbytes + optim_state.nbytes))
                return embeddings, optim_state
        except (OSError, KeyError, ValueError) as exc:
            raise StorageError(f"corrupt partition file {path}: {exc}") from exc

    def exists(self, entity_type: str, part: int) -> bool:
        return self._path(entity_type, part).exists()

    def drop(self, entity_type: str, part: int) -> None:
        """Delete one stored partition if present."""
        path = self._path(entity_type, part)
        if path.exists():
            path.unlink()

    def stored_partitions(self, entity_type: str) -> "list[int]":
        """Sorted partition indices present on disk for ``entity_type``."""
        type_dir = self.root / entity_type
        if not type_dir.exists():
            return []
        parts = []
        for p in type_dir.glob("part-*.npz"):
            try:
                parts.append(int(p.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return sorted(parts)

    def nbytes(self) -> int:
        """Total bytes of stored partition files."""
        return sum(
            p.stat().st_size for p in self.root.rglob("part-*.npz")
        )

    def export_mmap(
        self, entity_type: str, dest: "str | Path"
    ) -> "tuple[list[dict], int]":
        """Decode stored partitions into raw mmap-servable ``.npy`` files.

        Each ``part-{p}.npz`` (whatever its codec) becomes
        ``{dest}/shard-{p:05d}.npy`` holding just the fp32 embedding
        values — optimizer state is training-only and dropped. The raw
        ``.npy`` format is what ``np.load(mmap_mode="r")`` can map
        without decompression, which ``.npz`` members cannot be.

        Returns ``(shards, dim)`` where ``shards`` is a manifest-ready
        list of ``{"part", "rows", "file"}`` entries.
        """
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        shards: "list[dict]" = []
        dim = 0
        for part in self.stored_partitions(entity_type):
            embeddings, _ = self.load(entity_type, part)
            embeddings = np.ascontiguousarray(
                embeddings, dtype=np.float32
            )
            dim = embeddings.shape[1]
            name = f"shard-{part:05d}.npy"
            path = dest / name
            fd, tmp = tempfile.mkstemp(dir=dest, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, embeddings)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            shards.append(
                {"part": part, "rows": len(embeddings), "file": name}
            )
        if not shards:
            raise StorageError(
                f"no stored partitions for {entity_type!r} under "
                f"{self.root}"
            )
        return shards, dim


def _save_partition(
    storage,
    key: "tuple[str, int]",
    embeddings: np.ndarray,
    optim_state: np.ndarray,
    dirty_rows: "np.ndarray | None",
) -> None:
    """``storage.save`` with the dirty-row hint forwarded when there is
    one, letting a delta-capable backend push only those rows; backends
    without the parameter never see it."""
    if dirty_rows is None:
        storage.save(key[0], key[1], embeddings, optim_state)
    else:
        storage.save(
            key[0], key[1], embeddings, optim_state, dirty_rows=dirty_rows
        )


class WritebackQueue:  # public-guard: _cv
    """Asynchronous writer for evicted partitions.

    A single daemon thread drains a FIFO of ``(entity_type, part,
    embeddings, optim_state)`` jobs into a
    :class:`PartitionedEmbeddingStorage`. The queue tracks, per key,
    how many submitted writes have not yet landed, so callers can:

    - :meth:`wait` for one key — required before anything mutates
      arrays that a pending write still references (flush-before-reuse:
      writing a partition while HOGWILD workers update it would persist
      a torn snapshot);
    - :meth:`drain` everything — the checkpoint barrier.

    Jobs hold *references* to the caller's arrays, not copies; the
    ownership rule is that a submitted partition must not be modified
    until its write completes. Writer-thread failures are captured and
    re-raised as :class:`StorageError` on the next submit/wait/drain.
    """

    def __init__(
        self,
        storage: PartitionedEmbeddingStorage,
        max_pending: int | None = None,
        metrics: "MetricsRegistry | None" = None,
        name: str = "partition-writeback",
    ) -> None:
        self.storage = storage
        self.max_pending = max_pending
        self._cv = threading.Condition()
        self._jobs: deque = deque()  # guarded-by: _cv
        self._pending: "dict[tuple[str, int], int]" = {}  # guarded-by: _cv
        self._error: BaseException | None = None  # guarded-by: _cv
        self._closed = False  # guarded-by: _cv
        # Counters carry their own leaf locks; incrementing under _cv
        # is safe (counter locks never acquire anything).
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_stall = self._metrics.counter("writeback.stall_seconds")
        self._m_writes = self._metrics.counter("writeback.writes")
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    @property
    def stall_seconds(self) -> float:  # lint: no-lock (counter-backed)
        """Cumulative seconds callers spent blocked on this queue."""
        return self._m_stall.value

    @property
    def writes(self) -> int:  # lint: no-lock (counter-backed)
        """Completed background writes."""
        return int(self._m_writes.value)

    # -- caller side ---------------------------------------------------

    def submit(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        on_done=None,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        """Enqueue one partition write; returns immediately.

        ``on_done()`` runs on the writer thread after a successful
        write (the cache uses it to flip dirty → clean). ``dirty_rows``
        (row indices modified since the partition was fetched) is
        forwarded to the backend's ``save`` when given. Blocks only
        when ``max_pending`` is set and the backlog is full.
        """
        key = (entity_type, part)
        with self._cv:
            self._raise_if_failed()
            if self._closed:
                raise StorageError("writeback queue is closed")
            if self.max_pending is not None:
                t0 = time.perf_counter()
                while (
                    len(self._jobs) >= self.max_pending
                    and self._error is None
                ):
                    self._cv.wait()
                self._m_stall.inc(time.perf_counter() - t0)
                self._raise_if_failed()
            self._jobs.append(
                (key, embeddings, optim_state, dirty_rows, on_done)
            )
            self._pending[key] = self._pending.get(key, 0) + 1
            self._cv.notify_all()

    def is_pending(self, entity_type: str, part: int) -> bool:
        """Whether any submitted write for this key has not landed."""
        with self._cv:
            return self._pending.get((entity_type, part), 0) > 0

    def wait(self, entity_type: str, part: int) -> float:
        """Block until no write for this key is pending; returns the
        seconds spent blocked (also accumulated in ``stall_seconds``)."""
        key = (entity_type, part)
        t0 = time.perf_counter()
        with telemetry.span(
            "writeback.wait", cat="stall", entity=entity_type, part=part
        ):
            with self._cv:
                while self._pending.get(key, 0) > 0 and self._error is None:
                    self._cv.wait()
                elapsed = time.perf_counter() - t0
                self._m_stall.inc(elapsed)
                self._raise_if_failed()
        return elapsed

    def drain(self) -> float:
        """Block until every submitted write has landed (the checkpoint
        barrier); returns the seconds spent blocked."""
        t0 = time.perf_counter()
        with telemetry.span("writeback.drain", cat="stall"):
            with self._cv:
                while (
                    (self._jobs or self._pending) and self._error is None
                ):
                    self._cv.wait()
                elapsed = time.perf_counter() - t0
                self._m_stall.inc(elapsed)
                self._raise_if_failed()
        return elapsed

    def close(self) -> None:
        """Drain outstanding writes and stop the writer thread."""
        try:
            self.drain()
        finally:
            with self._cv:
                self._closed = True
                self._cv.notify_all()
            self._thread.join(timeout=30.0)

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise StorageError(
                f"background partition write failed: {self._error}"
            ) from self._error

    # -- writer thread -------------------------------------------------

    def _run(self) -> None:  # runs-on: writeback
        while True:
            with self._cv:
                while not self._jobs and not self._closed:
                    self._cv.wait()
                if self._closed and not self._jobs:
                    return
                (
                    key, embeddings, optim_state, dirty_rows, on_done,
                ) = self._jobs.popleft()
            try:
                with telemetry.span(
                    "writeback.write", cat="transfer",
                    entity=key[0], part=key[1],
                ):
                    _save_partition(
                        self.storage, key, embeddings, optim_state,
                        dirty_rows,
                    )
                if on_done is not None:
                    on_done()
            except BaseException as exc:  # surfaced on the caller side
                with self._cv:
                    self._error = exc
                    self._jobs.clear()
                    self._pending.clear()
                    self._cv.notify_all()
                return
            self._m_writes.inc()
            with self._cv:
                self._pending[key] -= 1
                if self._pending[key] == 0:
                    del self._pending[key]
                self._cv.notify_all()


@dataclass
class _CacheEntry:
    embeddings: np.ndarray
    optim_state: np.ndarray
    dirty: bool
    #: invoked once the entry's dirty bytes have durably landed in the
    #: backing store (async write, budget eviction, or flush); the
    #: distributed trainer uses it to commit partition locks.
    on_flushed: "Callable[[], None] | None" = None
    #: row indices modified since fetch (delta writeback hint); None
    #: means unknown → full write
    dirty_rows: "np.ndarray | None" = None

    @property
    def nbytes(self) -> int:
        return self.embeddings.nbytes + self.optim_state.nbytes


class PartitionCache:  # public-guard: _lock
    """Byte-budgeted LRU cache of partitions with dirty tracking.

    Sits in front of a :class:`PartitionedEmbeddingStorage`. The
    trainer parks evicted partitions here (*dirty* — modified since
    last persisted) and the prefetcher inserts upcoming partitions read
    from disk (*clean*). :meth:`take` pops a partition back out for
    training, falling back to a synchronous disk read on a miss.

    States of a partition's arrays relative to disk:

    - **clean** — byte-identical to the stored file; can be dropped
      freely under budget pressure.
    - **dirty, write pending** — a :class:`WritebackQueue` job is in
      flight; :meth:`take` and budget eviction wait for it to land
      before handing the arrays out or dropping them.
    - **dirty, no queue** — synchronous mode (no writeback thread);
      persisted inline on eviction or :meth:`flush_dirty`.

    ``budget_bytes=None`` means unlimited; ``0`` disables retention
    entirely: every dirty insert blocks until its write lands and is
    then dropped, and clean inserts are dropped immediately. That is a
    memory-bound fallback with essentially serial I/O behaviour, not an
    overlap mode — the trainer skips prefetching at budget 0 for this
    reason. All methods are thread-safe; the lock is released while
    waiting on the writeback queue so the writer thread can make
    progress.
    """

    def __init__(
        self,
        storage: PartitionedEmbeddingStorage,
        budget_bytes: int | None = None,
        writeback: WritebackQueue | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.storage = storage
        self.budget_bytes = budget_bytes
        self.writeback = writeback
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._entries: "OrderedDict[tuple[str, int], _CacheEntry]" = (
            OrderedDict()
        )
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_hits = self._metrics.counter("cache.hits")
        self._m_misses = self._metrics.counter("cache.misses")
        self._m_evictions = self._metrics.counter("cache.evictions")
        #: ownership-harness view (repro.analysis.lockdep), set by the
        #: owning PartitionPipeline when the harness is active
        self._owner = None

    @property
    def hits(self) -> int:  # lint: no-lock (counter-backed)
        """Partitions served from memory."""
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:  # lint: no-lock (counter-backed)
        """Partitions read synchronously from the backing store."""
        return int(self._m_misses.value)

    @property
    def evictions(self) -> int:  # lint: no-lock (counter-backed)
        """Entries dropped to stay under the byte budget."""
        return int(self._m_evictions.value)

    # ------------------------------------------------------------------

    def put(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        dirty: bool,
        on_flushed: "Callable[[], None] | None" = None,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        """Insert a partition as most-recently-used.

        Dirty inserts are immediately submitted to the writeback queue
        (when configured) so the disk copy starts catching up while the
        arrays stay available for reuse. ``on_flushed`` (dirty inserts
        only) fires exactly once when the entry's bytes have landed in
        the backing store — whether by background write, budget
        eviction, or :meth:`flush_dirty`; callers must not re-insert a
        key whose previous entry is still cached dirty, or the old
        callback may fire for superseded bytes. ``dirty_rows`` (dirty
        inserts only) is the set of row indices modified since the
        partition was fetched, forwarded to delta-capable backends.
        """
        key = (entity_type, part)
        entry = _CacheEntry(
            embeddings, optim_state, dirty,
            on_flushed if dirty else None,
            dirty_rows if dirty else None,
        )
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
        if dirty and self.writeback is not None:
            self._submit_writeback(key, entry)
        self._shrink_to_budget()

    def _landed(self, key: "tuple[str, int]", entry: _CacheEntry) -> None:
        """An entry's bytes reached the backing store: flip it clean (if
        still cached) and fire its flush callback outside the lock."""
        with self._lock:
            if self._entries.get(key) is entry:
                entry.dirty = False
            callback, entry.on_flushed = entry.on_flushed, None
        if self._owner is not None:
            self._owner.landed(key[0], key[1])
        if callback is not None:
            callback()

    def _submit_writeback(
        self, key: "tuple[str, int]", entry: _CacheEntry
    ) -> None:
        """Queue a background write; the entry flips clean when it lands
        (only if it is still the cached object for its key — a newer
        insert supersedes it and carries its own write)."""

        self.writeback.submit(
            key[0], key[1], entry.embeddings, entry.optim_state,
            lambda: self._landed(key, entry),
            dirty_rows=entry.dirty_rows,
        )

    def take(
        self, entity_type: str, part: int
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Pop a partition for training.

        Served from the cache when present (a *hit*), else read
        synchronously from disk (a *miss*); ``None`` if it exists
        nowhere. If a background write of the cached arrays is still in
        flight, blocks until it lands — the caller is about to mutate
        them (flush-before-reuse).
        """
        key = (entity_type, part)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    break
                pending = (
                    entry.dirty
                    and self.writeback is not None
                    and self.writeback.is_pending(entity_type, part)
                )
                if not pending:
                    del self._entries[key]
                    self._m_hits.inc()
                    return entry.embeddings, entry.optim_state
            # Wait outside the lock: the writer's mark_clean callback
            # needs it to flip the entry before notifying us.
            self.writeback.wait(entity_type, part)
        try:
            embeddings, optim_state = self.storage.load(entity_type, part)
        except StorageError:
            return None
        self._m_misses.inc()
        return embeddings, optim_state

    def contains(self, entity_type: str, part: int) -> bool:
        with self._lock:
            return (entity_type, part) in self._entries

    def nbytes(self) -> int:
        """Bytes currently retained by the cache."""
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def flush_dirty(self) -> None:
        """Persist every dirty entry. Entries stay cached.

        With a writeback queue, dirty entries normally already have a
        write in flight (submitted at insert); any that do not are
        re-submitted. Without one, they are saved synchronously. Callers
        wanting durability must still drain the queue afterwards."""
        with self._lock:
            dirty = [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.dirty
            ]
        for key, entry in dirty:
            if self.writeback is not None:
                # An entry from the snapshot may have gone clean since:
                # its in-flight write landed, or another flusher got
                # here first. Re-pushing it would persist (and, on a
                # versioned backend, re-version) bytes that already
                # landed, so re-check under the lock. Ordering makes
                # this sound: the writer thread runs on_done (which
                # flips dirty under this lock) *before* decrementing
                # the pending count, so pending==0 with dirty still
                # True means no write for these bytes was ever in
                # flight. is_pending is checked outside the lock —
                # _landed needs the lock to flip the bit, and holding
                # it here would deadlock the writer thread.
                if self.writeback.is_pending(key[0], key[1]):
                    continue
                with self._lock:
                    if not entry.dirty or self._entries.get(key) is not entry:
                        continue
                self._submit_writeback(key, entry)
            else:
                _save_partition(
                    self.storage, key, entry.embeddings, entry.optim_state,
                    entry.dirty_rows,
                )
                self._landed(key, entry)

    # ------------------------------------------------------------------

    def _shrink_to_budget(self) -> None:
        """Drop LRU entries until under budget, persisting dirty ones
        first (never lose the only up-to-date copy of a partition)."""
        if self.budget_bytes is None:
            return
        while True:
            wait_key = None
            saved = None
            with self._lock:
                total = sum(e.nbytes for e in self._entries.values())
                if total <= self.budget_bytes or not self._entries:
                    return
                key, entry = next(iter(self._entries.items()))
                if entry.dirty:
                    if self.writeback is not None and self.writeback.is_pending(
                        key[0], key[1]
                    ):
                        wait_key = key
                    else:
                        # This save must hold the lock: releasing it
                        # mid-eviction would let take() hand out arrays
                        # whose persist is still racing.
                        _save_partition(  # lint: allow-blocking
                            self.storage, key, entry.embeddings,
                            entry.optim_state, entry.dirty_rows,
                        )
                        saved = (key, entry)
                else:
                    del self._entries[key]
                    self._m_evictions.inc()
                    if self._owner is not None:
                        self._owner.dropped(key[0], key[1])
                    continue
            if saved is not None:
                # Flip clean + fire on_flushed outside the lock, then
                # re-evaluate (the entry is now droppable).
                self._landed(*saved)
                continue
            # Dirty with a write in flight: wait outside the lock, then
            # re-evaluate (the entry will be clean and droppable).
            self.writeback.wait(wait_key[0], wait_key[1])


class PartitionPipeline:
    """Prefetch + LRU cache + background writeback, as one subsystem.

    This bundles the three pieces of partition handling — a
    :class:`WritebackQueue`, a :class:`PartitionCache` in front of it,
    and a single-threaded prefetch pool — behind the small API every
    bucket loop drives (see :class:`repro.core.trainer.BucketExecutor`):

    - :meth:`settle` — wait for in-flight prefetch loads so cache state
      is final before the caller mutates resident tables;
    - :meth:`park` — hand an evicted partition to the cache *dirty*;
      its write starts immediately in the background (``on_flushed``
      fires once the bytes land — the distributed trainer commits the
      partition's lock-server deferral from it);
    - :meth:`persist` — write a partition the caller keeps resident;
    - :meth:`take` — pop a partition for training (flush-before-reuse:
      blocks while a write of those arrays is in flight), falling back
      to a synchronous backend read;
    - :meth:`schedule` — queue background loads of upcoming partitions;
    - :meth:`drain` — flush dirty entries and drain the queue (the
      checkpoint / epoch-end barrier).

    ``synchronous=True`` is the serial mode of the same API: no
    writeback thread, no prefetch pool, nothing retained (the cache's
    "dirty, no queue" state at budget 0). :meth:`park` then saves
    inline and fires ``on_flushed`` before returning, :meth:`persist`
    saves inline, :meth:`take` is an inline load, and :meth:`settle` /
    :meth:`schedule` / :meth:`drain` find nothing to do — every backend
    call happens on the calling thread, in call order.

    ``storage`` is any object with the
    :class:`PartitionedEmbeddingStorage` ``load``/``save`` interface:
    the single-machine trainer passes disk storage, the distributed
    trainer passes a partition-server adapter. ``validate``, when
    given, is called as ``validate(entity_type, part)`` on every cache
    hit; returning False means the cached copy is stale (another
    machine updated the backend since it was staged) and a fresh
    synchronous read is performed instead — ``stale_hits`` counts
    those.
    """

    def __init__(
        self,
        storage,
        budget_bytes: int | None = None,
        validate: "Callable[[str, int], bool] | None" = None,
        name: str = "partition",
        synchronous: bool = False,
    ) -> None:
        self.storage = storage
        self.budget_bytes = 0 if synchronous else budget_bytes
        self.validate = validate
        #: shared registry the pipeline's counters (and its queue's and
        #: cache's) live in; ``*Stats`` objects snapshot it
        self.metrics = MetricsRegistry()
        #: None in synchronous mode (as is the prefetch pool)
        self.writeback = None if synchronous else WritebackQueue(
            storage, metrics=self.metrics, name=f"{name}-writeback"
        )
        self.cache = PartitionCache(
            storage, budget_bytes=self.budget_bytes,
            writeback=self.writeback, metrics=self.metrics,
        )
        self._pool = None if synchronous else ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{name}-prefetch"
        )
        self._m_take_hits = self.metrics.counter("pipeline.take_hits")
        self._m_take_misses = self.metrics.counter("pipeline.take_misses")
        self._m_stale = self.metrics.counter("pipeline.stale_hits")
        self._m_wait = self.metrics.counter("pipeline.wait_seconds")
        self._futures: "dict[tuple[str, int], object]" = {}  # owned-by: main
        # The pipeline is the one reporter of ownership transitions:
        # every trainer's partition I/O goes through one.
        tracker = hooks.ownership_tracker()
        self._owner = (
            None if tracker is None
            else tracker.register_owner(f"pipeline-{id(self):x}")
        )
        self.cache._owner = self._owner

    # -- derived counters ----------------------------------------------

    @property
    def stale_hits(self) -> int:
        """Cache hits invalidated because the backend had newer bytes."""
        return int(self._m_stale.value)

    @property
    def prefetch_hits(self) -> int:
        """take() calls served from the cache (and still valid)."""
        return int(self._m_take_hits.value)

    @property
    def prefetch_misses(self) -> int:
        """take() calls that fell through to a synchronous backend read."""
        return int(self._m_take_misses.value)

    @property
    def prefetch_wait_seconds(self) -> float:
        """Cumulative seconds settle() blocked on in-flight prefetches."""
        return self._m_wait.value

    # ------------------------------------------------------------------

    def settle(self) -> float:
        """Wait for in-flight prefetch loads (surfacing their errors);
        returns the seconds spent blocked."""
        if not self._futures:
            return 0.0
        t0 = time.perf_counter()
        with telemetry.span("prefetch.settle", cat="stall"):
            for fut in self._futures.values():
                fut.result()
        self._futures = {}
        elapsed = time.perf_counter() - t0
        self._m_wait.inc(elapsed)
        return elapsed

    def park(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        on_flushed: "Callable[[], None] | None" = None,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        """Park an evicted partition dirty; its background write starts
        immediately and ``on_flushed`` fires once it lands. Passing
        ``dirty_rows`` lets a delta-capable backend push only the rows
        modified since the partition was fetched."""
        if self._owner is not None:
            self._owner.parked(entity_type, part)
        self.cache.put(
            entity_type, part, embeddings, optim_state,
            dirty=True, on_flushed=on_flushed, dirty_rows=dirty_rows,
        )

    def persist(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
    ) -> None:
        """Write a partition the caller keeps resident (the epoch-end
        flush of a single machine). The write is queued like a parked
        one, so the caller must :meth:`drain` before mutating the
        arrays again; in synchronous mode it lands before returning."""
        if self.writeback is None:
            self.storage.save(entity_type, part, embeddings, optim_state)
        else:
            self.writeback.submit(entity_type, part, embeddings, optim_state)

    def take(
        self, entity_type: str, part: int
    ) -> "tuple[tuple[np.ndarray, np.ndarray] | None, bool]":
        """Pop a partition for training.

        Returns ``(arrays, served_from_cache)``; arrays is None when
        the partition exists neither in the cache nor the backend (the
        caller initialises it). A stale cache hit (see ``validate``)
        counts in ``stale_hits`` and falls back to a backend read.
        """
        if self.cache.contains(entity_type, part):
            got = self.cache.take(entity_type, part)
            if got is not None:
                if self.validate is None or self.validate(entity_type, part):
                    if self._owner is not None:
                        self._owner.resident(
                            entity_type, part, from_cache=True
                        )
                    self._m_take_hits.inc()
                    return got, True
                self._m_stale.inc()
                if self._owner is not None:
                    self._owner.dropped(entity_type, part)
        try:
            got = self.storage.load(entity_type, part)
        except StorageError:
            got = None
        if self._owner is not None:
            # None means the caller initialises the partition; either
            # way it is resident on the main thread from here.
            self._owner.resident(entity_type, part, from_cache=False)
        self._m_take_misses.inc()
        return got, False

    def schedule(self, keys) -> int:
        """Queue background loads for ``keys`` (``(entity_type, part)``
        pairs) that are not already cached or in flight; returns the
        number scheduled. No-op at budget 0, where a staged entry would
        be dropped before it could be taken — prefetching would only
        double the reads."""
        if self.budget_bytes == 0:
            return 0
        scheduled = 0
        for key in keys:
            key = (key[0], key[1])
            if key in self._futures or self.cache.contains(*key):
                continue
            self._futures[key] = self._pool.submit(self._prefetch_one, key)
            scheduled += 1
        return scheduled

    def _prefetch_one(self, key: "tuple[str, int]") -> None:  # runs-on: prefetch
        """Prefetch-thread body: one partition, backend → cache, clean.

        Never touches the model or any RNG; a partition the backend
        does not have is simply skipped (the main thread initialises
        it)."""
        try:
            with telemetry.span(
                "prefetch.fetch", cat="transfer",
                entity=key[0], part=key[1],
            ):
                embeddings, optim_state = self.storage.load(*key)
        except StorageError:
            return
        if self._owner is not None:
            # Record before the insert: the moment put() returns, the
            # main thread may legally take the entry resident.
            self._owner.staged(key[0], key[1])
        self.cache.put(key[0], key[1], embeddings, optim_state, dirty=False)

    def drain(self) -> float:
        """Flush every dirty cache entry and drain the writeback queue
        (the checkpoint / epoch-end barrier); returns seconds blocked."""
        t0 = time.perf_counter()
        with telemetry.span("pipeline.drain", cat="stall"):
            self.cache.flush_dirty()
            if self.writeback is not None:
                self.writeback.drain()
        return time.perf_counter() - t0

    def close(self) -> None:
        """Drain outstanding writes and stop both worker threads
        (synchronous mode has neither)."""
        if self._pool is None:
            return
        for fut in self._futures.values():
            fut.cancel()
        self._futures = {}
        try:
            self._pool.shutdown(wait=True, cancel_futures=True)
        finally:
            self.writeback.close()


class CheckpointStorage:
    """Whole-model checkpoints: config + shared params + partitions.

    Layout under ``{root}/``:

    - ``config.json`` — the serialized :class:`~repro.config.ConfigSchema`
    - ``metadata.json`` — epoch number and user metadata
    - ``shared.npz`` — relation operator parameters and other globals
    - ``embeddings/`` — a :class:`PartitionedEmbeddingStorage`

    ``codec`` selects the partition codec used when *writing* embedding
    partitions (shared parameters always stay fp32 — they are tiny and
    include optimizer state); reads are self-describing, so checkpoints
    written with any codec load anywhere.
    """

    def __init__(self, root: "str | Path", codec: str = "none") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.partitions = PartitionedEmbeddingStorage(
            self.root / "embeddings", codec=codec
        )

    # -- config -------------------------------------------------------

    def save_config(self, config_json: str) -> None:
        path = self.root / "config.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(config_json)
        os.replace(tmp, path)

    def load_config(self) -> str:
        path = self.root / "config.json"
        if not path.exists():
            raise StorageError(f"no config at {path}")
        return path.read_text()

    # -- metadata -----------------------------------------------------

    def save_metadata(self, metadata: dict) -> None:
        path = self.root / "metadata.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(metadata, indent=2, sort_keys=True))
        os.replace(tmp, path)

    def load_metadata(self) -> dict:
        path = self.root / "metadata.json"
        if not path.exists():
            raise StorageError(f"no metadata at {path}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt metadata at {path}: {exc}") from exc

    # -- shared parameters ---------------------------------------------

    def save_shared(self, arrays: "dict[str, np.ndarray]") -> None:
        """Persist shared (non-partitioned) parameters."""
        _atomic_savez(self.root / "shared.npz", **arrays)

    def load_shared(self) -> "dict[str, np.ndarray]":
        path = self.root / "shared.npz"
        if not path.exists():
            raise StorageError(f"no shared parameters at {path}")
        try:
            with np.load(path) as data:
                return {k: data[k] for k in data.files}
        except (OSError, ValueError) as exc:
            raise StorageError(f"corrupt shared file {path}: {exc}") from exc

    def exists(self) -> bool:
        return (self.root / "config.json").exists()
