"""On-disk storage for partitioned embeddings and checkpoints.

When a model exceeds memory, PBG keeps only the two partitions of the
current bucket in RAM and swaps the rest to disk (paper Section 4.1);
model checkpoints go to a shared filesystem in distributed mode
(Figure 2). A run keeps one copy of a partition at rest: the trainer
swaps against the ``embeddings/`` directory of the checkpoint it
writes, so the checkpoint always holds every partition.

Partition, shared-parameter and serving snapshot files share one
format, written by :func:`write_arrays` and read by :func:`read_arrays`:
a fixed prefix (magic, CRC-32 of the rest of the header, version, array
count), one fixed-width record per array (name, dtype, ndim, shape,
CRC-32 of its bytes), then the arrays' raw bytes back to back. A read
is one header parse and one ``readinto`` plus one ``zlib.crc32`` per
array, both of which release the interpreter lock, so a swap thread
barely competes with the trainer; serving maps the bytes read-only
instead (``mmap=True``) after the same checks. Every damaged file
(truncated, bit-flipped, trailing bytes, foreign) raises
:class:`CorruptPartition`. Files are written atomically
(:func:`atomic_write`), so a crash mid-write never corrupts a file.

Every mover of a partition reaches its backend through one
:class:`PartitionPipeline` (``settle`` / ``park`` / ``persist`` /
``take`` / ``schedule`` / ``drain``). It hides the swap latency of
Section 4.1 behind compute: evicted partitions are staged in a
byte-budgeted LRU while a write thread persists them, a load thread
stages the partitions of the next bucket, and a staged partition is
handed back out only once its write has landed (flush-before-reuse).
Serial training is its zero-byte budget: the same code with each job
run on the calling thread and nothing retained. The single-machine
trainer backs it with :class:`PartitionedEmbeddingStorage`; the
distributed trainer backs it with a partition-server adapter
(:class:`~repro.distributed.partition_server.PartitionServerStorage`),
so the same flush-before-reuse and drain-barrier invariants govern
both the disk and the network path.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro import telemetry
from repro.analysis import hooks
from repro.graph import compression
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "PartitionedEmbeddingStorage",
    "CheckpointStorage",
    "StorageError",
    "PartitionAbsent",
    "CorruptPartition",
    "PartitionPipeline",
    "atomic_write",
    "read_arrays",
    "write_arrays",
]


class StorageError(RuntimeError):
    """Raised when stored data is missing or corrupt."""


class PartitionAbsent(StorageError):
    """The backend holds no copy of the partition, so the caller may
    initialise it. Every other :class:`StorageError` a load raises means
    the stored bytes exist but are unusable; those propagate, so a
    damaged file never trains on as random rows."""


class CorruptPartition(StorageError):
    """The stored file exists but its bytes are unusable: a bad magic
    or version, a truncated header or array, trailing bytes, a checksum
    mismatch, or a dtype, ndim or shape no codec writes."""


def atomic_write(path: Path, writer, /, *args, **kwargs) -> None:
    """Write a file atomically: ``writer(fh, *args, **kwargs)`` (e.g.
    :func:`write_arrays`) fills a temp file beside ``path``, which is
    then renamed over it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh, *args, **kwargs)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- the array file format ---------------------------------------------

#: suffix of every file :func:`write_arrays` writes in a store
SUFFIX = ".bin"
#: suffix of the retired zip format, refused by name (see _refuse_npz)
_NPZ = ".npz"
_MAGIC = b"REPROARR"
_VERSION = 1
_MAX_NDIM = 8
#: magic, CRC-32 of the rest of the header (from the version on),
#: version, array count; the records follow
_PREFIX = struct.Struct("<8sIII")
_RECORD = np.dtype([
    ("name", "S128"), ("dtype", "S16"), ("ndim", "<u4"), ("crc", "<u4"),
    ("shape", "<u8", (_MAX_NDIM,)),
])
#: dtype kinds a file may hold: numbers, bools and strings (the codec
#: marker). Never objects, so reading a file never unpickles anything.
_KINDS = frozenset("biufcSU")


def _check_dtype(dtype: np.dtype) -> np.dtype:
    if dtype.kind not in _KINDS or dtype.fields is not None:
        raise ValueError(f"dtype {dtype.str!r} cannot be stored")
    return dtype


def _stored_dtype(code: bytes) -> np.dtype:
    try:
        return _check_dtype(np.dtype(code.decode("ascii")))
    except (TypeError, ValueError, OverflowError):
        raise CorruptPartition(f"unsupported dtype {code!r}") from None


def write_arrays(fh, arrays: "Mapping[str, np.ndarray]") -> None:
    """Write ``arrays`` to the binary file ``fh``: one header write,
    then one write per array. Refuses object and structured dtypes,
    names over 128 bytes and more than 8 dimensions (``ValueError``)."""
    # np.ascontiguousarray would make the 0-d codec marker 1-d
    values = [np.asarray(a, order="C") for a in arrays.values()]
    records = []
    for name, arr in zip(arrays, values):
        encoded = name.encode("utf-8")
        if len(encoded) > _RECORD["name"].itemsize:
            raise ValueError(f"array name {name!r} is too long to store")
        if arr.ndim > _MAX_NDIM:
            raise ValueError(f"array {name!r} has more than {_MAX_NDIM} dims")
        dtype = _check_dtype(arr.dtype).str.encode("ascii")
        shape = arr.shape + (0,) * (_MAX_NDIM - arr.ndim)
        records.append((encoded, dtype, arr.ndim, zlib.crc32(arr), shape))
    rest = (struct.pack("<II", _VERSION, len(records))
            + np.array(records, dtype=_RECORD).tobytes())
    fh.write(_MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest)
    for arr in values:
        fh.write(arr)


def _read_into(fh, buf) -> int:
    """Fill ``buf`` from ``fh``; returns the bytes read (short only at
    end of file). One ``readinto`` returns at most ~2 GiB on Linux."""
    view, got = memoryview(buf).cast("B"), 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def read_arrays(path: Path, mmap: bool = False) -> "dict[str, np.ndarray]":
    """Read a file :func:`write_arrays` wrote, in write order, each
    array checked against its CRC-32: freshly allocated, or with
    ``mmap=True`` a read-only ``np.memmap`` view of the file's bytes.
    Raises :class:`CorruptPartition` for anything but an intact file
    and ``OSError`` if it cannot be opened or read."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise CorruptPartition("truncated header")
        magic, crc, version, count = _PREFIX.unpack(prefix)
        if magic != _MAGIC:
            raise CorruptPartition("not an array file (bad magic)")
        if version != _VERSION:
            raise CorruptPartition(f"unsupported format version {version}")
        header = _PREFIX.size + count * _RECORD.itemsize
        if header > size:
            raise CorruptPartition("truncated header")
        body = fh.read(header - _PREFIX.size)
        if zlib.crc32(body, zlib.crc32(prefix[12:])) != crc:
            raise CorruptPartition("header checksum mismatch")
        specs = []
        for name, code, ndim, crc, shape in np.frombuffer(body, _RECORD).tolist():
            if ndim > _MAX_NDIM:
                raise CorruptPartition(f"array {name!r} has {ndim} dims")
            dtype, shape = _stored_dtype(code), shape[:ndim]
            specs.append((name.decode("utf-8", "replace"), dtype, shape, crc,
                          math.prod(shape) * dtype.itemsize))
        end = header + sum(spec[-1] for spec in specs)
        if end != size:
            raise CorruptPartition(
                "truncated array data" if end > size
                else f"{size - end} trailing bytes"
            )
        mapped = np.memmap(fh, np.uint8, "r") if mmap else None
        arrays, start = {}, header
        for name, dtype, shape, crc, nbytes in specs:
            if mapped is not None:
                buf, start = mapped[start:start + nbytes], start + nbytes
            else:
                buf = np.empty(nbytes, dtype=np.uint8)
                if _read_into(fh, buf) != nbytes:
                    raise CorruptPartition(f"array {name!r} is truncated")
            if zlib.crc32(buf) != crc:
                raise CorruptPartition(f"array {name!r} checksum mismatch")
            arrays[name] = buf.view(dtype).reshape(shape)
    if len(arrays) != count:
        raise CorruptPartition("duplicate array names")
    return arrays


def _refuse_npz(path: Path) -> None:
    """A file of the retired ``.npz`` format where ``path`` would be
    must not read as absent: the caller would initialise random rows
    over a real checkpoint."""
    old = path.with_suffix(_NPZ)
    if old.exists():
        raise StorageError(
            f"{old} is in the retired .npz format, which this version "
            f"no longer reads; retrain or convert the checkpoint"
        )


class PartitionedEmbeddingStorage:
    """Disk store for per-partition embeddings + optimizer state.

    Layout: ``{root}/{entity_type}/part-{p:05d}.bin`` (see
    :meth:`path`), an array file (:func:`write_arrays`) holding the
    wire payload of the configured partition codec — for the default
    ``codec="none"`` that is arrays ``embeddings`` (n x d float32) and
    ``optim_state`` (the row-Adagrad accumulator, one float per row).
    Files are self-describing (the codec name is stored as the
    ``codec`` record beside the arrays), so :meth:`load` reads any
    codec regardless of what this instance writes.
    """

    def __init__(self, root: "str | Path", codec: str = "none") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.codec = compression.get_codec(codec)

    def path(self, entity_type: str, part: int) -> Path:
        """The file one partition is stored in."""
        return self.root / entity_type / f"part-{part:05d}{SUFFIX}"

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
            atomic_write(
                self.path(entity_type, part), write_arrays,
                self.codec.encode(embeddings, optim_state),
            )

    def load(
        self, entity_type: str, part: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Load one partition; raises :class:`PartitionAbsent` if there is
        no file, :class:`CorruptPartition` if its bytes are unusable and
        :class:`StorageError` if it cannot be read or is an old
        ``.npz``."""
        path = self.path(entity_type, part)
        if not path.exists():
            _refuse_npz(path)
            raise PartitionAbsent(f"no stored partition at {path}")
        try:
            with telemetry.span(
                "storage.load", cat="transfer", entity=entity_type, part=part,
            ) as sp:
                payload = read_arrays(path)
                codec = compression.get_codec(
                    compression.payload_codec_name(payload)
                )
                embeddings, optim_state = codec.decode(payload)
                if (embeddings.ndim != 2 or optim_state.ndim != 1
                        or len(embeddings) != len(optim_state)):
                    raise CorruptPartition(
                        f"decoded shapes {embeddings.shape} and "
                        f"{optim_state.shape} do not form a partition"
                    )
                sp.note(bytes=int(embeddings.nbytes + optim_state.nbytes))
                return embeddings, optim_state
        except (CorruptPartition, LookupError, TypeError, ValueError) as exc:
            raise CorruptPartition(
                f"corrupt partition file {path}: {exc}"
            ) from exc
        except OSError as exc:
            raise StorageError(f"cannot read partition file {path}: {exc}") from exc

    def exists(self, entity_type: str, part: int) -> bool:
        return self.path(entity_type, part).exists()

    def drop(self, entity_type: str, part: int) -> None:
        """Delete one stored partition if present."""
        path = self.path(entity_type, part)
        if path.exists():
            path.unlink()

    def stored_partitions(self, entity_type: str) -> "list[int]":
        """Sorted partition indices present on disk for ``entity_type``;
        a directory holding old ``.npz`` partitions raises
        :class:`StorageError`."""
        type_dir = self.root / entity_type
        if not type_dir.exists():
            return []
        for old in type_dir.glob(f"part-*{_NPZ}"):
            _refuse_npz(old)
        parts = []
        for p in type_dir.glob(f"part-*{SUFFIX}"):
            try:
                parts.append(int(p.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return sorted(parts)

    def nbytes(self) -> int:
        """Total bytes of stored partition files."""
        return sum(
            p.stat().st_size for p in self.root.rglob(f"part-*{SUFFIX}")
        )

    def export_mmap(
        self, entity_type: str, dest: "str | Path"
    ) -> "tuple[list[dict], int]":
        """Decode stored partitions into mmap-servable shard files.

        Each stored partition (whatever its codec, which may quantise)
        becomes ``{dest}/shard-{p:05d}.bin``, an array file holding one
        fp32 array, ``embeddings``; the training-only optimizer state
        is dropped.

        Returns ``(shards, dim)`` where ``shards`` is a manifest-ready
        list of ``{"part", "rows", "file"}`` entries.
        """
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        shards: "list[dict]" = []
        dim = 0
        for part in self.stored_partitions(entity_type):
            embeddings = self.load(entity_type, part)[0]
            embeddings = embeddings.astype(np.float32, copy=False)
            dim, name = embeddings.shape[1], f"shard-{part:05d}{SUFFIX}"
            atomic_write(dest / name, write_arrays, {"embeddings": embeddings})
            shards.append({"part": part, "rows": len(embeddings), "file": name})
        if not shards:
            raise StorageError(
                f"no stored partitions for {entity_type!r} under {self.root}"
            )
        return shards, dim


@dataclass
class _Staged:
    """One partition the pipeline holds between the park or prefetch
    that staged it and the take or budget eviction that removes it."""

    embeddings: np.ndarray
    optim_state: np.ndarray
    #: the background write of these bytes; None for a prefetched copy,
    #: which is byte-identical to the backend's. The entry is *dirty*
    #: exactly while this is unfinished: the write thread still reads
    #: the arrays, so nobody may mutate or drop them.
    write: "Future | None" = None

    @property
    def nbytes(self) -> int:
        return self.embeddings.nbytes + self.optim_state.nbytes


_PIPELINE_SERIALS = itertools.count()


class _Inline:
    """A pool of no threads (budget 0): a job runs as it is submitted."""

    def submit(self, fn, /, *args) -> Future:
        done = Future()
        done.set_result(fn(*args))
        return done

    def shutdown(self, *args, **kwargs) -> None:
        pass


class PartitionPipeline:
    """Prefetch + byte-budgeted LRU staging + background writeback.

    The small API every bucket loop drives (see
    :class:`repro.core.trainer.BucketExecutor`):

    - :meth:`settle` — wait for in-flight prefetch loads so the staged
      set is final before the caller mutates resident tables;
    - :meth:`park` — hand over an evicted partition; its write starts
      immediately in the background and the arrays stay staged for
      reuse (``on_flushed`` fires once the bytes land — the distributed
      trainer commits the partition's lock-server deferral from it);
    - :meth:`persist` — write a partition the caller keeps resident;
    - :meth:`take` — pop a partition for training (flush-before-reuse:
      blocks while a write of those arrays is in flight), falling back
      to a synchronous backend read;
    - :meth:`schedule` — queue background loads of upcoming partitions;
    - :meth:`drain` — wait until every write has landed (the
      checkpoint / epoch-end barrier).

    Writes run on one thread in submission order, so two writes of one
    key land in the order they were parked. Jobs hold *references* to
    the caller's arrays, not copies: a parked or persisted partition
    must not be modified until its write completes (:meth:`take` and
    :meth:`drain` are the two ways to know). The first write that fails
    is sticky: every later call raises :class:`StorageError` and the
    writes queued behind it are abandoned.

    ``budget_bytes`` bounds the staged bytes (``None``: unlimited). Over
    budget, least-recently-staged entries are dropped, each only after
    its write has landed — the pipeline never loses the only up-to-date
    copy of a partition. ``0`` is the serial pipeline: no thread is
    started, each write runs on the calling thread as it is submitted,
    and :meth:`schedule` is a no-op, so every backend call happens on
    the calling thread, in call order, and has landed before the call
    that made it returns. The counters follow from a zero-byte cache
    with no rule of their own: every :meth:`take` misses, every
    :meth:`park` is evicted, and nothing ever waits.

    ``storage`` is any object with the
    :class:`PartitionedEmbeddingStorage` ``load``/``save`` interface,
    ``save``'s ``dirty_rows`` keyword included: every park hands it
    the rows touched since the fetch, and only the backend decides
    whether to use them.
    ``validate``, when given, is called as ``validate(entity_type,
    part)`` on every staged hit; returning False means the staged copy
    is stale (another machine updated the backend since it was staged)
    and a fresh synchronous read is performed instead —
    ``pipeline.stale_prefetches`` counts those.
    """

    def __init__(
        self,
        storage,
        budget_bytes: int | None = None,
        validate: "Callable[[str, int], bool] | None" = None,
        name: str = "partition",
    ) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.storage = storage
        self.budget_bytes = budget_bytes
        self.validate = validate
        #: the registry the pipeline's counters live in, each named after
        #: the ``PipelineStats`` / ``MachineStats`` field it feeds
        self.metrics = MetricsRegistry()
        #: take() calls served from the staged set (and still valid)
        self._m_take_hits = self.metrics.counter("pipeline.prefetch_hits")
        #: take() calls that fell through to a backend read
        self._m_take_misses = self.metrics.counter("pipeline.prefetch_misses")
        #: staged hits invalidated because the backend had newer bytes
        self._m_stale = self.metrics.counter("pipeline.stale_prefetches")
        #: seconds settle() blocked on in-flight prefetches
        self._m_wait = self.metrics.counter("pipeline.prefetch_wait_time")
        #: seconds callers blocked on background writes
        #: (flush-before-reuse, budget evictions, drains)
        self._m_stall = self.metrics.counter("pipeline.writeback_stall_time")
        #: staged entries dropped to stay under the byte budget
        self._m_evictions = self.metrics.counter("pipeline.cache_evictions")
        # A leaf: held only around dict operations, never across a
        # backend call or a wait on a future.
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._entries: "OrderedDict[tuple[str, int], _Staged]" = (
            OrderedDict()
        )
        self._error: "BaseException | None" = None  # guarded-by: _lock
        # One worker each (none at budget 0): loads never reorder, and
        # writes land in submission order.
        self._load_pool = self._write_pool = _Inline()
        if budget_bytes != 0:
            self._load_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"{name}-prefetch"
            )
            self._write_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"{name}-writeback"
            )
        self._loads: "dict[tuple[str, int], Future]" = {}  # owned-by: main
        #: the most recently submitted write; with one write worker,
        #: once it has finished so has every write before it
        self._last_write: "Future | None" = None  # owned-by: main
        # The pipeline is the one reporter of ownership transitions:
        # every trainer's partition I/O goes through one.
        tracker = hooks.ownership_tracker()
        self._owner = (
            None if tracker is None
            # A serial, not id(self): a dead pipeline's id is reused.
            else tracker.register_owner(f"pipeline-{next(_PIPELINE_SERIALS)}")
        )

    def nbytes(self) -> int:
        """Bytes currently staged."""
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    # -- writes --------------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise StorageError(
                f"partition write failed: {self._error}"
            ) from self._error

    def _landed(
        self, key: "tuple[str, int]", on_flushed: "Callable[[], None] | None"
    ) -> None:
        """A parked partition's bytes reached the backend."""
        if self._owner is not None:
            self._owner.landed(key[0], key[1])
        if on_flushed is not None:
            on_flushed()

    def _submit_write(
        self, key, embeddings, optim_state, dirty_rows=None, on_landed=None
    ) -> Future:
        self._raise_if_failed()
        self._last_write = self._write_pool.submit(
            self._write, key, embeddings, optim_state, dirty_rows, on_landed
        )
        self._raise_if_failed()  # at budget 0 the write has run
        return self._last_write

    def _write(  # runs-on: writeback
        self, key, embeddings, optim_state, dirty_rows, on_landed
    ) -> None:
        """Write-thread body: save, then report the land. The report is
        part of the job, not a done-callback (those run after waiters
        wake): whoever returns from waiting on this write must find the
        lock-server commit already fired."""
        if self._error is not None:
            return  # abandoned: an earlier write failed
        try:
            with telemetry.span(
                "writeback.write", cat="transfer",
                entity=key[0], part=key[1],
            ):
                self.storage.save(
                    key[0], key[1], embeddings, optim_state,
                    dirty_rows=dirty_rows,
                )
            if on_landed is not None:
                on_landed()
        except BaseException as exc:  # surfaced on the caller side
            with self._lock:
                self._error = exc

    def _await_write(self, write: Future, key: "tuple[str, int]") -> None:
        """Block until ``write`` (of ``key``'s staged arrays) has
        landed; the seconds blocked count as writeback stall."""
        if not write.done():
            t0 = time.perf_counter()
            with telemetry.span(
                "writeback.wait", cat="stall", entity=key[0], part=key[1]
            ):
                write.result()
            self._m_stall.inc(time.perf_counter() - t0)
        self._raise_if_failed()

    # -- staging -------------------------------------------------------

    def _stage(self, key: "tuple[str, int]", entry: _Staged) -> None:
        """Insert ``entry`` as most recently staged (a newer park
        supersedes the entry of its key and carries its own write),
        then drop least-recently-staged entries until under budget."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
        while self.budget_bytes is not None:
            with self._lock:
                total = sum(e.nbytes for e in self._entries.values())
                if total <= self.budget_bytes:
                    return
                lru, victim = next(iter(self._entries.items()))
            # Wait outside the lock with the victim still staged: a
            # take() must keep finding these arrays (and their write)
            # rather than read the backend while the persist is racing.
            if victim.write is not None:
                self._await_write(victim.write, lru)
            with self._lock:
                if self._entries.get(lru) is victim:
                    del self._entries[lru]
                    self._m_evictions.inc()
                    if self._owner is not None:
                        self._owner.dropped(lru[0], lru[1])

    def settle(self) -> float:
        """Wait for in-flight prefetch loads (surfacing their errors);
        returns the seconds spent blocked."""
        if not self._loads:
            return 0.0
        t0 = time.perf_counter()
        with telemetry.span("prefetch.settle", cat="stall"):
            for fut in self._loads.values():
                fut.result()
        self._loads = {}
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
        """Park an evicted partition; its background write starts
        immediately and ``on_flushed`` fires exactly once, when it
        lands. Passing ``dirty_rows`` lets a delta-capable backend push
        only the rows modified since the partition was fetched."""
        key = (entity_type, part)
        if self._owner is not None:
            self._owner.parked(entity_type, part)
        write = self._submit_write(
            key, embeddings, optim_state, dirty_rows,
            partial(self._landed, key, on_flushed),
        )
        self._stage(key, _Staged(embeddings, optim_state, write))

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
        arrays again (at budget 0 it lands before returning)."""
        self._submit_write((entity_type, part), embeddings, optim_state)

    def take(
        self, entity_type: str, part: int
    ) -> "tuple[tuple[np.ndarray, np.ndarray] | None, bool]":
        """Pop a partition for training.

        Returns ``(arrays, served_from_staged)``; arrays is None when
        the partition is neither staged nor in the backend (the caller
        initialises it); any other load error propagates. A staged copy
        whose write is still in flight is handed out only once it has
        landed — the caller is about to mutate the arrays
        (flush-before-reuse). A stale staged copy (see ``validate``)
        counts in ``pipeline.stale_prefetches`` and falls back to a
        backend read.
        """
        key = (entity_type, part)
        self._raise_if_failed()
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is not None:
            if entry.write is not None:
                self._await_write(entry.write, key)
            if self.validate is None or self.validate(entity_type, part):
                if self._owner is not None:
                    self._owner.resident(entity_type, part, from_cache=True)
                self._m_take_hits.inc()
                return (entry.embeddings, entry.optim_state), True
            self._m_stale.inc()
            if self._owner is not None:
                self._owner.dropped(entity_type, part)
        try:
            got = self.storage.load(entity_type, part)
        except PartitionAbsent:
            got = None
        if self._owner is not None:
            # None means the caller initialises the partition; either
            # way it is resident on the main thread from here.
            self._owner.resident(entity_type, part, from_cache=False)
        self._m_take_misses.inc()
        return got, False

    def schedule(self, keys) -> int:
        """Queue background loads for ``keys`` (``(entity_type, part)``
        pairs) that are not already staged or in flight; returns the
        number scheduled. No-op at budget 0, where a staged entry would
        be dropped before it could be taken — prefetching would only
        double the reads."""
        if self.budget_bytes == 0:
            return 0
        scheduled = 0
        for key in keys:
            key = (key[0], key[1])
            with self._lock:
                staged = key in self._entries
            if staged or key in self._loads:
                continue
            self._loads[key] = self._load_pool.submit(self._prefetch_one, key)
            scheduled += 1
        return scheduled

    def _prefetch_one(self, key: "tuple[str, int]") -> None:  # runs-on: prefetch
        """Prefetch-thread body: one partition, backend → staged.

        Never touches the model or any RNG; a partition the backend
        does not have is simply skipped (the main thread initialises
        it). Any other load error is raised to :meth:`settle`."""
        try:
            with telemetry.span(
                "prefetch.fetch", cat="transfer",
                entity=key[0], part=key[1],
            ):
                embeddings, optim_state = self.storage.load(*key)
        except PartitionAbsent:
            return
        if self._owner is not None:
            # Record before the insert: the moment the entry is staged,
            # the main thread may legally take it resident.
            self._owner.staged(key[0], key[1])
        self._stage(key, _Staged(embeddings, optim_state))

    def drain(self) -> float:
        """Block until every parked or persisted write has landed (the
        checkpoint / epoch-end barrier); returns seconds blocked."""
        t0 = time.perf_counter()
        with telemetry.span("pipeline.drain", cat="stall"):
            last = self._last_write
            if last is not None and not last.done():
                with telemetry.span("writeback.drain", cat="stall"):
                    last.result()
                self._m_stall.inc(time.perf_counter() - t0)
            self._raise_if_failed()
        return time.perf_counter() - t0

    def close(self) -> None:
        """Let outstanding writes land, stop both worker threads (none
        at budget 0), then raise if a write failed."""
        for fut in self._loads.values():
            fut.cancel()
        self._loads = {}
        try:
            self._load_pool.shutdown(wait=True, cancel_futures=True)
        finally:
            # After a failed write the queued jobs return at once, so
            # this never waits on work that cannot succeed.
            self._write_pool.shutdown(wait=True)
        self._raise_if_failed()


class CheckpointStorage:
    """Whole-model checkpoints: config + shared params + partitions.

    Layout under ``{root}/``:

    - ``config.json`` — the serialized :class:`~repro.config.ConfigSchema`
    - ``metadata.json`` — epoch number and user metadata
    - ``shared.bin`` — relation operator parameters and other globals,
      an array file (:func:`write_arrays`; see :attr:`shared_path`)
    - ``embeddings/`` — a :class:`PartitionedEmbeddingStorage`, the
      store a partitioned run swaps against (``partitions``)

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
        atomic_write(self.root / "config.json", lambda fh: fh.write(config_json.encode()))

    def load_config(self) -> str:
        path = self.root / "config.json"
        if not path.exists():
            raise StorageError(f"no config at {path}")
        return path.read_text()

    # -- metadata -----------------------------------------------------

    def save_metadata(self, metadata: dict) -> None:
        text = json.dumps(metadata, indent=2, sort_keys=True)
        atomic_write(self.root / "metadata.json", lambda fh: fh.write(text.encode()))

    def load_metadata(self) -> dict:
        path = self.root / "metadata.json"
        if not path.exists():
            raise StorageError(f"no metadata at {path}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt metadata at {path}: {exc}") from exc

    # -- shared parameters ---------------------------------------------

    @property
    def shared_path(self) -> Path:
        """The file the shared parameters are stored in."""
        return self.root / f"shared{SUFFIX}"

    def save_shared(self, arrays: "dict[str, np.ndarray]") -> None:
        """Persist shared (non-partitioned) parameters."""
        atomic_write(self.shared_path, write_arrays, arrays)

    def load_shared(self) -> "dict[str, np.ndarray]":
        path = self.shared_path
        if not path.exists():
            _refuse_npz(path)
            raise StorageError(f"no shared parameters at {path}")
        try:
            return read_arrays(path)
        except CorruptPartition as exc:
            raise CorruptPartition(f"corrupt shared file {path}: {exc}") from exc
        except OSError as exc:
            raise StorageError(f"cannot read shared file {path}: {exc}") from exc

    def exists(self) -> bool:
        return (self.root / "config.json").exists()
