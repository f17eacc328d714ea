"""Sharded partition server (paper Section 4.2, Figure 2).

Partitioned embeddings not currently being trained live in a partition
server sharded across the ``N`` training machines; a trainer fetches
the (often multi-GB) source and destination partitions of its next
bucket and pushes back the partitions it no longer needs.

What crosses the server boundary is the *wire format*: an encoded
payload of :mod:`repro.graph.compression`. The codec runs at the client
(:class:`PartitionServerStorage`, one per machine, encodes what it
pushes and decodes what it fetches); :class:`PartitionServer` stores
and ships payloads verbatim, so through a manager proxy (process mode)
the pickled bytes *are* the encoded bytes and hosted memory is encoded
memory. Since the server does not build what it stores, ``put`` and
``put_delta`` validate first and raise :class:`PayloadError` before
mutating anything. Nothing aliases: ``encode`` and ``decode`` allocate
fresh arrays, and a stored payload is replaced wholesale, never written
to, so a reference from ``get_versioned`` (thread mode) stays whole.

Every ``put`` bumps a per-key version counter; the adapter records the
version it observed so pipelined trainers can detect that a staged
(prefetched) copy went stale because another machine pushed an update
in the meantime. ``put_delta`` takes a dirty-row writeback delta under
the same version check — one computed against a stale version is
rejected and the caller degrades to a full push — and applies it as a
copy-on-write *row patch of the stored encoded arrays*: every codec
encodes rows independently, so this is bitwise what decode, scatter,
re-encode would give, without touching the other rows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.graph import compression
from repro.graph.storage import PartitionAbsent
from repro.telemetry.metrics import MetricsRegistry, view

__all__ = [
    "PartitionServer",
    "PartitionServerStats",
    "PartitionServerStorage",
    "CodecDriftError",
    "PayloadError",
]


class CodecDriftError(RuntimeError):
    """A fetched partition decoded to drifted dtype/shape.

    Deliberately *not* a :class:`~repro.graph.storage.StorageError`:
    the stored data is real, so drift must abort the run, never be
    mistaken for :class:`~repro.graph.storage.PartitionAbsent` ("no
    copy, initialise it").
    """


class PayloadError(ValueError):
    """The server was handed a payload it must not store (foreign codec
    marker, ragged arrays, a delta that does not fit the partition)."""


@dataclass
class PartitionServerStats:
    """Transfer counters, per server.

    ``gets`` counts every fetch attempt — including ones that return
    None (``misses``) — so hit rates can be derived; bytes accrue only
    for transfers that actually moved data, and are *encoded* bytes —
    ``bytes_saved`` is how many fp32 bytes codec and deltas avoided.
    ``delta_puts`` / ``delta_stale`` count dirty-row writebacks applied
    / rejected for staleness.
    """

    gets: int = 0
    puts: int = 0
    misses: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_saved: int = 0
    delta_puts: int = 0
    delta_stale: int = 0


@dataclass
class _Shard:
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: key → encoded wire payload (see repro.graph.compression)
    store: "dict[tuple[str, int], dict[str, np.ndarray]]" = field(
        default_factory=dict
    )
    versions: "dict[tuple[str, int], int]" = field(default_factory=dict)
    #: encoded bytes hosted (running sum over ``store``)
    nbytes: int = 0


_NOT_ROWS = (compression.CODEC_KEY, compression.DELTA_ROWS_KEY)


def _raw_nbytes(payload) -> int:
    """fp32 bytes of the rows a payload encodes and their row-Adagrad
    state: the baseline a codec's savings count against."""
    num_rows, dim = compression.payload_shape(payload)
    return num_rows * (4 * dim + 4)


class PartitionServer:  # public-guard: lock
    """Key-value store of partitions, sharded by partition index.

    Parameters
    ----------
    num_shards:
        Number of hosting machines; partition ``p`` of any entity type
        lives on shard ``p % num_shards``.
    codec:
        Name of the one codec (``none`` / ``fp16`` / ``int8``) whose
        payloads this server accepts, hosts and ships.
    """

    def __init__(self, num_shards: int, codec: str = "none") -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shards = [_Shard() for _ in range(num_shards)]
        self._codec = compression.get_codec(codec)
        # Transfer counters live in a metrics registry, one per
        # PartitionServerStats field; ``stats`` is a view of it.
        self._metrics = MetricsRegistry()
        self._c_gets = self._metrics.counter("server.gets")
        self._c_puts = self._metrics.counter("server.puts")
        self._c_misses = self._metrics.counter("server.misses")
        self._c_bytes_sent = self._metrics.counter("server.bytes_sent")
        self._c_bytes_received = self._metrics.counter("server.bytes_received")
        self._c_bytes_saved = self._metrics.counter("server.bytes_saved")
        self._c_delta_puts = self._metrics.counter("server.delta_puts")
        self._c_delta_stale = self._metrics.counter("server.delta_stale")

    @property
    def stats(self) -> PartitionServerStats:  # lint: no-lock (counter-backed)
        return view(PartitionServerStats, self._metrics)

    # ------------------------------------------------------------------

    def codec_name(self) -> str:  # lint: no-lock
        """Name of the codec this server transfers/stores with (a
        method, not an attribute, so manager proxies can forward it)."""
        return self._codec.name

    def _shard(self, part: int) -> _Shard:
        return self._shards[part % len(self._shards)]

    def _account(self, nbytes: int, sent: bool, saved: int) -> None:
        if sent:
            self._c_gets.inc()
            self._c_bytes_sent.inc(nbytes)
        else:
            self._c_puts.inc()
            self._c_bytes_received.inc(nbytes)
        self._c_bytes_saved.inc(saved)

    def _account_miss(self) -> None:
        self._c_gets.inc()
        self._c_misses.inc()

    # ------------------------------------------------------------------

    def _row_arrays(self, payload, num_rows: "int | None" = None):
        """The per-row arrays of ``payload`` — or :class:`PayloadError`
        unless it carries this server's codec marker, one 2-D block and
        arrays of one length (``num_rows``, if given)."""
        arrays = {k: v for k, v in payload.items() if k not in _NOT_ROWS}
        lengths = {np.shape(a)[:1] for a in arrays.values()}  # () if 0-d
        if num_rows is not None:
            lengths.add((num_rows,))
        codec = str(payload.get(compression.CODEC_KEY))
        blocks = sum(np.ndim(a) == 2 for a in arrays.values())
        if codec != self._codec.name or len(lengths) != 1 or blocks != 1:
            raise PayloadError(
                f"want a {self._codec.name!r} payload of equal-length "
                f"arrays; got codec {codec!r}, row counts {sorted(lengths)}"
            )
        return arrays

    def put(self, entity_type: str, part: int, payload) -> int:
        """Store an encoded partition as handed over (the caller must
        not touch ``payload`` again); returns its new version number."""
        with telemetry.span(
            "server.put", cat="transfer", entity=entity_type, part=part
        ) as sp:
            self._row_arrays(payload)
            nbytes = compression.payload_nbytes(payload)
            sp.note(wire_bytes=nbytes)
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                old = shard.store.get(key)
                shard.nbytes += nbytes - (
                    0 if old is None else compression.payload_nbytes(old)
                )
                shard.store[key] = payload
                version = shard.versions.get(key, 0) + 1
                shard.versions[key] = version
            self._account(
                nbytes, sent=False, saved=_raw_nbytes(payload) - nbytes
            )
            return version

    def put_delta(
        self, entity_type: str, part: int, delta, base_version: int
    ) -> "int | None":
        """Apply an encoded dirty-row delta under the version check.

        ``delta`` (:func:`repro.graph.compression.encode_delta`) was
        computed against ``base_version``; if the server's version has
        moved on (another machine pushed in between) it is *rejected*:
        returns None and the caller must degrade to a full :meth:`put`.
        Otherwise its rows are patched into a copy of the stored arrays
        and the new version is returned. Only the delta's bytes are
        counted (the version check is metadata).
        """
        with telemetry.span(
            "server.put_delta", cat="transfer", entity=entity_type, part=part
        ) as sp:
            rows = np.asarray(delta.get(compression.DELTA_ROWS_KEY))
            if rows.ndim != 1 or rows.dtype.kind != "i":
                raise PayloadError("delta has no 1-D integer row indices")
            patch = self._row_arrays(delta, len(rows))
            nbytes = compression.payload_nbytes(delta)
            sp.note(wire_bytes=nbytes, rows=len(rows))
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                stored = shard.store.get(key)
                stale = (
                    stored is None
                    or shard.versions.get(key, 0) != base_version
                )
                if not stale:
                    shard.store[key] = _patched(stored, rows, patch)
                    version = base_version + 1
                    shard.versions[key] = version
            sp.note(stale=stale)
            if stale:
                self._c_delta_stale.inc()
                return None
            self._c_delta_puts.inc()
            self._account(
                nbytes, sent=False, saved=_raw_nbytes(stored) - nbytes
            )
            return version

    def get_versioned(
        self, entity_type: str, part: int
    ) -> "tuple[dict[str, np.ndarray], int] | None":
        """The stored payload (read-only: in-process it is the stored
        reference) plus its version; None if never stored."""
        with telemetry.span(
            "server.get", cat="transfer", entity=entity_type, part=part
        ) as sp:
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                payload = shard.store.get(key)
                version = shard.versions.get(key)
            if payload is None:
                self._account_miss()
                sp.note(miss=True)
                return None
            nbytes = compression.payload_nbytes(payload)
            sp.note(wire_bytes=nbytes)
            self._account(
                nbytes, sent=True, saved=_raw_nbytes(payload) - nbytes
            )
            return payload, version

    def version(self, entity_type: str, part: int) -> int:
        """Current version of a partition; 0 if never stored."""
        shard = self._shard(part)
        with shard.lock:
            return shard.versions.get((entity_type, part), 0)

    def has(self, entity_type: str, part: int) -> bool:
        shard = self._shard(part)
        with shard.lock:
            return (entity_type, part) in shard.store

    def keys(self) -> "list[tuple[str, int]]":
        out = []
        for shard in self._shards:
            with shard.lock:
                out.extend(shard.store)
        return sorted(out)

    def shard_nbytes(self) -> "list[int]":  # lint: no-lock (int reads)
        """Encoded bytes hosted per shard — the memory each machine
        contributes (a running count, not a walk)."""
        return [shard.nbytes for shard in self._shards]


def _patched(stored, rows: np.ndarray, patch) -> "dict[str, np.ndarray]":
    """A copy of the payload ``stored`` with the encoded row blocks of
    ``patch`` written at ``rows``; ``stored`` is left whole for whoever
    still reads it."""
    if patch.keys() != stored.keys() - {compression.CODEC_KEY} or any(
        (block.dtype, block.shape[1:]) != (stored[k].dtype, stored[k].shape[1:])
        for k, block in patch.items()
    ):
        raise PayloadError("delta arrays do not match the stored partition's")
    num_rows = len(stored[next(iter(patch))])
    if len(rows) and not 0 <= rows.min() <= rows.max() < num_rows:
        raise PayloadError(
            f"delta rows [{rows.min()}, {rows.max()}] out of range for "
            f"partition of {num_rows} rows"
        )
    out = dict(stored)
    for k, block in patch.items():
        out[k] = stored[k].copy()
        out[k][rows] = block
    return out


class PartitionServerStorage:  # public-guard: _lock
    """Adapts a :class:`PartitionServer` (or its manager proxy) to the
    ``load``/``save`` interface of
    :class:`~repro.graph.storage.PartitionedEmbeddingStorage`, so the
    pipelined trainer's :class:`~repro.graph.storage.PartitionPipeline`
    (prefetch cache + writeback queue) works over the network path
    unchanged.

    This is where the server's codec runs: ``save`` encodes (a full
    payload or a dirty-row delta), ``load`` decodes the payload it
    receives and guards the result.

    The adapter remembers the version of every partition it loaded or
    saved; :meth:`is_current` then tells the pipeline whether a staged
    copy still matches the server (another machine may have pushed an
    update between our prefetch and our lock acquisition). From its
    ``io_seconds`` the trainer derives how much transfer time was
    overlapped with compute.

    With ``use_delta=True``, :meth:`save` pushes a dirty-row delta
    (when the caller supplies ``dirty_rows`` and the baseline version
    is known) instead of the whole partition; a stale delta degrades to
    a full push (``backend.delta_fallbacks``), and a save with *no*
    dirty rows against a still-current baseline is skipped outright
    (``backend.delta_skips``). The wire counters of :attr:`metrics`
    (``backend.wire_bytes_sent`` / ``_received`` / ``_saved``) are read
    off the payloads that actually crossed.
    """

    def __init__(self, server, use_delta: bool = False) -> None:
        self.server = server
        self.use_delta = use_delta
        self._lock = threading.Lock()
        self._versions: "dict[tuple[str, int], int]" = {}  # guarded-by: _lock
        self._codec: "compression.PartitionCodec | None" = None
        #: per-machine transfer counters, named after the MachineStats
        #: fields they feed
        self.metrics = MetricsRegistry()
        self._c_loads = self.metrics.counter("backend.loads")
        self._c_saves = self.metrics.counter("backend.saves")
        self._c_delta_pushes = self.metrics.counter("backend.delta_pushes")
        self._c_delta_fallbacks = self.metrics.counter(
            "backend.delta_fallbacks"
        )
        self._c_delta_skips = self.metrics.counter("backend.delta_skips")
        self._c_bytes_sent = self.metrics.counter("backend.wire_bytes_sent")
        self._c_bytes_received = self.metrics.counter(
            "backend.wire_bytes_received"
        )
        self._c_bytes_saved = self.metrics.counter("backend.wire_bytes_saved")
        #: wall seconds inside ``load``/``save``, all threads
        self.io_seconds = self.metrics.counter("backend.io_seconds")

    def _server_codec(self) -> compression.PartitionCodec:
        """The server's codec (one manager round-trip, then cached; the
        once-race is benign)."""
        if self._codec is None:
            self._codec = compression.get_codec(self.server.codec_name())
        return self._codec

    def _moved(self, payload, counter) -> int:
        """Count ``payload`` on ``counter`` (sent or received)."""
        nbytes = compression.payload_nbytes(payload)
        counter.inc(nbytes)
        self._c_bytes_saved.inc(_raw_nbytes(payload) - nbytes)
        return nbytes

    def load(self, entity_type, part):  # lint: no-lock (locks in _load)
        t0 = time.perf_counter()
        with telemetry.span(
            "backend.load", cat="transfer", entity=entity_type, part=part
        ) as sp:
            try:
                return self._load(sp, entity_type, part)
            finally:
                self.io_seconds.inc(time.perf_counter() - t0)

    def _load(self, sp, entity_type: str, part: int):
        entry = self.server.get_versioned(entity_type, part)
        if entry is None:
            raise PartitionAbsent(
                f"partition server has no ({entity_type!r}, {part})"
            )
        payload, version = entry
        self._c_loads.inc()
        with self._lock:
            self._versions[(entity_type, part)] = version
        # A foreign writer or a codec bug must never land drifted
        # arrays in the staging cache, where they would silently poison
        # training. Fail loudly here instead.
        codec = self._server_codec()
        marker = compression.payload_codec_name(payload)
        if marker != codec.name:
            raise CodecDriftError(
                f"partition ({entity_type!r}, {part}) arrived as {marker!r} "
                f"from a {codec.name!r} server"
            )
        embeddings, optim_state = codec.decode(payload)
        if embeddings.dtype != np.float32 or embeddings.ndim != 2:
            raise CodecDriftError(
                f"partition ({entity_type!r}, {part}) decoded to "
                f"{embeddings.dtype}/{embeddings.ndim}-d embeddings; "
                "expected float32 2-d"
            )
        if optim_state.dtype != np.float32 or optim_state.shape != (
            len(embeddings),
        ):
            raise CodecDriftError(
                f"partition ({entity_type!r}, {part}) decoded to "
                f"{optim_state.dtype}/{optim_state.shape} optimizer "
                f"state; expected float32 ({len(embeddings)},)"
            )
        sp.note(wire_bytes=self._moved(payload, self._c_bytes_received))
        return embeddings, optim_state

    def save(  # lint: no-lock (locks in _save)
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        t0 = time.perf_counter()
        with telemetry.span(
            "backend.save", cat="transfer", entity=entity_type, part=part
        ) as sp:
            try:
                self._save(sp, entity_type, part, embeddings, optim_state,
                           dirty_rows)
            finally:
                self.io_seconds.inc(time.perf_counter() - t0)

    def _save(
        self, sp, entity_type, part, embeddings, optim_state, dirty_rows
    ) -> None:
        key = (entity_type, part)
        num_rows = len(embeddings)
        codec = self._server_codec()
        with self._lock:
            base = self._versions.get(key) if self.use_delta else None
        version = None
        delta_ok = base is not None and dirty_rows is not None
        dirty = len(dirty_rows) if delta_ok else num_rows
        if dirty == 0:
            # Nothing changed since fetch: if the server still holds
            # our baseline, the stored copy is already exact — skip the
            # transfer entirely.
            if self.server.version(entity_type, part) == base:
                self._c_saves.inc()
                self._c_delta_skips.inc()
                sp.note(skipped=True, wire_bytes=0)
                return
        elif dirty < num_rows:
            delta = compression.encode_delta(
                codec, dirty_rows, embeddings[dirty_rows],
                optim_state[dirty_rows],
            )
            version = self.server.put_delta(entity_type, part, delta, base)
            if version is not None:
                self._c_delta_pushes.inc()
                sp.note(
                    delta=True, wire_bytes=self._moved(delta, self._c_bytes_sent)
                )
            else:
                self._c_delta_fallbacks.inc()
        if version is None:
            payload = codec.encode(embeddings, optim_state)
            version = self.server.put(entity_type, part, payload)
            sp.note(wire_bytes=self._moved(payload, self._c_bytes_sent))
        self._c_saves.inc()
        with self._lock:
            self._versions[key] = version

    def is_current(self, entity_type: str, part: int) -> bool:
        """Whether the last version this adapter observed for the
        partition is still the server's latest."""
        with self._lock:
            seen = self._versions.get((entity_type, part))
        if seen is None:
            return False
        return seen == self.server.version(entity_type, part)
