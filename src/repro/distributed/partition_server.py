"""Sharded partition server (paper Section 4.2, Figure 2).

Partitioned embeddings not currently being trained live in a partition
server sharded across the ``N`` training machines; a trainer fetches
the (often multi-GB) source and destination partitions of its next
bucket and pushes back the partitions it no longer needs.

In this simulation, shards are per-machine in-memory stores behind
locks, and every get/put deep-copies its arrays — machines therefore
never alias each other's parameters, so transfer semantics (and an
optional bandwidth model) are faithful; only the wire is missing.

The bandwidth model treats each shard's NIC as a *shared* device:
concurrent transfers against the same shard queue behind one another
(``nic_free_at`` tracks when the device frees up), so N simultaneous
fetches take ~N× one fetch rather than all completing in parallel —
the contention a real sharded server exhibits. Every ``put`` bumps a
per-key version counter; :class:`PartitionServerStorage` records the
version it observed so pipelined trainers can detect that a staged
(prefetched) copy went stale because another machine pushed an update
in the meantime.

Transfers are compressed with a partition codec
(:mod:`repro.graph.compression`): shards hold the *encoded* payload
(so hosted memory shrinks too), the NIC model charges encoded bytes,
and :meth:`PartitionServer.put_delta` accepts dirty-row writeback
deltas applied under the per-key version check — a delta computed
against a stale version is rejected and the caller degrades to a full
push.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.graph import compression
from repro.graph.storage import StorageError
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "PartitionServer",
    "PartitionServerStats",
    "PartitionServerStorage",
    "CodecDriftError",
]


class CodecDriftError(RuntimeError):
    """A fetched partition decoded to drifted dtype/shape.

    Deliberately *not* a :class:`~repro.graph.storage.StorageError`:
    every consumer treats StorageError as "partition absent, initialise
    it", which would silently discard the (corrupt but real) stored
    data. Drift must abort the run instead.
    """


@dataclass
class PartitionServerStats:
    """Transfer counters, per server.

    ``gets`` counts every fetch attempt — including ones that return
    None (``misses``) — so hit rates can be derived; bytes accrue only
    for transfers that actually moved data, and are *encoded* (on-wire)
    bytes under a non-trivial codec — ``bytes_saved`` accumulates how
    many fp32 bytes the codec and delta writeback avoided moving.
    ``simulated_transfer_seconds`` is the pure bytes/bandwidth cost;
    ``simulated_queue_seconds`` is the extra time transfers spent
    waiting for a busy shard NIC. ``delta_puts`` / ``delta_stale``
    count dirty-row writebacks applied / rejected for staleness.
    """

    gets: int = 0
    puts: int = 0
    misses: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_saved: int = 0
    delta_puts: int = 0
    delta_stale: int = 0
    simulated_transfer_seconds: float = 0.0
    simulated_queue_seconds: float = 0.0


@dataclass
class _Shard:
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: key → encoded wire payload (see repro.graph.compression)
    store: "dict[tuple[str, int], dict[str, np.ndarray]]" = field(
        default_factory=dict
    )
    versions: "dict[tuple[str, int], int]" = field(default_factory=dict)
    #: monotonic timestamp at which this shard's simulated NIC is free
    nic_free_at: float = 0.0


def _raw_nbytes(num_rows: int, dim: int) -> int:
    """fp32 bytes of a full partition — the uncompressed baseline."""
    return compression.wire_nbytes("none", num_rows, dim)


class PartitionServer:  # public-guard: lock, _stats_lock
    """Key-value store of partitions, sharded by partition index.

    Parameters
    ----------
    num_shards:
        Number of hosting machines; partition ``p`` of any entity type
        lives on shard ``p % num_shards``.
    bandwidth_bytes_per_s:
        Optional simulated network bandwidth per shard NIC; each
        transfer occupies the shard's NIC for ``nbytes / bandwidth``
        seconds, and concurrent transfers on one shard serialise.
        ``None`` disables the delay (the default for tests and fast
        benchmarks).
    codec:
        Partition codec name used for every transfer and for hosted
        storage (``none`` / ``fp16`` / ``int8``). The NIC model charges
        encoded bytes, so a smaller codec is directly wall-clock saved.
    """

    def __init__(
        self,
        num_shards: int,
        bandwidth_bytes_per_s: float | None = None,
        codec: str = "none",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shards = [_Shard() for _ in range(num_shards)]
        self.bandwidth = bandwidth_bytes_per_s
        self._codec = compression.get_codec(codec)
        # Transfer counters live in a metrics registry; ``stats`` is a
        # derived snapshot. _stats_lock still serialises the NIC model
        # (nic_free_at read-modify-write must be atomic).
        self._metrics = MetricsRegistry()
        self._c_gets = self._metrics.counter("server.gets")
        self._c_puts = self._metrics.counter("server.puts")
        self._c_misses = self._metrics.counter("server.misses")
        self._c_bytes_sent = self._metrics.counter("server.bytes_sent")
        self._c_bytes_received = self._metrics.counter("server.bytes_received")
        self._c_bytes_saved = self._metrics.counter("server.bytes_saved")
        self._c_delta_puts = self._metrics.counter("server.delta_puts")
        self._c_delta_stale = self._metrics.counter("server.delta_stale")
        self._c_transfer_s = self._metrics.counter(
            "server.simulated_transfer_seconds"
        )
        self._c_queue_s = self._metrics.counter(
            "server.simulated_queue_seconds"
        )
        self._stats_lock = threading.Lock()

    @property
    def stats(self) -> PartitionServerStats:  # lint: no-lock (counter-backed)
        """Snapshot of the transfer counters (derived, read-only)."""
        return PartitionServerStats(
            gets=int(self._c_gets.value),
            puts=int(self._c_puts.value),
            misses=int(self._c_misses.value),
            bytes_sent=int(self._c_bytes_sent.value),
            bytes_received=int(self._c_bytes_received.value),
            bytes_saved=int(self._c_bytes_saved.value),
            delta_puts=int(self._c_delta_puts.value),
            delta_stale=int(self._c_delta_stale.value),
            simulated_transfer_seconds=self._c_transfer_s.value,
            simulated_queue_seconds=self._c_queue_s.value,
        )

    # ------------------------------------------------------------------

    def codec_name(self) -> str:  # lint: no-lock
        """Name of the codec this server transfers/stores with (a
        method, not an attribute, so manager proxies can forward it)."""
        return self._codec.name

    def _shard(self, part: int) -> _Shard:
        return self._shards[part % len(self._shards)]

    def _account(
        self, shard: _Shard, nbytes: int, sent: bool, saved: int = 0
    ) -> None:
        delay = nbytes / self.bandwidth if self.bandwidth else 0.0
        wait = 0.0
        if sent:
            self._c_gets.inc()
            self._c_bytes_sent.inc(nbytes)
        else:
            self._c_puts.inc()
            self._c_bytes_received.inc(nbytes)
        self._c_bytes_saved.inc(saved)
        self._c_transfer_s.inc(delay)
        if delay:
            with self._stats_lock:
                # The shard's NIC is shared: this transfer starts when
                # the device frees up, not immediately.
                now = time.monotonic()
                start = max(now, shard.nic_free_at)
                shard.nic_free_at = start + delay
                wait = (start + delay) - now
            self._c_queue_s.inc(start - now)
        if wait > 0:
            time.sleep(wait)

    def _account_miss(self) -> None:
        self._c_gets.inc()
        self._c_misses.inc()

    # ------------------------------------------------------------------

    def put(
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
    ) -> int:
        """Store a partition (the server keeps its own, encoded, copy);
        returns the partition's new version number."""
        with telemetry.span(
            "server.put", cat="transfer", entity=entity_type, part=part
        ) as sp:
            payload = self._codec.encode(embeddings, optim_state)
            nbytes = compression.payload_nbytes(payload)
            raw = _raw_nbytes(len(embeddings), embeddings.shape[1])
            sp.note(wire_bytes=nbytes)
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                shard.store[key] = payload
                version = shard.versions.get(key, 0) + 1
                shard.versions[key] = version
            self._account(shard, nbytes, sent=False, saved=raw - nbytes)
            return version

    def put_delta(
        self,
        entity_type: str,
        part: int,
        row_indices: np.ndarray,
        emb_rows: np.ndarray,
        state_rows: np.ndarray,
        base_version: int,
    ) -> "int | None":
        """Apply a dirty-row writeback delta under the version check.

        The delta was computed against ``base_version`` of the stored
        partition; if the server's version has moved on (another
        machine pushed in between), the delta is *rejected* — returns
        None and the caller must degrade to a full :meth:`put`. On
        success the stored partition is decoded, the delta rows are
        scattered in, the result is re-encoded, the version bumps, and
        the new version is returned. Only the delta's bytes are charged
        to the NIC (the version check itself is a metadata round-trip,
        not a data transfer).
        """
        with telemetry.span(
            "server.put_delta", cat="transfer", entity=entity_type, part=part
        ) as sp:
            delta = compression.encode_delta(
                self._codec, row_indices, emb_rows, state_rows
            )
            nbytes = compression.payload_nbytes(delta)
            sp.note(wire_bytes=nbytes, rows=len(row_indices))
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                current = shard.versions.get(key, 0)
                if current != base_version or key not in shard.store:
                    stale = True
                else:
                    stale = False
                    emb, state = self._codec.decode(shard.store[key])
                    rows, d_emb, d_state = compression.decode_delta(delta)
                    compression.apply_delta_rows(
                        emb, state, rows, d_emb, d_state
                    )
                    shard.store[key] = self._codec.encode(emb, state)
                    version = current + 1
                    shard.versions[key] = version
            sp.note(stale=stale)
            if stale:
                self._c_delta_stale.inc()
                return None
            raw = _raw_nbytes(len(emb), emb.shape[1])
            self._c_delta_puts.inc()
            self._account(shard, nbytes, sent=False, saved=raw - nbytes)
            return version

    def get_versioned(
        self, entity_type: str, part: int
    ) -> "tuple[np.ndarray, np.ndarray, int] | None":
        """Fetch a partition copy plus its version; None if never stored."""
        with telemetry.span(
            "server.get", cat="transfer", entity=entity_type, part=part
        ) as sp:
            shard = self._shard(part)
            key = (entity_type, part)
            with shard.lock:
                payload = shard.store.get(key)
                version = (
                    shard.versions.get(key) if payload is not None else None
                )
            if version is None:
                self._account_miss()
                sp.note(miss=True)
                return None
            # Decode outside the shard lock: payloads are replaced
            # wholesale on put, never mutated, and decode() allocates
            # fresh arrays, so callers can never alias the stored copy.
            emb, state = self._codec.decode(payload)
            nbytes = compression.payload_nbytes(payload)
            sp.note(wire_bytes=nbytes)
            raw = _raw_nbytes(len(emb), emb.shape[1])
            self._account(shard, nbytes, sent=True, saved=raw - nbytes)
            return emb, state, version

    def get(  # lint: no-lock (pure delegation to get_versioned)
        self, entity_type: str, part: int
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Fetch a partition copy; None if never stored."""
        entry = self.get_versioned(entity_type, part)
        if entry is None:
            return None
        return entry[0], entry[1]

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

    def shard_nbytes(self) -> "list[int]":
        """Bytes hosted per shard — the memory each machine contributes
        (encoded bytes: a non-trivial codec shrinks hosting too)."""
        sizes = []
        for shard in self._shards:
            with shard.lock:
                sizes.append(
                    sum(
                        compression.payload_nbytes(p)
                        for p in shard.store.values()
                    )
                )
        return sizes


class PartitionServerStorage:  # public-guard: _lock
    """Adapts a :class:`PartitionServer` (or its manager proxy) to the
    ``load``/``save`` interface of
    :class:`~repro.graph.storage.PartitionedEmbeddingStorage`, so the
    pipelined trainer's :class:`~repro.graph.storage.PartitionPipeline`
    (prefetch cache + writeback queue) works over the network path
    unchanged.

    The adapter remembers the version of every partition it loaded or
    saved; :meth:`is_current` then tells the pipeline whether a staged
    copy still matches the server (another machine may have pushed an
    update between our prefetch and our lock acquisition). It also
    accumulates ``io_seconds`` — total wall time spent inside server
    transfers across all threads — from which the trainer derives how
    much transfer time was overlapped with compute.

    With ``use_delta=True``, :meth:`save` pushes a dirty-row delta
    (when the caller supplies ``dirty_rows`` and the baseline version
    is known) instead of the whole partition; a stale delta degrades to
    a full push (``delta_fallbacks``), and a save with *no* dirty rows
    against a still-current baseline is skipped outright
    (``delta_skips``) — nothing changed, so the server copy is already
    exact. The adapter also keeps analytic per-machine wire counters
    (``bytes_sent`` / ``bytes_received`` / ``bytes_saved``), computed
    locally from the server's codec so they work across manager
    proxies.
    """

    def __init__(
        self,
        server,
        use_delta: bool = False,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.server = server
        self.use_delta = use_delta
        self._lock = threading.Lock()
        self._versions: "dict[tuple[str, int], int]" = {}  # guarded-by: _lock
        self._codec_name: "str | None" = None
        #: per-machine transfer counters (MachineStats derives from these)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_loads = self.metrics.counter("backend.loads")
        self._c_saves = self.metrics.counter("backend.saves")
        self._c_delta_pushes = self.metrics.counter("backend.delta_pushes")
        self._c_delta_fallbacks = self.metrics.counter(
            "backend.delta_fallbacks"
        )
        self._c_delta_skips = self.metrics.counter("backend.delta_skips")
        self._c_bytes_sent = self.metrics.counter("backend.bytes_sent")
        self._c_bytes_received = self.metrics.counter("backend.bytes_received")
        self._c_bytes_saved = self.metrics.counter("backend.bytes_saved")
        self._c_io_seconds = self.metrics.counter("backend.io_seconds")

    @property
    def loads(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_loads.value)

    @property
    def saves(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_saves.value)

    @property
    def delta_pushes(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_delta_pushes.value)

    @property
    def delta_fallbacks(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_delta_fallbacks.value)

    @property
    def delta_skips(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_delta_skips.value)

    @property
    def bytes_sent(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_bytes_sent.value)

    @property
    def bytes_received(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_bytes_received.value)

    @property
    def bytes_saved(self) -> int:  # lint: no-lock (counter-backed)
        return int(self._c_bytes_saved.value)

    @property
    def io_seconds(self) -> float:  # lint: no-lock (counter-backed)
        """Total wall seconds inside server transfers, all threads."""
        return self._c_io_seconds.value

    def codec_name(self) -> str:  # lint: no-lock (benign once-race on a cache)
        """The server's codec name (fetched once, cached — one manager
        round-trip in process mode)."""
        if self._codec_name is None:
            self._codec_name = self.server.codec_name()
        return self._codec_name

    def _wire(self, num_rows: int, dim: int, outbound: bool, *, delta=False):
        """Account one transfer's encoded + saved bytes locally, from
        this machine's perspective (loads receive, saves send)."""
        codec = self.codec_name()
        if delta:
            nbytes = compression.delta_wire_nbytes(codec, num_rows, dim)
        else:
            nbytes = compression.wire_nbytes(codec, num_rows, dim)
        raw = compression.wire_nbytes("none", num_rows, dim)
        if outbound:
            self._c_bytes_sent.inc(nbytes)
        else:
            self._c_bytes_received.inc(nbytes)
        self._c_bytes_saved.inc(raw - nbytes)
        return nbytes

    def load(self, entity_type, part):  # lint: no-lock (locks in _load)
        with telemetry.span(
            "backend.load", cat="transfer", entity=entity_type, part=part
        ) as sp:
            return self._load(sp, entity_type, part)

    def _load(self, sp, entity_type: str, part: int):
        t0 = time.perf_counter()
        entry = self.server.get_versioned(entity_type, part)
        self._c_io_seconds.inc(time.perf_counter() - t0)
        if entry is not None:
            self._c_loads.inc()
            with self._lock:
                self._versions[(entity_type, part)] = entry[2]
        if entry is None:
            raise StorageError(
                f"partition server has no ({entity_type!r}, {part})"
            )
        embeddings, optim_state = entry[0], entry[1]
        # Every fetch crosses an encode→decode round-trip; a codec bug
        # (or a foreign writer) must never land dtype- or shape-drifted
        # arrays in the staging cache, where they would silently poison
        # training. Fail loudly here instead.
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
        sp.note(
            wire_bytes=self._wire(
                len(embeddings), embeddings.shape[1], outbound=False
            )
        )
        return embeddings, optim_state

    def save(  # lint: no-lock (locks in _save)
        self,
        entity_type: str,
        part: int,
        embeddings: np.ndarray,
        optim_state: np.ndarray,
        dirty_rows: "np.ndarray | None" = None,
    ) -> None:
        with telemetry.span(
            "backend.save", cat="transfer", entity=entity_type, part=part
        ) as sp:
            self._save(sp, entity_type, part, embeddings, optim_state,
                       dirty_rows)

    def _save(
        self, sp, entity_type, part, embeddings, optim_state, dirty_rows
    ) -> None:
        key = (entity_type, part)
        num_rows, dim = embeddings.shape
        with self._lock:
            base = self._versions.get(key) if self.use_delta else None
        t0 = time.perf_counter()
        version = None
        if (
            base is not None
            and dirty_rows is not None
            and len(dirty_rows) == 0
        ):
            # Nothing changed since fetch: if the server still holds
            # our baseline, the stored copy is already exact — skip the
            # transfer entirely.
            if self.server.version(entity_type, part) == base:
                self._c_io_seconds.inc(time.perf_counter() - t0)
                self._c_saves.inc()
                self._c_delta_skips.inc()
                sp.note(skipped=True, wire_bytes=0)
                return
        elif (
            base is not None
            and dirty_rows is not None
            and len(dirty_rows) < num_rows
        ):
            version = self.server.put_delta(
                entity_type,
                part,
                dirty_rows,
                embeddings[dirty_rows],
                optim_state[dirty_rows],
                base,
            )
            if version is not None:
                self._c_delta_pushes.inc()
                sp.note(
                    delta=True,
                    wire_bytes=self._wire(
                        len(dirty_rows), dim, outbound=True, delta=True
                    ),
                )
            else:
                self._c_delta_fallbacks.inc()
        if version is None:
            version = self.server.put(
                entity_type, part, embeddings, optim_state
            )
            sp.note(wire_bytes=self._wire(num_rows, dim, outbound=True))
        self._c_io_seconds.inc(time.perf_counter() - t0)
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
