"""Sharded asynchronous parameter server for shared parameters.

Relation operators, unpartitioned entity types and feature tables are
global: every machine needs them at every step. PBG synchronises them
asynchronously — each trainer runs a background thread that pushes
accumulated local *deltas* and pulls fresh values, throttled to spare
bandwidth (paper Section 4.2). Convergence tolerates the staleness
because these parameters are few and receive dense, small gradients.

The server applies pushed deltas additively, which makes concurrent
updates from multiple machines commutative (a standard async-SGD
parameter-server semantics).

:class:`SharedParameterClient` packages the per-trainer sync protocol:
``maybe_sync`` is called every batch; every ``sync_interval`` batches it
pushes ``local - base`` and pulls, setting ``base`` to the new server
value — in one :meth:`ParameterServer.sync` call: one manager round
trip however many parameters. Tests drive it synchronously; the
cluster trainer calls it from
each machine's training loop (the paper uses a dedicated thread — the
effect on parameter staleness is the same, a bounded number of batches
between syncs).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.telemetry.metrics import MetricsRegistry, view

__all__ = ["ParameterServer", "SharedParameterClient", "ParameterServerStats"]


@dataclass
class ParameterServerStats:
    pulls: int = 0
    pushes: int = 0
    bytes_transferred: int = 0


class ParameterServer:
    """In-memory sharded key-value store with additive delta pushes.

    Sharding is by hash of the parameter name across ``num_shards``
    locks, mirroring PBG's sharding of the parameter server across
    machines; with in-process transport this matters only for lock
    contention, but the stats expose per-shard placement for the
    memory model.
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._locks = [threading.Lock() for _ in range(num_shards)]
        self._stores: "list[dict[str, np.ndarray]]" = [
            {} for _ in range(num_shards)
        ]
        # One counter per ParameterServerStats field; ``stats`` is a
        # view of them.
        self._metrics = MetricsRegistry()
        self._c_pulls = self._metrics.counter("paramserver.pulls")
        self._c_pushes = self._metrics.counter("paramserver.pushes")
        self._c_bytes = self._metrics.counter("paramserver.bytes_transferred")

    @property
    def stats(self) -> ParameterServerStats:
        return view(ParameterServerStats, self._metrics)

    def _shard_id(self, name: str) -> int:
        return hash(name) % len(self._locks)

    # ------------------------------------------------------------------

    def register(self, name: str, value: np.ndarray) -> None:
        """Idempotently seed a parameter (first writer wins)."""
        sid = self._shard_id(name)
        with self._locks[sid]:
            if name not in self._stores[sid]:
                self._stores[sid][name] = np.array(value, copy=True)

    def pull(self, name: str) -> np.ndarray:
        """Fetch a copy of the current value."""
        sid = self._shard_id(name)
        with self._locks[sid]:
            value = np.array(self._stores[sid][name], copy=True)
        self._c_pulls.inc()
        self._c_bytes.inc(value.nbytes)
        return value

    def push_delta(self, name: str, delta: np.ndarray) -> None:
        """Additively apply a local delta."""
        sid = self._shard_id(name)
        with self._locks[sid]:
            self._stores[sid][name] += delta
        self._c_pushes.inc()
        self._c_bytes.inc(delta.nbytes)

    def sync(
        self, deltas: "dict[str, np.ndarray | None]"
    ) -> "dict[str, np.ndarray]":
        """A client's whole sync in one call: per name ``push_delta``
        (unless None) then ``pull``, each locked and counted as such."""
        values = {}
        for name, delta in deltas.items():
            if delta is not None:
                self.push_delta(name, delta)
            values[name] = self.pull(name)
        return values

    def names(self) -> "list[str]":
        out = []
        for lock, store in zip(self._locks, self._stores):
            with lock:
                out.extend(store)
        return sorted(out)


class SharedParameterClient:
    """Per-trainer throttled synchronisation of shared parameters.

    Parameters
    ----------
    server:
        The shared :class:`ParameterServer`.
    get_params / set_params:
        Callbacks into the local model (snapshot / overwrite of the
        shared-parameter dict).
    sync_interval:
        Number of ``maybe_sync`` calls (batches) between syncs — the
        throttle of Section 4.2.
    """

    def __init__(
        self,
        server: ParameterServer,
        get_params,
        set_params,
        sync_interval: int = 10,
    ) -> None:
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        self.server = server
        self.get_params = get_params
        self.set_params = set_params
        self.sync_interval = sync_interval
        self._counter = 0
        self._base: "dict[str, np.ndarray]" = {}
        self.syncs = 0

    def _exchange(self, deltas: "dict[str, np.ndarray | None]") -> None:
        """One round trip; the answer becomes local and base."""
        pulled = self.server.sync(deltas)
        self.set_params(pulled)
        self._base = {k: v.copy() for k, v in pulled.items()}

    def initial_sync(self) -> None:
        """Register local values, then adopt the server's state."""
        local = self.get_params()
        for name, value in local.items():
            self.server.register(name, value)
        self._exchange(dict.fromkeys(local))

    def maybe_sync(self, force: bool = False) -> bool:
        """Push local deltas and pull fresh values every Nth call."""
        self._counter += 1
        if not force and self._counter % self.sync_interval:
            return False
        deltas = {
            name: value - self._base[name]
            for name, value in self.get_params().items()
        }
        self._exchange(
            {k: d if np.any(d) else None for k, d in deltas.items()}
        )
        self.syncs += 1
        return True
