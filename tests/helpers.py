"""Shared test utilities: numerical gradients and tiny fixtures."""

from __future__ import annotations

import numpy as np

__all__ = [
    "numerical_gradient", "assert_grads_close", "tiny_chain_edges",
    "record_thread_starts", "put_arrays", "put_delta_arrays", "get_arrays",
    "slow_put_server", "RecordingServer", "counts",
]


def counts(registry) -> "dict[str, float]":
    """Every counter of a metrics ``registry`` by key (reading a
    misspelt name is a ``KeyError``, not a freshly created zero)."""
    from repro.telemetry.metrics import Counter

    return {
        key: inst.value
        for key, inst in registry.instruments()
        if isinstance(inst, Counter)
    }


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def assert_grads_close(
    analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-5, rtol: float = 1e-4
) -> None:
    """Compare gradients with a tolerance suited to float64 central diffs."""
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def tiny_chain_edges(n: int):
    """A ring graph: src i → dst (i+1) mod n, single relation 0."""
    import numpy as np

    from repro.graph.edgelist import EdgeList

    src = np.arange(n, dtype=np.int64)
    return EdgeList(src, np.zeros(n, dtype=np.int64), (src + 1) % n)


def record_thread_starts(monkeypatch) -> "list[str]":
    """Patch ``threading.Thread.start`` for the test; returns the list
    the name of every thread started from now on is appended to."""
    import threading

    started: "list[str]" = []
    real_start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


# ----------------------------------------------------------------------
# The partition server's payload API, spoken in fp32 arrays. The server
# stores and ships encoded payloads; these do, per call, what
# ``PartitionServerStorage`` does for a machine: encode on the way in,
# decode on the way out, with the server's own codec.
# ----------------------------------------------------------------------


def put_arrays(server, entity_type, part, embeddings, optim_state) -> int:
    from repro.graph.compression import get_codec

    codec = get_codec(server.codec_name())
    return server.put(entity_type, part, codec.encode(embeddings, optim_state))


def put_delta_arrays(
    server, entity_type, part, rows, emb_rows, state_rows, base_version
):
    from repro.graph.compression import encode_delta

    delta = encode_delta(server.codec_name(), rows, emb_rows, state_rows)
    return server.put_delta(entity_type, part, delta, base_version)


def get_arrays(server, entity_type, part):
    """Fresh fp32 ``(embeddings, optim_state)``; None if never stored."""
    from repro.graph.compression import get_codec

    entry = server.get_versioned(entity_type, part)
    if entry is None:
        return None
    return get_codec(server.codec_name()).decode(entry[0])


def slow_put_server(landed, delay: float = 0.003):
    """A ``PartitionServer`` subclass whose ``put`` sleeps ``delay``
    first (widening any release/fetch race window) and calls
    ``landed(entity_type, part)`` once the payload is stored."""
    import time

    from repro.distributed.partition_server import PartitionServer

    class SlowPutServer(PartitionServer):
        def put(self, entity_type, part, payload):
            time.sleep(delay)
            version = super().put(entity_type, part, payload)
            landed(entity_type, part)
            return version

    return SlowPutServer


class RecordingServer:
    """Stands between an adapter and a partition server (or its manager
    proxy) and records every transfer that moved data as ``(method,
    payload_nbytes, pickled bytes, calling thread's name)``."""

    def __init__(self, server) -> None:
        self._server = server
        self.transfers: "list[tuple[str, int, int, str]]" = []

    def __getattr__(self, name):
        return getattr(self._server, name)

    def _record(self, method, payload) -> None:
        import pickle
        import threading

        from repro.graph.compression import payload_nbytes

        self.transfers.append((
            method, payload_nbytes(payload), len(pickle.dumps(payload)),
            threading.current_thread().name,
        ))

    def put(self, entity_type, part, payload):
        self._record("put", payload)
        return self._server.put(entity_type, part, payload)

    def put_delta(self, entity_type, part, delta, base_version):
        version = self._server.put_delta(entity_type, part, delta, base_version)
        if version is not None:
            self._record("put_delta", delta)
        return version

    def get_versioned(self, entity_type, part):
        entry = self._server.get_versioned(entity_type, part)
        if entry is not None:
            self._record("get_versioned", entry[0])
        return entry

    def nbytes(self, *methods: str, thread: str = "") -> int:
        """Payload bytes of the recorded ``methods``, optionally only
        those called from threads whose name contains ``thread``."""
        return sum(
            t[1] for t in self.transfers if t[0] in methods and thread in t[3]
        )
