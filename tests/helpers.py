"""Shared test utilities: numerical gradients and tiny fixtures."""

from __future__ import annotations

import numpy as np

__all__ = [
    "numerical_gradient", "assert_grads_close", "tiny_chain_edges",
    "record_thread_starts",
]


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
