"""Optimizers: row-wise Adagrad for embeddings, dense Adagrad for globals.

The paper (Section 3.1) uses Adagrad but *sums the accumulated squared
gradient over each embedding vector*, keeping one float of state per
embedding row instead of ``d`` floats — on a 2-billion-node graph this
saves hundreds of GB. We store the mean of squared entries (same
information up to the constant ``1/d``; the mean keeps the effective
step size comparable across dimensions).

Embedding updates are *sparse*: a training chunk touches a small set of
rows, possibly with duplicates (an entity can appear in several edges
and in the negative pool). Duplicate rows must have their gradients
summed before the Adagrad state update, otherwise the accumulator would
double-count. :func:`accumulate_duplicate_rows` does that with one
stable sort, :func:`radix_argsort` (a 1000-edge batch's 4 000 ids: ~26 us
in the one pass ids below 2**16 need, against 215 for the int64
``np.argsort``; two passes and it cross at 800-1500 ids):
neighbouring sorted rows that differ start a segment, and the segment
starts and the permutation *are* the ``indptr`` / ``indices`` of the CSR
selection matrix that sums each segment, so they go straight to scipy's
``csr_matvecs``. ``benchmarks/micro/run.py chunk_step`` times it on
one chunk's 400 x 64 float32 gradients with 26 % repeated rows: 30 us,
against 112 us for ``np.unique`` + a COO-built ``csr_matrix``, 52 us for
``csr_matrix((data, indices, indptr))`` and 176 us for ``np.add.reduceat``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

__all__ = ["RowAdagrad", "DenseAdagrad", "accumulate_duplicate_rows", "radix_argsort"]

_EPS = 1e-10


def radix_argsort(rows: np.ndarray) -> np.ndarray:
    """``np.argsort(rows, kind="stable")`` of ids in ``[0, 2**32)``, as two
    16-bit radix passes; one when every id is below ``2**16``, where the
    low pass already is the stable order (4 000 ids: ~26 us, not ~43)."""
    top = rows.max() if len(rows) else 0
    if len(rows) and (rows.min() < 0 or top >= 2**32):
        raise ValueError("row ids must lie in [0, 2**32)")
    order = np.argsort(rows.astype(np.uint16), kind="stable")
    if top < 2**16:
        return order
    return order[np.argsort((rows[order] >> 16).astype(np.uint16), kind="stable")]


def accumulate_duplicate_rows(
    rows: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum gradient rows that target the same parameter row.

    Parameters
    ----------
    rows:
        ``(m,)`` int array of target row indices, possibly repeated.
    grads:
        ``(m, d)`` gradient rows aligned with ``rows``.

    Returns
    -------
    (unique_rows, summed_grads):
        ``unique_rows`` sorted ascending, ``summed_grads`` of shape
        ``(len(unique_rows), d)``.
    """
    if rows.ndim != 1 or grads.ndim != 2 or len(rows) != len(grads):
        raise ValueError(
            f"rows {rows.shape} and grads {grads.shape} are inconsistent"
        )
    if len(rows) == 0:
        return rows, grads
    m = len(rows)
    order = radix_argsort(rows)
    sorted_rows = rows[order]
    starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    if len(starts) == m - 1:
        # No duplicates: a permutation is all that's needed.
        return sorted_rows, grads[order]
    # Segment i sums grads[order[indptr[i]:indptr[i + 1]]], in input order.
    indptr = np.empty(len(starts) + 2, dtype=order.dtype)
    indptr[0], indptr[1:-1], indptr[-1] = 0, starts, m
    summed = np.zeros((len(indptr) - 1, grads.shape[1]), dtype=grads.dtype)
    csr_matvecs(
        len(summed), m, grads.shape[1], indptr, order,
        np.ones(m, dtype=grads.dtype), grads.ravel(), summed.ravel(),
    )
    return sorted_rows[indptr[:-1]], summed


class RowAdagrad:
    """Adagrad with one accumulator float per embedding row.

    State ``G[r]`` accumulates the mean squared gradient entry of row
    ``r``; the update is ``theta[r] -= lr * g / (sqrt(G[r]) + eps)``.
    """

    def __init__(self, num_rows: int, eps: float = _EPS) -> None:
        if num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {num_rows}")
        self.state = np.zeros(num_rows, dtype=np.float32)
        self.eps = eps

    @classmethod
    def from_state(cls, state: np.ndarray, eps: float = _EPS) -> "RowAdagrad":
        """Rebuild from a checkpointed accumulator array."""
        opt = cls(0, eps)
        opt.state = np.ascontiguousarray(state, dtype=np.float32)
        return opt

    def step(
        self,
        params: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
    ) -> None:
        """Apply a sparse update in place.

        ``rows`` may contain duplicates; they are accumulated first, into a
        copy that is then scaled in place. ``params`` is the full ``(n, d)``
        embedding matrix.
        """
        self._update(params, *accumulate_duplicate_rows(rows, grads), lr, True)

    def step_unique(
        self,
        params: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
    ) -> None:
        """:meth:`step` for distinct ``rows``; ``grads`` is not written."""
        self._update(params, rows, grads, lr, False)

    def _update(self, params, rows, grads, lr, in_place: bool) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if len(rows) == 0:
            return
        sq = np.einsum("nd,nd->n", grads, grads) / grads.shape[1]
        state = sq.astype(np.float32, copy=False)
        state += self.state[rows]
        self.state[rows] = state
        scale = lr / (np.sqrt(state) + self.eps)
        params[rows] -= np.multiply(grads, scale[:, None], out=grads if in_place else None)

    def nbytes(self) -> int:
        return self.state.nbytes


class DenseAdagrad:
    """Standard elementwise Adagrad for small dense parameters.

    Used for relation-operator parameters and other shared globals,
    where the full-state cost is negligible (the paper notes there are
    fewer than ~10^6 such parameters).
    """

    def __init__(self, shape: tuple[int, ...], eps: float = _EPS) -> None:
        self.state = np.zeros(shape, dtype=np.float32)
        self.eps = eps

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """Apply a dense update in place."""
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if grads.shape != params.shape or params.shape != self.state.shape:
            raise ValueError(
                f"shape mismatch: params {params.shape}, grads "
                f"{grads.shape}, state {self.state.shape}"
            )
        if params.size == 0:  # e.g. the identity operator: nothing to move
            return
        self.state += (grads * grads).astype(np.float32)
        params -= lr * grads / (np.sqrt(self.state) + self.eps)

    def nbytes(self) -> int:
        return self.state.nbytes
