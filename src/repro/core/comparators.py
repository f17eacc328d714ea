"""Comparators ``sim(a, b)`` with closed-form gradients.

PBG scores an edge by comparing the (possibly operator-transformed)
source and destination vectors with dot product or cosine similarity
(Section 3.1). We additionally provide negative squared L2 distance,
the comparator of classic TransE.

The API is split in two stages to make batched negatives cheap:

1. :meth:`Comparator.prepare` — a pointwise map applied once per vector
   (cosine normalises; dot/L2 are identity). Negative pools are prepared
   once and reused against a whole chunk of positives.
2. :meth:`Comparator.score_pairs` / :meth:`Comparator.score_matrix` —
   row-wise scores for aligned pairs, or the full ``(n, k)`` score matrix
   between ``n`` prepared positives and ``k`` prepared candidates. The
   matrix form is one BLAS matmul, the heart of the paper's batched
   negative sampling (Figure 3); it and its backward broadcast over
   leading axes, so all chunks of a batch are scored in one call.

Each stage has a matching backward that maps upstream gradients to
gradients with respect to its inputs. Training uses the
:meth:`Comparator.prepare_saved` / :meth:`Comparator.prepare_backward_saved`
pair, which hands the forward's by-products (cosine: the row norms) to
the backward instead of recomputing them.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "Comparator",
    "DotComparator",
    "CosComparator",
    "L2Comparator",
    "COMPARATORS",
    "make_comparator",
]

_NORM_EPS = 1e-12


class Comparator(abc.ABC):
    """Similarity between prepared embedding vectors."""

    # -- preparation ----------------------------------------------------

    def prepare(self, x: np.ndarray) -> np.ndarray:
        """Pointwise pre-map applied to every vector before scoring."""
        return x

    def prepare_backward(
        self, x: np.ndarray, grad_prepared: np.ndarray
    ) -> np.ndarray:
        """Gradient of :meth:`prepare` (identity by default)."""
        del x
        return grad_prepared

    def prepare_saved(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """``prepare(x)`` plus what :meth:`prepare_backward_saved` needs."""
        return x, None

    def prepare_backward_saved(
        self, y: np.ndarray, saved: object, grad_prepared: np.ndarray
    ) -> np.ndarray:
        """:meth:`prepare_backward` from the outputs of :meth:`prepare_saved`."""
        del y, saved
        return grad_prepared

    # -- scoring ---------------------------------------------------------

    @abc.abstractmethod
    def score_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-aligned scores: ``out[i] = sim(a[i], b[i])`` — shape (n,)."""

    @abc.abstractmethod
    def score_pairs_backward(
        self, a: np.ndarray, b: np.ndarray, grad: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of :meth:`score_pairs` w.r.t. prepared a and b."""

    @abc.abstractmethod
    def score_matrix(self, a: np.ndarray, pool: np.ndarray, out=None) -> np.ndarray:
        """All-pairs scores: ``out[i, j] = sim(a[i], pool[j])`` — (n, k),
        written into ``out`` (a view will do) when one is given."""

    @abc.abstractmethod
    def score_matrix_backward(
        self, a: np.ndarray, pool: np.ndarray, grad: np.ndarray, out=(None, None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of :meth:`score_matrix` w.r.t. prepared a and pool (into ``out``)."""


class DotComparator(Comparator):
    """Plain inner product."""

    def score_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("nd,nd->n", a, b)

    def score_pairs_backward(self, a, b, grad):
        g = grad[:, None]
        return g * b, g * a

    def score_matrix(self, a, pool, out=None):
        return np.matmul(a, pool.swapaxes(-1, -2), out=out)

    def score_matrix_backward(self, a, pool, grad, out=(None, None)):
        return (np.matmul(grad, pool, out=out[0]),
                np.matmul(grad.swapaxes(-1, -2), a, out=out[1]))


class CosComparator(Comparator):
    """Cosine similarity: dot product of L2-normalised vectors."""

    def prepare(self, x: np.ndarray) -> np.ndarray:
        return self.prepare_saved(x)[0]

    def prepare_backward(self, x, grad_prepared):
        return self.prepare_backward_saved(*self.prepare_saved(x), grad_prepared)

    def prepare_saved(self, x):
        norms = np.sqrt(np.einsum("nd,nd->n", x, x))[:, None]
        np.maximum(norms, _NORM_EPS, out=norms)
        return x / norms, norms

    def prepare_backward_saved(self, y, saved, grad_prepared):
        # d(x/||x||)/dx applied to g:  (g - y (g . y)) / ||x||, in place
        out = y * np.einsum("nd,nd->n", grad_prepared, y)[:, None]
        np.subtract(grad_prepared, out, out=out)
        out /= saved
        return out

    # After prepare, cosine is a dot product.
    score_pairs = DotComparator.score_pairs
    score_pairs_backward = DotComparator.score_pairs_backward
    score_matrix = DotComparator.score_matrix
    score_matrix_backward = DotComparator.score_matrix_backward


class L2Comparator(Comparator):
    """Negative squared Euclidean distance: ``-||a - b||²``.

    Higher is better, like the other comparators, so the same losses
    apply unchanged. The matrix form expands the square so it is still
    a single matmul plus rank-one corrections.
    """

    def score_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a - b
        return -np.einsum("nd,nd->n", diff, diff)

    def score_pairs_backward(self, a, b, grad):
        diff = a - b
        g = (-2.0 * grad)[:, None] * diff
        return g, -g

    def score_matrix(self, a, pool, out=None):
        sq_a = np.einsum("...nd,...nd->...n", a, a)[..., :, None]
        sq_p = np.einsum("...kd,...kd->...k", pool, pool)[..., None, :]
        # 2 a.pool - sq_a - sq_p in place on a contiguous product, then
        # copied: three passes over a strided ``out`` cost more than one.
        scores = DotComparator.score_matrix(self, a, pool)
        scores *= 2.0
        scores -= sq_a
        scores -= sq_p
        if out is None:
            return scores
        out[...] = scores
        return out

    def score_matrix_backward(self, a, pool, grad, out=(None, None)):
        # score = 2 a.pool - ||a||^2 - ||pool||^2
        grads = DotComparator.score_matrix_backward(self, a, pool, grad, out)
        for g, x, axis in zip(grads, (a, pool), (-1, -2)):
            g *= 2.0
            g -= 2.0 * grad.sum(axis=axis)[..., None] * x
        return grads


COMPARATORS: "dict[str, type[Comparator]]" = {
    "dot": DotComparator,
    "cos": CosComparator,
    "l2": L2Comparator,
}


def make_comparator(name: str) -> Comparator:
    """Instantiate the comparator registered under ``name``."""
    try:
        cls = COMPARATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown comparator {name!r}; "
            f"expected one of {sorted(COMPARATORS)}"
        ) from None
    return cls()
