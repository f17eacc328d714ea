"""Embedding tables: dense per-partition matrices and featurized bags.

The trainer sees a uniform interface — gather rows, apply row
gradients — regardless of whether an entity type has explicit
embeddings (one row per entity) or featurized embeddings (the paper's
"bags of features": an entity's vector is the mean of its feature
embeddings, and the feature table is a shared parameter synchronised
through the parameter server in distributed mode).
"""

from __future__ import annotations

import abc

import numpy as np
import scipy.sparse as sp

from repro.core.optimizers import RowAdagrad, accumulate_duplicate_rows

__all__ = [
    "EmbeddingTable",
    "DenseEmbeddingTable",
    "FeaturizedEmbeddingTable",
    "init_embeddings",
]


def init_embeddings(
    num_rows: int, dim: int, rng: np.random.Generator, dtype=np.float32
) -> np.ndarray:
    """Standard PBG-style initialisation: N(0, 1) scaled by 1/sqrt(d).

    Keeps initial scores O(1) regardless of dimension so one margin /
    learning-rate grid works across d.
    """
    return (rng.standard_normal((num_rows, dim)) / np.sqrt(dim)).astype(dtype)


class EmbeddingTable(abc.ABC):
    """Rows of embeddings with sparse gradient updates."""

    @property
    @abc.abstractmethod
    def num_rows(self) -> int:
        """Number of addressable entity rows."""

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Embedding dimension."""

    @abc.abstractmethod
    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Return the ``(m, d)`` embeddings of ``rows``."""

    @abc.abstractmethod
    def apply_gradients(
        self, rows: np.ndarray, grads: np.ndarray, lr: float
    ) -> None:
        """Consume row gradients (duplicates allowed) with Adagrad."""

    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes held by parameters + optimizer state."""


class DenseEmbeddingTable(EmbeddingTable):
    """One explicit embedding row per entity (the common case).

    ``weights`` and the row-Adagrad ``state`` are plain arrays so they
    can be checkpointed / shipped to the partition server directly.

    The table tracks which rows have been touched by
    :meth:`apply_gradients` since construction — a table built from a
    freshly fetched partition therefore knows exactly which rows differ
    from the stored baseline, which is what delta writeback pushes.
    All gradient flow goes through :meth:`apply_gradients` (positives
    and sampled negatives alike), and setting a boolean flag is
    idempotent, so the mask is complete whichever lane updates.
    """

    def __init__(self, weights: np.ndarray, state: np.ndarray | None = None):
        if weights.ndim != 2:
            raise ValueError(f"weights must be (n, d), got {weights.shape}")
        self.weights = weights
        self.optimizer = (
            RowAdagrad(len(weights))
            if state is None
            else RowAdagrad.from_state(state)
        )
        if len(self.optimizer.state) != len(weights):
            raise ValueError("optimizer state rows must match weights rows")
        self._dirty_mask = np.zeros(len(weights), dtype=bool)

    @classmethod
    def create(
        cls, num_rows: int, dim: int, rng: np.random.Generator, dtype=np.float32
    ) -> "DenseEmbeddingTable":
        return cls(init_embeddings(num_rows, dim, rng, dtype))

    @property
    def num_rows(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        return self.weights[rows]

    def apply_gradients(self, rows, grads, lr):
        self._dirty_mask[rows] = True
        self.optimizer.step(self.weights, rows, grads, lr)

    def dirty_row_indices(self) -> np.ndarray:
        """Sorted indices of rows modified since this table was built
        (i.e. since its partition was fetched/initialised)."""
        return np.flatnonzero(self._dirty_mask)

    def nbytes(self) -> int:
        return self.weights.nbytes + self.optimizer.nbytes()


class FeaturizedEmbeddingTable(EmbeddingTable):
    """Entities as bags of features (paper Sections 1 and 4.2).

    Entity ``i``'s embedding is the mean of its features' embeddings:
    ``E = M F`` where ``M`` is the row-normalised (entities x features)
    incidence matrix and ``F`` the feature-embedding table. Gradients
    flow through ``M`` transposed. The feature table — not the entity
    matrix — is the trainable parameter, so featurized types stay small
    and are treated as shared (unpartitioned) parameters.
    """

    def __init__(
        self,
        incidence: sp.csr_matrix,
        feature_weights: np.ndarray,
        state: np.ndarray | None = None,
    ) -> None:
        if feature_weights.ndim != 2:
            raise ValueError("feature_weights must be (num_features, d)")
        if incidence.shape[1] != len(feature_weights):
            raise ValueError(
                f"incidence has {incidence.shape[1]} feature columns but "
                f"feature table has {len(feature_weights)} rows"
            )
        row_counts = np.asarray(incidence.sum(axis=1)).ravel()
        if (row_counts == 0).any():
            raise ValueError("every entity needs at least one feature")
        # Row-normalise so the entity embedding is the feature *mean*.
        norm = sp.diags(1.0 / row_counts)
        self.incidence = (norm @ incidence).tocsr()
        self.feature_weights = feature_weights
        self.optimizer = (
            RowAdagrad(len(feature_weights))
            if state is None
            else RowAdagrad.from_state(state)
        )

    @classmethod
    def create(
        cls,
        entity_features: "list[list[int]]",
        num_features: int,
        dim: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ) -> "FeaturizedEmbeddingTable":
        """Build from per-entity feature-id lists."""
        rows, cols = [], []
        for i, feats in enumerate(entity_features):
            if not feats:
                raise ValueError(f"entity {i} has no features")
            rows.extend([i] * len(feats))
            cols.extend(feats)
        incidence = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)),
            shape=(len(entity_features), num_features),
        )
        return cls(incidence, init_embeddings(num_features, dim, rng, dtype))

    @property
    def num_rows(self) -> int:
        return self.incidence.shape[0]

    @property
    def dim(self) -> int:
        return self.feature_weights.shape[1]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        sub = self.incidence[rows]
        return np.asarray(sub @ self.feature_weights)

    def apply_gradients(self, rows, grads, lr):
        # Accumulate duplicate entity rows first, then push through M^T.
        rows, grads = accumulate_duplicate_rows(rows, grads)
        if len(rows) == 0:
            return
        sub = self.incidence[rows]
        feat_grads = np.asarray(sub.T @ grads)
        touched = np.unique(sub.indices)
        self.optimizer.step_unique(
            self.feature_weights, touched, feat_grads[touched], lr
        )

    def nbytes(self) -> int:
        return (
            self.feature_weights.nbytes
            + self.optimizer.nbytes()
            + self.incidence.data.nbytes
            + self.incidence.indices.nbytes
            + self.incidence.indptr.nbytes
        )
