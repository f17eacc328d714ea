"""Columnar edge-list storage.

PBG's input is a list of positive edges ``(source, relation, destination)``
(paper Section 3.1). We store the three columns as contiguous NumPy
arrays — the layout everything downstream (bucketing, batching, negative
sampling) operates on without copies.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["EdgeList"]


class EdgeList:
    """An immutable list of ``(src, rel, dst)`` edges with optional weights.

    Parameters
    ----------
    src, rel, dst:
        Integer arrays of equal length. ``src``/``dst`` are entity ids
        local to the relation's entity types; ``rel`` are relation ids.
    weights:
        Optional per-edge positive weights (paper: per-relation edge
        weight configuration; per-edge weights generalise that).
    """

    __slots__ = ("src", "rel", "dst", "weights")

    def __init__(
        self,
        src: np.ndarray,
        rel: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        src = np.ascontiguousarray(src, dtype=np.int64)
        rel = np.ascontiguousarray(rel, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if not (src.ndim == rel.ndim == dst.ndim == 1):
            raise ValueError("src, rel, dst must be 1-D arrays")
        if not (len(src) == len(rel) == len(dst)):
            raise ValueError(
                f"column lengths differ: src={len(src)} rel={len(rel)} "
                f"dst={len(dst)}"
            )
        if len(src) and (src.min() < 0 or dst.min() < 0 or rel.min() < 0):
            raise ValueError("entity and relation ids must be non-negative")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise ValueError("weights must match the number of edges")
            if len(weights) and weights.min() <= 0:
                raise ValueError("edge weights must be positive")
        self.src = src
        self.rel = rel
        self.dst = dst
        self.weights = weights

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls, edges: "list[tuple[int, int, int]]"
    ) -> "EdgeList":
        """Build from a Python list of ``(src, rel, dst)`` tuples."""
        if not edges:
            return cls.empty()
        arr = np.asarray(edges, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("expected a list of (src, rel, dst) tuples")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @classmethod
    def empty(cls) -> "EdgeList":
        """An edge list with zero edges."""
        z = np.empty(0, dtype=np.int64)
        return cls(z.copy(), z.copy(), z.copy())

    @classmethod
    def concat(cls, parts: "list[EdgeList]") -> "EdgeList":
        """Concatenate edge lists (weights kept only if all parts have them)."""
        if not parts:
            return cls.empty()
        weights = None
        if all(p.weights is not None for p in parts):
            weights = np.concatenate([p.weights for p in parts])
        return cls(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.rel for p in parts]),
            np.concatenate([p.dst for p in parts]),
            weights,
        )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def _from_valid(cls, src, rel, dst, weights) -> "EdgeList":
        """Wrap columns taken from an already validated list: a subset
        of valid ids and weights needs no second scan."""
        out = object.__new__(cls)
        out.src, out.rel, out.dst = map(np.ascontiguousarray, (src, rel, dst))
        out.weights = None if weights is None else np.ascontiguousarray(weights)
        return out

    def __getitem__(self, index) -> "EdgeList":
        """Slice / fancy-index into a new EdgeList view."""
        weights = self.weights[index] if self.weights is not None else None
        return EdgeList._from_valid(
            self.src[index], self.rel[index], self.dst[index], weights
        )

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for s, r, d in zip(self.src, self.rel, self.dst):
            yield int(s), int(r), int(d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        same_cols = (
            np.array_equal(self.src, other.src)
            and np.array_equal(self.rel, other.rel)
            and np.array_equal(self.dst, other.dst)
        )
        if not same_cols:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is None:
            return True
        return np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return (
            f"EdgeList(n={len(self)}, relations="
            f"{int(self.rel.max()) + 1 if len(self) else 0})"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def shuffled(self, rng: np.random.Generator) -> "EdgeList":
        """Return a randomly permuted copy."""
        perm = rng.permutation(len(self))
        return self[perm]

    def split(self, fractions: "list[float]", rng: np.random.Generator):
        """Randomly split into ``len(fractions)`` disjoint EdgeLists.

        ``fractions`` must sum to 1 (within tolerance). Used to build the
        paper's train/valid/test splits.
        """
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {fractions}")
        perm = rng.permutation(len(self))
        bounds = np.cumsum(
            [int(round(f * len(self))) for f in fractions[:-1]]
        )
        pieces = np.split(perm, bounds)
        return [self[p] for p in pieces]

    def group_by_relation(self) -> "dict[int, EdgeList]":
        """Split edges by relation id (stable within each group).

        Enables the paper's same-relation batching (Section 4.3), which
        turns the linear operator into one matmul per batch.
        """
        if not len(self):
            return {}
        order = np.argsort(self.rel, kind="stable")
        sorted_rel = self.rel[order]
        uniques, starts = np.unique(sorted_rel, return_index=True)
        out: dict[int, EdgeList] = {}
        bounds = list(starts[1:]) + [len(self)]
        for rid, lo, hi in zip(uniques, starts, bounds):
            out[int(rid)] = self[order[lo:hi]]
        return out

    def unique_entities(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (unique sources, unique destinations)."""
        return np.unique(self.src), np.unique(self.dst)

    def degree_counts(
        self, num_src: int, num_dst: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Out-degrees of sources and in-degrees of destinations."""
        return (
            np.bincount(self.src, minlength=num_src),
            np.bincount(self.dst, minlength=num_dst),
        )

    def nbytes(self) -> int:
        """Bytes of storage held by the columns."""
        n = self.src.nbytes + self.rel.nbytes + self.dst.nbytes
        if self.weights is not None:
            n += self.weights.nbytes
        return n
