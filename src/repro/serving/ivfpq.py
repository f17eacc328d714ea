"""IVF (inverted file) approximate nearest-neighbour index, pure numpy.

A coarse k-means quantizer splits the database into ``num_lists``
cells, each stored as float rows; a query scores only the ``nprobe``
cells whose centroids rank best under the serving comparator. Work
drops roughly by ``num_lists / nprobe`` while recall degrades
gracefully — ``nprobe`` is the recall/latency knob. The class keeps
the ``IVFPQIndex`` name (and ``"ivfpq"`` its config value) that callers
and configs use; SERVING.md says why product quantisation went.

Build: k-means and the full-table assignment run in the table's own
floating dtype (a float32 table is never up-cast), and the assignment
reads the prepared table in place: for ``dot`` and ``l2`` that is the
(possibly read-only, mmap-backed) table.

Determinism: all randomness flows through one seeded
``numpy.random.default_rng``; identical inputs give identical indexes.

Exact fallback: with ``nprobe >= num_lists``, queries
run :func:`~repro.serving.index.chunked_topk` over the database in its
original row order and are bit-identical to ``ExactIndex`` (see the
exactness note there); the equivalence tests pin this down.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.comparators import make_comparator
from repro.core.optimizers import accumulate_duplicate_rows
from repro.serving.index import (
    DEFAULT_CHUNK_SIZE,
    ServingError,
    as_matrix,
    best_first,
    chunked_topk,
    top_k,
    validate_query,
)

__all__ = ["IVFPQIndex", "kmeans"]

#: rows assigned per block during k-means (bounds temporaries)
_ASSIGN_CHUNK = 16_384


def _assign_l2(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row under squared L2, chunked.

    argmin ||x - c||^2 == argmin (x.(-2c) + ||c||^2): ||x||^2 is constant
    per row and dropped. ``data`` is read in place, in its own dtype; the
    only temporary is one ``(chunk, k)`` distance block per chunk.
    """
    sq_c = np.einsum("cd,cd->c", centroids, centroids)
    scaled = -2.0 * centroids.T  # exact: a power-of-two scale
    out = np.empty(len(data), dtype=np.int64)
    for lo in range(0, len(data), _ASSIGN_CHUNK):
        dist = data[lo : lo + _ASSIGN_CHUNK] @ scaled
        dist += sq_c
        out[lo : lo + len(dist)] = dist.argmin(axis=1)
    return out


def kmeans(
    data: np.ndarray,
    k: int,
    iters: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means under L2; returns ``(centroids, assignment)``.

    Runs in ``data``'s floating dtype (integers become float64), so
    float32 rows give float32 centroids. Deterministic given ``rng``;
    empty clusters are reseeded to random data rows each iteration so
    ``k`` centroids always come back.
    """
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    data = np.ascontiguousarray(data, dtype=np.result_type(data, np.float32))
    centroids = data[rng.choice(n, size=k, replace=False)]
    assign = _assign_l2(data, centroids)
    for _ in range(max(0, iters)):
        counts = np.bincount(assign, minlength=k)
        members, sums = accumulate_duplicate_rows(assign, data)
        sums /= counts[members, None]
        centroids[members] = sums
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            centroids[empty] = data[
                rng.choice(n, size=len(empty), replace=False)
            ]
        assign = _assign_l2(data, centroids)
    return centroids, assign


class IVFPQIndex:
    """Approximate k-NN: an IVF coarse quantizer over float lists.

    Parameters
    ----------
    comparator:
        ``"dot"``, ``"cos"`` or ``"l2"`` — the serving metric; k-means
        clustering itself is always L2 on *prepared* vectors (for cos
        that is spherical clustering of the normalised vectors, the
        standard choice).
    num_lists:
        Coarse cells (clamped to the table size at build).
    nprobe:
        Cells scanned per query. ``nprobe >= num_lists`` degenerates
        to the exact scan, bit-identically.
    train_sample:
        Rows sampled for k-means training (caps build cost).
    """

    def __init__(
        self,
        comparator: str = "cos",
        num_lists: int = 64,
        nprobe: int = 8,
        kmeans_iters: int = 10,
        train_sample: int = 20_000,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if num_lists < 1:
            raise ValueError("num_lists must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if train_sample < 1:
            raise ValueError("train_sample must be >= 1")
        self.comparator = comparator
        self._comp = make_comparator(comparator)
        self.num_lists = num_lists
        self.nprobe = nprobe
        self.kmeans_iters = kmeans_iters
        self.train_sample = train_sample
        self.seed = seed
        self.chunk_size = chunk_size
        self.num_items = 0
        self.dim = 0
        self._centroids: "np.ndarray | None" = None
        self._ids: "np.ndarray | None" = None  # list-order -> original id
        self._starts: "np.ndarray | None" = None  # (lists+1,) offsets
        self._grouped: "np.ndarray | None" = None  # prepared, list order
        self._orig_prepared: "np.ndarray | None" = None  # lazy, exact path

    # -- build ---------------------------------------------------------

    def build(self, embeddings) -> "IVFPQIndex":
        """Cluster the database and group its rows by list."""
        raw = as_matrix(embeddings)
        n, d = raw.shape
        if n == 0:
            raise ValueError("cannot build an index over 0 vectors")
        num_lists = min(self.num_lists, n)
        rng = np.random.default_rng(self.seed)
        with telemetry.span(
            "serve.index_build", cat="serve",
            kind="ivfpq", items=n, lists=num_lists,
        ):
            prepared = self._comp.prepare(raw)
            sample_n = min(self.train_sample, n)
            sample = prepared[
                rng.choice(n, size=sample_n, replace=False)
            ]
            self._centroids, _ = kmeans(
                sample, num_lists, self.kmeans_iters, rng
            )
            assign = _assign_l2(prepared, self._centroids)
            order = np.argsort(assign, kind="stable")
            self._ids = order.astype(np.int64)
            self._starts = np.searchsorted(
                assign[order], np.arange(num_lists + 1)
            )
            self._grouped = prepared[order]
        self.num_items, self.dim = n, d
        self._orig_prepared = None
        return self

    # -- query ---------------------------------------------------------

    def query(
        self,
        vectors: np.ndarray,
        k: int = 10,
        exclude_self: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` ``(indices, scores)``, each ``(q, k)``.

        Queries that accumulate fewer than ``k`` candidates (tiny
        ``nprobe`` on a skewed clustering) pad with index ``-1`` and
        score ``-inf`` — callers must treat ``-1`` as "no result".
        """
        vectors, k, exclude_self = validate_query(
            vectors, self.dim, k, self.num_items, exclude_self
        )
        prepared_q = self._comp.prepare(vectors)
        num_lists = len(self._centroids)
        nprobe = min(self.nprobe, num_lists)

        if nprobe >= num_lists:
            # Degenerate full scan: the exact kernel over the original
            # row order, bit-identical to ExactIndex (same chunk shapes).
            if self._orig_prepared is None:
                self._orig_prepared = self._grouped[np.argsort(self._ids)]
            return chunked_topk(
                self._comp, prepared_q, self._orig_prepared, k,
                self.chunk_size, exclude_self,
            )

        q = len(prepared_q)
        cscores = self._comp.score_matrix(prepared_q, self._centroids)
        probes = np.argpartition(-cscores, nprobe - 1, axis=1)[:, :nprobe]

        dtype = np.result_type(prepared_q, self._grouped)
        # Invert (query -> probed lists) into (list -> probing
        # queries): sorted by list, a list's pairs are contiguous; each
        # pair owns the candidate row its list's top-k goes into
        # (``validate_query`` holds k to at most num_items).
        flat = probes.ravel()
        inv = np.argsort(flat, kind="stable")
        pair_q = inv // nprobe
        pair_bounds = np.searchsorted(flat[inv], np.arange(num_lists + 1))
        cand_scores = np.full((q * nprobe, k), -np.inf, dtype=dtype)
        cand_idx = np.full((q * nprobe, k), -1, dtype=np.int64)
        populated = np.flatnonzero(np.diff(pair_bounds) * self.list_sizes())
        # Bounds as Python ints: numpy scalars slow every slice below.
        starts, pair_bounds = self._starts.tolist(), pair_bounds.tolist()
        for lst in populated.tolist():
            lo, hi = starts[lst], starts[lst + 1]
            plo, phi = pair_bounds[lst], pair_bounds[lst + 1]
            qidx = pair_q[plo:phi]
            member_ids = self._ids[lo:hi]
            # database-major, as in chunked_topk
            scores = self._comp.score_matrix(
                self._grouped[lo:hi], prepared_q[qidx]
            ).T
            if exclude_self is not None:
                scores[
                    member_ids[None, :] == exclude_self[qidx][:, None]
                ] = -np.inf
            top_scores, top_ids = top_k(scores, member_ids, k)
            cand_scores[plo:phi, : top_scores.shape[1]] = top_scores
            cand_idx[plo:phi, : top_scores.shape[1]] = top_ids

        # Back to query-major, then one selection per query over the
        # nprobe * k candidates its lists put forward.
        back = np.argsort(inv)
        best_scores, best_idx = top_k(
            cand_scores[back].reshape(q, -1),
            cand_idx[back].reshape(q, -1),
            k,
        )
        best_idx, best_scores = best_first(best_scores, best_idx)
        if exclude_self is not None:
            best_idx[best_scores == -np.inf] = -1  # an excluded row is no result
        return best_idx, best_scores

    # -- introspection -------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes of the index structure (not the raw table)."""
        arrays = (
            self._centroids, self._ids, self._starts,
            self._grouped, self._orig_prepared,
        )
        return sum(int(a.nbytes) for a in arrays if a is not None)

    def list_sizes(self) -> np.ndarray:
        """Members per coarse cell (clustering-balance diagnostic)."""
        if self._starts is None:
            raise ServingError("index is empty; call build() first")
        return np.diff(self._starts)
