"""IVF-PQ approximate nearest-neighbour index, pure numpy.

Two classic tricks compose here:

- **IVF (inverted file):** a coarse k-means quantizer splits the
  database into ``num_lists`` cells; a query scores only the
  ``nprobe`` cells whose centroids rank best under the serving
  comparator. Work drops roughly by ``num_lists / nprobe`` while
  recall degrades gracefully — ``nprobe`` is the recall/latency knob.
- **PQ (product quantization):** each database vector is cut into
  ``pq_subvectors`` subvectors, each encoded as one byte against a
  256-entry codebook. Scoring uses asymmetric distance computation:
  per query, one small lookup table per subvector, then table sums
  instead of float dot products — an up-to-``4 * dim / M`` memory
  reduction and a further speedup. An optional ``refine`` stage
  re-scores the top ``k * refine`` PQ candidates against the raw
  vectors (gathered from the source table, which may be mmap-backed)
  to recover exactness at the top of the list.

Determinism: all randomness flows through one seeded
``numpy.random.default_rng``; identical inputs give identical indexes.

Exact fallback: with ``nprobe >= num_lists`` and PQ disabled, queries
run :func:`~repro.serving.index.chunked_topk` over the database in its
original row order and are bit-identical to ``ExactIndex`` (see the
exactness note there); the equivalence tests pin this down.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.comparators import make_comparator
from repro.serving.index import (
    DEFAULT_CHUNK_SIZE,
    ServingError,
    as_matrix,
    best_first,
    chunked_topk,
    top_k,
    validate_query,
)

__all__ = ["IVFPQIndex", "ProductQuantizer", "kmeans"]

#: rows assigned per block during k-means / encoding (bounds temporaries)
_ASSIGN_CHUNK = 16_384


def _assign_l2(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row under squared L2, chunked."""
    sq_c = np.einsum("cd,cd->c", centroids, centroids)
    out = np.empty(len(data), dtype=np.int64)
    for lo in range(0, len(data), _ASSIGN_CHUNK):
        chunk = data[lo : lo + _ASSIGN_CHUNK]
        # argmin ||x - c||^2 == argmin (||c||^2 - 2 x.c); ||x||^2 is
        # constant per row and can be dropped.
        out[lo : lo + len(chunk)] = np.argmin(
            sq_c[None, :] - 2.0 * (chunk @ centroids.T), axis=1
        )
    return out


def kmeans(
    data: np.ndarray,
    k: int,
    iters: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means under L2; returns ``(centroids, assignment)``.

    Deterministic given ``rng``; empty clusters are reseeded to random
    data rows each iteration so ``k`` centroids always come back.
    """
    n = len(data)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    data = np.ascontiguousarray(data, dtype=np.float64)
    centroids = data[rng.choice(n, size=k, replace=False)].copy()
    assign = _assign_l2(data, centroids)
    for _ in range(max(0, iters)):
        order = np.argsort(assign, kind="stable")
        sorted_data = data[order]
        counts = np.bincount(assign, minlength=k)
        # reduceat needs indices < n; an index clipped down from n
        # belongs to an empty cluster and is overwritten below.
        bounds = np.searchsorted(assign[order], np.arange(k))
        sums = np.add.reduceat(
            sorted_data, np.minimum(bounds, n - 1), axis=0
        )
        nonempty = counts > 0
        centroids[nonempty] = (
            sums[nonempty] / counts[nonempty, None]
        )
        num_empty = int((~nonempty).sum())
        if num_empty:
            centroids[~nonempty] = data[
                rng.choice(n, size=num_empty, replace=False)
            ]
        assign = _assign_l2(data, centroids)
    return centroids, assign


class ProductQuantizer:
    """Per-subvector vector quantizer (one byte per subvector).

    Splits ``d``-dim vectors into ``num_subvectors`` equal slices and
    learns a ``num_centroids``-entry codebook per slice with k-means.
    Requires ``d % num_subvectors == 0`` and ``num_centroids <= 256``
    (codes are ``uint8``).
    """

    def __init__(
        self,
        num_subvectors: int,
        num_centroids: int = 256,
        iters: int = 10,
    ) -> None:
        if num_subvectors < 1:
            raise ValueError("num_subvectors must be >= 1")
        if not 1 <= num_centroids <= 256:
            raise ValueError(
                f"num_centroids must be in [1, 256] (uint8 codes), "
                f"got {num_centroids}"
            )
        self.num_subvectors = num_subvectors
        self.num_centroids = num_centroids
        self.iters = iters
        #: (M, C, d/M) after fit
        self.codebooks: "np.ndarray | None" = None
        self.dim = 0

    @property
    def subdim(self) -> int:
        return self.dim // self.num_subvectors

    def fit(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> "ProductQuantizer":
        data = np.asarray(data)
        n, d = data.shape
        if d % self.num_subvectors:
            raise ValueError(
                f"dim {d} is not divisible by pq_subvectors "
                f"{self.num_subvectors}"
            )
        self.dim = d
        ds = self.subdim
        c = min(self.num_centroids, n)
        books = np.empty((self.num_subvectors, c, ds))
        for m in range(self.num_subvectors):
            books[m], _ = kmeans(
                data[:, m * ds : (m + 1) * ds], c, self.iters, rng
            )
        self.codebooks = books
        return self

    def encode(self, data: np.ndarray) -> np.ndarray:
        """``(n, d)`` float vectors -> ``(n, M)`` uint8 codes."""
        if self.codebooks is None:
            raise ServingError("ProductQuantizer is not fitted")
        data = np.asarray(data)
        ds = self.subdim
        codes = np.empty(
            (len(data), self.num_subvectors), dtype=np.uint8
        )
        for m in range(self.num_subvectors):
            codes[:, m] = _assign_l2(
                np.ascontiguousarray(
                    data[:, m * ds : (m + 1) * ds], dtype=np.float64
                ),
                self.codebooks[m],
            )
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """``(n, M)`` codes -> ``(n, d)`` reconstructed vectors."""
        if self.codebooks is None:
            raise ServingError("ProductQuantizer is not fitted")
        parts = [
            self.codebooks[m][codes[:, m]]
            for m in range(self.num_subvectors)
        ]
        return np.concatenate(parts, axis=1)

    def nbytes(self) -> int:
        return (
            0 if self.codebooks is None else int(self.codebooks.nbytes)
        )


class IVFPQIndex:
    """Approximate k-NN: IVF coarse quantizer + optional PQ codes.

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
        Cells scanned per query. ``nprobe >= num_lists`` with PQ off
        degenerates to the exact scan, bit-identically.
    pq_subvectors:
        ``0`` disables PQ (lists store float vectors); ``M > 0`` stores
        one byte per subvector against 256-entry codebooks.
    refine:
        ``0`` disables; ``r >= 1`` re-scores the top ``k*r`` PQ
        candidates against raw source vectors (exact top of list).
    train_sample:
        Rows sampled for k-means / PQ training (caps build cost).
    """

    def __init__(
        self,
        comparator: str = "cos",
        num_lists: int = 64,
        nprobe: int = 8,
        pq_subvectors: int = 0,
        refine: int = 0,
        kmeans_iters: int = 10,
        train_sample: int = 20_000,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if num_lists < 1:
            raise ValueError("num_lists must be >= 1")
        if nprobe < 1:
            raise ValueError("nprobe must be >= 1")
        if pq_subvectors < 0 or refine < 0:
            raise ValueError("pq_subvectors and refine must be >= 0")
        if train_sample < 1:
            raise ValueError("train_sample must be >= 1")
        self.comparator = comparator
        self._comp = make_comparator(comparator)
        self.num_lists = num_lists
        self.nprobe = nprobe
        self.pq_subvectors = pq_subvectors
        self.refine = refine
        self.kmeans_iters = kmeans_iters
        self.train_sample = train_sample
        self.seed = seed
        self.chunk_size = chunk_size
        self.num_items = 0
        self.dim = 0
        self._centroids: "np.ndarray | None" = None
        self._ids: "np.ndarray | None" = None  # list-order -> original id
        self._starts: "np.ndarray | None" = None  # (lists+1,) offsets
        self._grouped: "np.ndarray | None" = None  # floats (PQ off)
        self._codes: "np.ndarray | None" = None  # uint8 (PQ on)
        self._pq: "ProductQuantizer | None" = None
        self._source = None  # raw vectors for refine gathers
        self._orig_prepared: "np.ndarray | None" = None  # lazy, exact path

    # -- build ---------------------------------------------------------

    def build(self, embeddings) -> "IVFPQIndex":
        """Cluster, group and (optionally) encode the database."""
        self._source = embeddings
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
            assign = _assign_l2(
                np.ascontiguousarray(prepared, dtype=np.float64),
                self._centroids,
            )
            order = np.argsort(assign, kind="stable")
            self._ids = order.astype(np.int64)
            self._starts = np.searchsorted(
                assign[order], np.arange(num_lists + 1)
            )
            grouped = prepared[order]
            if self.pq_subvectors:
                self._pq = ProductQuantizer(
                    self.pq_subvectors, iters=self.kmeans_iters
                ).fit(sample, rng)
                self._codes = self._pq.encode(grouped)
                self._grouped = None
            else:
                self._grouped = grouped
                self._codes = None
                self._pq = None
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

        if nprobe >= num_lists and self._pq is None:
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

        merge_k = min(k * max(self.refine, 1), self.num_items)
        if self._pq is not None:
            lut, bias = self._pq_luts(prepared_q)
            dtype = lut.dtype
        else:
            dtype = np.result_type(prepared_q, self._grouped)
        # Invert (query -> probed lists) into (list -> probing
        # queries): sorted by list, a list's pairs are contiguous; each
        # pair owns the candidate row its list's top-merge_k goes into.
        flat = probes.ravel()
        inv = np.argsort(flat, kind="stable")
        pair_q = inv // nprobe
        pair_bounds = np.searchsorted(flat[inv], np.arange(num_lists + 1))
        cand_scores = np.full((q * nprobe, merge_k), -np.inf, dtype=dtype)
        cand_idx = np.full((q * nprobe, merge_k), -1, dtype=np.int64)
        populated = np.flatnonzero(np.diff(pair_bounds) * self.list_sizes())
        # Bounds as Python ints: numpy scalars slow every slice below.
        starts, pair_bounds = self._starts.tolist(), pair_bounds.tolist()
        for lst in populated.tolist():
            lo, hi = starts[lst], starts[lst + 1]
            plo, phi = pair_bounds[lst], pair_bounds[lst + 1]
            qidx = pair_q[plo:phi]
            member_ids = self._ids[lo:hi]
            if self._pq is not None:
                codes = self._codes[lo:hi]
                scores = lut[qidx, 0][:, codes[:, 0]]
                for m in range(1, self._pq.num_subvectors):
                    scores += lut[qidx, m][:, codes[:, m]]
                if bias is not None:
                    scores += bias[qidx, None]
            else:
                # database-major, as in chunked_topk
                scores = self._comp.score_matrix(
                    self._grouped[lo:hi], prepared_q[qidx]
                ).T
            if exclude_self is not None:
                scores[
                    member_ids[None, :] == exclude_self[qidx][:, None]
                ] = -np.inf
            top_scores, top_ids = top_k(scores, member_ids, merge_k)
            cand_scores[plo:phi, : top_scores.shape[1]] = top_scores
            cand_idx[plo:phi, : top_scores.shape[1]] = top_ids

        # Back to query-major, then one selection per query over the
        # nprobe * merge_k candidates its lists put forward.
        back = np.argsort(inv)
        best_scores, best_idx = top_k(
            cand_scores[back].reshape(q, -1),
            cand_idx[back].reshape(q, -1),
            merge_k,
        )

        if self.refine:
            best_scores = self._refine(prepared_q, best_idx, exclude_self)

        best_idx, best_scores = best_first(best_scores, best_idx)
        if exclude_self is not None:
            best_idx[best_scores == -np.inf] = -1  # an excluded row is no result
        return best_idx[:, :k], best_scores[:, :k]

    def _pq_luts(
        self, prepared_q: np.ndarray
    ) -> tuple[np.ndarray, "np.ndarray | None"]:
        """ADC lookup tables: ``lut[q, m, c]`` + optional l2 bias.

        dot/cos: score = sum_m q_m . c_m. l2 (matching
        ``L2Comparator.score_matrix``): 2 q.x - ||q||^2 - ||x||^2 =
        sum_m (2 q_m.c_m - ||c_m||^2) - ||q||^2.
        """
        books = self._pq.codebooks
        ds = self._pq.subdim
        q_sub = prepared_q.reshape(
            len(prepared_q), self._pq.num_subvectors, ds
        )
        lut = np.einsum("qmd,mcd->qmc", q_sub, books)
        if self.comparator == "l2":
            lut = 2.0 * lut - np.einsum(
                "mcd,mcd->mc", books, books
            )[None, :, :]
            bias = -np.einsum(
                "qd,qd->q", prepared_q, prepared_q
            )
            return lut, bias
        return lut, None

    def _gather_raw(self, ids: np.ndarray) -> np.ndarray:
        if hasattr(self._source, "gather"):
            return self._source.gather(ids)
        return np.asarray(self._source)[ids]

    def _refine(
        self,
        prepared_q: np.ndarray,
        best_idx: np.ndarray,
        exclude_self: "np.ndarray | None",
    ) -> np.ndarray:
        """Exact scores of the shortlist, from raw source vectors."""
        q, merge_k = best_idx.shape
        valid = best_idx >= 0
        raw = self._gather_raw(
            best_idx.clip(min=0).ravel()
        ).reshape(q * merge_k, self.dim)
        prepared_c = self._comp.prepare(raw)
        exact = self._comp.score_pairs(
            np.repeat(prepared_q, merge_k, axis=0), prepared_c
        ).reshape(q, merge_k)
        exact[~valid] = -np.inf
        if exclude_self is not None:
            exact[best_idx == exclude_self[:, None]] = -np.inf
        return exact

    # -- introspection -------------------------------------------------

    def nbytes(self) -> int:
        """Resident bytes of the index structure (not the raw table)."""
        arrays = (
            self._centroids, self._ids, self._starts,
            self._grouped, self._codes, self._orig_prepared,
        )
        total = sum(int(a.nbytes) for a in arrays if a is not None)
        return total + (self._pq.nbytes() if self._pq is not None else 0)

    def list_sizes(self) -> np.ndarray:
        """Members per coarse cell (clustering-balance diagnostic)."""
        if self._starts is None:
            raise ServingError("index is empty; call build() first")
        return np.diff(self._starts)
