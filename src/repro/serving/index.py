"""The ``KnnIndex`` protocol and the exact brute-force reference index.

The serving layer, the evaluators and the benchmarks all speak one
interface — a k-NN index over an embedding matrix:

- :meth:`KnnIndex.build` — ingest a ``(n, d)`` embedding matrix (or a
  :class:`~repro.serving.shards.MmapShardedTable`) and return the
  ready-to-query index;
- :meth:`KnnIndex.query` — batched top-``k`` retrieval with the same
  comparator semantics as training (``dot`` / ``cos`` / ``l2``);
- :meth:`KnnIndex.nbytes` — resident bytes of the index structure, the
  number a capacity planner compares against the raw table.

:class:`ExactIndex` is the chunked exact scan; it is both the
correctness oracle for approximate indexes and a perfectly good serving
index for small tables. :class:`~repro.serving.ivfpq.IVFPQIndex` is the
approximate implementation.

Exactness note: BLAS matmuls are *not* per-element bit-identical across
different operand shapes, so "bit-identical to the exact scan" is only
achievable by running the very same chunked scan over the very same
row order. :func:`chunked_topk` is that shared kernel; ``IVFPQIndex``
routes full-probe queries through it for exactly this reason.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.comparators import make_comparator

__all__ = [
    "KnnIndex",
    "ExactIndex",
    "ServingError",
    "as_matrix",
    "best_first",
    "chunked_topk",
    "top_k",
    "validate_query",
]

#: database rows scored per block in the exact scan (bounds the
#: temporary score matrix at ``queries x DEFAULT_CHUNK_SIZE``)
DEFAULT_CHUNK_SIZE = 16_384


class ServingError(RuntimeError):
    """Raised on serving-layer misuse (unbuilt index, no snapshot...)."""


@runtime_checkable
class KnnIndex(Protocol):
    """What eval, benchmarks and the query server require of an index.

    Implementations also expose ``num_items``, ``dim`` and
    ``comparator`` attributes once built; the protocol pins down only
    the three behaviours every consumer relies on.
    """

    def build(self, embeddings) -> "KnnIndex":
        """Ingest ``(n, d)`` embeddings (array or mmap table); return self."""
        ...

    def query(
        self,
        vectors: np.ndarray,
        k: int = 10,
        exclude_self: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(indices, scores)``, each ``(q, k)``, best first."""
        ...

    def nbytes(self) -> int:
        """Resident bytes of the index structure."""
        ...


def as_matrix(embeddings) -> np.ndarray:
    """The ``(n, d)`` array behind an array or an mmap-backed table."""
    if hasattr(embeddings, "as_array"):
        embeddings = embeddings.as_array()
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2:
        raise ValueError(f"embeddings must be (n, d), got {embeddings.shape}")
    return embeddings


def validate_query(
    vectors: np.ndarray,
    dim: int,
    k: int,
    num_items: int,
    exclude_self: "np.ndarray | None",
) -> tuple[np.ndarray, int, "np.ndarray | None"]:
    """Validate and normalise ``query()`` arguments.

    Shared by every index implementation so misuse fails the same way
    everywhere, with actionable messages instead of downstream numpy
    index errors: ``k`` must be an integer in ``[1, num_items]``,
    query vectors must be ``(q, d)`` (a single ``(d,)`` vector is
    promoted), and ``exclude_self`` must be one integer id per query,
    in range.
    """
    if num_items == 0:
        raise ServingError("index is empty; call build() first")
    vectors = np.atleast_2d(np.asarray(vectors))
    if vectors.ndim != 2:
        raise ValueError(
            f"query vectors must be (q, d), got shape {vectors.shape}"
        )
    if vectors.shape[1] != dim:
        raise ValueError(
            f"queries have dim {vectors.shape[1]}, index has {dim}"
        )
    if not isinstance(k, (int, np.integer)):
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > num_items:
        raise ValueError(
            f"k={k} exceeds the {num_items} indexed items; "
            f"pass k <= num_items"
        )
    if exclude_self is not None:
        exclude_self = np.asarray(exclude_self)
        if exclude_self.shape != (len(vectors),):
            raise ValueError(
                f"exclude_self must be one id per query, shape "
                f"({len(vectors)},); got {exclude_self.shape}"
            )
        if not np.issubdtype(exclude_self.dtype, np.integer):
            raise TypeError(
                f"exclude_self must hold integer ids, got dtype "
                f"{exclude_self.dtype}"
            )
        if len(exclude_self) and (
            exclude_self.min() < 0 or exclude_self.max() >= num_items
        ):
            raise ValueError(
                f"exclude_self ids must be in [0, {num_items}); got "
                f"range [{exclude_self.min()}, {exclude_self.max()}]"
            )
    return vectors, k, exclude_self


#: rows per block of the exact scan's preselection (see ``_shortlist``)
_BLOCK = 128


def top_k(
    scores: np.ndarray, idx: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best of each row of ``(q, w)`` scores with their ids
    (``(q, w)``, or ``(w,)`` when the rows share them), unordered; all
    ``w`` when ``w <= k``."""
    width = scores.shape[1]
    if width <= k:
        return scores, np.broadcast_to(idx, scores.shape)
    top = scores.argpartition(width - k, axis=1)[:, -k:]
    rows = np.arange(len(scores))[:, None]
    return scores[rows, top], idx[top] if idx.ndim == 1 else idx[rows, top]


def best_first(
    scores: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, scores)`` with every row sorted by descending score."""
    order = np.argsort(-scores, axis=1)
    rows = np.arange(len(scores))[:, None]
    return idx[rows, order], scores[rows, order]


def _shortlist(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Narrow a ``(rows, q)`` chunk to ``(q, w)`` scores and row
    positions that hold every column's ``k`` best.

    The ``k`` best scores of a column always lie in the ``k`` blocks of
    ``_BLOCK`` rows with the largest maxima, so one max-reduction over
    the chunk picks those blocks and the selection that follows runs
    over ``k * _BLOCK`` scores plus the ragged tail, not the chunk.
    """
    width, q = scores.shape
    blocks = width // _BLOCK
    # Too few blocks to drop, or too few columns to pay for the max
    # (it costs 1 column what it costs 16): select over the whole chunk.
    if blocks < 4 * k or q < 16:
        return np.ascontiguousarray(scores.T), np.arange(width)
    body = scores[: blocks * _BLOCK].reshape(blocks, _BLOCK, q)
    best = np.argpartition(body.max(axis=1), blocks - k, axis=0)[-k:].T
    kept = (best[:, :, None] * _BLOCK + np.arange(_BLOCK)).reshape(q, -1)
    tail = np.tile(np.arange(blocks * _BLOCK, width), (q, 1))
    rows = np.concatenate([kept, tail], axis=1)
    return scores[rows, np.arange(q)[:, None]], rows


def chunked_topk(
    comparator,
    prepared_q: np.ndarray,
    prepared_db: np.ndarray,
    k: int,
    chunk_size: int,
    exclude_self: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` scan of ``prepared_db`` in row-order chunks.

    The shared kernel behind :class:`ExactIndex` and the full-probe
    path of ``IVFPQIndex``: given the *same* prepared inputs and the
    same ``chunk_size``, two callers get bit-identical scores (chunk
    boundaries pin the BLAS operand shapes). Returns ``(indices,
    scores)``, both ``(q, k)`` sorted by descending score.
    """
    found = []
    for lo in range(0, len(prepared_db), chunk_size):
        # Database-major: the chunk is the tall operand, the shape
        # BLAS is good at (comparators are symmetric).
        scores = comparator.score_matrix(
            prepared_db[lo : lo + chunk_size], prepared_q
        )
        if exclude_self is not None:
            excl = np.flatnonzero(
                (exclude_self >= lo) & (exclude_self < lo + len(scores))
            )
            scores[exclude_self[excl] - lo, excl] = -np.inf
        # the chunk's own top-k; one selection over all follows the loop
        top_scores, top_rows = top_k(*_shortlist(scores, k), k)
        found.append((top_scores, top_rows + lo))
    cand_scores, cand_idx = (np.concatenate(c, axis=1) for c in zip(*found))
    idx, scores = best_first(*top_k(cand_scores, cand_idx, k))
    if exclude_self is not None:
        idx[scores == -np.inf] = -1  # an excluded row is no result
    return idx, scores


class ExactIndex:
    """Exact top-k search over an embedding matrix.

    Parameters
    ----------
    embeddings:
        Optional ``(n, d)`` matrix; passing it here is shorthand for
        calling :meth:`build` immediately.
    comparator:
        ``"dot"``, ``"cos"`` or ``"l2"`` — use the comparator the model
        was trained with, so "nearest" means what training optimised.
    chunk_size:
        Rows of the database scored per block (bounds the temporary
        score matrix at ``queries x chunk_size``).

    When built from a memory-mapped table with the ``dot`` comparator,
    the scan streams chunks straight off the mapping (``prepare`` is
    the identity), so the resident footprint stays at one chunk; with
    ``cos``/``l2`` the prepared matrix is materialised.
    """

    def __init__(
        self,
        embeddings: "np.ndarray | None" = None,
        comparator: str = "cos",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.comparator = comparator
        self._comp = make_comparator(comparator)
        self.chunk_size = chunk_size
        self._prepared: "np.ndarray | None" = None
        self.num_items = 0
        self.dim = 0
        if embeddings is not None:
            self.build(embeddings)

    # -- KnnIndex ------------------------------------------------------

    def build(self, embeddings) -> "ExactIndex":
        """Ingest the database matrix (prepared once, queried many)."""
        embeddings = as_matrix(embeddings)
        self._prepared = self._comp.prepare(embeddings)
        self.num_items, self.dim = embeddings.shape
        return self

    def query(
        self,
        vectors: np.ndarray,
        k: int = 10,
        exclude_self: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` database rows for each query vector.

        Parameters
        ----------
        vectors:
            ``(q, d)`` raw query embeddings (prepared internally).
        exclude_self:
            Optional ``(q,)`` database indices excluded per query (a
            node should not be its own neighbour).

        Returns
        -------
        (indices, scores):
            Both ``(q, k)``, sorted by descending score.
        """
        vectors, k, exclude_self = validate_query(
            vectors, self.dim, k, self.num_items, exclude_self
        )
        prepared_q = self._comp.prepare(vectors)
        return chunked_topk(
            self._comp, prepared_q, self._prepared, k, self.chunk_size,
            exclude_self,
        )

    def nbytes(self) -> int:
        """Resident bytes: the prepared database matrix."""
        return 0 if self._prepared is None else int(self._prepared.nbytes)

    # -- conveniences --------------------------------------------------

    def neighbors_of(
        self, index: int, k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbours of database row ``index`` (self excluded).

        Note: queries take *raw* vectors; for cosine the stored row is
        already normalised, which is fine since normalisation is
        idempotent.
        """
        if self._prepared is None:
            raise ServingError("index is empty; call build() first")
        idx, scores = self.query(
            self._prepared[index : index + 1],
            k=k,
            exclude_self=np.asarray([index]),
        )
        return idx[0], scores[0]
