"""Negative sampling (paper Section 4.3).

Most embedding systems are memory-bound on negatives: ``B · Bn`` dot
products need ``B · Bn · d`` floats of memory traffic. PBG instead cuts
a batch into chunks of ~50 edges of one relation and reuses *one*
candidate pool per chunk and side:

- the chunk's own source (resp. destination) entities — drawn from the
  data distribution, since entities appear in edges in proportion to
  their degree ("corrupting positive edges"), and
- ``U`` entities uniform over the entity type and the active partition.

A chunk is the group that shares a relation and a pool; the gradient
step belongs to the batch, which may mix relations. :func:`sample_pool`
draws the pools of a run of ``n`` equal-width chunks in one call,
``(n, c)`` entities in and ``(n, k)`` candidates out, and scoring a chunk
against its pool is one matmul (Figure 3). The two sources realise the
paper's α-blend of data-prevalence and uniform negatives (α = 0.5 by
default via equal counts). Pool entries equal to the true endpoint of an
edge *of their own chunk* are *induced positives*, masked out of the loss.
Figure 4's unbatched baseline is chunks of one edge with only uniform
negatives (``chunk_size=1``, ``num_batch_negs=0``): ``(n, 1)`` entities
in, a pool of ``k`` per edge out, each masked against its own endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NegativePool",
    "sample_pool",
    "PrevalenceSampler",
]


@dataclass
class NegativePool:
    """Candidate pools for one corruption side.

    Attributes
    ----------
    entities:
        ``(k,)`` candidate entity ids (partition-local offsets) of one
        chunk; ``(n, k)`` for ``n`` chunks.
    mask:
        ``(c, k)`` boolean, ``(n, c, k)`` for ``n`` chunks;
        ``mask[..., i, j]`` is False when candidate ``j`` equals edge
        ``i``'s true endpoint (induced positive) in the same chunk.
    """

    entities: np.ndarray
    mask: np.ndarray

    @property
    def num_candidates(self) -> int:
        return self.entities.shape[-1]


def sample_pool(
    chunk_entities: np.ndarray,
    true_entities: np.ndarray,
    num_entities: int,
    num_batch_negs: int,
    num_uniform_negs: int,
    rng: np.random.Generator,
) -> NegativePool:
    """Build the shared negative pool of each chunk for one side.

    Parameters
    ----------
    chunk_entities:
        The chunk's own entities on the corrupted side — the
        data-distribution reuse pool: ``(c,)``, or ``(n, c)`` for
        ``n`` chunks of one width (each row its own pool).
    true_entities:
        Each edge's true endpoint on the corrupted side (used for
        masking). For standard corruption this equals
        ``chunk_entities``.
    num_entities:
        Entity count of the corrupted side's type in the active
        partition (uniform sampling range).
    num_batch_negs, num_uniform_negs:
        Pool composition. When ``num_batch_negs`` equals the chunk
        size, the chunk is reused as-is (zero extra sampling cost, the
        paper's configuration); otherwise that many entities are drawn
        from the chunk with replacement.
    """
    if num_batch_negs < 0 or num_uniform_negs < 0:
        raise ValueError("negative counts must be >= 0")
    if num_entities < 1:
        raise ValueError("num_entities must be >= 1")
    parts = []
    *lead, c = chunk_entities.shape
    if num_batch_negs > 0 and c > 0:
        if num_batch_negs == c:
            parts.append(chunk_entities)
        else:
            picks = rng.integers(0, c, size=(*lead, num_batch_negs))
            parts.append(np.take_along_axis(chunk_entities, picks, axis=-1))
    if num_uniform_negs > 0:
        parts.append(rng.integers(
            0, num_entities, size=(*lead, num_uniform_negs), dtype=np.int64
        ))
    if not parts:
        raise ValueError("pool would be empty; need some negatives")
    entities = np.concatenate(parts, axis=-1)
    mask = entities[..., None, :] != true_entities[..., :, None]
    return NegativePool(entities=entities, mask=mask)


class PrevalenceSampler:
    """Sample entities proportional to their frequency in the data.

    Used by the full-Freebase evaluation protocol (Section 5.4.2): the
    paper samples 10 000 candidate negatives "according to their
    prevalence in the training data", because uniform candidates are
    trivially separable under a long-tailed degree distribution.

    Construction is O(n); each draw is a binary search over the CDF.
    """

    def __init__(self, counts: np.ndarray) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        total = counts.sum()
        if total <= 0:
            raise ValueError("at least one entity must have positive count")
        self._cdf = np.cumsum(counts) / total

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` entity ids (int, tuple sizes supported)."""
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right").astype(np.int64)
        # Guard the u ≈ 1.0 edge where float CDFs can overflow the range.
        return np.minimum(idx, len(self._cdf) - 1)
