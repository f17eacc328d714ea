"""Minibatch construction: relation-pure chunks, relation-mixed batches.

PBG groups edges by relation type (Section 4.3) so that the linear
operator is one matmul and one negative pool serves a whole chunk: the
*chunk* — at most ``chunk_size`` edges — shares a relation and a pool.
The *batch* is the unit of the update and may mix the relations of one
*relation group* (same entity types and operator: one model call), so a
group's chunks pack into full batches however many relations it has.
The ungrouped path (shuffle and slice) is kept for the ablation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = ["iterate_batches", "iterate_chunks", "chunk_bounds"]


def iterate_batches(
    edges: EdgeList,
    batch_size: int,
    rng: np.random.Generator,
    group_by_relation: bool = True,
    *,
    chunk_size: int,
    groups: np.ndarray,
) -> Iterator[EdgeList]:
    """Yield shuffled minibatches of at most ``batch_size`` edges with
    their relations in runs, relation group by relation group
    (``groups[r]`` is relation ``r``'s group).

    With ``group_by_relation`` every relation's edges are shuffled and cut
    into chunks of ``chunk_size``; a group's full chunks, then its short
    tails by width, are sliced into one-group batches: all but the group's
    last are full, and equal-width chunks are neighbours. Batches come in
    random order so no relation is trained last every epoch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(edges) == 0:
        return
    if not group_by_relation:
        shuffled = edges.shuffled(rng)
        for lo in range(0, len(shuffled), batch_size):
            batch = shuffled[lo : lo + batch_size]
            key = groups[batch.rel] * len(groups) + batch.rel
            yield batch[np.argsort(key, kind="stable")]
        return

    order = np.argsort(edges.rel, kind="stable")
    rel = edges.rel[order]
    starts = np.flatnonzero(rel[1:] != rel[:-1]) + 1
    layouts: "dict[int, tuple[list, list]]" = {}  # group -> (full, tails)
    for lo, hi in zip([0, *starts], [*starts, len(rel)]):
        mine = rng.permutation(order[lo:hi])
        whole = len(mine) - len(mine) % chunk_size
        full, tails = layouts.setdefault(groups[rel[lo]], ([], []))
        full.append(mine[:whole])
        tails.append(mine[whole:])
    batches: list[EdgeList] = []
    for _, (full, tails) in sorted(layouts.items()):
        packed = edges[np.concatenate(full + sorted(tails, key=len, reverse=True))]
        for lo in range(0, len(packed), batch_size):
            batches.append(packed[lo : lo + batch_size])
    for i in rng.permutation(len(batches)):
        yield batches[i]


def chunk_bounds(rel: np.ndarray, chunk_size: int) -> "list[int]":
    """Boundaries of a batch's chunks — every run of one relation, cut
    each ``chunk_size`` edges: chunk ``i`` is ``bounds[i]:bounds[i + 1]``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    cuts = ((rel[1:] != rel[:-1]).nonzero()[0] + 1).tolist()
    runs = zip([0, *cuts], [*cuts, len(rel)])
    return [b for lo, hi in runs for b in range(lo, hi, chunk_size)] + [len(rel)]


def iterate_chunks(
    batch: EdgeList, chunk_size: int
) -> Iterator[tuple[int, EdgeList]]:
    """Yield a batch's ``(relation_id, chunk)`` pairs, cut as the model does."""
    bounds = chunk_bounds(batch.rel, chunk_size)
    for lo, hi in zip(bounds, bounds[1:]):
        yield int(batch.rel[lo]), batch[lo:hi]
