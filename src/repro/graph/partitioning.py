"""Entity partitioning and edge bucketing (the block decomposition).

The paper (Section 4.1, Figure 1) splits each partitioned entity type
uniformly into ``P`` parts sized to fit in memory, then divides edges
into buckets ``(part(src), part(dst))``. Training iterates bucket by
bucket, holding only two partitions' embeddings in RAM at a time.
Both are a few whole-array passes: all partitions fill at once, and
bucketing looks endpoints up once per entity-type pair of the relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ConfigSchema
from repro.core.optimizers import radix_argsort
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage, TypePartitioning

__all__ = ["partition_entities", "bucket_edges", "BucketedEdges", "edge_type_pairs"]


def partition_entities(
    count: int, num_partitions: int, rng: np.random.Generator
) -> TypePartitioning:
    """Uniformly partition ``count`` entities into ``num_partitions`` parts.

    Entities are assigned by a random permutation so each part holds
    ``count / P`` entities up to rounding (the paper partitions Freebase
    nodes "uniformly"). Randomisation matters: contiguous id ranges would
    correlate with dataset ordering (e.g. crawl order) and skew buckets.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if num_partitions > count:
        raise ValueError(
            f"cannot split {count} entities into {num_partitions} partitions"
        )
    # A single partition keeps the identity layout: offsets are global
    # ids, which makes unpartitioned training transparent to debug.
    perm = np.arange(count) if num_partitions == 1 else rng.permutation(count)
    # Balanced sizes: first (count % P) parts get one extra entity.
    base, extra = divmod(count, num_partitions)
    part_sizes = np.full(num_partitions, base, dtype=np.int64)
    part_sizes[:extra] += 1
    return TypePartitioning.from_permutation(perm, part_sizes)


@dataclass
class BucketedEdges:
    """Edges grouped into partition buckets.

    Attributes
    ----------
    buckets:
        Mapping ``(lhs_part, rhs_part) -> EdgeList`` where the edge
        endpoints have been rewritten to *partition-local offsets*.
    nparts_lhs, nparts_rhs:
        Grid dimensions. ``nparts_rhs == 1`` corresponds to the paper's
        Figure 1 (centre): only source entities partitioned, ``P``
        buckets.
    """

    buckets: "dict[tuple[int, int], EdgeList]"
    nparts_lhs: int
    nparts_rhs: int

    def num_edges(self) -> int:
        return sum(len(e) for e in self.buckets.values())

    def nonempty_buckets(self) -> "list[tuple[int, int]]":
        return [b for b, e in self.buckets.items() if len(e)]

    def edges_for(self, bucket: tuple[int, int]) -> EdgeList:
        return self.buckets.get(bucket, EdgeList.empty())


def bucket_edges(
    edges: EdgeList, config: ConfigSchema, entities: EntityStorage
) -> BucketedEdges:
    """Assign every edge to its ``(part(src), part(dst))`` bucket.

    Endpoint ids in the returned buckets are partition-local offsets, so
    a trainer holding the two partitions' embedding matrices can index
    them directly. Buckets come in ascending ``(lhs, rhs)`` order, each
    holding its edges in input order. Partitioned entity types must all
    use the same partition count ``P`` (the paper's single grid);
    unpartitioned types are fine on either side — edges whose endpoint
    type is unpartitioned land in partition 0 of that grid axis, since
    the type is always resident. A relation id the config lacks, or an
    endpoint id its entity type lacks, raises ``ValueError``.

    Cost: one endpoint lookup per ``(lhs, rhs)`` entity-type pair of the
    relations (a single unmasked pass when all relations share a pair),
    one stable 16-bit radix pass over the bucket keys and one gather per
    bucket column; about seven int64 arrays of the edge count at peak.
    """
    pairs, which = edge_type_pairs(edges, config)
    lhs_parts = {entities.num_partitions(lhs) for lhs, _ in pairs}
    rhs_parts = {entities.num_partitions(rhs) for _, rhs in pairs}
    if len(multi := (lhs_parts | rhs_parts) - {1}) > 1:
        raise ValueError("all partitioned entity types must share one partition "
                         f"count; got {sorted(multi)}")
    nparts_lhs, nparts_rhs = max(lhs_parts), max(rhs_parts)

    if which is None:
        ((lhs, rhs),) = pairs
        src_part, src_off = _to_local(entities, lhs, edges.src)
        dst_part, dst_off = _to_local(entities, rhs, edges.dst)
    else:
        src_part, src_off, dst_part, dst_off = np.empty((4, len(edges)), dtype=np.int64)
        for i, (lhs, rhs) in enumerate(pairs):
            mask = which == i
            src_part[mask], src_off[mask] = _to_local(entities, lhs, edges.src[mask])
            dst_part[mask], dst_off[mask] = _to_local(entities, rhs, edges.dst[mask])

    key = src_part * nparts_rhs + dst_part
    del src_part, dst_part
    order = radix_argsort(key)
    sizes = np.bincount(key, minlength=nparts_lhs * nparts_rhs)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    buckets: dict[tuple[int, int], EdgeList] = {}
    for k in np.flatnonzero(sizes):
        idx = order[bounds[k] : bounds[k + 1]]
        weights = None if edges.weights is None else edges.weights[idx]
        buckets[(int(k) // nparts_rhs, int(k) % nparts_rhs)] = EdgeList._from_valid(
            src_off[idx], edges.rel[idx], dst_off[idx], weights
        )
    return BucketedEdges(buckets, nparts_lhs, nparts_rhs)


def edge_type_pairs(
    edges: EdgeList, config: ConfigSchema
) -> "tuple[list[tuple[str, str]], np.ndarray | None]":
    """The distinct ``(lhs, rhs)`` entity-type pairs of the config's
    relations, in first-seen order, and each edge's index into them
    (``None`` when all relations share one pair). An edge relation id
    the config lacks raises ``ValueError``."""
    if len(edges) and edges.rel.max() >= len(config.relations):
        raise ValueError(f"edge relation id {int(edges.rel.max())} is not in "
                         f"the config, which has {len(config.relations)} relations")
    pairs = list(dict.fromkeys((r.lhs, r.rhs) for r in config.relations))
    if len(pairs) == 1:
        return pairs, None
    return pairs, np.array([pairs.index((r.lhs, r.rhs)) for r in config.relations])[edges.rel]


def _to_local(entities: EntityStorage, entity_type: str, ids: np.ndarray):
    """``to_local`` of ``entity_type``; an id past its count raises ``ValueError``."""
    try:
        return entities.partitioning(entity_type).to_local(ids)
    except IndexError:
        raise ValueError(f"entity id {int(ids.max())} is out of range for type {entity_type!r}, "
                         f"which has {entities.count(entity_type)} entities") from None
