"""Reciprocal relations ("reciprocal predicates", paper Section 5.4.1).

For FB15k the paper found it "beneficial to use separate relation
embeddings for source negatives and destination negatives", following
Lacroix et al. (2018): every relation ``r`` gets a reverse twin ``r'``
and every training edge ``(s, r, d)`` is duplicated as ``(d, r', s)``.
Destination-side ranking queries use ``r``; source-side queries rank
destinations of ``r'`` — so the two directions never share operator
parameters.

This module implements that transform at the dataset/config level (the
model itself is unchanged — twins are just extra relations). Evaluation
needs no wrapper: rank ``add_reciprocal_edges(test, R)`` one-sided
(``LinkPredictionEvaluator.evaluate(..., both_sides=False)``) against
filter lists doubled the same way, so a reverse edge's destination query
is the original edge's source query through ``r'``.
"""

from __future__ import annotations

from repro.config import ConfigSchema, RelationSchema
from repro.graph.edgelist import EdgeList

__all__ = ["add_reciprocal_relations", "add_reciprocal_edges"]

_SUFFIX = "_reciprocal"


def add_reciprocal_relations(config: ConfigSchema) -> ConfigSchema:
    """Return a config with a reverse twin appended for every relation.

    Twin ``i`` of ``R`` original relations has id ``R + i``, swapped
    endpoint types, and the same operator/weight.
    """
    base = list(config.relations)
    for rel in base:
        if rel.name.endswith(_SUFFIX):
            raise ValueError(
                f"config already contains reciprocal relations ({rel.name!r})"
            )
    twins = [
        RelationSchema(
            name=rel.name + _SUFFIX,
            lhs=rel.rhs,
            rhs=rel.lhs,
            operator=rel.operator,
            weight=rel.weight,
        )
        for rel in base
    ]
    return config.replace(relations=base + twins)


def add_reciprocal_edges(edges: EdgeList, num_relations: int) -> EdgeList:
    """Duplicate every edge ``(s, r, d)`` as ``(d, r + R, s)``."""
    if len(edges) and edges.rel.max() >= num_relations:
        raise ValueError(
            f"edges reference relation {int(edges.rel.max())} but only "
            f"{num_relations} base relations were declared"
        )
    reverse = EdgeList(
        edges.dst.copy(),
        edges.rel + num_relations,
        edges.src.copy(),
        edges.weights.copy() if edges.weights is not None else None,
    )
    return EdgeList.concat([edges, reverse])
