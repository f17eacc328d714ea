"""Reciprocal relations ("reciprocal predicates", paper Section 5.4.1).

For FB15k the paper found it "beneficial to use separate relation
embeddings for source negatives and destination negatives", following
Lacroix et al. (2018): every relation ``r`` gets a reverse twin ``r'``
and every training edge ``(s, r, d)`` is duplicated as ``(d, r', s)``.
Destination-side ranking queries use ``r``; source-side queries rank
destinations of ``r'`` — so the two directions never share operator
parameters.

This module implements that transform at the dataset/config level (the
model itself is unchanged — twins are just extra relations) plus an
evaluation wrapper that routes source-corruption queries through the
reverse relation.
"""

from __future__ import annotations

import numpy as np

from repro.config import ConfigSchema, RelationSchema
from repro.eval.ranking import LinkPredictionEvaluator, RankingMetrics
from repro.graph.edgelist import EdgeList

__all__ = [
    "add_reciprocal_relations",
    "add_reciprocal_edges",
    "ReciprocalEvaluator",
]

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


class ReciprocalEvaluator:
    """Link-prediction evaluation under the reciprocal protocol.

    Destination corruption of ``(s, r, d)`` scores ``f(s, r, ·)`` as
    usual; source corruption scores ``f(d, r', ·)`` — a destination
    query on the reverse relation. Metrics aggregate both directions,
    matching how reciprocal models are evaluated in Lacroix et al.
    """

    def __init__(self, model, num_base_relations: int,
                 filter_edges: "list[EdgeList] | None" = None) -> None:
        self.model = model
        self.num_base = num_base_relations
        # Filtering must know reverse edges too.
        self._evaluator = LinkPredictionEvaluator(model, filter_edges)

    def evaluate(
        self,
        eval_edges: EdgeList,
        num_candidates: int | None = None,
        filtered: bool = False,
        rng: np.random.Generator | None = None,
    ):
        """Rank base-relation eval edges in both directions."""
        if len(eval_edges) and eval_edges.rel.max() >= self.num_base:
            raise ValueError("eval edges must use base relation ids")
        rng = rng if rng is not None else np.random.default_rng(0)
        forward = self._evaluator.evaluate(
            eval_edges,
            num_candidates=num_candidates,
            filtered=filtered,
            both_sides=False,
            rng=rng,
        )
        reversed_edges = EdgeList(
            eval_edges.dst, eval_edges.rel + self.num_base, eval_edges.src
        )
        backward = self._evaluator.evaluate(
            reversed_edges,
            num_candidates=num_candidates,
            filtered=filtered,
            both_sides=False,
            rng=rng,
        )
        # Merge: MRR/MR/Hits are means over the union of queries.
        n1, n2 = forward.num_queries, backward.num_queries
        total = n1 + n2

        def blend(a, b):
            return (a * n1 + b * n2) / total

        return RankingMetrics(
            num_queries=total,
            mr=blend(forward.mr, backward.mr),
            mrr=blend(forward.mrr, backward.mrr),
            hits_at={
                k: blend(forward.hits_at[k], backward.hits_at[k])
                for k in forward.hits_at
            },
        )
