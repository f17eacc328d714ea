"""Link-prediction ranking evaluation.

Reproduces both evaluation protocols used in the paper:

- **FB15k protocol** (Section 5.4.1): each test edge is ranked against
  *all* entities of the correct type, reporting raw and *filtered*
  metrics — filtering removes candidates that form true edges in
  train ∪ valid ∪ test so a model is not punished for ranking real
  edges highly (Bordes et al., 2013).
- **Large-graph protocol** (Sections 5.2, 5.4.2, 5.5): each test edge
  is ranked against ``K`` candidate negatives sampled either uniformly
  or according to their prevalence in the training data (the paper uses
  prevalence sampling with K = 10 000 on Freebase/Twitter because
  uniform candidates are trivially separable under long-tailed degree
  distributions).

Both sides are ranked: destination corruption and source corruption,
each query contributing one rank (the paper's S'_e contains both).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import EmbeddingModel
from repro.core.negatives import PrevalenceSampler
from repro.graph.edgelist import EdgeList

__all__ = [
    "RankingMetrics",
    "ranks_to_metrics",
    "LinkPredictionEvaluator",
]

_DEFAULT_HITS = (1, 10, 50)


@dataclass
class RankingMetrics:
    """Aggregate ranking metrics over a set of queries.

    ``rank`` is 1-based; ``mrr`` is the mean of ``1/rank``; ``hits_at[k]``
    the fraction of queries with ``rank <= k``.
    """

    num_queries: int
    mr: float
    mrr: float
    hits_at: "dict[int, float]" = field(default_factory=dict)

    def __str__(self) -> str:
        hits = " ".join(
            f"Hits@{k}={v:.3f}" for k, v in sorted(self.hits_at.items())
        )
        return (
            f"MRR={self.mrr:.3f} MR={self.mr:.1f} {hits} "
            f"(n={self.num_queries})"
        )


def ranks_to_metrics(
    ranks: np.ndarray, hits_ks: "tuple[int, ...]" = _DEFAULT_HITS
) -> RankingMetrics:
    """Reduce an array of 1-based ranks to :class:`RankingMetrics`."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.ndim != 1 or len(ranks) == 0:
        raise ValueError("ranks must be a non-empty 1-D array")
    if ranks.min() < 1:
        raise ValueError("ranks are 1-based; found a rank < 1")
    return RankingMetrics(
        num_queries=len(ranks),
        mr=float(ranks.mean()),
        mrr=float((1.0 / ranks).mean()),
        hits_at={k: float((ranks <= k).mean()) for k in hits_ks},
    )


class _EdgeFilter:
    """Fast membership test for known edges, per relation and side.

    Stores, for every ``(rel, src)``, the sorted array of true
    destinations (and symmetrically for sources) so filtered evaluation
    can mask candidates with a vectorised ``isin`` per query.
    """

    def __init__(self, edge_sets: "list[EdgeList]") -> None:
        by_src: dict[tuple[int, int], list[int]] = {}
        by_dst: dict[tuple[int, int], list[int]] = {}
        for edges in edge_sets:
            for s, r, d in zip(edges.src, edges.rel, edges.dst):
                by_src.setdefault((int(r), int(s)), []).append(int(d))
                by_dst.setdefault((int(r), int(d)), []).append(int(s))
        self._by_src = {
            k: np.unique(np.asarray(v, dtype=np.int64))
            for k, v in by_src.items()
        }
        self._by_dst = {
            k: np.unique(np.asarray(v, dtype=np.int64))
            for k, v in by_dst.items()
        }

    def true_dsts(self, rel: int, src: int) -> np.ndarray:
        return self._by_src.get((rel, src), _EMPTY)

    def true_srcs(self, rel: int, dst: int) -> np.ndarray:
        return self._by_dst.get((rel, dst), _EMPTY)


_EMPTY = np.empty(0, dtype=np.int64)


class LinkPredictionEvaluator:
    """Rank test edges against corrupted candidates.

    Parameters
    ----------
    model:
        A trained model with all partitions resident (use
        ``model.global_embeddings`` ability).
    filter_edges:
        Edge lists whose edges are removed from candidate sets in
        filtered mode (typically train + valid + test).
    """

    def __init__(
        self,
        model: EmbeddingModel,
        filter_edges: "list[EdgeList] | None" = None,
    ) -> None:
        self.model = model
        self.config = model.config
        self._filter = _EdgeFilter(filter_edges) if filter_edges else None
        self._emb_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------

    def _embeddings(self, entity_type: str) -> np.ndarray:
        if entity_type not in self._emb_cache:
            self._emb_cache[entity_type] = self.model.global_embeddings(
                entity_type
            )
        return self._emb_cache[entity_type]

    # ------------------------------------------------------------------

    def evaluate(
        self,
        eval_edges: EdgeList,
        num_candidates: int | None = None,
        candidate_sampling: str = "uniform",
        train_edges: EdgeList | None = None,
        filtered: bool = False,
        both_sides: bool = True,
        batch_size: int = 512,
        rng: np.random.Generator | None = None,
        hits_ks: "tuple[int, ...]" = _DEFAULT_HITS,
    ) -> RankingMetrics:
        """Rank every eval edge; return aggregate metrics.

        Parameters
        ----------
        num_candidates:
            ``None`` ranks against all entities of the correct type
            (FB15k protocol); an integer K samples a candidate pool of
            size K per evaluation batch (large-graph protocol).
        candidate_sampling:
            ``"uniform"`` or ``"prevalence"`` (degree-proportional, as
            in Section 5.4.2). Only used when ``num_candidates`` is set.
        train_edges:
            Needed for prevalence sampling (candidate frequencies).
        filtered:
            Mask candidates forming known edges (requires
            ``filter_edges`` at construction).
        both_sides:
            Rank both destination and source corruptions.
        """
        if filtered and self._filter is None:
            raise ValueError(
                "filtered evaluation requires filter_edges at construction"
            )
        if candidate_sampling not in ("uniform", "prevalence"):
            raise ValueError(
                f"unknown candidate_sampling {candidate_sampling!r}"
            )
        if candidate_sampling == "prevalence" and num_candidates is not None:
            if train_edges is None:
                raise ValueError(
                    "prevalence sampling needs train_edges for frequencies"
                )
        rng = rng if rng is not None else np.random.default_rng(0)

        all_ranks: list[np.ndarray] = []
        for rel_id, rel_edges in sorted(
            eval_edges.group_by_relation().items()
        ):
            all_ranks.extend(
                self._evaluate_relation(
                    rel_id,
                    rel_edges,
                    num_candidates,
                    candidate_sampling,
                    train_edges,
                    filtered,
                    both_sides,
                    batch_size,
                    rng,
                )
            )
        if not all_ranks:
            raise ValueError("no eval edges")
        return ranks_to_metrics(np.concatenate(all_ranks), hits_ks)

    # ------------------------------------------------------------------

    def _evaluate_relation(
        self,
        rel_id: int,
        edges: EdgeList,
        num_candidates: int | None,
        candidate_sampling: str,
        train_edges: EdgeList | None,
        filtered: bool,
        both_sides: bool,
        batch_size: int,
        rng: np.random.Generator,
    ) -> "list[np.ndarray]":
        rel = self.config.relations[rel_id]
        src_emb_all = self._embeddings(rel.lhs)
        dst_emb_all = self._embeddings(rel.rhs)

        samplers: dict[str, PrevalenceSampler] = {}
        if num_candidates is not None and candidate_sampling == "prevalence":
            train_by_rel = train_edges.group_by_relation()
            # Frequencies from all training edges touching each type.
            for side, ent_type, n in (
                ("src", rel.lhs, len(src_emb_all)),
                ("dst", rel.rhs, len(dst_emb_all)),
            ):
                counts = np.zeros(n, dtype=np.int64)
                for rid2, e2 in train_by_rel.items():
                    rel2 = self.config.relations[rid2]
                    if rel2.lhs == ent_type:
                        counts += np.bincount(e2.src, minlength=n)
                    if rel2.rhs == ent_type:
                        counts += np.bincount(e2.dst, minlength=n)
                counts = counts + 1  # smooth so every entity is sampleable
                samplers[side] = PrevalenceSampler(counts)

        ranks: list[np.ndarray] = []
        for lo in range(0, len(edges), batch_size):
            batch = edges[lo : lo + batch_size]
            # Destination corruption: rank true dst among candidates.
            ranks.append(
                self._rank_side(
                    rel_id, batch, "dst", src_emb_all, dst_emb_all,
                    num_candidates, samplers, filtered, rng,
                )
            )
            if both_sides:
                ranks.append(
                    self._rank_side(
                        rel_id, batch, "src", src_emb_all, dst_emb_all,
                        num_candidates, samplers, filtered, rng,
                    )
                )
        return ranks

    def _rank_side(
        self,
        rel_id: int,
        batch: EdgeList,
        side: str,
        src_emb_all: np.ndarray,
        dst_emb_all: np.ndarray,
        num_candidates: int | None,
        samplers: "dict[str, PrevalenceSampler]",
        filtered: bool,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Ranks (1-based) of the true endpoint on one corruption side."""
        if side == "dst":
            fixed_emb = src_emb_all[batch.src]
            pool_emb_all = dst_emb_all
            true_entities = batch.dst
            score_fn = self.model.score_dst_pool
        else:
            fixed_emb = dst_emb_all[batch.dst]
            pool_emb_all = src_emb_all
            true_entities = batch.src
            score_fn = self.model.score_src_pool

        if num_candidates is None:
            cand = np.arange(len(pool_emb_all), dtype=np.int64)
        elif samplers:
            cand = samplers[side].sample(num_candidates, rng)
        else:
            cand = rng.integers(
                0, len(pool_emb_all), size=num_candidates, dtype=np.int64
            )

        scores = score_fn(rel_id, fixed_emb, pool_emb_all[cand])
        pos_scores = self.model.score_pairs(
            rel_id, src_emb_all[batch.src], dst_emb_all[batch.dst]
        )

        # Mask induced positives: the query's own true endpoint.
        invalid = cand[None, :] == true_entities[:, None]
        if filtered:
            for i in range(len(batch)):
                if side == "dst":
                    known = self._filter.true_dsts(rel_id, int(batch.src[i]))
                else:
                    known = self._filter.true_srcs(rel_id, int(batch.dst[i]))
                if len(known):
                    invalid[i] |= np.isin(cand, known)
        scores = np.where(invalid, -np.inf, scores)
        # Optimistic tie-breaking against strictly greater scores.
        return 1 + (scores > pos_scores[:, None]).sum(axis=1)
