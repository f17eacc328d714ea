"""Tests for the link-prediction ranking evaluator."""

import numpy as np
import pytest

from repro.baselines.adapter import embeddings_to_model
from repro.eval.ranking import (
    LinkPredictionEvaluator,
    RankingMetrics,
    ranks_to_metrics,
)
from repro.graph.edgelist import EdgeList


class TestRanksToMetrics:
    def test_perfect_ranks(self):
        m = ranks_to_metrics(np.ones(10))
        assert m.mrr == 1.0 and m.mr == 1.0
        assert m.hits_at[1] == 1.0 and m.hits_at[10] == 1.0

    def test_manual_case(self):
        m = ranks_to_metrics(np.asarray([1, 2, 4, 100]))
        assert m.mr == pytest.approx(26.75)
        assert m.mrr == pytest.approx((1 + 0.5 + 0.25 + 0.01) / 4)
        assert m.hits_at[1] == 0.25
        assert m.hits_at[10] == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            ranks_to_metrics(np.empty(0))
        with pytest.raises(ValueError):
            ranks_to_metrics(np.asarray([0.0]))

    def test_str_format(self):
        s = str(ranks_to_metrics(np.asarray([1.0, 2.0])))
        assert "MRR" in s and "Hits@10" in s


def _planted_model_and_edges(n=30):
    """One-hot embeddings: under dot product, the self-edge (i, i) is
    the unique top-scoring edge for every source — rank 1 everywhere."""
    rng = np.random.default_rng(0)
    emb = (
        np.eye(n) + 0.01 * rng.standard_normal((n, n))
    ).astype(np.float32)
    model = embeddings_to_model(emb, "dot")
    src = np.arange(n, dtype=np.int64)
    edges = EdgeList(src, np.zeros(n, dtype=np.int64), src.copy())
    return model, edges


class TestLinkPredictionEvaluator:
    def test_perfect_predictions_rank_one(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(edges, num_candidates=None)  # all entities
        assert m.mrr > 0.95

    def test_all_candidates_vs_sampled(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        m_all = ev.evaluate(edges, num_candidates=None)
        m_sampled = ev.evaluate(
            edges, num_candidates=10, rng=np.random.default_rng(0)
        )
        # Fewer candidates can only make ranks better or equal.
        assert m_sampled.mr <= m_all.mr + 1e-9

    def test_filtered_improves_or_equals_raw(self):
        """Filtering removes true edges from candidates → ranks ≤ raw."""
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((40, 8)).astype(np.float32)
        model = embeddings_to_model(emb)
        src = rng.integers(0, 40, 100)
        dst = rng.integers(0, 40, 100)
        edges = EdgeList(src, np.zeros(100, dtype=np.int64), dst)
        ev = LinkPredictionEvaluator(model, filter_edges=[edges])
        raw = ev.evaluate(edges, rng=np.random.default_rng(0))
        filt = ev.evaluate(edges, filtered=True, rng=np.random.default_rng(0))
        assert filt.mr <= raw.mr
        assert filt.mrr >= raw.mrr

    def test_filtered_requires_filter_edges(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        with pytest.raises(ValueError, match="filter_edges"):
            ev.evaluate(edges, filtered=True)

    def test_prevalence_requires_train_edges(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        with pytest.raises(ValueError, match="train_edges"):
            ev.evaluate(
                edges, num_candidates=5, candidate_sampling="prevalence"
            )

    def test_prevalence_sampling_runs(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(
            edges,
            num_candidates=10,
            candidate_sampling="prevalence",
            train_edges=edges,
            rng=np.random.default_rng(0),
        )
        assert 0 < m.mrr <= 1

    def test_unknown_sampling(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        with pytest.raises(ValueError, match="candidate_sampling"):
            ev.evaluate(edges, num_candidates=5, candidate_sampling="zipf")

    def test_both_sides_doubles_queries(self):
        model, edges = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        m2 = ev.evaluate(edges, num_candidates=5, both_sides=True,
                         rng=np.random.default_rng(0))
        m1 = ev.evaluate(edges, num_candidates=5, both_sides=False,
                         rng=np.random.default_rng(0))
        assert m2.num_queries == 2 * m1.num_queries

    def test_empty_eval_edges(self):
        model, _ = _planted_model_and_edges()
        ev = LinkPredictionEvaluator(model)
        with pytest.raises(ValueError, match="no eval edges"):
            ev.evaluate(EdgeList.empty())

    def test_random_embeddings_random_ranks(self):
        """Uninformative embeddings → MRR near the random baseline."""
        rng = np.random.default_rng(2)
        emb = rng.standard_normal((200, 4)).astype(np.float32)
        model = embeddings_to_model(emb)
        src = rng.integers(0, 200, 300)
        dst = rng.integers(0, 200, 300)
        edges = EdgeList(src, np.zeros(300, dtype=np.int64), dst)
        ev = LinkPredictionEvaluator(model)
        m = ev.evaluate(edges, num_candidates=100, rng=np.random.default_rng(0))
        # Random ranking over ~100 candidates: MRR ≈ H(100)/100 ≈ 0.05.
        assert m.mrr < 0.2

    def test_metrics_type(self):
        model, edges = _planted_model_and_edges()
        m = LinkPredictionEvaluator(model).evaluate(edges, num_candidates=5)
        assert isinstance(m, RankingMetrics)

    def test_multi_relation_grouping(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((20, 4)).astype(np.float32)
        model = embeddings_to_model(emb, relation_names=("a", "b"))
        edges = EdgeList(
            rng.integers(0, 20, 50),
            rng.integers(0, 2, 50),
            rng.integers(0, 20, 50),
        )
        m = LinkPredictionEvaluator(model).evaluate(
            edges, num_candidates=10, rng=np.random.default_rng(0)
        )
        assert m.num_queries == 100
