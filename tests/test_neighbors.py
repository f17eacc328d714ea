"""Tests for nearest-neighbour search (the exact index)."""

import numpy as np
import pytest

from repro.serving.index import ExactIndex, KnnIndex


def _clustered(n_per=20, c=4, d=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d)) * 5
    emb = np.vstack(
        [centers[i] + 0.2 * rng.standard_normal((n_per, d)) for i in range(c)]
    )
    labels = np.repeat(np.arange(c), n_per)
    return emb.astype(np.float32), labels


class TestExactIndex:
    def test_exact_against_bruteforce(self):
        emb, _ = _clustered()
        nn = ExactIndex(emb, "dot", chunk_size=7)  # force chunking
        q = emb[:5]
        idx, scores = nn.query(q, k=10)
        brute = q @ emb.T
        for i in range(5):
            expect = np.argsort(-brute[i])[:10]
            np.testing.assert_array_equal(np.sort(idx[i]), np.sort(expect))
            np.testing.assert_allclose(
                scores[i], np.sort(brute[i])[::-1][:10], rtol=1e-5
            )

    def test_implements_protocol(self):
        emb, _ = _clustered()
        assert isinstance(ExactIndex(emb), KnnIndex)

    def test_deferred_build(self):
        emb, _ = _clustered()
        nn = ExactIndex(comparator="cos")
        with pytest.raises(RuntimeError, match="build"):
            nn.query(emb[:1], k=1)
        assert nn.build(emb) is nn
        idx, _ = nn.query(emb[:1], k=3)
        assert idx.shape == (1, 3)

    def test_nbytes(self):
        emb, _ = _clustered()
        assert ExactIndex(emb, "cos").nbytes() == emb.nbytes
        assert ExactIndex(comparator="cos").nbytes() == 0

    def test_scores_sorted_descending(self):
        emb, _ = _clustered()
        nn = ExactIndex(emb, "cos")
        _, scores = nn.query(emb[:3], k=8)
        assert np.all(np.diff(scores, axis=1) <= 1e-7)

    def test_neighbors_within_cluster(self):
        emb, labels = _clustered()
        nn = ExactIndex(emb, "cos")
        (idx,), _ = nn.query(emb[:1], k=10, exclude_self=np.asarray([0]))
        assert (labels[idx] == labels[0]).mean() > 0.9
        assert 0 not in idx  # self excluded

    def test_l2_comparator(self):
        emb, _ = _clustered()
        nn = ExactIndex(emb, "l2")
        (idx,), (scores,) = nn.query(emb[5:6], k=3, exclude_self=np.asarray([5]))
        # Negative squared distances: all <= 0, nearest first.
        assert np.all(scores <= 0)
        dists = np.linalg.norm(emb - emb[5], axis=1)
        expect = np.argsort(dists)[1:4]
        np.testing.assert_array_equal(np.sort(idx), np.sort(expect))

    def test_exclude_self_per_query(self):
        emb, _ = _clustered()
        nn = ExactIndex(emb, "dot")
        idx, _ = nn.query(emb[:4], k=5, exclude_self=np.arange(4))
        for i in range(4):
            assert i not in idx[i]

    def test_validation(self):
        emb, _ = _clustered()
        with pytest.raises(ValueError, match="\\(n, d\\)"):
            ExactIndex(np.zeros(5))
        nn = ExactIndex(emb)
        with pytest.raises(ValueError, match="dim"):
            nn.query(np.zeros((1, 3)), k=2)
        with pytest.raises(ValueError, match="k must be"):
            nn.query(emb[:1], k=0)

    def test_validation_edge_cases(self):
        emb, _ = _clustered()  # 80 items
        nn = ExactIndex(emb)
        with pytest.raises(ValueError, match="k must be >= 1"):
            nn.query(emb[:1], k=-2)
        with pytest.raises(ValueError, match="exceeds the 80 indexed"):
            nn.query(emb[:1], k=81)
        with pytest.raises(TypeError, match="k must be an integer"):
            nn.query(emb[:1], k=2.5)
        with pytest.raises(ValueError, match="one id per query"):
            nn.query(emb[:4], k=3, exclude_self=np.arange(2))
        with pytest.raises(TypeError, match="integer ids"):
            nn.query(emb[:2], k=3, exclude_self=np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="in \\[0, 80\\)"):
            nn.query(emb[:2], k=3, exclude_self=np.array([0, 80]))
        # numpy integer k is fine
        idx, _ = nn.query(emb[:1], k=np.int64(3))
        assert idx.shape == (1, 3)

    def test_single_vector_query(self):
        emb, _ = _clustered()
        nn = ExactIndex(emb, "cos")
        idx, scores = nn.query(emb[0], k=3)
        assert idx.shape == (1, 3)
