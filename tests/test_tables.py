"""Tests for embedding tables (dense and featurized)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.tables import (
    DenseEmbeddingTable,
    FeaturizedEmbeddingTable,
    init_embeddings,
)


class TestInitEmbeddings:
    def test_scale_independent_of_dim(self):
        rng = np.random.default_rng(0)
        for d in (4, 64, 256):
            emb = init_embeddings(2000, d, rng)
            norms = np.linalg.norm(emb, axis=1)
            assert norms.mean() == pytest.approx(1.0, rel=0.1)

    def test_dtype(self):
        emb = init_embeddings(10, 4, np.random.default_rng(0))
        assert emb.dtype == np.float32
        emb64 = init_embeddings(10, 4, np.random.default_rng(0), np.float64)
        assert emb64.dtype == np.float64


class TestDenseEmbeddingTable:
    def test_gather(self):
        t = DenseEmbeddingTable.create(5, 3, np.random.default_rng(0))
        rows = np.asarray([4, 0, 4])
        out = t.gather(rows)
        np.testing.assert_allclose(out, t.weights[[4, 0, 4]])

    def test_apply_gradients_moves_rows(self):
        t = DenseEmbeddingTable.create(5, 3, np.random.default_rng(1))
        before = t.weights.copy()
        rows = np.asarray([2])
        grads = np.ones((1, 3), dtype=np.float32)
        t.apply_gradients(rows, grads, lr=0.1)
        assert not np.allclose(t.weights[2], before[2])
        untouched = [0, 1, 3, 4]
        np.testing.assert_allclose(t.weights[untouched], before[untouched])

    def test_state_rows_must_match(self):
        with pytest.raises(ValueError):
            DenseEmbeddingTable(
                np.zeros((5, 3), dtype=np.float32),
                np.zeros(4, dtype=np.float32),
            )

    def test_nbytes_accounting(self):
        t = DenseEmbeddingTable.create(10, 4, np.random.default_rng(2))
        assert t.nbytes() == 10 * 4 * 4 + 10 * 4


class TestFeaturizedEmbeddingTable:
    def _table(self, rng=None):
        rng = rng or np.random.default_rng(0)
        # 3 entities over 4 features: e0={0}, e1={1,2}, e2={2,3}
        return FeaturizedEmbeddingTable.create(
            [[0], [1, 2], [2, 3]], num_features=4, dim=5, rng=rng
        )

    def test_gather_is_feature_mean(self):
        t = self._table()
        out = t.gather(np.asarray([0, 1, 2]))
        f = t.feature_weights
        np.testing.assert_allclose(out[0], f[0], rtol=1e-6)
        np.testing.assert_allclose(out[1], (f[1] + f[2]) / 2, rtol=1e-6)
        np.testing.assert_allclose(out[2], (f[2] + f[3]) / 2, rtol=1e-6)

    def test_gradients_flow_to_features(self):
        t = self._table()
        before = t.feature_weights.copy()
        g = np.ones((1, 5), dtype=np.float32)
        t.apply_gradients(np.asarray([1]), g, lr=0.1)
        assert not np.allclose(t.feature_weights[1], before[1])
        assert not np.allclose(t.feature_weights[2], before[2])
        np.testing.assert_allclose(t.feature_weights[0], before[0])
        np.testing.assert_allclose(t.feature_weights[3], before[3])

    def test_shared_feature_accumulates_from_multiple_entities(self):
        t = self._table()
        before = t.feature_weights.copy()
        g = np.ones((2, 5), dtype=np.float32)
        # Entities 1 and 2 share feature 2: its gradient is the sum.
        t.apply_gradients(np.asarray([1, 2]), g, lr=0.1)
        moved = np.abs(t.feature_weights - before).sum(axis=1)
        assert moved[2] > 0

    def test_entity_without_features_rejected(self):
        with pytest.raises(ValueError):
            FeaturizedEmbeddingTable.create(
                [[0], []], num_features=2, dim=3, rng=np.random.default_rng(0)
            )

    def test_incidence_feature_mismatch_rejected(self):
        inc = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            FeaturizedEmbeddingTable(
                inc, np.zeros((4, 5), dtype=np.float32)
            )

    def test_num_rows_and_dim(self):
        t = self._table()
        assert t.num_rows == 3
        assert t.dim == 5

    def test_empty_gradient_noop(self):
        t = self._table()
        before = t.feature_weights.copy()
        t.apply_gradients(
            np.empty(0, dtype=np.int64),
            np.empty((0, 5), dtype=np.float32),
            lr=0.1,
        )
        np.testing.assert_allclose(t.feature_weights, before)


class TestDirtyRowTracking:
    def test_fresh_table_has_no_dirty_rows(self):
        t = DenseEmbeddingTable.create(5, 3, np.random.default_rng(0))
        assert len(t.dirty_row_indices()) == 0

    def test_apply_gradients_marks_rows(self):
        t = DenseEmbeddingTable.create(8, 3, np.random.default_rng(0))
        t.apply_gradients(
            np.asarray([2, 5]), np.ones((2, 3), np.float32), lr=0.1
        )
        np.testing.assert_array_equal(t.dirty_row_indices(), [2, 5])

    def test_duplicate_rows_marked_once(self):
        t = DenseEmbeddingTable.create(6, 2, np.random.default_rng(0))
        t.apply_gradients(
            np.asarray([1, 1, 4]), np.ones((3, 2), np.float32), lr=0.1
        )
        np.testing.assert_array_equal(t.dirty_row_indices(), [1, 4])

    def test_marks_accumulate_across_calls(self):
        t = DenseEmbeddingTable.create(6, 2, np.random.default_rng(0))
        t.apply_gradients(np.asarray([0]), np.ones((1, 2), np.float32), 0.1)
        t.apply_gradients(np.asarray([3]), np.ones((1, 2), np.float32), 0.1)
        np.testing.assert_array_equal(t.dirty_row_indices(), [0, 3])
