"""Tests for the columnar edge list."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.edgelist import EdgeList


def _edges():
    return EdgeList.from_tuples([(0, 0, 1), (1, 0, 2), (2, 1, 0), (0, 1, 2)])


class TestConstruction:
    def test_from_tuples(self):
        e = _edges()
        assert len(e) == 4
        np.testing.assert_array_equal(e.src, [0, 1, 2, 0])

    def test_empty(self):
        e = EdgeList.empty()
        assert len(e) == 0
        assert list(e) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            EdgeList(np.zeros(2, int), np.zeros(3, int), np.zeros(2, int))

    def test_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            EdgeList.from_tuples([(-1, 0, 0)])

    def test_weights_validation(self):
        src = np.asarray([0, 1])
        with pytest.raises(ValueError, match="match the number"):
            EdgeList(src, src, src, np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            EdgeList(src, src, src, np.asarray([1.0, 0.0]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            EdgeList(np.zeros((2, 2), int), np.zeros(2, int), np.zeros(2, int))


class TestOperations:
    def test_getitem_slice(self):
        e = _edges()
        sub = e[1:3]
        assert len(sub) == 2
        assert list(sub) == [(1, 0, 2), (2, 1, 0)]

    def test_getitem_fancy(self):
        e = _edges()
        sub = e[np.asarray([3, 0])]
        assert list(sub) == [(0, 1, 2), (0, 0, 1)]

    def test_getitem_preserves_weights(self):
        src = np.asarray([0, 1, 2])
        e = EdgeList(src, src, src, np.asarray([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(e[1:].weights, [2.0, 3.0])

    def test_getitem_skips_the_validation_scans(self, monkeypatch):
        """Every batch slices its bucket: a subset of a validated list
        is valid, so ``[]`` must not go through the constructor — and
        still hands out contiguous 1-D columns for every index form."""
        src = np.asarray([0, 1, 2, 3])
        e = EdgeList(src, src % 2, src[::-1], src + 1.0)
        indices = [
            slice(1, 3), slice(None, None, 2), np.asarray([3, 0, 0]), 2,
        ]
        public = [
            EdgeList(e.src[i], e.rel[i], e.dst[i], e.weights[i])
            for i in indices
        ]
        monkeypatch.setattr(
            EdgeList, "__init__",
            lambda *a, **k: pytest.fail("slice re-validated its columns"),
        )
        for index, want in zip(indices, public):
            got = e[index]
            assert got == want
            for column in (got.src, got.rel, got.dst, got.weights):
                assert column.ndim == 1 and column.flags.c_contiguous

    def test_equality(self):
        assert _edges() == _edges()
        assert _edges() != _edges()[::-1]

    def test_concat(self):
        e = EdgeList.concat([_edges(), _edges()[:1]])
        assert len(e) == 5

    def test_concat_weight_policy(self):
        src = np.asarray([0])
        w = EdgeList(src, src, src, np.ones(1))
        nw = EdgeList(src, src, src)
        assert EdgeList.concat([w, w]).weights is not None
        assert EdgeList.concat([w, nw]).weights is None

    def test_shuffled_is_permutation(self):
        e = _edges()
        s = e.shuffled(np.random.default_rng(0))
        assert sorted(list(s)) == sorted(list(e))

    def test_split_fractions(self):
        e = EdgeList.from_tuples([(i, 0, i + 1) for i in range(100)])
        a, b, c = e.split([0.7, 0.2, 0.1], np.random.default_rng(0))
        assert len(a) == 70 and len(b) == 20 and len(c) == 10
        merged = sorted(list(a) + list(b) + list(c))
        assert merged == sorted(list(e))

    def test_split_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _edges().split([0.5, 0.4], np.random.default_rng(0))

    def test_group_by_relation(self):
        groups = _edges().group_by_relation()
        assert set(groups) == {0, 1}
        assert len(groups[0]) == 2 and len(groups[1]) == 2
        assert np.all(groups[0].rel == 0)
        assert np.all(groups[1].rel == 1)

    def test_group_by_relation_empty(self):
        assert EdgeList.empty().group_by_relation() == {}

    def test_degree_counts(self):
        e = _edges()
        out_deg, in_deg = e.degree_counts(3, 3)
        np.testing.assert_array_equal(out_deg, [2, 1, 1])
        np.testing.assert_array_equal(in_deg, [1, 1, 2])

    def test_unique_entities(self):
        src_u, dst_u = _edges().unique_entities()
        np.testing.assert_array_equal(src_u, [0, 1, 2])
        np.testing.assert_array_equal(dst_u, [0, 1, 2])

    def test_nbytes_positive(self):
        assert _edges().nbytes() == 4 * 8 * 3

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(0, 50),
        n_rel=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_group_by_relation_partitions_edges(self, n, n_rel, seed):
        rng = np.random.default_rng(seed)
        e = EdgeList(
            rng.integers(0, 10, n),
            rng.integers(0, n_rel, n),
            rng.integers(0, 10, n),
        )
        groups = e.group_by_relation()
        total = sum(len(g) for g in groups.values())
        assert total == n
        for rid, g in groups.items():
            assert np.all(g.rel == rid)
