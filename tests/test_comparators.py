"""Unit + property tests for comparators (dot, cos, l2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparators import (
    COMPARATORS,
    CosComparator,
    DotComparator,
    L2Comparator,
    make_comparator,
)
from tests.helpers import assert_grads_close, numerical_gradient

ALL_NAMES = sorted(COMPARATORS)


def test_make_comparator_unknown():
    with pytest.raises(ValueError, match="unknown comparator"):
        make_comparator("hamming")


def test_dot_pairs_manual():
    comp = DotComparator()
    a = np.asarray([[1.0, 2.0], [0.0, 1.0]])
    b = np.asarray([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_allclose(comp.score_pairs(a, b), [11.0, 6.0])


def test_cos_prepare_normalises():
    comp = CosComparator()
    x = np.asarray([[3.0, 4.0], [0.0, 2.0]])
    p = comp.prepare(x)
    np.testing.assert_allclose(np.linalg.norm(p, axis=1), [1.0, 1.0])


def test_cos_scores_bounded():
    comp = CosComparator()
    rng = np.random.default_rng(0)
    a = comp.prepare(rng.standard_normal((10, 5)))
    b = comp.prepare(rng.standard_normal((7, 5)))
    s = comp.score_matrix(a, b)
    assert np.all(s <= 1.0 + 1e-9) and np.all(s >= -1.0 - 1e-9)


def test_l2_pairs_manual():
    comp = L2Comparator()
    a = np.asarray([[0.0, 0.0]])
    b = np.asarray([[3.0, 4.0]])
    np.testing.assert_allclose(comp.score_pairs(a, b), [-25.0])


def test_l2_matrix_equals_pairwise():
    comp = L2Comparator()
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3))
    pool = rng.standard_normal((6, 3))
    mat = comp.score_matrix(a, pool)
    for i in range(4):
        for j in range(6):
            expect = -np.sum((a[i] - pool[j]) ** 2)
            assert mat[i, j] == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matrix_consistent_with_pairs(name):
    """score_matrix diagonal vs score_pairs on aligned rows."""
    comp = make_comparator(name)
    rng = np.random.default_rng(2)
    a = comp.prepare(rng.standard_normal((5, 4)))
    b = comp.prepare(rng.standard_normal((5, 4)))
    pairs = comp.score_pairs(a, b)
    mat = comp.score_matrix(a, b)
    np.testing.assert_allclose(np.diag(mat), pairs, atol=1e-10)


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 6),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_matrix_backward_matches_numerical(name, n, k, d, seed):
    comp = make_comparator(name)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    pool = rng.standard_normal((k, d))
    g = rng.standard_normal((n, k))

    ga, gpool = comp.score_matrix_backward(a, pool, g)

    def loss_a(a_):
        return float((comp.score_matrix(a_, pool) * g).sum())

    def loss_pool(p_):
        return float((comp.score_matrix(a, p_) * g).sum())

    assert_grads_close(ga, numerical_gradient(loss_a, a.copy()))
    assert_grads_close(gpool, numerical_gradient(loss_pool, pool.copy()))


@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_pairs_backward_matches_numerical(name, n, d, seed):
    comp = make_comparator(name)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, d))
    g = rng.standard_normal(n)

    ga, gb = comp.score_pairs_backward(a, b, g)

    def loss_a(a_):
        return float((comp.score_pairs(a_, b) * g).sum())

    def loss_b(b_):
        return float((comp.score_pairs(a, b_) * g).sum())

    assert_grads_close(ga, numerical_gradient(loss_a, a.copy()))
    assert_grads_close(gb, numerical_gradient(loss_b, b.copy()))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_cos_prepare_backward_matches_numerical(n, d, seed):
    comp = CosComparator()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + 0.5  # keep away from the origin
    g = rng.standard_normal((n, d))

    gx = comp.prepare_backward(x, g)

    def loss(x_):
        return float((comp.prepare(x_) * g).sum())

    assert_grads_close(gx, numerical_gradient(loss, x.copy()))


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_cos_saved_backward_matches_numerical_and_recomputing(n, d, seed):
    """The backward fed by ``prepare_saved``'s outputs (what training
    runs) against central differences and against the formula that
    recomputes the norm and ``x/||x||`` from ``x``."""
    comp = CosComparator()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + 0.5  # keep away from the origin
    g = rng.standard_normal((n, d))

    y, saved = comp.prepare_saved(x)
    np.testing.assert_array_equal(y, comp.prepare(x))
    g_before = g.copy()
    gx = comp.prepare_backward_saved(y, saved, g)
    np.testing.assert_array_equal(g, g_before)

    def loss(x_):
        return float((comp.prepare(x_) * g).sum())

    assert_grads_close(gx, numerical_gradient(loss, x.copy()))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    unit = x / norms
    recomputed = (g - unit * np.einsum("nd,nd->n", g, unit)[:, None]) / norms
    np.testing.assert_allclose(gx, recomputed, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(gx, comp.prepare_backward(x, g))


@pytest.mark.parametrize("name", ["dot", "l2"])
def test_saved_prepare_is_identity_without_normalisation(name):
    comp = make_comparator(name)
    x = np.arange(6.0).reshape(2, 3)
    g = np.ones((2, 3))
    y, saved = comp.prepare_saved(x)
    assert y is x and saved is None
    assert comp.prepare_backward_saved(y, saved, g) is g


def test_cos_prepare_zero_vector_is_safe():
    comp = CosComparator()
    x = np.zeros((1, 4))
    p = comp.prepare(x)
    assert np.isfinite(p).all()
    g = comp.prepare_backward(x, np.ones((1, 4)))
    assert np.isfinite(g).all()


def test_full_score_through_prepare_cos_equals_cosine():
    """prepare + dot must equal the cosine of the raw vectors."""
    comp = CosComparator()
    rng = np.random.default_rng(3)
    a_raw = rng.standard_normal((6, 4))
    b_raw = rng.standard_normal((6, 4))
    scores = comp.score_pairs(comp.prepare(a_raw), comp.prepare(b_raw))
    expect = np.einsum("nd,nd->n", a_raw, b_raw) / (
        np.linalg.norm(a_raw, axis=1) * np.linalg.norm(b_raw, axis=1)
    )
    np.testing.assert_allclose(scores, expect, atol=1e-10)
