"""Tests for row-wise and dense Adagrad."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizers import (
    DenseAdagrad,
    RowAdagrad,
    accumulate_duplicate_rows,
    radix_argsort,
)

#: ids at the 16-bit digit boundaries and the ends of the 32-bit range
_EDGE_IDS = [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**31 - 1, 2**32 - 1]


class TestRadixArgsort:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.int32, np.int64]),
        shape=st.sampled_from(["any", "empty", "one", "all_equal"]),
    )
    def test_is_the_stable_argsort(self, data, dtype, shape):
        top = min(np.iinfo(dtype).max, 2**32 - 1)
        ids = st.one_of(
            st.integers(0, top),
            st.sampled_from([i for i in _EDGE_IDS if i <= top]),
        )
        n = data.draw({
            "any": st.integers(0, 300), "empty": st.just(0),
            "one": st.just(1), "all_equal": st.integers(2, 300),
        }[shape])
        if shape == "all_equal":
            values = [data.draw(ids)] * n
        else:
            values = data.draw(st.lists(ids, min_size=n, max_size=n))
        rows = np.asarray(values, dtype=dtype)
        np.testing.assert_array_equal(
            radix_argsort(rows), np.argsort(rows, kind="stable")
        )

    @pytest.mark.parametrize("ids", [
        np.random.default_rng(0).integers(0, 2**16, 4000),
        np.asarray([65_536, 65_535, 65_536, 0, 65_535, 65_537, 65_535]),
        np.asarray([2**32 - 1, 2**32 - 2, 2**32 - 1, 0, 2**32 - 2**16]),
        np.asarray([7]),
        np.asarray([], dtype=np.int64),
    ], ids=["below_2_16", "straddling_2_16", "near_2_32", "single", "empty"])
    def test_boundary_cases_are_the_stable_argsort(self, ids):
        """Below 2**16 one pass is the answer; at or above it, two."""
        got, want = radix_argsort(ids), np.argsort(ids, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [2**32, 2**32 + 5, 2**40, -1])
    def test_ids_outside_32_bits_raise(self, bad):
        rows = np.asarray([3, bad, 3], dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            radix_argsort(rows)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            accumulate_duplicate_rows(rows, np.ones((3, 2)))


class TestAccumulateDuplicateRows:
    def test_no_duplicates_passthrough(self):
        rows = np.asarray([3, 1, 2])
        grads = np.arange(9.0).reshape(3, 3)
        urows, ugrads = accumulate_duplicate_rows(rows, grads)
        np.testing.assert_array_equal(urows, [1, 2, 3])
        np.testing.assert_allclose(ugrads, grads[[1, 2, 0]])

    def test_duplicates_summed(self):
        rows = np.asarray([5, 5, 2, 5])
        grads = np.asarray([[1.0], [2.0], [10.0], [4.0]])
        urows, ugrads = accumulate_duplicate_rows(rows, grads)
        np.testing.assert_array_equal(urows, [2, 5])
        np.testing.assert_allclose(ugrads, [[10.0], [7.0]])

    def test_empty(self):
        rows = np.empty(0, dtype=np.int64)
        grads = np.empty((0, 4))
        urows, ugrads = accumulate_duplicate_rows(rows, grads)
        assert len(urows) == 0 and len(ugrads) == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate_duplicate_rows(np.zeros(3, dtype=int), np.zeros((2, 4)))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 30),
        n_rows=st.integers(1, 8),
        d=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sum_preserved(self, m, n_rows, d, seed):
        """Scattering the output equals scattering the input."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n_rows, size=m)
        grads = rng.standard_normal((m, d))
        urows, ugrads = accumulate_duplicate_rows(rows, grads)
        dense_in = np.zeros((n_rows, d))
        np.add.at(dense_in, rows, grads)
        dense_out = np.zeros((n_rows, d))
        dense_out[urows] = ugrads
        np.testing.assert_allclose(dense_in, dense_out, atol=1e-12)
        assert len(np.unique(urows)) == len(urows)

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.sampled_from(
            ["random", "all_duplicate", "no_duplicate", "single"]
        ),
        m=st.integers(1, 40),
        d=st.integers(1, 6),
        dtype=st.sampled_from([np.float32, np.float64]),
        as_view=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dict_loop(self, pattern, m, d, dtype, as_view, seed):
        """Sorted distinct rows, each the in-order sum of its gradients."""
        rng = np.random.default_rng(seed)
        if pattern == "single":
            m = 1
        rows = {
            "random": rng.integers(0, max(m // 2, 1), size=m),
            "all_duplicate": np.full(m, 7),
            "no_duplicate": rng.permutation(3 * m)[:m],
            "single": np.asarray([4]),
        }[pattern]
        grads = rng.standard_normal((2 * m, d)).astype(dtype)
        # The chunk step hands over the lhs half of its gradient buffer.
        grads = grads[m:] if as_view else grads[m:].copy()
        before = grads.copy()

        expected: "dict[int, np.ndarray]" = {}
        for row, grad in zip(rows.tolist(), grads):
            expected[row] = expected[row] + grad if row in expected else grad

        urows, ugrads = accumulate_duplicate_rows(rows, grads)
        np.testing.assert_array_equal(urows, sorted(expected))
        assert ugrads.dtype == dtype and ugrads.shape == (len(expected), d)
        np.testing.assert_array_equal(
            ugrads, np.stack([expected[r] for r in sorted(expected)])
        )
        np.testing.assert_array_equal(grads, before)


class TestRowAdagrad:
    def test_first_step_is_normalised_gradient(self):
        """After one step, update ≈ lr * g / ||g||_rms."""
        opt = RowAdagrad(3)
        params = np.zeros((3, 2))
        g = np.asarray([[3.0, 4.0]])
        opt.step(params, np.asarray([1]), g, lr=0.5)
        rms = np.sqrt((9 + 16) / 2)
        np.testing.assert_allclose(
            params[1], -0.5 * g[0] / rms, rtol=1e-5
        )
        assert np.all(params[0] == 0) and np.all(params[2] == 0)

    def test_state_accumulates_monotonically(self):
        opt = RowAdagrad(2)
        params = np.zeros((2, 3))
        prev = 0.0
        for seed in range(5):
            g = np.random.default_rng(seed).standard_normal((1, 3))
            opt.step(params, np.asarray([0]), g, lr=0.1)
            assert opt.state[0] >= prev
            prev = opt.state[0]
        assert opt.state[1] == 0.0

    def test_steps_shrink_over_time(self):
        """Same gradient repeatedly → smaller and smaller updates."""
        opt = RowAdagrad(1)
        params = np.zeros((1, 2))
        g = np.ones((1, 2))
        deltas = []
        prev = params.copy()
        for _ in range(4):
            opt.step(params, np.asarray([0]), g, lr=1.0)
            deltas.append(np.abs(params - prev).sum())
            prev = params.copy()
        assert deltas == sorted(deltas, reverse=True)

    def test_duplicate_rows_single_accumulator_update(self):
        """Duplicates must be pre-summed: one state bump, not two."""
        opt_dup = RowAdagrad(1)
        p1 = np.zeros((1, 2))
        g = np.ones((2, 2))
        opt_dup.step(p1, np.asarray([0, 0]), g, lr=0.1)

        opt_single = RowAdagrad(1)
        p2 = np.zeros((1, 2))
        opt_single.step(p2, np.asarray([0]), 2 * np.ones((1, 2)), lr=0.1)
        np.testing.assert_allclose(p1, p2)
        np.testing.assert_allclose(opt_dup.state, opt_single.state)

    def test_invalid_lr(self):
        opt = RowAdagrad(1)
        with pytest.raises(ValueError):
            opt.step(np.zeros((1, 2)), np.asarray([0]), np.ones((1, 2)), lr=0)
        with pytest.raises(ValueError):
            opt.step_unique(
                np.zeros((1, 2)), np.asarray([0]), np.ones((1, 2)), lr=0
            )

    def test_step_unique_is_step_on_distinct_rows(self):
        """What the featurized table calls once its rows are distinct."""
        rng = np.random.default_rng(0)
        rows = np.asarray([4, 0, 2])
        grads = rng.standard_normal((3, 5))
        start = rng.standard_normal((6, 5))
        results = []
        for method in ("step", "step_unique"):
            opt = RowAdagrad.from_state(np.arange(6.0))
            params = start.copy()
            getattr(opt, method)(params, rows, grads, lr=0.3)
            results.append((params, opt.state))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    @pytest.mark.parametrize("method, rows", [
        ("step_unique", [4, 0, 2, 1]),
        ("step", [4, 0, 2, 1]),  # no duplicates: a permuted copy
        ("step", [4, 0, 4, 1]),  # duplicates: a summed copy
    ])
    def test_callers_grads_are_left_as_they_are(self, method, rows):
        """Only the optimizer's own array is scaled in place; the
        caller's gradient — here a view into a larger buffer, as the
        model hands over — is never written."""
        rng = np.random.default_rng(1)
        buffer = rng.standard_normal((8, 3)).astype(np.float32)
        grads = buffer[2:6]
        before = buffer.copy()
        params = np.zeros((6, 3), np.float32)
        getattr(RowAdagrad(6), method)(params, np.asarray(rows), grads, 0.3)
        np.testing.assert_array_equal(buffer, before)
        assert (params[rows] != 0).all()

    def test_state_one_float_per_row(self):
        """The paper's memory trick: state is (n,), not (n, d)."""
        opt = RowAdagrad(100)
        assert opt.state.shape == (100,)
        assert opt.nbytes() == 400

    def test_from_state_roundtrip(self):
        state = np.asarray([1.0, 2.0], dtype=np.float32)
        opt = RowAdagrad.from_state(state)
        np.testing.assert_allclose(opt.state, state)

    def test_empty_rows_noop(self):
        opt = RowAdagrad(3)
        params = np.ones((3, 2))
        opt.step(params, np.empty(0, dtype=np.int64), np.empty((0, 2)), lr=0.1)
        np.testing.assert_allclose(params, 1.0)


class TestDenseAdagrad:
    def test_update_direction(self):
        opt = DenseAdagrad((2, 2))
        params = np.zeros((2, 2))
        g = np.asarray([[1.0, -1.0], [2.0, 0.0]])
        opt.step(params, g, lr=1.0)
        assert params[0, 0] < 0 and params[0, 1] > 0
        assert params[1, 0] < 0 and params[1, 1] == 0

    def test_first_step_magnitude(self):
        """First update is ≈ lr * sign(g) elementwise."""
        opt = DenseAdagrad((3,))
        params = np.zeros(3)
        g = np.asarray([5.0, -0.01, 0.0])
        opt.step(params, g, lr=0.1)
        np.testing.assert_allclose(params[:2], [-0.1, 0.1], rtol=1e-4)

    def test_shape_mismatch(self):
        opt = DenseAdagrad((2, 2))
        with pytest.raises(ValueError):
            opt.step(np.zeros((2, 2)), np.zeros((3, 2)), lr=0.1)

    def test_empty_parameter_is_checked_but_not_stepped(self):
        """The identity operator's ``(0,)`` parameter: a step per batch
        for nothing, but a wrong shape or rate is still an error."""
        opt = DenseAdagrad((0,))
        opt.step(np.zeros(0), np.zeros(0), lr=0.1)
        assert opt.state.shape == (0,)
        with pytest.raises(ValueError):
            opt.step(np.zeros(0), np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            opt.step(np.zeros(0), np.zeros(0), lr=0.0)

    def test_converges_on_quadratic(self):
        """Adagrad on f(x) = ||x - t||² reaches the target."""
        opt = DenseAdagrad((4,))
        target = np.asarray([1.0, -2.0, 0.5, 3.0])
        x = np.zeros(4)
        for _ in range(500):
            opt.step(x, 2 * (x - target), lr=0.5)
        np.testing.assert_allclose(x, target, atol=1e-2)
