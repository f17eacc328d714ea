"""Tests for the embedding model: scoring semantics and the full
forward/backward against numerical differentiation.

The backward test is the strongest correctness check in the suite: it
records the row gradients the model sends to its tables and compares
every one against a central-difference derivative of the (negative-
sampling-deterministic) chunk loss with respect to that embedding row.
"""

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.graph.entity_storage import EntityStorage
from tests.helpers import assert_grads_close


def _config(operator="translation", comparator="dot", loss="ranking",
            disable_batch_negs=False, dimension=6, **kw):
    return ConfigSchema(
        entities={"node": EntitySchema()},
        relations=[
            RelationSchema(name="r0", lhs="node", rhs="node", operator=operator),
            RelationSchema(name="r1", lhs="node", rhs="node", operator=operator),
        ],
        dimension=dimension,
        comparator=comparator,
        loss=loss,
        margin=0.2,
        num_batch_negs=3,
        num_uniform_negs=4,
        disable_batch_negs=disable_batch_negs,
        lr=0.05,
        **kw,
    )


def _model(config, n=12, seed=0, dtype=np.float64):
    entities = EntityStorage({"node": n})
    model = EmbeddingModel(config, entities, np.random.default_rng(seed), dtype)
    model.init_all_partitions(np.random.default_rng(seed + 1))
    return model


class TestScoringSemantics:
    def test_identity_dot_is_plain_dot(self):
        model = _model(_config(operator="identity"))
        t = model.get_table("node", 0)
        s, d = t.weights[:3], t.weights[3:6]
        scores = model.score_pairs(0, s, d)
        np.testing.assert_allclose(scores, np.einsum("nd,nd->n", s, d))

    def test_translation_l2_is_transe(self):
        model = _model(_config(operator="translation", comparator="l2"))
        rng = np.random.default_rng(1)
        model.rel_params[0][:] = rng.standard_normal(6)
        t = model.get_table("node", 0)
        s, d = t.weights[:2], t.weights[2:4]
        scores = model.score_pairs(0, s, d)
        theta = model.rel_params[0]
        # PBG applies the operator to the destination; with L2 the score
        # -||s - (d + θ)||² is TransE up to the sign convention of θ.
        expect = -np.sum((s - (d + theta)) ** 2, axis=1)
        np.testing.assert_allclose(scores, expect, rtol=1e-6)

    def test_diagonal_dot_is_distmult(self):
        model = _model(_config(operator="diagonal"))
        rng = np.random.default_rng(2)
        model.rel_params[0][:] = rng.standard_normal(6)
        t = model.get_table("node", 0)
        s, d = t.weights[:2], t.weights[2:4]
        scores = model.score_pairs(0, s, d)
        expect = np.einsum("nd,d,nd->n", s, model.rel_params[0], d)
        np.testing.assert_allclose(scores, expect, rtol=1e-6)

    def test_complex_diagonal_dot_is_complex(self):
        model = _model(_config(operator="complex_diagonal"))
        rng = np.random.default_rng(3)
        model.rel_params[0][:] = rng.standard_normal(6)
        t = model.get_table("node", 0)
        s, d = t.weights[:2], t.weights[2:4]
        scores = model.score_pairs(0, s, d)
        h = 3
        sc = s[:, :h] + 1j * s[:, h:]
        dc = d[:, :h] + 1j * d[:, h:]
        rc = model.rel_params[0][:h] + 1j * model.rel_params[0][h:]
        # Re<conj(s), r, d> — ComplEx up to global conjugation.
        expect = np.real(np.sum(np.conj(sc) * rc * dc, axis=1))
        np.testing.assert_allclose(scores, expect, rtol=1e-6)

    def test_linear_dot_is_rescal(self):
        model = _model(_config(operator="linear"))
        rng = np.random.default_rng(4)
        model.rel_params[0][:] = rng.standard_normal((6, 6))
        t = model.get_table("node", 0)
        s, d = t.weights[:2], t.weights[2:4]
        scores = model.score_pairs(0, s, d)
        expect = np.einsum("ni,ij,nj->n", s, model.rel_params[0], d)
        np.testing.assert_allclose(scores, expect, rtol=1e-6)

    def test_score_pools_match_pairs(self):
        model = _model(_config(operator="translation", comparator="cos"))
        t = model.get_table("node", 0)
        src = t.weights[:3]
        pool = t.weights[5:9]
        mat = model.score_dst_pool(0, src, pool)
        for i in range(3):
            for j in range(4):
                pair = model.score_pairs(
                    0, src[i : i + 1], pool[j : j + 1]
                )
                assert mat[i, j] == pytest.approx(pair[0], rel=1e-6)
        mat_src = model.score_src_pool(0, src, pool)
        for i in range(3):
            for j in range(4):
                pair = model.score_pairs(
                    0, pool[j : j + 1], src[i : i + 1]
                )
                assert mat_src[i, j] == pytest.approx(pair[0], rel=1e-6)

    def test_relations_have_independent_params(self):
        model = _model(_config(operator="translation"))
        model.rel_params[0][:] = 1.0
        model.rel_params[1][:] = -1.0
        t = model.get_table("node", 0)
        s, d = t.weights[:1], t.weights[1:2]
        assert model.score_pairs(0, s, d) != pytest.approx(
            model.score_pairs(1, s, d)
        )


class _RecordingTable(DenseEmbeddingTable):
    """Captures gradient calls instead of applying them."""

    def __init__(self, weights):
        super().__init__(weights.copy())
        self.calls: list[tuple[np.ndarray, np.ndarray]] = []

    def apply_gradients(self, rows, grads, lr):
        self.calls.append((rows.copy(), grads.copy()))

    def dense_gradient(self) -> np.ndarray:
        out = np.zeros_like(self.weights)
        for rows, grads in self.calls:
            np.add.at(out, rows, grads)
        return out


@pytest.mark.parametrize("operator", [
    "identity", "translation", "diagonal", "linear", "complex_diagonal",
])
@pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
@pytest.mark.parametrize("loss", ["ranking", "logistic", "softmax"])
def test_chunk_backward_matches_numerical(operator, comparator, loss):
    """End-to-end gradient check through sampling, scoring and loss."""
    _chunk_gradcheck(operator, comparator, loss, disable_batch_negs=False)


@pytest.mark.parametrize("operator", ["translation", "complex_diagonal"])
@pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
def test_unbatched_backward_matches_numerical(operator, comparator):
    """The Figure 4 unbatched path must compute the same math."""
    _chunk_gradcheck(operator, comparator, "logistic", disable_batch_negs=True)


@pytest.mark.parametrize("num_edges", [6, 7], ids=["whole", "ragged"])
@pytest.mark.parametrize("operator, comparator, loss, disable_batch_negs", [
    ("translation", "cos", "logistic", False),
    ("identity", "dot", "softmax", False),
    ("complex_diagonal", "l2", "logistic", False),
    ("diagonal", "cos", "logistic", True),
])
def test_batch_backward_matches_numerical(
    operator, comparator, loss, disable_batch_negs, num_edges
):
    """The one update of a three-chunk batch (plus a one-edge ragged
    tail) is the gradient of the batch's summed loss: entities repeat
    across chunks, and chunk ``i`` only meets pool ``i``."""
    src = np.asarray([0, 1, 2, 1, 5, 0, 6])[:num_edges]
    dst = np.asarray([3, 4, 3, 0, 2, 7, 1])[:num_edges]
    _chunk_gradcheck(
        operator, comparator, loss, disable_batch_negs, src, dst, chunk_size=2
    )


def _chunk_gradcheck(operator, comparator, loss, disable_batch_negs,
                     src=np.asarray([0, 1, 2]), dst=np.asarray([3, 4, 3]),
                     chunk_size=None):
    config = _config(
        operator=operator, comparator=comparator, loss=loss,
        disable_batch_negs=disable_batch_negs,
    )
    n = 12
    base = _model(config, n=n, seed=5)
    weights0 = base.get_table("node", 0).weights.copy()
    params0 = [p.copy() for p in base.rel_params]

    def run(weights, rel_params, update=False, table_cls=DenseEmbeddingTable):
        model = _model(config, n=n, seed=5)
        table = table_cls(weights.copy())
        model.set_table("node", 0, table)
        for i, p in enumerate(rel_params):
            model.rel_params[i][:] = p
        stats = model.forward_backward_chunk(
            0, src, dst, table, table,
            np.random.default_rng(99), update=update, chunk_size=chunk_size,
        )
        return stats.loss, model, table

    # Margin-loss kinks break central differences; nudge away if close.
    loss0, _, _ = run(weights0, params0)

    # Analytic gradients via a recording table + recording optimizer.
    _, model_rec, rec_table = run(
        weights0, params0, update=True, table_cls=_RecordingTable
    )
    analytic_w = rec_table.dense_gradient()

    # Numerical gradient over every embedding entry.
    eps = 1e-6
    numeric_w = np.zeros_like(weights0)
    it = np.nditer(weights0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        w_plus = weights0.copy()
        w_plus[idx] += eps
        w_minus = weights0.copy()
        w_minus[idx] -= eps
        lp, _, _ = run(w_plus, params0)
        lm, _, _ = run(w_minus, params0)
        numeric_w[idx] = (lp - lm) / (2 * eps)
    if loss == "ranking" and np.abs(analytic_w - numeric_w).max() > 1e-3:
        pytest.skip("hinge kink straddled; gradient undefined at this point")
    assert_grads_close(analytic_w, numeric_w, atol=2e-4, rtol=1e-3)


def test_relation_param_gradient_matches_numerical():
    """Relation-operator parameter gradients through the whole chunk."""
    config = _config(operator="translation", comparator="dot", loss="logistic")
    n = 10
    base = _model(config, n=n, seed=6)
    weights0 = base.get_table("node", 0).weights.copy()
    rng0 = np.random.default_rng(7)
    params0 = [rng0.standard_normal(6), rng0.standard_normal(6)]
    src = np.asarray([0, 1])
    dst = np.asarray([2, 3])

    captured = {}

    def run(rel0, update=False):
        model = _model(config, n=n, seed=6)
        table = DenseEmbeddingTable(weights0.copy())
        model.set_table("node", 0, table)
        model.rel_params[0][:] = rel0
        model.rel_params[1][:] = params0[1]
        if update:
            original = model.rel_optimizers[0].step

            def spy(params, grads, lr):
                captured["grad"] = grads.copy()

            model.rel_optimizers[0].step = spy
            del original
        stats = model.forward_backward_chunk(
            0, src, dst, table, table,
            np.random.default_rng(123), update=update,
        )
        return stats.loss

    run(params0[0], update=True)
    analytic = captured["grad"]
    eps = 1e-6
    numeric = np.zeros(6)
    for i in range(6):
        p_plus = params0[0].copy()
        p_plus[i] += eps
        p_minus = params0[0].copy()
        p_minus[i] -= eps
        numeric[i] = (run(p_plus) - run(p_minus)) / (2 * eps)
    assert_grads_close(analytic, numeric, atol=1e-4, rtol=1e-3)


# ----------------------------------------------------------------------
# Stacked chunk step ≡ a plain per-piece reference
# ----------------------------------------------------------------------


def _reference_chunk_step(model, rel_id, src, dst, lhs, rhs, rng,
                          edge_weights):
    """One training chunk the long way round, as the oracle.

    Four gathers, every piece prepared and back-propagated on its own
    through ``prepare_backward(x, g)``, explicit all-ones weights, one
    relation-gradient term per piece, and a per-row Python loop for the
    duplicate-summing Adagrad update. Shares only the leaf kernels
    (operator, comparator scores, loss, ``sample_pool``) with
    ``forward_backward_chunk``; draws from ``rng`` in the same order.
    """
    from repro.core.negatives import sample_pool

    cfg = model.config
    op, comp = model.operators[rel_id], model.comparator
    params = model.rel_params[rel_id]
    c = len(src)

    s_raw, d_raw = lhs.weights[src], rhs.weights[dst]
    t_dst = op.forward(d_raw, params)
    a, b = comp.prepare(s_raw), comp.prepare(t_dst)
    pos = comp.score_pairs(a, b)
    weights = np.ones(c) * cfg.relations[rel_id].weight
    if edge_weights is not None:
        weights = weights * edge_weights

    dst_pool = sample_pool(dst, dst, rhs.num_rows, cfg.num_batch_negs,
                           cfg.num_uniform_negs, rng)
    src_pool = sample_pool(src, src, lhs.num_rows, cfg.num_batch_negs,
                           cfg.num_uniform_negs, rng)
    pool_d_raw = rhs.weights[dst_pool.entities]
    t_pool_d = op.forward(pool_d_raw, params)
    pb = comp.prepare(t_pool_d)
    pool_s_raw = lhs.weights[src_pool.entities]
    pa = comp.prepare(pool_s_raw)
    neg_dst, neg_src = comp.score_matrix(a, pb), comp.score_matrix(b, pa)
    mask = np.hstack([dst_pool.mask, src_pool.mask])
    loss, dpos, dneg = model.loss_fn.forward_backward(
        pos, np.hstack([neg_dst, neg_src]), mask, weights
    )

    kd = neg_dst.shape[1]
    ga_pos, gb_pos = comp.score_pairs_backward(a, b, dpos)
    ga_neg, g_pb = comp.score_matrix_backward(a, pb, dneg[:, :kd])
    gb_neg, g_pa = comp.score_matrix_backward(b, pa, dneg[:, kd:])
    g_s = comp.prepare_backward(s_raw, ga_pos + ga_neg)
    g_d, g_params_pos = op.backward(
        d_raw, params, comp.prepare_backward(t_dst, gb_pos + gb_neg)
    )
    g_pool_d, g_params_pool = op.backward(
        pool_d_raw, params, comp.prepare_backward(t_pool_d, g_pb)
    )
    g_pool_s = comp.prepare_backward(pool_s_raw, g_pa)

    # Row gradients summed per (table, row), then one Adagrad step each.
    summed: "dict[tuple[int, int], np.ndarray]" = {}
    tables = {id(lhs): lhs, id(rhs): rhs}
    for table, rows, grads in (
        (lhs, src, g_s), (lhs, src_pool.entities, g_pool_s),
        (rhs, dst, g_d), (rhs, dst_pool.entities, g_pool_d),
    ):
        for row, grad in zip(rows.tolist(), grads):
            key = (id(table), row)
            summed[key] = summed[key] + grad if key in summed else grad
    # (The optimizer keeps its accumulator and step scale in float32.)
    for (table_id, row), grad in summed.items():
        table = tables[table_id]
        state = table.optimizer.state
        state[row] += np.float32(np.mean(grad * grad))
        scale = np.float32(cfg.lr) / (np.sqrt(state[row]) + np.float32(1e-10))
        table.weights[row] -= scale * grad

    g_params = g_params_pos + g_params_pool
    rel_state = model.rel_optimizers[rel_id].state
    rel_state += (g_params * g_params).astype(np.float32)
    params -= cfg.relation_lr_effective * g_params / (
        np.sqrt(rel_state) + 1e-10
    )
    return loss, int(mask.sum())


def _oracle_models(operator, comparator, loss, two_tables, rel_weight=1.5,
                   dtype=np.float64, **config_kw):
    """Two identical float64 models; ``num_batch_negs`` is 5, the size
    of the oracle tests' full chunk."""
    config = ConfigSchema(
        entities={"a": EntitySchema(), "b": EntitySchema()},
        relations=[RelationSchema(
            name="r", lhs="a", rhs="b" if two_tables else "a",
            operator=operator, weight=rel_weight,
        )],
        dimension=6, comparator=comparator, loss=loss, margin=0.2,
        **{**dict(num_batch_negs=5, num_uniform_negs=4, lr=0.05), **config_kw},
    )
    models = []
    for _ in range(2):
        model = EmbeddingModel(
            config, EntityStorage({"a": 9, "b": 11}),
            np.random.default_rng(3), dtype,
        )
        model.init_all_partitions(np.random.default_rng(4))
        # Off the near-identity initialisation, so every operator's
        # parameter gradient path matters.
        model.rel_params[0] += np.random.default_rng(5).standard_normal(
            model.rel_params[0].shape
        ) * 0.3
        models.append(model)
    return models


def _table_weights(model):
    return {
        key: model.get_table(*key).weights.copy()
        for key in model.resident_tables()
    }


def _assert_same_training_state(stacked, reference, initial):
    num_moved = 0
    for key, start in initial.items():
        got, want = stacked.get_table(*key), reference.get_table(*key)
        np.testing.assert_allclose(
            got.weights, want.weights, rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            got.optimizer.state, want.optimizer.state, rtol=0, atol=1e-10
        )
        # Every row the reference moved is marked for delta writeback.
        moved = np.flatnonzero((want.weights != start).any(axis=1))
        assert set(moved) <= set(got.dirty_row_indices())
        num_moved += len(moved)
    assert num_moved > 0
    np.testing.assert_allclose(
        stacked.rel_params[0], reference.rel_params[0], rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        stacked.rel_optimizers[0].state, reference.rel_optimizers[0].state,
        rtol=0, atol=1e-10,
    )


@pytest.mark.parametrize("two_tables", [False, True], ids=["same", "two"])
@pytest.mark.parametrize("loss", ["ranking", "logistic", "softmax"])
@pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
@pytest.mark.parametrize("operator", [
    "identity", "translation", "diagonal", "linear", "complex_diagonal",
    "affine",
])
def test_stacked_step_matches_per_piece_reference(
    operator, comparator, loss, two_tables
):
    """Updated rows, Adagrad state and relation parameters to 1e-10.

    Two consecutive chunks with edge weights and relation weight 1.5: a
    full one (``num_batch_negs == chunk``: the chunk is its own pool)
    with repeated endpoints, then a short last one (pool drawn from the
    chunk with replacement) that meets non-zero Adagrad state.
    """
    stacked, reference = _oracle_models(operator, comparator, loss, two_tables)
    initial = _table_weights(stacked)
    rhs_type = "b" if two_tables else "a"
    chunks = [
        (np.asarray([0, 1, 2, 1, 8]), np.asarray([3, 4, 3, 0, 1])),
        (np.asarray([5, 0]), np.asarray([0, 7])),
    ]
    rng_s, rng_r = np.random.default_rng(11), np.random.default_rng(11)
    for i, (src, dst) in enumerate(chunks):
        edge_weights = np.linspace(0.5, 2.0, len(src)) + i
        stats = stacked.forward_backward_chunk(
            0, src, dst, stacked.get_table("a", 0),
            stacked.get_table(rhs_type, 0), rng_s, edge_weights=edge_weights,
        )
        ref_loss, ref_negatives = _reference_chunk_step(
            reference, 0, src, dst, reference.get_table("a", 0),
            reference.get_table(rhs_type, 0), rng_r, edge_weights,
        )
        assert stats.loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        assert (stats.num_edges, stats.num_negatives) == (
            len(src), ref_negatives
        )
    assert rng_s.random() == rng_r.random()  # same number of draws
    _assert_same_training_state(stacked, reference, initial)


@pytest.mark.parametrize("loss", ["ranking", "logistic", "softmax"])
def test_unit_weights_take_the_unweighted_loss_path(loss):
    """No edge weights and relation weight 1.0 hand the loss
    ``weights=None``; the reference multiplies by explicit ones."""
    stacked, reference = _oracle_models(
        "translation", "cos", loss, two_tables=False, rel_weight=1.0
    )
    initial = _table_weights(stacked)
    src, dst = np.asarray([0, 1, 2, 1, 8]), np.asarray([3, 4, 3, 0, 1])
    table_s, table_r = stacked.get_table("a", 0), reference.get_table("a", 0)
    seen = []
    original = stacked.loss_fn.forward_backward

    def spy(pos, neg, mask=None, weights=None):
        seen.append(weights)
        return original(pos, neg, mask, weights)

    stacked.loss_fn.forward_backward = spy
    stats = stacked.forward_backward_chunk(
        0, src, dst, table_s, table_s, np.random.default_rng(2)
    )
    ref_loss, ref_negatives = _reference_chunk_step(
        reference, 0, src, dst, table_r, table_r, np.random.default_rng(2),
        None,
    )
    assert seen == [None]
    assert (stats.loss, stats.num_negatives) == (ref_loss, ref_negatives)
    _assert_same_training_state(stacked, reference, initial)


# ----------------------------------------------------------------------
# The batch step: one chunk ≡ the parent's chunk step, n chunks ≡ its
# per-chunk gradients accumulated and applied once
# ----------------------------------------------------------------------


def _parent_rowwise_scores(a, negs, l2):
    negs = negs.reshape(len(a), -1, a.shape[1])
    scores = np.einsum("cd,ckd->ck", a, negs)
    if l2:
        sq_a = np.einsum("cd,cd->c", a, a)[:, None]
        scores = 2.0 * scores - sq_a - np.einsum("ckd,ckd->ck", negs, negs)
    return scores


def _parent_rowwise_scores_backward(a, negs, grad, l2):
    negs = negs.reshape(len(a), -1, a.shape[1])
    g_a = np.einsum("ck,ckd->cd", grad, negs)
    if l2:
        g_a = 2.0 * g_a - 2.0 * grad.sum(axis=1)[:, None] * a
        g_negs = 2.0 * grad[:, :, None] * (a[:, None, :] - negs)
    else:
        g_negs = grad[:, :, None] * a[:, None, :]
    return g_a, g_negs.reshape(-1, a.shape[1])


def _parent_chunk_grads(model, rel_id, src_rows, dst_rows, lhs_table,
                        rhs_table, rng, edge_weights=None, pools=None):
    """The chunk step as it stood before the batch became the unit of
    the update (one chunk, one stack, 2-D matmuls), frozen here up to
    its updates: returns ``(stats, [(table, rows, grads), ...],
    g_params)``. ``pools`` replaces the sampling with given
    ``(dst_negs, src_negs)``."""
    from functools import partial

    from repro.core.model import ChunkStats
    from repro.core.negatives import sample_pool, sample_unbatched

    cfg = model.config
    op = model.operators[rel_id]
    params = model.rel_params[rel_id]
    comp = model.comparator
    c = len(src_rows)
    score, score_backward = comp.score_matrix, comp.score_matrix_backward
    if cfg.disable_batch_negs:
        k = cfg.num_batch_negs + cfg.num_uniform_negs
        dst_negs = sample_unbatched(dst_rows, rhs_table.num_rows, k, rng)
        src_negs = sample_unbatched(src_rows, lhs_table.num_rows, k, rng)
        l2 = cfg.comparator == "l2"
        score = partial(_parent_rowwise_scores, l2=l2)
        score_backward = partial(_parent_rowwise_scores_backward, l2=l2)
    elif pools is not None:
        dst_negs, src_negs = pools
    else:
        dst_negs = sample_pool(
            dst_rows, dst_rows, rhs_table.num_rows,
            cfg.num_batch_negs, cfg.num_uniform_negs, rng,
        )
        src_negs = sample_pool(
            src_rows, src_rows, lhs_table.num_rows,
            cfg.num_batch_negs, cfg.num_uniform_negs, rng,
        )

    rows = np.concatenate((
        src_rows, src_negs.entities.ravel(),
        dst_rows, dst_negs.entities.ravel(),
    ))
    n_lhs = c + src_negs.entities.size
    if lhs_table is rhs_table:
        raw = lhs_table.gather(rows)
    else:
        raw = np.concatenate((
            lhs_table.gather(rows[:n_lhs]), rhs_table.gather(rows[n_lhs:])
        ))
    rhs_raw = raw[n_lhs:]
    t_rhs = op.forward(rhs_raw, params)
    x = raw if t_rhs is rhs_raw else np.concatenate((raw[:n_lhs], t_rhs))
    y, saved = comp.prepare_saved(x)
    a, pa, b, pb = y[:c], y[c:n_lhs], y[n_lhs:n_lhs + c], y[n_lhs + c:]
    pos = comp.score_pairs(a, b)
    neg_dst = score(a, pb)
    neg_src = score(b, pa)
    neg = np.concatenate((neg_dst, neg_src), axis=1)
    mask = np.concatenate((dst_negs.mask, src_negs.mask), axis=1)

    weights = (
        None if edge_weights is None else edge_weights.astype(raw.dtype)
    )
    rel_weight = cfg.relations[rel_id].weight
    if rel_weight != 1.0:
        weights = (
            np.full(c, rel_weight, dtype=raw.dtype) if weights is None
            else weights * rel_weight
        )
    loss, dpos, dneg = model.loss_fn.forward_backward(pos, neg, mask, weights)
    stats = ChunkStats(
        loss=loss,
        num_edges=c,
        num_negatives=int(np.count_nonzero(mask)),
        violations=int(np.count_nonzero(dneg)),
    )

    kd = neg_dst.shape[1]
    ga_pos, gb_pos = comp.score_pairs_backward(a, b, dpos)
    ga_neg, g_pb = score_backward(a, pb, dneg[:, :kd])
    gb_neg, g_pa = score_backward(b, pa, dneg[:, kd:])
    g = np.empty_like(y)
    np.add(ga_pos, ga_neg, out=g[:c])
    g[c:n_lhs] = g_pa
    np.add(gb_pos, gb_neg, out=g[n_lhs:n_lhs + c])
    g[n_lhs + c:] = g_pb
    g = comp.prepare_backward_saved(y, saved, g)
    g_rhs, g_params = op.backward(rhs_raw, params, g[n_lhs:])
    if lhs_table is rhs_table:
        g[n_lhs:] = g_rhs
        return stats, [(lhs_table, rows, g)], g_params
    return stats, [
        (lhs_table, rows[:n_lhs], g[:n_lhs]), (rhs_table, rows[n_lhs:], g_rhs)
    ], g_params


def _apply_once(model, rel_id, updates, g_params):
    """One Adagrad step per table over everything in ``updates``, and
    one step of the relation's parameters."""
    tables = {id(table): table for table, _, _ in updates}
    for key, table in tables.items():
        mine = [(r, g) for t, r, g in updates if id(t) == key]
        table.apply_gradients(
            np.concatenate([r for r, _ in mine]),
            np.concatenate([g for _, g in mine]), model.config.lr,
        )
    model.rel_optimizers[rel_id].step(
        model.rel_params[rel_id], g_params,
        model.config.relation_lr_effective,
    )


def _parent_chunk_step(model, rel_id, src, dst, lhs, rhs, rng,
                       edge_weights=None):
    """The parent's whole chunk step: gradients, then its updates."""
    stats, updates, g_params = _parent_chunk_grads(
        model, rel_id, src, dst, lhs, rhs, rng, edge_weights
    )
    _apply_once(model, rel_id, updates, g_params)
    return stats


def _reference_batch_step(model, rel_id, src, dst, lhs, rhs, rng,
                          edge_weights, chunk_size):
    """Per-chunk gradients at frozen weights, accumulated, applied once.

    Draws the pools as the batch step does — all whole chunks of a side
    in one ``sample_pool`` call, the ragged last chunk after them — and
    hands chunk ``i`` its own pool and its own mask rows; everything
    else is the parent's one-chunk arithmetic, chunk after chunk.
    """
    from repro.core.model import ChunkStats
    from repro.core.negatives import NegativePool, sample_pool

    cfg = model.config
    m = len(src)
    full = m - m % chunk_size
    total, updates, g_params = ChunkStats(), [], 0.0
    for lo, hi, width in ((0, full, chunk_size), (full, m, m - full)):
        if lo == hi:
            continue
        src_block = src[lo:hi].reshape(-1, width)
        dst_block = dst[lo:hi].reshape(-1, width)
        pools = [None] * len(src_block)
        if not cfg.disable_batch_negs:
            sides = [
                sample_pool(block, block, table.num_rows, cfg.num_batch_negs,
                            cfg.num_uniform_negs, rng)
                for block, table in ((dst_block, rhs), (src_block, lhs))
            ]
            pools = [
                tuple(NegativePool(s.entities[i], s.mask[i]) for s in sides)
                for i in range(len(src_block))
            ]
        for i, pool in enumerate(pools):
            at = slice(lo + i * width, lo + (i + 1) * width)
            stats, chunk_updates, chunk_g_params = _parent_chunk_grads(
                model, rel_id, src[at], dst[at], lhs, rhs, rng,
                None if edge_weights is None else edge_weights[at], pool,
            )
            total.merge(stats)
            updates += chunk_updates
            g_params = g_params + chunk_g_params
    _apply_once(model, rel_id, updates, g_params)
    return total


def _training_arrays(model):
    arrays = [model.rel_params[0], model.rel_optimizers[0].state]
    for key in model.resident_tables():
        table = model.get_table(*key)
        arrays += [table.weights, table.optimizer.state,
                   table.dirty_row_indices()]
    return arrays


@pytest.mark.parametrize("disable_batch_negs", [False, True],
                         ids=["batched", "unbatched"])
@pytest.mark.parametrize("two_tables", [False, True], ids=["same", "two"])
@pytest.mark.parametrize("operator", ["identity", "translation"])
@pytest.mark.parametrize("comparator", ["cos", "dot"])
def test_one_chunk_call_is_the_parent_chunk_step_bit_for_bit(
    comparator, operator, two_tables, disable_batch_negs
):
    """float32, five steps, alternating a full chunk (its own pool)
    with a short one (pool drawn with replacement) and weighted with
    unweighted edges: weights, Adagrad state, relation parameters,
    dirty rows, statistics and RNG position equal to the last bit —
    whether the call names no ``chunk_size`` or one it does not reach."""
    batch, parent = _oracle_models(
        operator, comparator, "ranking", two_tables, rel_weight=1.0,
        dtype=np.float32, disable_batch_negs=disable_batch_negs,
    )
    rhs_type = "b" if two_tables else "a"
    rng_b, rng_p = np.random.default_rng(11), np.random.default_rng(11)
    draw = np.random.default_rng(12)
    for step in range(5):
        c = 5 if step % 2 == 0 else 3
        src, dst = draw.integers(0, 9, c), draw.integers(0, 9, c)
        edge_weights = draw.random(c) + 0.5 if step % 2 else None
        got = batch.forward_backward_chunk(
            0, src, dst, batch.get_table("a", 0), batch.get_table(rhs_type, 0),
            rng_b, edge_weights=edge_weights,
            chunk_size=None if step < 3 else 5,
        )
        want = _parent_chunk_step(
            parent, 0, src, dst, parent.get_table("a", 0),
            parent.get_table(rhs_type, 0), rng_p, edge_weights,
        )
        assert got == want
        assert got.loss > 0
    assert rng_b.random() == rng_p.random()
    for got, want in zip(_training_arrays(batch), _training_arrays(parent)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("num_edges", [15, 17], ids=["whole", "ragged"])
@pytest.mark.parametrize("two_tables", [False, True], ids=["same", "two"])
@pytest.mark.parametrize("operator, comparator, loss, config_kw", [
    ("identity", "cos", "ranking", {}),
    ("translation", "dot", "ranking", {}),
    ("complex_diagonal", "dot", "softmax", {"num_batch_negs": 3}),
    ("linear", "l2", "logistic", {"num_batch_negs": 3}),
    ("affine", "cos", "logistic", {"disable_batch_negs": True}),
])
def test_batch_step_is_accumulated_chunk_gradients_applied_once(
    operator, comparator, loss, config_kw, two_tables, num_edges
):
    """Chunks of 5 over 9 source rows: every row repeats across chunks.
    Two consecutive batches, so the second meets non-zero state."""
    batch, reference = _oracle_models(
        operator, comparator, loss, two_tables, **config_kw
    )
    initial = _table_weights(batch)
    rhs_type = "b" if two_tables else "a"
    rng_b, rng_r = np.random.default_rng(11), np.random.default_rng(11)
    draw = np.random.default_rng(12)
    for step in range(2):
        src = draw.integers(0, 9, num_edges)
        dst = draw.integers(0, 9, num_edges)
        edge_weights = draw.random(num_edges) + 0.5 if step else None
        got = batch.forward_backward_chunk(
            0, src, dst, batch.get_table("a", 0), batch.get_table(rhs_type, 0),
            rng_b, edge_weights=edge_weights, chunk_size=5,
        )
        want = _reference_batch_step(
            reference, 0, src, dst, reference.get_table("a", 0),
            reference.get_table(rhs_type, 0), rng_r, edge_weights, 5,
        )
        assert got.loss == pytest.approx(want.loss, rel=1e-12, abs=1e-12)
        assert (got.num_edges, got.num_negatives, got.violations) == (
            num_edges, want.num_negatives, want.violations
        )
    assert rng_b.random() == rng_r.random()  # same number of draws
    _assert_same_training_state(batch, reference, initial)


# ----------------------------------------------------------------------
# The mixed-relation batch: relation-pure chunks of any width ≡ their
# one-relation gradients accumulated and applied once
# ----------------------------------------------------------------------

_MIXED_WEIGHTS = (1.5, 1.0, 0.7)


def _mixed_models(operator, comparator, loss, two_tables, dtype=np.float64,
                  **config_kw):
    """Two identical models of three relations that share an operator
    and entity types; relation parameters off their initialisation."""
    config = ConfigSchema(
        entities={"a": EntitySchema(), "b": EntitySchema()},
        relations=[
            RelationSchema(
                name=f"r{i}", lhs="a", rhs="b" if two_tables else "a",
                operator=operator, weight=weight,
            )
            for i, weight in enumerate(_MIXED_WEIGHTS)
        ],
        dimension=6, comparator=comparator, loss=loss, margin=0.2,
        **{**dict(num_batch_negs=3, num_uniform_negs=4, lr=0.05), **config_kw},
    )
    models = []
    for _ in range(2):
        model = EmbeddingModel(
            config, EntityStorage({"a": 9, "b": 11}),
            np.random.default_rng(3), dtype,
        )
        model.init_all_partitions(np.random.default_rng(4))
        noise = np.random.default_rng(5)
        for params in model.rel_params:
            params += (noise.standard_normal(params.shape) * 0.3).astype(dtype)
        models.append(model)
    return models


def _mixed_batch(draw):
    """A packed batch at chunk size 4: full chunks of relations 0 and 1,
    then a tail per relation (3, 1 and 2 edges) — widths 4 4 4 3 1 2."""
    rel = np.asarray([0] * 8 + [1] * 4 + [0] * 3 + [1] + [2] * 2)
    return rel, draw.integers(0, 9, len(rel)), draw.integers(0, 9, len(rel))


def _reference_mixed_step(model, rel, src, dst, lhs, rhs, rng, edge_weights,
                          chunk_size):
    """Per-chunk one-relation gradients at frozen weights, accumulated
    and applied once: one Adagrad step per table and one per relation.

    Draws the pools as the batch step does — each run of equal-width
    chunks in one ``sample_pool`` call per side, destination side first
    — and hands chunk ``i`` its own pool; everything else is the
    parent's one-chunk, one-relation arithmetic, chunk after chunk.
    """
    from repro.core.batching import chunk_bounds
    from repro.core.model import ChunkStats
    from repro.core.negatives import NegativePool, sample_pool

    cfg = model.config
    bounds = chunk_bounds(rel, chunk_size)
    widths = np.diff(bounds)
    pools = [None] * len(widths)
    if not cfg.disable_batch_negs:
        cuts = np.flatnonzero(widths[1:] != widths[:-1]) + 1
        for i, j in zip([0, *cuts], [*cuts, len(widths)]):
            sides = [
                sample_pool(block, block, table.num_rows, cfg.num_batch_negs,
                            cfg.num_uniform_negs, rng)
                for block, table in (
                    (rows[bounds[i]:bounds[j]].reshape(j - i, -1), table)
                    for rows, table in ((dst, rhs), (src, lhs))
                )
            ]
            pools[i:j] = [
                tuple(NegativePool(s.entities[c], s.mask[c]) for s in sides)
                for c in range(j - i)
            ]
    total, updates, g_params = ChunkStats(), [], {}
    for pool, lo, hi in zip(pools, bounds, bounds[1:]):
        relation = int(rel[lo])
        stats, chunk_updates, chunk_g_params = _parent_chunk_grads(
            model, relation, src[lo:hi], dst[lo:hi], lhs, rhs, rng,
            None if edge_weights is None else edge_weights[lo:hi], pool,
        )
        total.merge(stats)
        updates += chunk_updates
        g_params[relation] = g_params.get(relation, 0.0) + chunk_g_params
    relations = sorted(g_params)
    _apply_once(model, relations[0], updates, g_params[relations[0]])
    for relation in relations[1:]:
        model.rel_optimizers[relation].step(
            model.rel_params[relation], g_params[relation],
            cfg.relation_lr_effective,
        )
    return total


def _all_training_arrays(model):
    arrays = [*model.rel_params, *(o.state for o in model.rel_optimizers)]
    for key in model.resident_tables():
        table = model.get_table(*key)
        arrays += [table.weights, table.optimizer.state,
                   table.dirty_row_indices()]
    return arrays


@pytest.mark.parametrize("two_tables", [False, True], ids=["same", "two"])
@pytest.mark.parametrize("comparator", ["dot", "cos", "l2"])
@pytest.mark.parametrize("operator", [
    "identity", "translation", "diagonal", "linear", "complex_diagonal",
    "affine",
])
def test_mixed_batch_is_accumulated_chunk_gradients_applied_once(
    operator, comparator, two_tables
):
    """Three relations (weights 1.5, 1, 0.7), chunks of 4, 3, 1 and 2
    edges over 9 rows. Two consecutive batches, the second with edge
    weights and on non-zero state."""
    loss = {"dot": "ranking", "cos": "logistic", "l2": "softmax"}[comparator]
    batch, reference = _mixed_models(operator, comparator, loss, two_tables)
    rhs_type = "b" if two_tables else "a"
    rng_b, rng_r = np.random.default_rng(11), np.random.default_rng(11)
    draw = np.random.default_rng(12)
    before = [array.copy() for array in _all_training_arrays(batch)]
    for step in range(2):
        rel, src, dst = _mixed_batch(draw)
        edge_weights = draw.random(len(rel)) + 0.5 if step else None
        got = batch.forward_backward_chunk(
            rel, src, dst, batch.get_table("a", 0),
            batch.get_table(rhs_type, 0), rng_b, edge_weights=edge_weights,
            chunk_size=4,
        )
        want = _reference_mixed_step(
            reference, rel, src, dst, reference.get_table("a", 0),
            reference.get_table(rhs_type, 0), rng_r, edge_weights, 4,
        )
        assert got.loss == pytest.approx(want.loss, rel=1e-12, abs=1e-12)
        assert (got.num_edges, got.num_negatives, got.violations) == (
            len(rel), want.num_negatives, want.violations
        )
    assert rng_b.random() == rng_r.random()  # same number of draws
    after = _all_training_arrays(batch)
    for got, want in zip(after, _all_training_arrays(reference)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    # Every relation's parameters and state moved, and the tables.
    for start, got in zip(before[:6], after[:6]):
        assert (got != start).any() or operator == "identity"
    assert (after[6] != before[6]).any() and len(after[8]) > len(before[8])


def test_mixed_batch_with_unbatched_negatives_matches_the_reference():
    batch, reference = _mixed_models(
        "diagonal", "cos", "logistic", True, disable_batch_negs=True
    )
    rel, src, dst = _mixed_batch(np.random.default_rng(12))
    rng_b, rng_r = np.random.default_rng(11), np.random.default_rng(11)
    got = batch.forward_backward_chunk(
        rel, src, dst, batch.get_table("a", 0), batch.get_table("b", 0),
        rng_b, chunk_size=4,
    )
    want = _reference_mixed_step(
        reference, rel, src, dst, reference.get_table("a", 0),
        reference.get_table("b", 0), rng_r, None, 4,
    )
    assert got.loss == pytest.approx(want.loss, rel=1e-12, abs=1e-12)
    assert got.num_negatives == want.num_negatives
    assert rng_b.random() == rng_r.random()
    for got, want in zip(
        _all_training_arrays(batch), _all_training_arrays(reference)
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("operator, comparator, loss", [
    ("translation", "dot", "logistic"),
    ("diagonal", "cos", "softmax"),
    ("linear", "l2", "logistic"),
    ("affine", "dot", "softmax"),
    ("complex_diagonal", "cos", "logistic"),
])
def test_mixed_ragged_batch_backward_matches_numerical(
    operator, comparator, loss
):
    """Central differences of the mixed batch's summed loss with respect
    to every embedding entry and every relation's parameters."""
    rel, src, dst = _mixed_batch(np.random.default_rng(12))
    edge_weights = np.random.default_rng(13).random(len(rel)) + 0.5
    base, _ = _mixed_models(operator, comparator, loss, False)
    weights0 = base.get_table("a", 0).weights.copy()
    params0 = [p.copy() for p in base.rel_params]

    def run(weights, rel_params, update=False, table_cls=DenseEmbeddingTable):
        model, _ = _mixed_models(operator, comparator, loss, False)
        table = table_cls(weights.copy())
        model.set_table("a", 0, table)
        grads = {}
        for i, p in enumerate(rel_params):
            model.rel_params[i][:] = p
            model.rel_optimizers[i].step = (
                lambda params, g, lr, i=i: grads.__setitem__(i, g.copy())
            )
        stats = model.forward_backward_chunk(
            rel, src, dst, table, table, np.random.default_rng(99),
            edge_weights=edge_weights, update=update, chunk_size=4,
        )
        return stats.loss, table, grads

    _, rec_table, analytic_params = run(
        weights0, params0, update=True, table_cls=_RecordingTable
    )
    assert sorted(analytic_params) == [0, 1, 2]
    eps = 1e-6

    def numeric(array, loss_at):
        out = np.zeros_like(array)
        for idx in np.ndindex(*array.shape):
            plus, minus = array.copy(), array.copy()
            plus[idx] += eps
            minus[idx] -= eps
            out[idx] = (loss_at(plus) - loss_at(minus)) / (2 * eps)
        return out

    assert_grads_close(
        rec_table.dense_gradient(),
        numeric(weights0, lambda w: run(w, params0)[0]),
        atol=2e-4, rtol=1e-3,
    )
    for i in range(3):
        assert_grads_close(
            analytic_params[i],
            numeric(params0[i], lambda p: run(
                weights0, [*params0[:i], p, *params0[i + 1:]]
            )[0]),
            atol=2e-4, rtol=1e-3,
        )


@pytest.mark.parametrize("disable_batch_negs", [False, True],
                         ids=["batched", "unbatched"])
@pytest.mark.parametrize("operator", ["translation", "linear"])
def test_scalar_relation_is_the_per_edge_array_bit_for_bit(
    operator, disable_batch_negs
):
    """float32; a ragged three-chunk batch and a one-chunk call: weights,
    state, relation parameters, dirty rows, statistics, RNG position."""
    scalar, array = _mixed_models(
        operator, "cos", "ranking", True, dtype=np.float32,
        disable_batch_negs=disable_batch_negs,
    )
    rng_s, rng_a = np.random.default_rng(11), np.random.default_rng(11)
    draw = np.random.default_rng(12)
    for m, chunk_size in ((11, 4), (5, None), (8, 4)):
        src, dst = draw.integers(0, 9, m), draw.integers(0, 9, m)
        edge_weights = draw.random(m) + 0.5
        got = [
            model.forward_backward_chunk(
                rel_id, src, dst, model.get_table("a", 0),
                model.get_table("b", 0), rng, edge_weights=edge_weights,
                chunk_size=chunk_size,
            )
            for model, rel_id, rng in (
                (scalar, 0, rng_s), (array, np.zeros(m, dtype=int), rng_a)
            )
        ]
        assert got[0] == got[1] and got[0].loss > 0
    assert rng_s.random() == rng_a.random()
    for got, want in zip(
        _all_training_arrays(scalar), _all_training_arrays(array)
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# The batch step before its passes per row were cut, frozen: an int64
# argsort and a scaled gradient copy in the row update, five (n, 2k)
# temporaries in the ranking loss, score and gradient blocks assembled
# by concatenation, the cosine norm from ``np.linalg.norm``
# ----------------------------------------------------------------------


def _frozen_ranking_loss(margin, pos, neg, mask, weights):
    violation = margin - pos[:, None] + neg
    active = (violation > 0) & mask
    grad_neg = active.astype(pos.dtype)
    if weights is not None:
        grad_neg = grad_neg * weights[:, None]
    loss = float((violation * grad_neg).sum())
    return loss, -grad_neg.sum(axis=1), grad_neg


def _frozen_score_matrix(a, pool, l2):
    if not l2:
        return a @ pool.swapaxes(-1, -2)
    sq_a = np.einsum("...nd,...nd->...n", a, a)[..., :, None]
    sq_p = np.einsum("...kd,...kd->...k", pool, pool)[..., None, :]
    return 2.0 * (a @ pool.swapaxes(-1, -2)) - sq_a - sq_p


def _frozen_score_matrix_backward(a, pool, grad, l2):
    if not l2:
        return grad @ pool, grad.swapaxes(-1, -2) @ a
    grad_a = 2.0 * (grad @ pool) - 2.0 * grad.sum(axis=-1)[..., None] * a
    grad_t = grad.swapaxes(-1, -2)
    grad_pool = 2.0 * (grad_t @ a) - 2.0 * grad.sum(axis=-2)[..., None] * pool
    return grad_a, grad_pool


def _frozen_rowwise_scores(a, negs, l2):
    return _parent_rowwise_scores(a.reshape(-1, a.shape[-1]), negs, l2)


def _frozen_rowwise_scores_backward(a, negs, grad, l2):
    a = a.reshape(-1, a.shape[-1])
    return _parent_rowwise_scores_backward(
        a, negs, grad.reshape(len(a), -1), l2
    )


class _FrozenRowAdagrad:
    """``RowAdagrad.step`` as it was, on the table's own state array."""

    def __init__(self, state):
        self.state = state

    def step(self, params, rows, grads, lr):
        from scipy.sparse._sparsetools import csr_matvecs

        m = len(rows)
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
        if len(starts) == m - 1:
            rows, grads = sorted_rows, grads[order]
        else:
            indptr = np.empty(len(starts) + 2, dtype=order.dtype)
            indptr[0], indptr[1:-1], indptr[-1] = 0, starts, m
            summed = np.zeros((len(indptr) - 1, grads.shape[1]), grads.dtype)
            csr_matvecs(
                len(summed), m, grads.shape[1], indptr, order,
                np.ones(m, dtype=grads.dtype), grads.ravel(), summed.ravel(),
            )
            rows, grads = sorted_rows[indptr[:-1]], summed
        sq = np.einsum("nd,nd->n", grads, grads) / grads.shape[1]
        state = self.state[rows] + sq.astype(np.float32)
        self.state[rows] = state
        scale = lr / (np.sqrt(state) + 1e-10)
        params[rows] -= scale[:, None] * grads


def _frozen_block_step(model, params, chunk_rel, bounds, src, dst, lhs_table,
                       rhs_table, rng, edge_weights, stats):
    """``EmbeddingModel._block_step`` as it was (``update=True``)."""
    from repro.core.model import _cat
    from repro.core.negatives import sample_pool, sample_unbatched

    cfg, comp, op = model.config, model.comparator, model.operators[chunk_rel[0]]
    n, n_pos, dim = len(params), len(src), lhs_table.dim
    k = cfg.num_batch_negs + cfg.num_uniform_negs
    pool_rows = k * n_pos if cfg.disable_batch_negs else k
    widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    cuts = [i for i in range(1, n) if widths[i] != widths[i - 1]]
    runs = [
        (j - i, slice(i, j), slice(bounds[i], bounds[j]),
         slice(i * pool_rows, j * pool_rows))
        for i, j in zip([0, *cuts], [*cuts, n])
    ]

    def chunked(z, n):
        return z.reshape(n, -1, z.shape[-1])

    def sample(ends, table):
        if cfg.disable_batch_negs:
            return sample_unbatched(ends.ravel(), table.num_rows, k, rng)
        return sample_pool(
            ends, ends, table.num_rows, cfg.num_batch_negs,
            cfg.num_uniform_negs, rng,
        )

    pools = [
        (sample(dst[at].reshape(c, -1), rhs_table),
         sample(src[at].reshape(c, -1), lhs_table))
        for c, _, at, _ in runs
    ]
    dst_negs, src_negs = (
        _cat([pool.entities.ravel() for pool in side]) for side in zip(*pools)
    )
    mask = _cat([
        np.concatenate((d.mask, s.mask), axis=-1).reshape(-1, 2 * k)
        for d, s in pools
    ])
    l2 = cfg.comparator == "l2"
    score, score_backward = (
        (_frozen_rowwise_scores, _frozen_rowwise_scores_backward)
        if cfg.disable_batch_negs
        else (_frozen_score_matrix, _frozen_score_matrix_backward)
    )

    rows = np.concatenate((src, src_negs, dst, dst_negs))
    n_lhs = n_pos + len(src_negs)
    halves = [(lhs_table, slice(None))] if lhs_table is rhs_table else [
        (lhs_table, slice(0, n_lhs)), (rhs_table, slice(n_lhs, None))
    ]
    raw = _cat([table.gather(rows[at]) for table, at in halves])
    rects = [(1, slice(0, 1), slice(None))] if len(set(chunk_rel)) == 1 else [
        *(run[:3] for run in runs), (n, slice(0, n), slice(n_pos, None)),
    ]
    x = raw
    for c, chunks, at in rects:
        piece = chunked(raw[n_lhs:][at], c)
        mapped = op.forward(piece, params[chunks])
        if mapped is not piece:
            if x is raw:
                x = np.empty_like(raw)
                x[:n_lhs] = raw[:n_lhs]
            x[n_lhs:][at] = mapped.reshape(-1, dim)
    if cfg.comparator == "cos":
        saved = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        y = x / saved
    else:
        y, saved = x, None
    a, pa, b, pb = (
        y[:n_pos], y[n_pos:n_lhs], y[n_lhs:n_lhs + n_pos], y[n_lhs + n_pos:]
    )
    pos = comp.score_pairs(a, b)
    sides = ((a, pb, slice(0, k)), (b, pa, slice(k, None)))
    neg = _cat([
        np.concatenate([
            score(chunked(p[at], c), chunked(q[pool], c), l2)
            for p, q, _ in sides
        ], axis=-1).reshape(-1, 2 * k)
        for c, _, at, pool in runs
    ])

    weights = None if edge_weights is None else edge_weights.astype(raw.dtype)
    rel_weight = [model._rel_weights[r] for r in chunk_rel]
    if any(weight != 1.0 for weight in rel_weight):
        per_edge = np.repeat(np.array(rel_weight, dtype=raw.dtype), widths)
        weights = per_edge if weights is None else weights * per_edge
    if cfg.loss == "ranking":
        loss, dpos, dneg = _frozen_ranking_loss(
            cfg.margin, pos, neg, mask, weights
        )
    else:  # unchanged
        loss, dpos, dneg = model.loss_fn.forward_backward(
            pos, neg, mask, weights
        )
    stats.loss += loss
    stats.num_edges += n_pos
    stats.num_negatives += int(np.count_nonzero(mask))
    stats.violations += int(np.count_nonzero(dneg))

    ga_pos, gb_pos = comp.score_pairs_backward(a, b, dpos)
    g = np.empty_like(y)
    g_a, g_pa, g_b, g_pb = (
        g[:n_pos], g[n_pos:n_lhs], g[n_lhs:n_lhs + n_pos], g[n_lhs + n_pos:]
    )
    g_sides = ((ga_pos, g_a, g_pb), (gb_pos, g_b, g_pa))
    for c, _, at, pool in runs:
        for (p, q, cols), (g_pos, g_p, g_q) in zip(sides, g_sides):
            g_neg, g_pool = score_backward(
                chunked(p[at], c), chunked(q[pool], c),
                chunked(dneg[at], c)[..., cols], l2,
            )
            np.add(g_pos[at], g_neg.reshape(-1, dim), out=g_p[at])
            g_q[pool] = g_pool.reshape(-1, dim)
    g = comp.prepare_backward_saved(y, saved, g)
    g_params = np.zeros_like(params)
    for c, chunks, at in rects:
        piece, g_out = chunked(raw[n_lhs:][at], c), chunked(g[n_lhs:][at], c)
        g_in, g_chunks = op.backward(piece, params[chunks], g_out)
        g_params[chunks] += g_chunks
        if g_in is not g_out:
            g[n_lhs:][at] = g_in.reshape(-1, dim)
    return [(rows[at], g[at]) for _, at in halves], g_params


def _frozen_batch_step(model, rel_id, src_rows, dst_rows, lhs_table,
                       rhs_table, rng, edge_weights, chunk_size):
    """``forward_backward_chunk`` as it was, over :func:`_frozen_block_step`;
    the tables' optimizers must be :class:`_FrozenRowAdagrad`."""
    from repro.core.batching import chunk_bounds
    from repro.core.model import ChunkStats, _cat

    cfg = model.config
    m = len(src_rows)
    rel = np.full(m, rel_id)
    bounds = chunk_bounds(rel, chunk_size or m)
    chunk_rel = rel[bounds[:-1]].tolist()
    slot = {r: i for i, r in enumerate(sorted(set(chunk_rel)))}
    which = np.array([slot[r] for r in chunk_rel])
    params = np.array([model.rel_params[r] for r in slot])[which]
    n = len(chunk_rel)
    cuts = range(n + 1) if cfg.disable_batch_negs else (0, n)
    stats, steps = ChunkStats(), []
    for i, j in zip(cuts, cuts[1:]):
        at = slice(bounds[i], bounds[j])
        steps.append(_frozen_block_step(
            model, params[i:j], chunk_rel[i:j],
            [bound - bounds[i] for bound in bounds[i:j + 1]],
            src_rows[at], dst_rows[at], lhs_table, rhs_table, rng,
            None if edge_weights is None else edge_weights[at], stats,
        ))
    tables = [lhs_table] if lhs_table is rhs_table else [lhs_table, rhs_table]
    for table, parts in zip(tables, zip(*(step[0] for step in steps))):
        assert isinstance(table.optimizer, _FrozenRowAdagrad)
        table.apply_gradients(*map(_cat, zip(*parts)), cfg.lr)
    g_params = _cat([step[1] for step in steps])
    for relation, i in slot.items():
        model.rel_optimizers[relation].step(
            model.rel_params[relation], g_params[which == i].sum(axis=0),
            cfg.relation_lr_effective,
        )
    return stats


@pytest.mark.parametrize("disable_batch_negs", [False, True],
                         ids=["batched", "unbatched"])
@pytest.mark.parametrize("two_tables", [False, True], ids=["same", "two"])
@pytest.mark.parametrize("loss", ["ranking", "logistic", "softmax"])
@pytest.mark.parametrize("operator", [
    "identity", "translation", "diagonal", "linear", "complex_diagonal",
    "affine",
])
@pytest.mark.parametrize("comparator", ["dot", "l2", "cos"])
def test_batch_step_is_the_frozen_step_before_the_cuts(
    comparator, operator, loss, two_tables, disable_batch_negs
):
    """float32, three relation-mixed batches of chunk widths 4 4 4 3 1 2
    (relation weights; edge weights on the last two): tables, Adagrad
    state, relation parameters, dirty rows, statistics — ``violations``
    included — and RNG position equal the frozen step's bit for bit.
    ``cos`` norms now come from one ``einsum``, so there the two agree
    to float32 rounding instead."""
    live, frozen = _mixed_models(
        operator, comparator, loss, two_tables, dtype=np.float32,
        disable_batch_negs=disable_batch_negs,
    )
    for key in frozen.resident_tables():
        table = frozen.get_table(*key)
        table.optimizer = _FrozenRowAdagrad(table.optimizer.state)
    rhs_type = "b" if two_tables else "a"
    rng_l, rng_f = np.random.default_rng(11), np.random.default_rng(11)
    draw = np.random.default_rng(12)
    rounding = dict(rtol=2e-5, atol=1e-6)
    for step in range(3):
        rel, src, dst = _mixed_batch(draw)
        edge_weights = draw.random(len(rel)) + 0.5 if step else None
        got = live.forward_backward_chunk(
            rel, src, dst, live.get_table("a", 0),
            live.get_table(rhs_type, 0), rng_l, edge_weights=edge_weights,
            chunk_size=4,
        )
        want = _frozen_batch_step(
            frozen, rel, src, dst, frozen.get_table("a", 0),
            frozen.get_table(rhs_type, 0), rng_f, edge_weights, 4,
        )
        assert (got.num_edges, got.num_negatives, got.violations) == (
            want.num_edges, want.num_negatives, want.violations
        )
        assert got.violations > 0
        if comparator == "cos":
            assert got.loss == pytest.approx(want.loss, rel=rounding["rtol"])
        else:
            assert got.loss == want.loss
    assert rng_l.random() == rng_f.random()
    for got, want in zip(
        _all_training_arrays(live), _all_training_arrays(frozen)
    ):
        assert got.dtype == want.dtype
        if comparator == "cos":
            np.testing.assert_allclose(got, want, **rounding)
        else:
            np.testing.assert_array_equal(got, want)


class TestBatchIsTheUnitOfTheUpdate:
    SRC = np.asarray([0, 1, 2, 0, 3, 4, 0])  # row 0: chunks 0, 1 and the tail
    DST = np.asarray([5, 6, 7, 8, 5, 6, 7])

    def _spied(self, monkeypatch, model):
        calls = {"tables": [], "relation": 0}
        original = DenseEmbeddingTable.apply_gradients

        def apply_gradients(table, rows, grads, lr):
            calls["tables"].append((table, rows.copy(), grads.copy()))
            original(table, rows, grads, lr)

        monkeypatch.setattr(
            DenseEmbeddingTable, "apply_gradients", apply_gradients
        )
        step = model.rel_optimizers[0].step

        def relation_step(*args):
            calls["relation"] += 1
            step(*args)

        model.rel_optimizers[0].step = relation_step
        return calls

    @pytest.mark.parametrize("disable_batch_negs", [False, True])
    @pytest.mark.parametrize("two_tables", [False, True])
    def test_one_update_per_table_and_one_state_increment_per_row(
        self, monkeypatch, two_tables, disable_batch_negs
    ):
        model, _ = _oracle_models(
            "translation", "cos", "logistic", two_tables,
            num_batch_negs=3, disable_batch_negs=disable_batch_negs,
        )
        lhs = model.get_table("a", 0)
        rhs = model.get_table("b" if two_tables else "a", 0)
        calls = self._spied(monkeypatch, model)
        model.forward_backward_chunk(
            0, self.SRC, self.DST, lhs, rhs, np.random.default_rng(0),
            chunk_size=3,
        )
        assert [t for t, _, _ in calls["tables"]] == (
            [lhs, rhs] if two_tables else [lhs]
        )
        assert calls["relation"] == 1
        # Row 0's accumulator holds the square of its *summed* gradient:
        # one increment, not one per chunk it appeared in.
        _, rows, grads = calls["tables"][0]
        assert (rows == 0).sum() >= 3
        summed = grads[rows == 0].sum(axis=0)
        assert lhs.optimizer.state[0] == np.float32(np.mean(summed * summed))
        per_chunk = sum(np.mean(g * g) for g in grads[rows == 0])
        assert lhs.optimizer.state[0] != pytest.approx(per_chunk, rel=1e-3)

    @pytest.mark.parametrize("disable_batch_negs", [False, True])
    def test_update_false_touches_nothing(
        self, monkeypatch, disable_batch_negs
    ):
        model, twin = _oracle_models(
            "translation", "cos", "logistic", True,
            disable_batch_negs=disable_batch_negs,
        )
        calls = self._spied(monkeypatch, model)
        stats = model.forward_backward_chunk(
            0, self.SRC, self.DST, model.get_table("a", 0),
            model.get_table("b", 0), np.random.default_rng(0),
            update=False, chunk_size=3,
        )
        assert stats.num_edges == 7 and stats.loss > 0
        assert calls == {"tables": [], "relation": 0}
        for got, want in zip(_training_arrays(model), _training_arrays(twin)):
            np.testing.assert_array_equal(got, want)
        # ... and reports the loss the updating call starts from.
        assert stats == twin.forward_backward_chunk(
            0, self.SRC, self.DST, twin.get_table("a", 0),
            twin.get_table("b", 0), np.random.default_rng(0), chunk_size=3,
        )

    @pytest.mark.parametrize("disable_batch_negs", [False, True])
    @pytest.mark.parametrize("two_tables", [False, True])
    def test_mixed_call_is_one_step_per_table_and_per_distinct_relation(
        self, monkeypatch, two_tables, disable_batch_negs
    ):
        model, twin = _mixed_models(
            "translation", "cos", "logistic", two_tables,
            disable_batch_negs=disable_batch_negs,
        )
        lhs = model.get_table("a", 0)
        rhs = model.get_table("b" if two_tables else "a", 0)
        calls = self._spied(monkeypatch, model)
        steps, blocks = [], []
        for i, optimizer in enumerate(model.rel_optimizers):
            optimizer.step = (
                lambda *args, i=i, step=optimizer.step: (
                    steps.append(i), step(*args)
                )
            )
        block_step = model._block_step
        model._block_step = lambda *args: (
            blocks.append(len(args[1])), block_step(*args)
        )[1]
        # Relation 1 is absent; relation 2 comes in two runs.
        rel = np.asarray([2] * 5 + [0] * 4 + [2] * 2)
        draw = np.random.default_rng(1)
        src, dst = draw.integers(0, 9, 11), draw.integers(0, 9, 11)
        args = (rel, src, dst, lhs, rhs, np.random.default_rng(0))
        before = [array.copy() for array in _all_training_arrays(model)]
        stats = model.forward_backward_chunk(*args, update=False, chunk_size=4)
        assert calls == {"tables": [], "relation": 0} and steps == []
        for got, want in zip(_all_training_arrays(model), before):
            np.testing.assert_array_equal(got, want)
        # ... and reports the loss the updating call starts from.
        assert stats.num_edges == 11 and stats == twin.forward_backward_chunk(
            rel, src, dst, twin.get_table("a", 0),
            twin.get_table("b" if two_tables else "a", 0),
            np.random.default_rng(0), chunk_size=4,
        )
        blocks.clear(), calls["tables"].clear()  # the twin's update
        model.forward_backward_chunk(*args, chunk_size=4)
        assert [t for t, _, _ in calls["tables"]] == (
            [lhs, rhs] if two_tables else [lhs]
        )
        assert steps == [0, 2]
        # Chunks 4 1 | 4 | 2: one block, or one per chunk when every
        # edge gathers its own negatives.
        assert blocks == ([1, 1, 1, 1] if disable_batch_negs else [4])
        np.testing.assert_array_equal(model.rel_params[1], before[1])

    def test_mixed_relation_batch_is_one_update_per_relation(
        self, monkeypatch
    ):
        """The trainer hands a batch to the model whole — one call per
        relation group, with the configured chunk size; the ungrouped
        batcher has sorted it into relation runs. The call is one update
        per table and one per relation."""
        from repro.core.batching import iterate_batches
        from repro.core.trainer import BucketExecutor
        from repro.graph.buckets import Bucket
        from repro.graph.edgelist import EdgeList

        config = _config(
            operator="translation", loss="logistic", batch_size=40,
            chunk_size=4,
        )
        model = _model(config, n=12, dtype=np.float32)
        calls = self._spied(monkeypatch, model)
        steps = []
        for i, optimizer in enumerate(model.rel_optimizers):
            monkeypatch.setattr(
                optimizer, "step",
                lambda *args, i=i, step=optimizer.step: (
                    steps.append(i), step(*args)
                ),
            )
        seen = []
        original = EmbeddingModel.forward_backward_chunk

        def recording(self_, rel_id, src, dst, *args, **kwargs):
            seen.append((rel_id.tolist(), kwargs["chunk_size"]))
            return original(self_, rel_id, src, dst, *args, **kwargs)

        monkeypatch.setattr(
            EmbeddingModel, "forward_backward_chunk", recording
        )
        rng = np.random.default_rng(0)
        edges = EdgeList(
            rng.integers(0, 12, 30), np.arange(30) % 2, rng.integers(0, 12, 30)
        )
        executor = BucketExecutor(
            config, model, model.entities, rng, pipeline=None
        )
        (batch,) = iterate_batches(
            edges, 40, rng, group_by_relation=False,
            chunk_size=4, groups=executor.rel_groups,
        )
        stats = executor._train_batch(Bucket(0, 0), batch, rng)
        assert seen == [([0] * 15 + [1] * 15, 4)]
        assert stats.num_edges == 30
        assert len(calls["tables"]) == 1  # one table, one update
        assert steps == [0, 1]

        # A packed batch (full chunks, then tails) is handed on as it is.
        packed = EdgeList(
            rng.integers(0, 12, 14), np.asarray([0] * 4 + [1] * 8 + [0, 1]),
            rng.integers(0, 12, 14),
        )
        executor._train_batch(Bucket(0, 0), packed, rng)
        assert seen[1] == (packed.rel.tolist(), 4)


class TestChunkBehaviour:
    def test_empty_chunk(self):
        config = _config()
        model = _model(config)
        table = model.get_table("node", 0)
        stats = model.forward_backward_chunk(
            0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            table, table, np.random.default_rng(0),
        )
        assert stats.loss == 0.0 and stats.num_edges == 0

    def test_update_changes_touched_rows_only(self):
        config = _config(loss="logistic")
        model = _model(config, n=20)
        table = model.get_table("node", 0)
        before = table.weights.copy()
        src = np.asarray([0, 1])
        dst = np.asarray([2, 3])
        rng = np.random.default_rng(0)
        model.forward_backward_chunk(0, src, dst, table, table, rng)
        # Rows outside {src, dst, sampled negatives} must be unchanged;
        # at minimum the positive rows moved.
        assert not np.allclose(table.weights[0], before[0])
        assert not np.allclose(table.weights[2], before[2])

    def test_repeated_steps_reduce_loss(self):
        config = _config(loss="logistic", dimension=8)
        model = _model(config, n=30, dtype=np.float32)
        table = model.get_table("node", 0)
        rng = np.random.default_rng(1)
        src = np.arange(10)
        dst = (src + 1) % 30
        losses = []
        for _ in range(150):
            stats = model.forward_backward_chunk(
                0, src, dst, table, table, rng
            )
            losses.append(stats.mean_loss)
        assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.8

    def test_edge_weights_scale_updates(self):
        config = _config(loss="logistic")
        m1 = _model(config, n=10, seed=8)
        m2 = _model(config, n=10, seed=8)
        t1, t2 = m1.get_table("node", 0), m2.get_table("node", 0)
        src, dst = np.asarray([0]), np.asarray([1])
        s1 = m1.forward_backward_chunk(
            0, src, dst, t1, t1, np.random.default_rng(3),
            edge_weights=np.asarray([1.0]), update=False,
        )
        s2 = m2.forward_backward_chunk(
            0, src, dst, t2, t2, np.random.default_rng(3),
            edge_weights=np.asarray([3.0]), update=False,
        )
        assert s2.loss == pytest.approx(3.0 * s1.loss, rel=1e-6)

    def test_relation_weight_scales_loss(self):
        config_w = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(name="r0", lhs="node", rhs="node", weight=2.0)
            ],
            dimension=6, loss="logistic",
            num_batch_negs=2, num_uniform_negs=2,
        )
        config_1 = config_w.replace(
            relations=[RelationSchema(name="r0", lhs="node", rhs="node")]
        )
        m_w = _model(config_w, n=10, seed=9)
        m_1 = _model(config_1, n=10, seed=9)
        src, dst = np.asarray([0, 1]), np.asarray([2, 3])
        s_w = m_w.forward_backward_chunk(
            0, src, dst, m_w.get_table("node", 0), m_w.get_table("node", 0),
            np.random.default_rng(4), update=False,
        )
        s_1 = m_1.forward_backward_chunk(
            0, src, dst, m_1.get_table("node", 0), m_1.get_table("node", 0),
            np.random.default_rng(4), update=False,
        )
        assert s_w.loss == pytest.approx(2.0 * s_1.loss, rel=1e-6)


class TestModelManagement:
    def test_global_embeddings_roundtrip(self):
        from repro.graph.partitioning import partition_entities

        config = ConfigSchema(
            entities={"node": EntitySchema(num_partitions=3)},
            relations=[RelationSchema(name="r", lhs="node", rhs="node")],
            dimension=4,
        )
        entities = EntityStorage({"node": 10})
        entities.set_partitioning(
            "node", partition_entities(10, 3, np.random.default_rng(0))
        )
        model = EmbeddingModel(config, entities)
        model.init_all_partitions(np.random.default_rng(1))
        emb = model.global_embeddings("node")
        assert emb.shape == (10, 4)
        # Row i must equal its partition-local row.
        p = entities.partitioning("node")
        for i in range(10):
            part, off = int(p.part_of[i]), int(p.offset_of[i])
            np.testing.assert_allclose(
                emb[i], model.get_table("node", part).weights[off]
            )

    def test_missing_table_error(self):
        config = _config()
        model = EmbeddingModel(config, EntityStorage({"node": 5}))
        with pytest.raises(KeyError, match="not resident"):
            model.get_table("node", 0)

    def test_shared_params_roundtrip(self):
        model = _model(_config(operator="translation"))
        params = model.get_shared_params()
        assert set(params) == {"rel_0", "rel_1"}
        params["rel_0"] += 1.0
        model.set_shared_params(params)
        np.testing.assert_allclose(model.rel_params[0], params["rel_0"])

    def test_resident_nbytes_grows_with_tables(self):
        config = _config()
        entities = EntityStorage({"node": 100})
        model = EmbeddingModel(config, entities)
        empty = model.resident_nbytes()
        model.init_partition("node", 0, np.random.default_rng(0))
        assert model.resident_nbytes() > empty
