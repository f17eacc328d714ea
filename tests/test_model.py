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


def _chunk_gradcheck(operator, comparator, loss, disable_batch_negs):
    config = _config(
        operator=operator, comparator=comparator, loss=loss,
        disable_batch_negs=disable_batch_negs,
    )
    n = 12
    base = _model(config, n=n, seed=5)
    weights0 = base.get_table("node", 0).weights.copy()
    params0 = [p.copy() for p in base.rel_params]
    src = np.asarray([0, 1, 2])
    dst = np.asarray([3, 4, 3])

    def run(weights, rel_params, update=False, table_cls=DenseEmbeddingTable):
        model = _model(config, n=n, seed=5)
        table = table_cls(weights.copy())
        model.set_table("node", 0, table)
        for i, p in enumerate(rel_params):
            model.rel_params[i][:] = p
        stats = model.forward_backward_chunk(
            0, src, dst, table, table,
            np.random.default_rng(99), update=update,
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


def _oracle_models(operator, comparator, loss, two_tables, rel_weight=1.5):
    """Two identical float64 models; ``num_batch_negs`` is 5, the size
    of the oracle tests' full chunk."""
    config = ConfigSchema(
        entities={"a": EntitySchema(), "b": EntitySchema()},
        relations=[RelationSchema(
            name="r", lhs="a", rhs="b" if two_tables else "a",
            operator=operator, weight=rel_weight,
        )],
        dimension=6, comparator=comparator, loss=loss, margin=0.2,
        num_batch_negs=5, num_uniform_negs=4, lr=0.05,
    )
    models = []
    for _ in range(2):
        model = EmbeddingModel(
            config, EntityStorage({"a": 9, "b": 11}),
            np.random.default_rng(3), np.float64,
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
