"""The training step of the paper, per edge and in float64: the oracle
``EmbeddingModel.forward_backward_chunk`` is held to.

§3 scores an edge ``sim(g(θs, θr), g(θd, θr))`` (PBG applies the
operator to the destination) and trains it against corrupted edges
under the margin-ranking, logistic or softmax loss; §4.3 shares one
negative pool per side among the edges of a chunk (a run of one
relation, cut every ``chunk_size`` edges); Adagrad keeps one float32
accumulator per embedding row (§3.1). One step is one update: every
gradient is taken at the weights the step started from, summed per
(table, row), and applied once; each relation's parameters take one
dense Adagrad step of their summed gradient.

Only the leaf kernels are shared with the model: the operators, the
comparators, the losses and the samplers, each pinned on its own by the
numerical-gradient tests. Nothing here stacks rows, batches chunks,
sorts duplicate rows or calls the tables' and optimizers' updates.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ChunkStats
from repro.core.negatives import NegativePool, sample_pool

__all__ = ["reference_step"]


def _chunks(rel, chunk_size):
    """``(lo, hi)`` of every chunk: each run of one relation, cut every
    ``chunk_size`` edges."""
    chunks, lo = [], 0
    for i in range(1, len(rel) + 1):
        if i == len(rel) or rel[i] != rel[lo] or i - lo == chunk_size:
            chunks.append((lo, i))
            lo = i
    return chunks


def _pools(cfg, chunks, src, dst, lhs, rhs, rng):
    """Each chunk's ``(dst side, src side)`` pools, drawn as the step
    draws them: each run of equal-width chunks in one ``sample_pool``
    call per side, the destination side first."""
    pools, i = [], 0
    while i < len(chunks):
        width = chunks[i][1] - chunks[i][0]
        j = i
        while j < len(chunks) and chunks[j][1] - chunks[j][0] == width:
            j += 1
        sides = []
        for ends, table in ((dst, rhs), (src, lhs)):
            block = np.stack([ends[lo:hi] for lo, hi in chunks[i:j]])
            sides.append(sample_pool(
                block, block, table.num_rows, cfg.num_batch_negs,
                cfg.num_uniform_negs, rng,
            ))
        pools += [
            tuple(NegativePool(side.entities[c], side.mask[c]) for side in sides)
            for c in range(j - i)
        ]
        i = j
    return pools


def reference_step(model, rel, src, dst, lhs, rhs, rng, edge_weights=None,
                   chunk_size=None):
    """Train ``model`` on one batch the long way round; returns its
    :class:`ChunkStats`. ``rel`` is one relation or one per edge, and
    ``model`` is float64."""
    cfg, comp = model.config, model.comparator
    m = len(src)
    rel = np.broadcast_to(rel, (m,))
    chunks = _chunks(rel, chunk_size or m)
    pools = _pools(cfg, chunks, src, dst, lhs, rhs, rng)
    stats = ChunkStats()
    row_grads: "dict[tuple[int, int], np.ndarray]" = {}
    rel_grads: "dict[int, np.ndarray]" = {}

    def add(table, rows, grads):
        for row, grad in zip(rows.tolist(), grads):
            key = (id(table), row)
            row_grads[key] = row_grads[key] + grad if key in row_grads else grad

    for (lo, hi), (dst_pool, src_pool) in zip(chunks, pools):
        for e in range(lo, hi):
            r = int(rel[e])
            op, theta = model.operators[r], model.rel_params[r]
            neg_d, mask_d = dst_pool.entities, dst_pool.mask[e - lo]
            neg_s, mask_s = src_pool.entities, src_pool.mask[e - lo]
            s_raw, d_raw = lhs.weights[src[e:e + 1]], rhs.weights[dst[e:e + 1]]
            nd_raw, ns_raw = rhs.weights[neg_d], lhs.weights[neg_s]
            t_d, t_nd = op.forward(d_raw, theta), op.forward(nd_raw, theta)
            a, b = comp.prepare(s_raw), comp.prepare(t_d)
            pb, pa = comp.prepare(t_nd), comp.prepare(ns_raw)
            pos = comp.score_pairs(a, b)
            neg = np.hstack([comp.score_matrix(a, pb), comp.score_matrix(b, pa)])
            mask = np.hstack([mask_d, mask_s])[None]
            weight = cfg.relations[r].weight
            if edge_weights is not None:
                weight *= float(edge_weights[e])
            loss, dpos, dneg = model.loss_fn.forward_backward(
                pos, neg, mask, np.asarray([weight])
            )
            stats.loss += loss
            stats.num_edges += 1
            stats.num_negatives += int(mask.sum())
            stats.violations += int(np.count_nonzero(dneg))

            k = len(neg_d)
            ga, gb = comp.score_pairs_backward(a, b, dpos)
            ga_neg, g_pb = comp.score_matrix_backward(a, pb, dneg[:, :k])
            gb_neg, g_pa = comp.score_matrix_backward(b, pa, dneg[:, k:])
            g_d, g_theta = op.backward(
                d_raw, theta, comp.prepare_backward(t_d, gb + gb_neg)
            )
            g_nd, g_theta_neg = op.backward(
                nd_raw, theta, comp.prepare_backward(t_nd, g_pb)
            )
            add(lhs, src[e:e + 1], comp.prepare_backward(s_raw, ga + ga_neg))
            add(lhs, neg_s, comp.prepare_backward(ns_raw, g_pa))
            add(rhs, dst[e:e + 1], g_d)
            add(rhs, neg_d, g_nd)
            # The edge's gradient first, as the step sums a one-edge chunk:
            # a first Adagrad step divides a sum's rounding by its size,
            # and relation sums that cancel to ~1e-7 occur at width 1.
            rel_grads[r] = rel_grads.get(r, 0.0) + (g_theta + g_theta_neg)

    # One row-Adagrad update per (table, row), of its summed gradient.
    tables = {id(lhs): lhs, id(rhs): rhs}
    for (table_id, row), grad in row_grads.items():
        table = tables[table_id]
        state = table.optimizer.state
        state[row] += np.float32(np.mean(grad * grad))
        scale = np.float32(cfg.lr) / (np.sqrt(state[row]) + np.float32(1e-10))
        table.weights[row] -= scale * grad
    # ... and one dense Adagrad step per relation that occurs.
    for r, grad in rel_grads.items():
        state = model.rel_optimizers[r].state
        state += (grad * grad).astype(np.float32)
        model.rel_params[r] -= cfg.relation_lr_effective * grad / (
            np.sqrt(state) + 1e-10
        )
    return stats
