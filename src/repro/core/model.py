"""The multi-relation embedding model: parameters + forward/backward.

An :class:`EmbeddingModel` owns

- one :class:`~repro.core.tables.EmbeddingTable` per *(entity type,
  partition)* currently resident in memory (the trainer swaps these
  against :class:`~repro.graph.storage.PartitionedEmbeddingStorage`),
- per-relation operator parameters with their dense-Adagrad state (the
  "shared parameters" of distributed training),
- a comparator and a loss.

Its centrepiece is :meth:`EmbeddingModel.forward_backward_chunk`: score
a batch of edges against batched negative pools on both sides, evaluate
the loss, and backpropagate in closed form through comparator → operator
→ embedding rows, applying **one** Adagrad update per table and per
relation. This is the computation of the paper's Figure 3. A *chunk* is
the group of edges that shares a relation and a negative pool; the
*batch* is the unit of the update and may mix relations.

The batch is one **stack** of rows, ``[src | src negatives | dst | dst
negatives]``, each piece chunk-major, whatever the chunk widths. Gather,
comparator ``prepare_saved``, loss and the gradient buffer (laid out
like the stack; a row repeated across pieces or chunks gets one summed
Adagrad step) run flat over it. The operator maps the right-hand half
``(n, w, d)`` chunks at a time under ``(n, *param_shape)`` parameters,
and the six score ``np.matmul`` products run once per run of equal-width
chunks — a short chunk is a narrower rectangle — so chunk ``i`` is scored
against, and masked by, pool ``i`` only; they write straight into their
slices of the score and gradient buffers. A 1000-edge batch of ten chunks
costs ~3.1 ms; a 4 571-edge bucket of 20 relations ~18 ms as 5 batches,
~20 as 21 one-relation ones (``benchmarks/micro/bench_chunk_step.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.config import ConfigSchema
from repro.core.batching import chunk_bounds
from repro.core.comparators import make_comparator
from repro.core.losses import make_loss
from repro.core.negatives import sample_pool, sample_unbatched
from repro.core.operators import make_operator
from repro.core.optimizers import DenseAdagrad
from repro.core.tables import DenseEmbeddingTable, EmbeddingTable
from repro.graph.entity_storage import EntityStorage

__all__ = ["EmbeddingModel", "ChunkStats"]


@dataclass
class ChunkStats:
    """Statistics from one forward/backward chunk."""

    loss: float = 0.0
    num_edges: int = 0
    num_negatives: int = 0
    violations: int = 0

    def merge(self, other: "ChunkStats") -> None:
        self.loss += other.loss
        self.num_edges += other.num_edges
        self.num_negatives += other.num_negatives
        self.violations += other.violations

    @property
    def mean_loss(self) -> float:
        return self.loss / max(self.num_edges, 1)


class EmbeddingModel:
    """Parameters and computation of a PBG model.

    Parameters
    ----------
    config:
        The run configuration (operators, loss, negatives, …).
    entities:
        Entity counts and partitionings.
    rng:
        Source of randomness for parameter initialisation.
    dtype:
        Floating dtype of embeddings (float32 for training; tests use
        float64 for numerical gradient checks).
    """

    def __init__(
        self,
        config: ConfigSchema,
        entities: EntityStorage,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ) -> None:
        self.config = config
        self.entities = entities
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(config.seed)

        self.comparator = make_comparator(config.comparator)
        self.loss_fn = make_loss(config.loss, config.margin)

        # One operator instance + parameter tensor per relation.
        self.operators = [
            make_operator(rel.operator, config.dimension)
            for rel in config.relations
        ]
        self.rel_params: list[np.ndarray] = [
            op.init_params(rng).astype(dtype) for op in self.operators
        ]
        self.rel_optimizers = [
            DenseAdagrad(p.shape) for p in self.rel_params
        ]
        self._rel_weights = [rel.weight for rel in config.relations]

        # Resident embedding tables, keyed by (entity_type, partition).
        self._tables: dict[tuple[str, int], EmbeddingTable] = {}

    # ------------------------------------------------------------------
    # Partition / table management
    # ------------------------------------------------------------------

    def init_partition(
        self,
        entity_type: str,
        part: int,
        rng: np.random.Generator,
    ) -> EmbeddingTable:
        """Allocate and initialise the table for one partition."""
        schema = self.config.entities[entity_type]
        if schema.featurized:
            raise ValueError(
                "featurized tables carry external structure; attach them "
                "with set_table()"
            )
        num_rows = self.entities.part_size(entity_type, part)
        table = DenseEmbeddingTable.create(
            num_rows, self.config.dimension, rng, self.dtype
        )
        self._tables[(entity_type, part)] = table
        return table

    def init_all_partitions(self, rng: np.random.Generator) -> None:
        """Materialise every partition (single-machine, fits-in-memory)."""
        for entity_type in self.entities.types:
            if entity_type not in self.config.entities:
                continue
            if self.config.entities[entity_type].featurized:
                continue
            for part in range(self.entities.num_partitions(entity_type)):
                if (entity_type, part) not in self._tables:
                    self.init_partition(entity_type, part, rng)

    def set_table(
        self, entity_type: str, part: int, table: EmbeddingTable
    ) -> None:
        self._tables[(entity_type, part)] = table

    def get_table(self, entity_type: str, part: int) -> EmbeddingTable:
        try:
            return self._tables[(entity_type, part)]
        except KeyError:
            raise KeyError(
                f"partition ({entity_type!r}, {part}) is not resident"
            ) from None

    def has_table(self, entity_type: str, part: int) -> bool:
        return (entity_type, part) in self._tables

    def drop_table(self, entity_type: str, part: int) -> EmbeddingTable:
        """Evict a partition from memory (caller persists it first)."""
        return self._tables.pop((entity_type, part))

    def resident_tables(self) -> "list[tuple[str, int]]":
        return sorted(self._tables)

    def resident_nbytes(self) -> int:
        """Bytes of embeddings + optimizer state currently in memory."""
        total = sum(t.nbytes() for t in self._tables.values())
        total += sum(p.nbytes for p in self.rel_params)
        total += sum(o.nbytes() for o in self.rel_optimizers)
        return total

    # ------------------------------------------------------------------
    # Global views (evaluation, export)
    # ------------------------------------------------------------------

    def global_embeddings(self, entity_type: str) -> np.ndarray:
        """Stitch partitions into a global ``(count, d)`` matrix.

        Requires all partitions of ``entity_type`` to be resident.
        """
        partitioning = self.entities.partitioning(entity_type)
        out = np.empty(
            (self.entities.count(entity_type), self.config.dimension),
            dtype=self.dtype,
        )
        for part in range(partitioning.num_partitions):
            table = self.get_table(entity_type, part)
            rows = np.arange(table.num_rows)
            out[partitioning.to_global(part, rows)] = table.gather(rows)
        return out

    # ------------------------------------------------------------------
    # Shared parameters (distributed sync surface)
    # ------------------------------------------------------------------

    def shared_param_names(self) -> "list[str]":
        return [f"rel_{i}" for i in range(len(self.rel_params))]

    def get_shared_params(self) -> "dict[str, np.ndarray]":
        """Snapshot the shared parameters (relation operators)."""
        return {
            f"rel_{i}": p.copy() for i, p in enumerate(self.rel_params)
        }

    def set_shared_params(self, params: "dict[str, np.ndarray]") -> None:
        """Overwrite shared parameters from a snapshot."""
        for i in range(len(self.rel_params)):
            key = f"rel_{i}"
            if key in params:
                np.copyto(self.rel_params[i], params[key])

    def get_shared_state(self) -> "dict[str, np.ndarray]":
        """Optimizer state of shared parameters (for checkpointing)."""
        return {
            f"rel_{i}_state": o.state.copy()
            for i, o in enumerate(self.rel_optimizers)
        }

    def set_shared_state(self, state: "dict[str, np.ndarray]") -> None:
        for i, o in enumerate(self.rel_optimizers):
            key = f"rel_{i}_state"
            if key in state:
                np.copyto(o.state, state[key])

    # ------------------------------------------------------------------
    # Scoring (no gradients) — used by evaluation
    # ------------------------------------------------------------------

    def score_pairs(
        self, rel_id: int, src_emb: np.ndarray, dst_emb: np.ndarray
    ) -> np.ndarray:
        """``f(s, r, d)`` for aligned rows of raw embeddings."""
        op = self.operators[rel_id]
        t_dst = op.forward(dst_emb, self.rel_params[rel_id])
        a = self.comparator.prepare(src_emb)
        b = self.comparator.prepare(t_dst)
        return self.comparator.score_pairs(a, b)

    def score_dst_pool(
        self, rel_id: int, src_emb: np.ndarray, pool_emb: np.ndarray
    ) -> np.ndarray:
        """Scores of every (src_i, r, candidate_j): shape (n, k)."""
        op = self.operators[rel_id]
        t_pool = op.forward(pool_emb, self.rel_params[rel_id])
        a = self.comparator.prepare(src_emb)
        pb = self.comparator.prepare(t_pool)
        return self.comparator.score_matrix(a, pb)

    def score_src_pool(
        self, rel_id: int, dst_emb: np.ndarray, pool_emb: np.ndarray
    ) -> np.ndarray:
        """Scores of every (candidate_j, r, dst_i): shape (n, k)."""
        op = self.operators[rel_id]
        t_dst = op.forward(dst_emb, self.rel_params[rel_id])
        b = self.comparator.prepare(t_dst)
        pa = self.comparator.prepare(pool_emb)
        return self.comparator.score_matrix(b, pa)

    # ------------------------------------------------------------------
    # Training: forward + backward over a batch's chunks, one update
    # ------------------------------------------------------------------

    def forward_backward_chunk(
        self,
        rel_id: "int | np.ndarray",
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        lhs_table: EmbeddingTable,
        rhs_table: EmbeddingTable,
        rng: np.random.Generator,
        edge_weights: np.ndarray | None = None,
        update: bool = True,
        chunk_size: int | None = None,
    ) -> ChunkStats:
        """Train on a batch of edges with one update of each table and
        of every relation's parameters.

        ``rel_id`` is one relation or one per edge (of one entity-type
        pair and operator); ``src_rows`` / ``dst_rows`` index into
        ``lhs_table`` / ``rhs_table`` (partition-local offsets). Every
        run of one relation is cut into chunks of ``chunk_size`` edges
        (default: all), each sharing a negative pool per side, sampled
        within those tables, honouring the paper's same-partition and
        same-entity-type constraints by construction. With
        ``disable_batch_negs`` every edge draws its own negatives (Figure
        4's baseline); only the sampling and the negative scoring differ.
        """
        cfg = self.config
        m = len(src_rows)
        if m == 0:
            return ChunkStats()
        rel = np.full(m, rel_id)
        bounds = chunk_bounds(rel, chunk_size or m)
        chunk_rel = rel[bounds[:-1]].tolist()
        # Per-chunk parameters: the distinct relations', stacked, indexed once.
        slot = {r: i for i, r in enumerate(sorted(set(chunk_rel)))}
        which = np.array([slot[r] for r in chunk_rel])
        params = np.array([self.rel_params[r] for r in slot])[which]
        # One block; per-edge negatives gather k times the rows, by chunk.
        n = len(chunk_rel)
        cuts = range(n + 1) if cfg.disable_batch_negs else (0, n)
        stats, steps = ChunkStats(), []
        for i, j in zip(cuts, cuts[1:]):
            at = slice(bounds[i], bounds[j])
            steps.append(self._block_step(
                params[i:j], chunk_rel[i:j],
                [bound - bounds[i] for bound in bounds[i:j + 1]],
                src_rows[at], dst_rows[at], lhs_table, rhs_table, rng,
                None if edge_weights is None else edge_weights[at],
                update, stats,
            ))
        if not update:
            return stats
        # One Adagrad step per table, so a row repeated across pieces,
        # chunks, blocks (and sides, for one table) accumulates first.
        tables = [lhs_table] if lhs_table is rhs_table else [lhs_table, rhs_table]
        for table, parts in zip(tables, zip(*(step[0] for step in steps))):
            table.apply_gradients(*map(_cat, zip(*parts)), cfg.lr)
        # ... and one per relation, of its chunks' summed gradients.
        g_params = _cat([step[1] for step in steps])
        for relation, i in slot.items():
            self.rel_optimizers[relation].step(
                self.rel_params[relation], g_params[which == i].sum(axis=0),
                cfg.relation_lr_effective,
            )
        return stats

    def _block_step(
        self, params, chunk_rel, bounds, src, dst, lhs_table, rhs_table,
        rng, edge_weights, update, stats,
    ):
        """Forward and backward of ``n`` chunks — chunk ``i`` is edges
        ``bounds[i]:bounds[i + 1]``, of relation ``chunk_rel[i]``, under ``params[i]``.
        Adds to ``stats``; returns each table's ``(rows, gradients)`` and ``params``' gradients."""
        cfg, comp, op = self.config, self.comparator, self.operators[chunk_rel[0]]
        n, n_pos, dim = len(params), len(src), lhs_table.dim
        k = cfg.num_batch_negs + cfg.num_uniform_negs  # per edge and side
        pool_rows = k * n_pos if cfg.disable_batch_negs else k  # per chunk
        widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        cuts = [i for i in range(1, n) if widths[i] != widths[i - 1]]
        # Runs of equal-width chunks, the rectangles the score matmuls
        # need: (how many, which chunks, their edges, their pools' rows).
        runs = [
            (j - i, slice(i, j), slice(bounds[i], bounds[j]),
             slice(i * pool_rows, j * pool_rows))
            for i, j in zip([0, *cuts], [*cuts, n])
        ]

        def chunked(z, n):  # (n * w, d) -> (n, w, d)
            return z.reshape(n, -1, z.shape[-1])

        def sample(ends, table):  # one side's pools of a run of chunks
            if cfg.disable_batch_negs:
                return sample_unbatched(ends.ravel(), table.num_rows, k, rng)
            return sample_pool(
                ends, ends, table.num_rows, cfg.num_batch_negs, cfg.num_uniform_negs, rng
            )

        # ---- negatives (dst side first: the RNG draw order is fixed) ----
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
        score, score_backward = comp.score_matrix, comp.score_matrix_backward
        if cfg.disable_batch_negs:
            score, score_backward = (
                partial(fn, l2=cfg.comparator == "l2")
                for fn in (_rowwise_scores, _rowwise_scores_backward)
            )

        # ---- forward over the stack [src | src negs | dst | dst negs] ----
        rows = np.concatenate((src, src_negs, dst, dst_negs))
        n_lhs = n_pos + len(src_negs)
        halves = [(lhs_table, slice(None))] if lhs_table is rhs_table else [
            (lhs_table, slice(0, n_lhs)), (rhs_table, slice(n_lhs, None))
        ]
        raw = _cat([table.gather(rows[at]) for table, at in halves])

        # The operator maps the right-hand half by rectangles of chunks: all
        # of it under one relation, else the runs of positives and the pools.
        rects = [(1, slice(0, 1), slice(None))] if len(set(chunk_rel)) == 1 else [
            *(run[:3] for run in runs), (n, slice(0, n), slice(n_pos, None)),
        ]
        x = raw
        for c, chunks, at in rects:
            piece = chunked(raw[n_lhs:][at], c)
            mapped = op.forward(piece, params[chunks])
            if mapped is not piece:  # the identity's stack is ``raw``
                if x is raw:
                    x = np.empty_like(raw)
                    x[:n_lhs] = raw[:n_lhs]
                x[n_lhs:][at] = mapped.reshape(-1, dim)
        y, saved = comp.prepare_saved(x)
        a, pa, b, pb = y[:n_pos], y[n_pos:n_lhs], y[n_lhs:n_lhs + n_pos], y[n_lhs + n_pos:]
        pos = comp.score_pairs(a, b)
        # The corruption sides: positives, their pools, their score columns.
        sides = ((a, pb, slice(0, k)), (b, pa, slice(k, None)))
        neg = np.empty((n_pos, 2 * k), dtype=y.dtype)
        for c, _, at, pool in runs:
            for p, q, cols in sides:
                score(chunked(p[at], c), chunked(q[pool], c), out=chunked(neg[at], c)[..., cols])

        # ---- loss ------------------------------------------------------
        weights = None if edge_weights is None else edge_weights.astype(raw.dtype)
        rel_weight = [self._rel_weights[r] for r in chunk_rel]
        if any(weight != 1.0 for weight in rel_weight):
            per_edge = np.repeat(np.array(rel_weight, dtype=raw.dtype), widths)
            weights = per_edge if weights is None else weights * per_edge
        loss, dpos, dneg = self.loss_fn.forward_backward(pos, neg, mask, weights)
        stats.loss += loss
        stats.num_edges += n_pos
        stats.num_negatives += int(np.count_nonzero(mask))
        stats.violations += int(np.count_nonzero(dneg != 0))  # bools count fastest
        if not update:
            return None

        # ---- backward: one gradient buffer laid out like the stack ------
        g = np.empty_like(y)
        g_a, g_pa, g_b, g_pb = g[:n_pos], g[n_pos:n_lhs], g[n_lhs:n_lhs + n_pos], g[n_lhs + n_pos:]
        for c, _, at, pool in runs:
            for (p, q, cols), g_p, g_q in zip(sides, (g_a, g_b), (g_pb, g_pa)):
                score_backward(
                    chunked(p[at], c), chunked(q[pool], c), chunked(dneg[at], c)[..., cols],
                    out=(chunked(g_p[at], c), chunked(g_q[pool], c)),
                )
        for g_p, g_pos in zip((g_a, g_b), comp.score_pairs_backward(a, b, dpos)):
            g_p += g_pos
        g = comp.prepare_backward_saved(y, saved, g)
        g_params = np.zeros_like(params)
        for c, chunks, at in rects:
            piece, g_out = chunked(raw[n_lhs:][at], c), chunked(g[n_lhs:][at], c)
            g_in, g_chunks = op.backward(piece, params[chunks], g_out)
            g_params[chunks] += g_chunks
            if g_in is not g_out:
                g[n_lhs:][at] = g_in.reshape(-1, dim)
        return [(rows[at], g[at]) for _, at in halves], g_params


def _cat(parts) -> np.ndarray:  # np.concatenate; one part is returned as is
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _rowwise_scores(a: np.ndarray, negs: np.ndarray, l2: bool, out) -> None:
    """Unbatched ``score_matrix`` (one chunk): ``a[i]`` against its own ``k``
    prepared negatives, rows ``i*k .. (i+1)*k`` of ``negs``, into ``out``."""
    a = a.reshape(-1, a.shape[-1])
    negs = negs.reshape(len(a), -1, a.shape[1])
    scores = np.einsum("cd,ckd->ck", a, negs)
    if l2:
        # -||a - n||^2 = 2 a.n - ||a||^2 - ||n||^2
        sq_a = np.einsum("cd,cd->c", a, a)[:, None]
        scores = 2.0 * scores - sq_a - np.einsum("ckd,ckd->ck", negs, negs)
    out[...] = scores


def _rowwise_scores_backward(a, negs, grad, l2: bool, out) -> None:
    """Gradients of :func:`_rowwise_scores` w.r.t. ``a`` and ``negs``, into ``out``."""
    a = a.reshape(-1, a.shape[-1])
    negs = negs.reshape(len(a), -1, a.shape[1])
    grad = grad.reshape(len(a), -1)
    g_a = np.einsum("ck,ckd->cd", grad, negs)
    if l2:
        g_a = 2.0 * g_a - 2.0 * grad.sum(axis=1)[:, None] * a
        g_negs = 2.0 * grad[:, :, None] * (a[:, None, :] - negs)
    else:
        g_negs = grad[:, :, None] * a[:, None, :]
    out[0][...], out[1][...] = g_a, g_negs.reshape(-1, a.shape[1])
