"""The multi-relation embedding model: parameters + forward/backward.

An :class:`EmbeddingModel` owns

- one :class:`~repro.core.tables.EmbeddingTable` per *(entity type,
  partition)* currently resident in memory (the trainer swaps these
  against :class:`~repro.graph.storage.PartitionedEmbeddingStorage`),
- per-relation operator parameters with their dense-Adagrad state (the
  "shared parameters" of distributed training),
- a comparator and a loss.

Its centrepiece is :meth:`EmbeddingModel.forward_backward_chunk`: score
a batch of same-relation edges against batched negative pools on both
sides, evaluate the loss, and backpropagate in closed form through
comparator → operator → embedding rows, applying **one** Adagrad update
per table. This is the computation of the paper's Figure 3; a *chunk* is
the group of edges that shares a negative pool, not an update.

The batch is one **stack** of rows, ``[src | src negatives | dst | dst
negatives]``, each piece chunk-major; the first two index the left-hand
table, the last two the right-hand one. It is gathered once (once per
table when the sides differ), the relation operator maps its contiguous
right-hand half, and the comparator prepares it in one call that keeps
what its backward needs. Viewed as ``(n_chunks, c or k, d)`` the pieces
meet in six ``np.matmul`` products over the chunk axis: chunk ``i`` is
scored against, and masked by, pool ``i`` only. The score gradients fill
one buffer laid out like the stack, which goes back through comparator
and operator in one call each and reaches each table as a single
``apply_gradients`` — a row repeated across pieces or chunks gets one
summed Adagrad step. A ragged last chunk is a second stack appended
before that update. A 1000-edge batch of ten chunks costs ~5.1 ms, ~7.4
as ten one-chunk calls (``benchmarks/micro/bench_chunk_step.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.config import ConfigSchema
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
        rel_id: int,
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        lhs_table: EmbeddingTable,
        rhs_table: EmbeddingTable,
        rng: np.random.Generator,
        edge_weights: np.ndarray | None = None,
        update: bool = True,
        chunk_size: int | None = None,
    ) -> ChunkStats:
        """Train on a batch of edges sharing relation ``rel_id``, with
        one update of each table and of the relation's parameters.

        ``src_rows`` / ``dst_rows`` index into ``lhs_table`` /
        ``rhs_table`` (partition-local offsets). Each ``chunk_size``
        edges (default: all) share a negative pool per side, sampled
        within those tables, honouring the paper's same-partition and
        same-entity-type constraints by construction. With
        ``disable_batch_negs`` every edge draws its own negatives (the
        Figure 4 baseline: O(c * k * d) fetches, no matmul reuse) and
        only the sampling and the negative scoring differ.
        """
        cfg = self.config
        m = len(src_rows)
        if m == 0:
            return ChunkStats()
        c = min(chunk_size or m, m)
        full = m - m % c
        # The whole chunks are one block and a ragged last chunk another;
        # per-edge negatives gather k times the rows, a chunk at a time.
        bounds = [*range(0, full, c if cfg.disable_batch_negs else full), full, m]
        stats, steps = ChunkStats(), []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < hi:
                width = min(c, hi - lo)
                steps.append(self._block_step(
                    rel_id, src_rows[lo:hi].reshape(-1, width),
                    dst_rows[lo:hi].reshape(-1, width), lhs_table, rhs_table,
                    rng, None if edge_weights is None else edge_weights[lo:hi],
                    update, stats,
                ))
        if not update:
            return stats
        # One Adagrad step per table, so a row repeated across pieces,
        # chunks, blocks (and sides, for one table) accumulates first.
        tables = [lhs_table] if lhs_table is rhs_table else [lhs_table, rhs_table]
        for table, parts in zip(tables, zip(*(step[0] for step in steps))):
            rows, grads = (
                parts[0] if len(parts) == 1
                else map(np.concatenate, zip(*parts))
            )
            table.apply_gradients(rows, grads, cfg.lr)
        self.rel_optimizers[rel_id].step(
            self.rel_params[rel_id], np.sum([step[1] for step in steps], axis=0),
            cfg.relation_lr_effective,
        )
        return stats

    def _block_step(
        self, rel_id, src, dst, lhs_table, rhs_table, rng, edge_weights,
        update, stats,
    ):
        """Forward and backward of ``(n, c)`` row blocks — ``n`` chunks of
        ``c`` edges, stacked chunk-major. Adds to ``stats``; returns each
        table's ``(rows, gradients)`` and the relation-parameter gradient."""
        cfg = self.config
        op = self.operators[rel_id]
        params = self.rel_params[rel_id]
        comp = self.comparator
        n, n_pos = len(src), src.size

        def chunked(z):  # (n * w, d) -> (n, w, d)
            return z.reshape(n, -1, z.shape[-1])

        # ---- negatives (dst side first: the RNG draw order is fixed) ----
        if cfg.disable_batch_negs:
            k = cfg.num_batch_negs + cfg.num_uniform_negs
            dst_negs = sample_unbatched(dst.ravel(), rhs_table.num_rows, k, rng)
            src_negs = sample_unbatched(src.ravel(), lhs_table.num_rows, k, rng)
            l2 = cfg.comparator == "l2"
            score = partial(_rowwise_scores, l2=l2)
            score_backward = partial(_rowwise_scores_backward, l2=l2)
        else:
            dst_negs = sample_pool(
                dst, dst, rhs_table.num_rows,
                cfg.num_batch_negs, cfg.num_uniform_negs, rng,
            )
            src_negs = sample_pool(
                src, src, lhs_table.num_rows,
                cfg.num_batch_negs, cfg.num_uniform_negs, rng,
            )
            score, score_backward = comp.score_matrix, comp.score_matrix_backward

        # ---- forward over the stack [src | src negs | dst | dst negs] ----
        rows = np.concatenate((
            src.ravel(), src_negs.entities.ravel(),
            dst.ravel(), dst_negs.entities.ravel(),
        ))
        n_lhs = n_pos + src_negs.entities.size
        if lhs_table is rhs_table:
            raw = lhs_table.gather(rows)
        else:
            raw = np.concatenate((
                lhs_table.gather(rows[:n_lhs]), rhs_table.gather(rows[n_lhs:])
            ))
        rhs_raw = raw[n_lhs:]
        t_rhs = op.forward(rhs_raw, params)
        # The identity operator returns its input: the stack is ``raw``.
        x = raw if t_rhs is rhs_raw else np.concatenate((raw[:n_lhs], t_rhs))
        y, saved = comp.prepare_saved(x)
        a, pa, b, pb = np.split(y, (n_pos, n_lhs, n_lhs + n_pos))
        pos = comp.score_pairs(a, b)
        neg_dst = score(chunked(a), chunked(pb))
        neg_src = score(chunked(b), chunked(pa))
        neg = np.concatenate((neg_dst, neg_src), axis=-1).reshape(n_pos, -1)
        mask = np.concatenate((dst_negs.mask, src_negs.mask), axis=-1)

        # ---- loss ------------------------------------------------------
        weights = (
            None if edge_weights is None else edge_weights.astype(raw.dtype)
        )
        rel_weight = cfg.relations[rel_id].weight
        if rel_weight != 1.0:
            weights = (
                np.full(n_pos, rel_weight, dtype=raw.dtype) if weights is None
                else weights * rel_weight
            )
        loss, dpos, dneg = self.loss_fn.forward_backward(
            pos, neg, mask.reshape(neg.shape), weights
        )
        stats.loss += loss
        stats.num_edges += n_pos
        stats.num_negatives += int(np.count_nonzero(mask))
        stats.violations += int(np.count_nonzero(dneg))
        if not update:
            return None

        # ---- backward: one gradient buffer laid out like the stack ------
        kd = neg_dst.shape[-1]
        dneg = dneg.reshape(neg_dst.shape[:-1] + (-1,))
        ga_pos, gb_pos = comp.score_pairs_backward(a, b, dpos)
        ga_neg, g_pb = score_backward(chunked(a), chunked(pb), dneg[..., :kd])
        gb_neg, g_pa = score_backward(chunked(b), chunked(pa), dneg[..., kd:])
        g = np.empty_like(y)
        np.add(ga_pos, ga_neg.reshape(a.shape), out=g[:n_pos])
        g[n_pos:n_lhs] = g_pa.reshape(pa.shape)
        np.add(gb_pos, gb_neg.reshape(b.shape), out=g[n_lhs:n_lhs + n_pos])
        g[n_lhs + n_pos:] = g_pb.reshape(pb.shape)
        g = comp.prepare_backward_saved(y, saved, g)
        g_rhs, g_params = op.backward(rhs_raw, params, g[n_lhs:])
        if lhs_table is rhs_table:
            g[n_lhs:] = g_rhs
            return [(rows, g)], g_params
        return [(rows[:n_lhs], g[:n_lhs]), (rows[n_lhs:], g_rhs)], g_params


def _rowwise_scores(a: np.ndarray, negs: np.ndarray, l2: bool) -> np.ndarray:
    """Unbatched ``score_matrix``: ``a[i]`` against its own ``k`` prepared
    negatives, rows ``i*k .. (i+1)*k`` of ``negs`` — shape ``(c, k)``."""
    a = a.reshape(-1, a.shape[-1])
    negs = negs.reshape(len(a), -1, a.shape[1])
    scores = np.einsum("cd,ckd->ck", a, negs)
    if l2:
        # -||a - n||^2 = 2 a.n - ||a||^2 - ||n||^2
        sq_a = np.einsum("cd,cd->c", a, a)[:, None]
        scores = 2.0 * scores - sq_a - np.einsum("ckd,ckd->ck", negs, negs)
    return scores


def _rowwise_scores_backward(a, negs, grad, l2: bool):
    """Gradients of :func:`_rowwise_scores` w.r.t. ``a`` and ``negs``."""
    a = a.reshape(-1, a.shape[-1])
    negs = negs.reshape(len(a), -1, a.shape[1])
    g_a = np.einsum("ck,ckd->cd", grad, negs)
    if l2:
        g_a = 2.0 * g_a - 2.0 * grad.sum(axis=1)[:, None] * a
        g_negs = 2.0 * grad[:, :, None] * (a[:, None, :] - negs)
    else:
        g_negs = grad[:, :, None] * a[:, None, :]
    return g_a, g_negs.reshape(-1, a.shape[1])
