"""The multi-relation embedding model: parameters + forward/backward.

An :class:`EmbeddingModel` owns

- one :class:`~repro.core.tables.EmbeddingTable` per *(entity type,
  partition)* currently resident in memory (the trainer swaps these
  against :class:`~repro.graph.storage.PartitionedEmbeddingStorage`),
- per-relation operator parameters with their dense-Adagrad state (the
  "shared parameters" of distributed training),
- a comparator and a loss.

Its centrepiece is :meth:`EmbeddingModel.forward_backward_chunk`: score
one chunk of same-relation edges against batched negative pools on both
sides, evaluate the loss, and backpropagate in closed form through
comparator → operator → embedding rows, applying Adagrad updates in
place. This is the computation of the paper's Figure 3.

The chunk is processed as one **stack** of rows,
``[src | src negatives | dst | dst negatives]``: the first two pieces
index the left-hand table, the last two the right-hand one. The stack is
gathered once (once per table when the sides differ), the relation
operator maps its contiguous right-hand half, and the comparator
prepares it in one call that keeps what its backward needs. The score
gradients are written into one buffer with the same layout, which then
goes back through the comparator and the operator in one call each and
reaches each table as a single ``apply_gradients`` — so a row repeated
across pieces gets one summed Adagrad step. At the benchmark's shapes
the six 100 x 64 x 100 matmuls are ~80 µs of a ~570 µs chunk (it was
~960 µs piece by piece; ``benchmarks/micro/bench_chunk_step.py``).
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
    # Training: forward + backward + update for one chunk
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
    ) -> ChunkStats:
        """Train on one chunk of edges sharing relation ``rel_id``.

        ``src_rows`` / ``dst_rows`` index into ``lhs_table`` /
        ``rhs_table`` (partition-local offsets). Negative pools are
        sampled within those tables, honouring the paper's
        same-partition and same-entity-type constraints by construction.
        With ``disable_batch_negs`` every edge draws its own negatives
        (the Figure 4 baseline: O(c * k * d) fetches, no matmul reuse)
        and only the sampling and the negative scoring differ.
        """
        cfg = self.config
        op = self.operators[rel_id]
        params = self.rel_params[rel_id]
        comp = self.comparator
        c = len(src_rows)
        if c == 0:
            return ChunkStats()

        # ---- negatives (dst side first: the RNG draw order is fixed) ----
        if cfg.disable_batch_negs:
            k = cfg.num_batch_negs + cfg.num_uniform_negs
            dst_negs = sample_unbatched(dst_rows, rhs_table.num_rows, k, rng)
            src_negs = sample_unbatched(src_rows, lhs_table.num_rows, k, rng)
            l2 = cfg.comparator == "l2"
            score = partial(_rowwise_scores, l2=l2)
            score_backward = partial(_rowwise_scores_backward, l2=l2)
        else:
            dst_negs = sample_pool(
                dst_rows, dst_rows, rhs_table.num_rows,
                cfg.num_batch_negs, cfg.num_uniform_negs, rng,
            )
            src_negs = sample_pool(
                src_rows, src_rows, lhs_table.num_rows,
                cfg.num_batch_negs, cfg.num_uniform_negs, rng,
            )
            score, score_backward = comp.score_matrix, comp.score_matrix_backward

        # ---- forward over the stack [src | src negs | dst | dst negs] ----
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
        # The identity operator returns its input: the stack is ``raw``.
        x = raw if t_rhs is rhs_raw else np.concatenate((raw[:n_lhs], t_rhs))
        y, saved = comp.prepare_saved(x)
        a, pa, b, pb = y[:c], y[c:n_lhs], y[n_lhs:n_lhs + c], y[n_lhs + c:]
        pos = comp.score_pairs(a, b)
        neg_dst = score(a, pb)
        neg_src = score(b, pa)
        neg = np.concatenate((neg_dst, neg_src), axis=1)
        mask = np.concatenate((dst_negs.mask, src_negs.mask), axis=1)

        # ---- loss ------------------------------------------------------
        weights = (
            None if edge_weights is None else edge_weights.astype(raw.dtype)
        )
        rel_weight = cfg.relations[rel_id].weight
        if rel_weight != 1.0:
            weights = (
                np.full(c, rel_weight, dtype=raw.dtype) if weights is None
                else weights * rel_weight
            )
        loss, dpos, dneg = self.loss_fn.forward_backward(
            pos, neg, mask, weights
        )
        stats = ChunkStats(
            loss=loss,
            num_edges=c,
            num_negatives=int(np.count_nonzero(mask)),
            violations=int(np.count_nonzero(dneg)),
        )
        if not update:
            return stats

        # ---- backward: one gradient buffer laid out like the stack ------
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

        # ---- updates: one Adagrad step per table, so rows duplicated
        # across pieces (and sides, for one table) accumulate first ------
        if lhs_table is rhs_table:
            g[n_lhs:] = g_rhs
            lhs_table.apply_gradients(rows, g, cfg.lr)
        else:
            lhs_table.apply_gradients(rows[:n_lhs], g[:n_lhs], cfg.lr)
            rhs_table.apply_gradients(rows[n_lhs:], g_rhs, cfg.lr)
        self.rel_optimizers[rel_id].step(
            params, g_params, cfg.relation_lr_effective
        )
        return stats


def _rowwise_scores(a: np.ndarray, negs: np.ndarray, l2: bool) -> np.ndarray:
    """Unbatched ``score_matrix``: ``a[i]`` against its own ``k`` prepared
    negatives, rows ``i*k .. (i+1)*k`` of ``negs`` — shape ``(c, k)``."""
    negs = negs.reshape(len(a), -1, a.shape[1])
    scores = np.einsum("cd,ckd->ck", a, negs)
    if l2:
        # -||a - n||^2 = 2 a.n - ||a||^2 - ||n||^2
        sq_a = np.einsum("cd,cd->c", a, a)[:, None]
        scores = 2.0 * scores - sq_a - np.einsum("ckd,ckd->ck", negs, negs)
    return scores


def _rowwise_scores_backward(a, negs, grad, l2: bool):
    """Gradients of :func:`_rowwise_scores` w.r.t. ``a`` and ``negs``."""
    negs = negs.reshape(len(a), -1, a.shape[1])
    g_a = np.einsum("ck,ckd->cd", grad, negs)
    if l2:
        g_a = 2.0 * g_a - 2.0 * grad.sum(axis=1)[:, None] * a
        g_negs = 2.0 * grad[:, :, None] * (a[:, None, :] - negs)
    else:
        g_negs = grad[:, :, None] * a[:, None, :]
    return g_a, g_negs.reshape(-1, a.shape[1])
