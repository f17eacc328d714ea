"""The bucket loop, the epoch loop, and the single-machine trainer.

Implements the paper's Section 4.1 training loop. Each epoch iterates
the edge buckets in the configured order; for bucket ``(i, j)`` the
trainer swaps in the source-side partitions ``i`` and destination-side
partitions ``j`` (initialising them on first touch), trains on the
bucket's edges with lock-free worker threads (HOGWILD, Recht et al.
2011 — embeddings are shared arrays, no synchronisation), then swaps
partitions back to disk before moving on.

With one partition this degenerates to plain minibatch training with
everything resident (no pipeline is built). Peak-memory accounting and
swap/I/O counters feed the memory columns of Tables 3 and 4.

One loop, two pipeline modes
----------------------------

:class:`BucketExecutor` is the only implementation of that per-bucket
algorithm; this trainer and every machine of
:mod:`repro.distributed.cluster` drive it, and decide only what really
differs: where the next bucket and the prefetch hint come from (the
``bucket_order`` list / the lock server), what a landed write-back
triggers (nothing / ``commit_partition``), whether the epoch-end flush
keeps tables resident, and the per-batch parameter-server sync. All
partition I/O goes through one
:class:`~repro.graph.storage.PartitionPipeline`; ``config.pipeline``
selects its mode:

- **Synchronous** (``pipeline=False``, the reference the bit-identity
  oracles compare against): no thread is started, nothing is retained,
  and every load, save and first-touch initialisation runs inline on
  the calling thread — swap latency is additive with training time.
- **Pipelined** (``pipeline=True``): I/O overlaps compute (the
  latency-hiding the paper relies on to keep edges/sec flat as
  partition count grows). A *prefetch* thread loads the next visit's
  partitions (from the configured ``bucket_order``, so inside-out's
  locality directly turns into prefetch hits) into the pipeline's
  staging area while workers *train* the current bucket; evicted
  partitions are parked there and persisted by a *writeback* thread
  off the critical path.

Ownership rules (who may touch which buffers):

1. The **main thread** owns the model's resident tables: only it
   inserts, drops, or initialises partitions, and only it consumes the
   executor's ``rng``. First-touch initialisation never happens on the
   prefetch thread, and both modes swap in the same sorted order, so
   RNG consumption order — and therefore the trained embeddings — are
   bit-identical across modes under a fixed seed.
2. The **prefetch thread** only reads partition files and stages
   *clean* copies in the pipeline; it never sees the model and treats
   a missing file as "not my problem" (the main thread initialises).
3. The **writeback thread** owns a submitted snapshot until the write
   lands. Arrays handed to it must not be mutated meanwhile; the
   pipeline enforces this by blocking :meth:`PartitionPipeline.take`
   until a pending write of that partition completes
   (flush-before-reuse), and the epoch-end flush drains the whole
   queue before :func:`run_epochs` checkpoints.
4. Whoever counts landed write-backs per partition *index* hears of
   **every** partition of an eviction pass before the first is parked:
   entity types share indices, and the count must not drain between
   the first type's write and the second's.

Residual I/O that cannot be hidden (first-touch initialisation,
prefetch misses, barrier drains) still lands in ``io_time``;
:class:`PipelineStats` breaks down hits, misses, and stall time.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from repro import telemetry
from repro.config import ConfigSchema
from repro.core import checkpointing
from repro.core.batching import iterate_batches, iterate_chunks  # noqa: F401
from repro.core.model import ChunkStats, EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.graph.buckets import Bucket, bucket_order
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import BucketedEdges, bucket_edges
from repro.graph.storage import (
    CheckpointStorage,
    PartitionPipeline,
    PartitionedEmbeddingStorage,
)
from repro.telemetry.metrics import view

__all__ = [
    "BucketExecutor", "Trainer", "TrainingStats", "EpochStats",
    "PipelineStats", "run_epochs",
]


@dataclass
class PipelineStats:
    """Pipelined-training counters (all zero in serial mode).

    A *hit* is a swap-in served from the partition cache (prefetched or
    retained since its last eviction) — no disk read on the critical
    path. A *miss* is a swap-in that had to read disk synchronously or
    initialise a first-touch partition.
    """

    prefetch_hits: int = 0
    prefetch_misses: int = 0
    #: seconds the main thread waited for in-flight prefetch loads
    prefetch_wait_time: float = 0.0
    #: seconds the main thread was blocked on background writes
    #: (flush-before-reuse, budget evictions, epoch/checkpoint drains)
    writeback_stall_time: float = 0.0
    #: cache entries dropped to stay under ``partition_cache_budget``
    cache_evictions: int = 0

    def merge(self, other: "PipelineStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def since(self, base: "PipelineStats") -> "PipelineStats":
        """Delta snapshot: counters accumulated after ``base`` was
        taken (the pipeline's registry counts monotonically across the
        whole run; per-epoch stats are differences of snapshots)."""
        return PipelineStats(**{
            f.name: getattr(self, f.name) - getattr(base, f.name)
            for f in fields(self)
        })

    @property
    def hit_rate(self) -> float:
        total = self.prefetch_hits + self.prefetch_misses
        return self.prefetch_hits / total if total else 0.0


@dataclass
class EpochStats:
    """Aggregated statistics for one training epoch."""

    epoch: int
    loss: float = 0.0
    num_edges: int = 0
    violations: int = 0
    #: seconds training / moving partitions; in cluster mode these are
    #: machine-seconds, summed over machines
    train_time: float = 0.0
    io_time: float = 0.0
    swaps: int = 0
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    #: the epoch's wallclock, checkpoint and after_epoch excluded
    wall_time: float = 0.0
    #: in-training evaluation (config.eval_fraction > 0): mean MRR of
    #: held-out bucket edges before / after training each bucket,
    #: weighted by held-out edge counts (PBG's per-bucket eval stats).
    eval_mrr_before: float = 0.0
    eval_mrr_after: float = 0.0
    num_eval_edges: int = 0

    @property
    def mean_loss(self) -> float:
        return self.loss / max(self.num_edges, 1)

    def merge(self, other: "EpochStats") -> None:
        """Add another share of the same epoch (one machine's report)."""
        for name in (
            "loss", "num_edges", "violations", "train_time", "io_time",
            "swaps",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.pipeline.merge(other.pipeline)


@dataclass
class TrainingStats:
    """Whole-run statistics of either trainer (:func:`run_epochs`)."""

    epochs: "list[EpochStats]" = field(default_factory=list)
    peak_resident_bytes: int = 0
    total_time: float = 0.0
    #: bytes the swap store holds at run end (compressed size when a
    #: partition codec is configured — the disk column of the benchmark
    #: reports)
    partition_store_bytes: int = 0

    @property
    def total_edges(self) -> int:
        return sum(e.num_edges for e in self.epochs)

    @property
    def epoch_times(self) -> "list[float]":
        return [e.wall_time for e in self.epochs]

    @property
    def edges_per_second(self) -> float:
        busy = sum(e.train_time for e in self.epochs)
        return self.total_edges / busy if busy > 0 else 0.0

    @property
    def pipeline(self) -> PipelineStats:
        """Whole-run pipeline counters (sum over epochs)."""
        total = PipelineStats()
        for e in self.epochs:
            total.merge(e.pipeline)
        return total


class BucketExecutor:
    """One machine's per-bucket algorithm: swap, prefetch, train, flush.

    The caller owns the bucket schedule; see the module docstring for
    the ownership rules every method below relies on.

    Parameters
    ----------
    rng:
        Consumed on the calling thread only: first-touch
        initialisation, batch shuffling, negative sampling, worker
        seeds.
    pipeline:
        Carries all partition I/O. ``None`` when no entity type is
        partitioned: every table was materialised up front and nothing
        ever moves.
    committer:
        Optional ``expect(parts)`` / ``landed(part)`` pair: ``expect``
        gets the partition indices of an eviction pass before the first
        write starts, ``landed`` runs (possibly on the writeback
        thread) as each write lands.
    sync:
        Called on the calling thread after every batch with one worker
        and after the bucket's workers join otherwise (the distributed
        trainer's throttled parameter-server sync).
    """

    def __init__(
        self,
        config: ConfigSchema,
        model: EmbeddingModel,
        entities: EntityStorage,
        rng: np.random.Generator,
        pipeline: "PartitionPipeline | None",
        committer=None,
        sync: Callable[[], object] = lambda: None,
    ) -> None:
        self.config = config
        self.model = model
        self.entities = entities
        self.rng = rng
        self.pipeline = pipeline
        self.committer = committer
        self.sync = sync
        #: entity types always resident (single partition / featurized)
        self.global_types = [
            t
            for t in entities.types
            if t in config.entities and entities.num_partitions(t) == 1
        ]
        #: relation -> its group: same entity types and operator, one call
        kinds = [(r.lhs, r.rhs, r.operator) for r in config.relations]
        self.rel_groups = np.array([kinds.index(kind) for kind in kinds])

    # -- partition movement --------------------------------------------

    def required_partitions(self, bucket: Bucket) -> "set[tuple[str, int]]":
        """(entity_type, part) pairs that must be resident for a bucket."""
        needed = {(entity_type, 0) for entity_type in self.global_types}
        for rel in self.config.relations:
            if self.entities.num_partitions(rel.lhs) > 1:
                needed.add((rel.lhs, bucket.lhs))
            if self.entities.num_partitions(rel.rhs) > 1:
                needed.add((rel.rhs, bucket.rhs))
        return needed

    def swap(self, bucket: Bucket) -> int:
        """Make ``bucket``'s partitions the resident ones; returns how
        many partitions moved (evictions plus swap-ins)."""
        pipe = self.pipeline
        if pipe is None:
            return 0
        needed = self.required_partitions(bucket)
        # In-flight prefetch loads settle first, so cache state is
        # final and the prefetch thread quiescent while tables move.
        pipe.settle()
        moved = self.evict(keep=needed)
        # take() enforces flush-before-reuse and discards staged copies
        # the backend has superseded; a partition that exists nowhere
        # is initialised here, on the calling thread (rule 1).
        for entity_type, part in sorted(needed):
            if self.model.has_table(entity_type, part):
                continue
            got, _ = pipe.take(entity_type, part)
            if got is None:
                self.model.init_partition(entity_type, part, self.rng)
            else:
                self.model.set_table(
                    entity_type, part, DenseEmbeddingTable(*got)
                )
            moved += 1
        return moved

    def evict(self, keep: "set[tuple[str, int]]" = frozenset()) -> int:
        """Park every partitioned resident table not in ``keep``: the
        swap's evictions, the giving-up half of the epoch-end flush,
        and what a machine starved by the lock server does so that the
        partitions it still holds cannot wedge the grid. Returns the
        number parked."""
        keys = [
            key
            for key in self.model.resident_tables()
            if key not in keep and key[0] not in self.global_types
        ]
        committer, delta = self.committer, self.config.writeback_delta
        if committer is not None:
            committer.expect([part for _, part in keys])  # rule 4
        for entity_type, part in keys:
            table = self.model.drop_table(entity_type, part)
            self.pipeline.park(
                entity_type, part, table.weights, table.optimizer.state,
                on_flushed=(
                    None if committer is None
                    else partial(committer.landed, part)
                ),
                # Rows touched since the fetch: a delta-capable backend
                # pushes only those.
                dirty_rows=table.dirty_row_indices() if delta else None,
            )
        return len(keys)

    def prefetch(self, bucket: Bucket) -> None:
        """Schedule background loads for the bucket expected next, to
        overlap with training the current one. Resident partitions need
        no I/O; ones the backend does not have are skipped by the
        prefetch thread and initialised at swap time (rule 2)."""
        if self.pipeline is not None:
            self.pipeline.schedule(
                key
                for key in sorted(self.required_partitions(bucket))
                if not self.model.has_table(*key)
            )

    def flush(self, keep_resident: bool) -> None:
        """Epoch-end barrier: returns once every partitioned resident
        table has durably landed in the backend, so a model assembled
        or checkpointed from it is complete. ``keep_resident`` leaves
        the tables in the model (callbacks and the checkpoint read
        them); otherwise they are evicted."""
        pipe = self.pipeline
        if pipe is None:
            return
        pipe.settle()
        if keep_resident:
            for entity_type, part in self.model.resident_tables():
                if entity_type not in self.global_types:
                    table = self.model.get_table(entity_type, part)
                    pipe.persist(
                        entity_type, part,
                        table.weights, table.optimizer.state,
                    )
        else:
            self.evict()
        pipe.drain()

    # -- accounting ----------------------------------------------------

    def resident_nbytes(self) -> int:
        """Bytes held by the model plus the pipeline's staged entries."""
        nbytes = self.model.resident_nbytes()
        if self.pipeline is not None:
            nbytes += self.pipeline.nbytes()
        return nbytes

    def pipeline_stats(self) -> PipelineStats:
        """The pipeline's counters now (all zero in synchronous mode)."""
        if self.pipeline is None:
            return PipelineStats()
        return view(PipelineStats, self.pipeline.metrics)

    # -- in-bucket training (HOGWILD) ----------------------------------

    def train(self, bucket: Bucket, edges: EdgeList) -> ChunkStats:
        """Train one bucket's edges over its resident partitions."""
        cfg = self.config
        total = ChunkStats()
        batches = iterate_batches(
            edges, cfg.batch_size, self.rng,
            chunk_size=cfg.chunk_size, groups=self.rel_groups,
        )
        if cfg.num_workers == 1:
            for batch in batches:
                total.merge(self._train_batch(bucket, batch, self.rng))
                self.sync()
            return total
        # Lock-free parallel workers over disjoint batch streams.
        batches = list(batches)
        seeds = np.random.SeedSequence(
            int(self.rng.integers(2**63))
        ).spawn(cfg.num_workers)
        worker_rngs = [np.random.default_rng(s) for s in seeds]

        def work(worker_id: int) -> ChunkStats:
            wstats = ChunkStats()
            for b in range(worker_id, len(batches), cfg.num_workers):
                wstats.merge(
                    self._train_batch(
                        bucket, batches[b], worker_rngs[worker_id]
                    )
                )
            return wstats

        with ThreadPoolExecutor(cfg.num_workers) as pool:
            for wstats in pool.map(work, range(cfg.num_workers)):
                total.merge(wstats)
        self.sync()
        return total

    def _train_batch(
        self, bucket: Bucket, batch: EdgeList, rng: np.random.Generator
    ) -> ChunkStats:
        stats = ChunkStats()
        # One model call, one update, per relation group of the batch; the
        # model cuts it into chunks, which share a relation and a pool.
        group = self.rel_groups[batch.rel]
        cuts = np.flatnonzero(group[1:] != group[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(batch)]):
            run = batch[lo:hi]
            rel = self.config.relations[run.rel[0]]
            lhs_part = bucket.lhs if self.entities.num_partitions(rel.lhs) > 1 else 0
            rhs_part = bucket.rhs if self.entities.num_partitions(rel.rhs) > 1 else 0
            stats.merge(self.model.forward_backward_chunk(
                run.rel, run.src, run.dst,
                self.model.get_table(rel.lhs, lhs_part),
                self.model.get_table(rel.rhs, rhs_part),
                rng, edge_weights=run.weights, chunk_size=self.config.chunk_size,
            ))
        return stats


def run_epochs(
    config: ConfigSchema,
    entities: EntityStorage,
    stats: TrainingStats,
    session,
    after_epoch: Callable[[int, TrainingStats], None] | None = None,
) -> TrainingStats:
    """The epoch loop of both trainers; they differ only in ``session``.

    ``session`` is a context manager that brings up what an epoch runs
    on, tears it down on exit, and yields ``(run_epoch, snapshot)``:
    ``run_epoch(epoch)`` trains one epoch and returns its
    :class:`EpochStats`, leaving every partition resident or durably
    stored; ``snapshot()`` returns the complete model. Per epoch: the
    ``epoch`` span around ``run_epoch``, a checkpoint of ``snapshot()``
    when ``config.checkpoint_dir`` is set (paper Figure 2: trainers
    write checkpoints to the shared filesystem), then
    ``after_epoch(epoch, stats)`` — evaluation callbacks may read the
    model (learning curves, Figures 5–7).
    """
    start = time.perf_counter()
    # Arm tracing when the config asks for it and nothing outer (CLI,
    # benchmark, test) already owns a tracer; whoever arms, exports.
    owned_tracer = None
    if config.trace_path and telemetry.active() is None:
        owned_tracer = telemetry.enable()
    telemetry.set_lane("trainer.main")
    try:
        with session as (run_epoch, snapshot):
            for epoch in range(config.num_epochs):
                with telemetry.span("epoch", cat="phase", epoch=epoch):
                    stats.epochs.append(run_epoch(epoch))
                if config.checkpoint_dir is not None:
                    checkpointing.save_model(
                        config.checkpoint_dir, snapshot(), entities,
                        metadata={"epoch": epoch},
                        codec=config.partition_compression,
                    )
                if after_epoch is not None:
                    after_epoch(epoch, stats)
    finally:
        if owned_tracer is not None:
            try:
                owned_tracer.export(config.trace_path)
            finally:
                telemetry.disable()
    stats.total_time = time.perf_counter() - start
    return stats


class Trainer:
    """Partition-aware single-machine trainer.

    Parameters
    ----------
    config:
        Run configuration.
    model:
        The model to train (tables may be empty; the trainer
        initialises partitions lazily on first touch).
    entities:
        Entity counts and partitionings.
    storage:
        Where swapped-out partitions live; used only when some entity
        type has more than one partition. A run has one partition
        store: with ``config.checkpoint_dir`` set it is the
        checkpoint's own (the default), and a directory store rooted
        anywhere else is refused. Without a checkpoint directory the
        caller must supply one.
    """

    def __init__(
        self,
        config: ConfigSchema,
        model: EmbeddingModel,
        entities: EntityStorage,
        storage: PartitionedEmbeddingStorage | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config
        self.model = model
        self.entities = entities
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._partitioned = any(
            entities.num_partitions(t) > 1
            for t in entities.types
            if t in config.entities
        )
        if self._partitioned:
            if config.checkpoint_dir is not None:
                own = CheckpointStorage(
                    config.checkpoint_dir, codec=config.partition_compression
                ).partitions
                if storage is None:
                    storage = own
                elif (
                    isinstance(storage, PartitionedEmbeddingStorage)
                    and storage.root.resolve() != own.root.resolve()
                ):
                    raise ValueError(
                        f"partition store at {storage.root} is not the "
                        f"checkpoint's ({own.root}); a run has one "
                        "partition store, so the checkpoint stays complete"
                    )
            if storage is None:
                raise ValueError(
                    "partitioned training needs a checkpoint_dir or a "
                    "PartitionedEmbeddingStorage to swap evicted partitions"
                )
        self.storage = storage

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def train(
        self,
        edges: EdgeList,
        after_epoch: Callable[[int, "TrainingStats"], None] | None = None,
    ) -> TrainingStats:
        """Run ``config.num_epochs`` over ``edges`` (:func:`run_epochs`)."""
        bucketed = bucket_edges(edges, self.config, self.entities)
        return self.train_bucketed(bucketed, after_epoch=after_epoch)

    def train_bucketed(
        self,
        bucketed: BucketedEdges,
        after_epoch: Callable[[int, "TrainingStats"], None] | None = None,
    ) -> TrainingStats:
        """Train on pre-bucketed edges (see :func:`bucket_edges`)."""
        stats = TrainingStats()
        run_epochs(
            self.config, self.entities, stats,
            self._session(bucketed, stats), after_epoch,
        )
        if self.storage is not None:
            stats.partition_store_bytes = self.storage.nbytes()
        return stats

    @contextmanager
    def _session(self, bucketed: BucketedEdges, stats: TrainingStats):
        pipeline = None
        if self._partitioned:
            pipeline = PartitionPipeline(
                self.storage,
                budget_bytes=self.config.partition_cache_budget,
                synchronous=not self.config.pipeline,
            )
        executor = BucketExecutor(
            self.config, self.model, self.entities, self.rng, pipeline
        )
        self._ensure_global_types(executor.global_types)
        try:
            yield (
                partial(
                    self._run_epoch, bucketed=bucketed, run_stats=stats,
                    executor=executor,
                ),
                # Only the resident partitions: the evicted ones are in
                # the partition store, the checkpoint's own embeddings/.
                lambda: self.model,
            )
        finally:
            if pipeline is not None:
                failing = sys.exc_info()[0] is not None
                try:
                    pipeline.close()
                except Exception:
                    # Teardown after a training failure must not mask
                    # the original exception with a writeback error.
                    if not failing:
                        raise

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------

    def _ensure_global_types(self, global_types: "list[str]") -> None:
        """Materialise single-partition entity types (always resident)."""
        for entity_type in global_types:
            if self.config.entities[entity_type].featurized:
                if not self.model.has_table(entity_type, 0):
                    raise ValueError(
                        f"featurized type {entity_type!r} needs its table "
                        "attached before training (model.set_table)"
                    )
                continue
            if not self.model.has_table(entity_type, 0):
                self.model.init_partition(entity_type, 0, self.rng)

    def _run_epoch(
        self,
        epoch: int,
        bucketed: BucketedEdges,
        run_stats: TrainingStats,
        executor: BucketExecutor,
    ) -> EpochStats:
        start = time.perf_counter()
        estats = EpochStats(epoch=epoch)
        pipe_base = executor.pipeline_stats()
        order = bucket_order(
            self.config.bucket_order,
            bucketed.nparts_lhs,
            bucketed.nparts_rhs,
            self.rng,
        )
        passes = self.config.stratum_passes
        # Stratum passes (paper footnote 3): visit the whole grid
        # `passes` times per epoch, training a disjoint 1/passes slice
        # of each bucket's edges per visit ("stratum losses", Gemulla
        # et al. 2011) — more frequent bucket switching at the cost of
        # proportionally more swaps.
        visits = [
            (stratum, bucket)
            for stratum in range(passes)
            for bucket in order
        ]
        for visit, (stratum, bucket) in enumerate(visits):
            t0 = time.perf_counter()
            with telemetry.span(
                "swap.bucket", cat="stall",
                bucket=f"{bucket.lhs},{bucket.rhs}", epoch=epoch,
            ):
                estats.swaps += executor.swap(bucket)
                if visit + 1 < len(visits):
                    executor.prefetch(visits[visit + 1][1])
            estats.io_time += time.perf_counter() - t0
            run_stats.peak_resident_bytes = max(
                run_stats.peak_resident_bytes, executor.resident_nbytes()
            )
            edges = bucketed.edges_for(bucket)
            if len(edges) == 0:
                continue
            if passes > 1:
                perm = np.random.default_rng(
                    [self.config.seed, epoch, bucket.lhs, bucket.rhs]
                ).permutation(len(edges))
                edges = edges[perm[stratum::passes]]
                if len(edges) == 0:
                    continue
            # Optional in-training evaluation: hold out a fraction of
            # this bucket's edges and measure their ranking quality
            # before and after training the bucket (PBG's eval stats).
            holdout = EdgeList.empty()
            if self.config.eval_fraction > 0 and len(edges) > 1:
                n_hold = max(1, int(self.config.eval_fraction * len(edges)))
                perm = self.rng.permutation(len(edges))
                holdout = edges[perm[:n_hold]]
                edges = edges[perm[n_hold:]]
                before = self._bucket_eval(bucket, holdout)
            t1 = time.perf_counter()
            with telemetry.span(
                "train.bucket", cat="compute",
                bucket=f"{bucket.lhs},{bucket.rhs}", epoch=epoch,
                stratum=stratum,
            ):
                bucket_stats = executor.train(bucket, edges)
            estats.train_time += time.perf_counter() - t1
            if len(holdout):
                after = self._bucket_eval(bucket, holdout)
                estats.eval_mrr_before += before * len(holdout)
                estats.eval_mrr_after += after * len(holdout)
                estats.num_eval_edges += len(holdout)
            estats.loss += bucket_stats.loss
            estats.num_edges += bucket_stats.num_edges
            estats.violations += bucket_stats.violations
        if estats.num_eval_edges:
            estats.eval_mrr_before /= estats.num_eval_edges
            estats.eval_mrr_after /= estats.num_eval_edges
        # Persist the trailing resident partitions so evaluation can
        # reload a complete model; they stay resident for after_epoch
        # callbacks and the checkpoint.
        t0 = time.perf_counter()
        executor.flush(keep_resident=True)
        estats.io_time += time.perf_counter() - t0
        estats.pipeline = executor.pipeline_stats().since(pipe_base)
        estats.wall_time = time.perf_counter() - start
        return estats

    _EVAL_CANDIDATES = 100
    _EVAL_MAX_EDGES = 512

    def _bucket_eval(self, bucket: Bucket, holdout: EdgeList) -> float:
        """Quick in-bucket MRR: rank held-out destinations against
        uniform candidates from the resident destination partition."""
        if len(holdout) > self._EVAL_MAX_EDGES:
            holdout = holdout[: self._EVAL_MAX_EDGES]
        ranks: list[np.ndarray] = []
        for rel_id, chunk in holdout.group_by_relation().items():
            rel = self.config.relations[rel_id]
            lhs_part = (
                bucket.lhs if self.entities.num_partitions(rel.lhs) > 1 else 0
            )
            rhs_part = (
                bucket.rhs if self.entities.num_partitions(rel.rhs) > 1 else 0
            )
            lhs_table = self.model.get_table(rel.lhs, lhs_part)
            rhs_table = self.model.get_table(rel.rhs, rhs_part)
            cand = self.rng.integers(
                0, rhs_table.num_rows,
                size=min(self._EVAL_CANDIDATES, rhs_table.num_rows),
            )
            src_emb = lhs_table.gather(chunk.src)
            pos = self.model.score_pairs(
                rel_id, src_emb, rhs_table.gather(chunk.dst)
            )
            scores = self.model.score_dst_pool(
                rel_id, src_emb, rhs_table.gather(cand)
            )
            scores[cand[None, :] == chunk.dst[:, None]] = -np.inf
            ranks.append(1 + (scores > pos[:, None]).sum(axis=1))
        all_ranks = np.concatenate(ranks)
        return float((1.0 / all_ranks).mean())
