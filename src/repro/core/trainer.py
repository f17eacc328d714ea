"""The bucket loop, the epoch loop, and the single-machine trainer.

Implements the paper's Section 4.1 training loop. Each epoch iterates
the edge buckets its schedule hands out; for bucket ``(i, j)`` the
trainer swaps in the source-side partitions ``i`` and destination-side
partitions ``j`` (initialising them on first touch), trains on the
bucket's edges stale by one (where the paper runs HOGWILD threads,
each batch reads the table one update behind, so two lanes train it
without changing a bit), then swaps partitions back before moving on.

With one partition this degenerates to plain minibatch training with
everything resident (its pipeline has no store and nothing to move).
Peak-memory accounting and swap/I/O counters feed the memory columns
of Tables 3 and 4.

One loop, one schedule, one pipeline
------------------------------------

:meth:`BucketExecutor.run_epoch` is the only per-bucket loop and
:class:`Grants` its only schedule: the visits a
:class:`~repro.distributed.lock_server.LockServer` grants from the
epoch's round, :func:`epoch_visits`. This trainer is a lone machine,
granted the drawn list as is; the machines of
:mod:`repro.distributed.cluster` share one server. Beyond that the two
differ only in what a landed write-back triggers (nothing /
``commit_partition``), deferred release, whether the epoch-end flush
keeps tables resident, and the per-batch parameter-server sync. All
partition I/O goes through one
:class:`~repro.graph.storage.PartitionPipeline`, whose byte budget
(:func:`cache_budget`) is the only thing ``config.pipeline`` sets:

- **Budget 0** (``pipeline=False``, the reference the bit-identity
  oracles compare against): no thread is started, nothing is retained,
  and every load, save and first-touch initialisation runs inline on
  the calling thread — swap latency is additive with training time.
- **Budget N or unlimited** (``pipeline=True``): I/O overlaps compute
  (the latency-hiding the paper relies on to keep edges/sec flat as
  partition count grows). A *prefetch* thread loads the partitions of
  the bucket the lock server reserves next (alone, the next visit, so
  inside-out's locality directly turns into prefetch hits) into the
  pipeline's staging area while workers *train* the current bucket;
  evicted partitions are parked there and persisted by a *writeback*
  thread off the critical path.

Ownership rules (who may touch which buffers):

1. The **main thread** owns the model's resident tables: only it
   inserts, drops, or initialises partitions; in a bucket, the ``rng``
   and gathers run only in read turns, updates in update turns
   (:class:`_Lane`). First-touch initialisation never happens on the
   prefetch thread, and every budget swaps in the same sorted order,
   so RNG consumption order — and therefore the trained embeddings —
   are bit-identical across budgets and lane counts under a fixed seed.
2. The **prefetch thread** only reads partition files and stages
   *clean* copies in the pipeline; it never sees the model and treats
   a missing file as "not my problem" (the main thread initialises).
3. The **writeback thread** owns a submitted snapshot until the write
   lands. Arrays handed to it must not be mutated meanwhile; the
   pipeline enforces this by blocking :meth:`PartitionPipeline.take`
   until a pending write of that partition completes
   (flush-before-reuse), and the epoch-end flush drains the whole
   queue before :func:`run_epochs` checkpoints.

Residual I/O that cannot be hidden (first-touch initialisation,
prefetch misses, barrier drains) still lands in ``io_time``;
:class:`PipelineStats` breaks down hits, misses, and stall time.
"""

from __future__ import annotations

import os
import sys
import threading
import time
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
from repro.graph.buckets import Bucket, Visit, bucket_order
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import BucketedEdges, bucket_edges
from repro.graph.storage import (
    CheckpointStorage,
    PartitionPipeline,
    PartitionedEmbeddingStorage,
)
from repro.telemetry.metrics import MetricsRegistry, view

__all__ = [
    "BucketExecutor", "Grants", "Trainer", "TrainingStats", "EpochStats",
    "PipelineStats", "cache_budget", "epoch_visits", "run_epochs",
    "stratum_edges",
]


@dataclass
class PipelineStats:
    """Partition-pipeline counters.

    A *hit* is a swap-in served from the partition cache (prefetched or
    retained since its last eviction) — no disk read on the critical
    path. A *miss* is a swap-in that had to read disk synchronously or
    initialise a first-touch partition. The serial run's cache holds
    zero bytes: every swap-in misses, every eviction counts in
    ``cache_evictions``, and nothing waits.
    """

    prefetch_hits: int = 0
    prefetch_misses: int = 0
    #: seconds the main thread waited for in-flight prefetch loads
    prefetch_wait_time: float = 0.0
    #: seconds the main thread was blocked on background writes
    #: (flush-before-reuse, budget evictions, epoch-end drains)
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
    #: in-training evaluation (config.eval_fraction > 0): reciprocal
    #: ranks of held-out bucket edges before / after training each
    #: bucket, summed (PBG's per-bucket eval stats)
    eval_rr_before: float = 0.0
    eval_rr_after: float = 0.0
    num_eval_edges: int = 0

    @property
    def mean_loss(self) -> float:
        return self.loss / max(self.num_edges, 1)

    @property
    def eval_mrr_before(self) -> float:
        return self.eval_rr_before / max(self.num_eval_edges, 1)

    @property
    def eval_mrr_after(self) -> float:
        return self.eval_rr_after / max(self.num_eval_edges, 1)

    def merge(self, other: "EpochStats") -> None:
        """Add another share of the same epoch (a machine's report, a pass)."""
        for name in (
            "loss", "num_edges", "violations", "train_time", "io_time",
            "swaps", "eval_rr_before", "eval_rr_after", "num_eval_edges",
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

    :meth:`run_epoch` drives it over the caller's bucket schedule; see
    the module docstring for the ownership rules every method below
    relies on.

    Parameters
    ----------
    rng:
        Consumed on the calling thread and in read turns (rule 1):
        first-touch initialisation, batch shuffling, negative sampling.
    pipeline:
        Carries all partition I/O. When no entity type is partitioned
        every table was materialised up front and nothing ever moves:
        a zero-budget pipeline over no store.
    committer:
        Optional ``held(part)`` / ``landed(part)`` pair: ``held`` runs
        on the calling thread as a partition is swapped in (taken or
        initialised), ``landed`` (possibly on the writeback thread) as
        the write of its evicted copy lands.
    sync:
        Called after every update, in its turn (the distributed
        trainer's throttled parameter-server sync).
    name:
        The prefix of its lanes' thread names.
    """

    def __init__(
        self,
        config: ConfigSchema,
        model: EmbeddingModel,
        entities: EntityStorage,
        rng: np.random.Generator,
        pipeline: PartitionPipeline,
        committer=None,
        sync: Callable[[], object] = lambda: None,
        name: str = "trainer",
    ) -> None:
        self.config = config
        self.model = model
        self.entities = entities
        self.rng = rng
        self.pipeline = pipeline
        self.committer = committer
        self.sync = sync
        #: threads a bucket trains on; machines sharing a host take one
        self.lanes = host_lanes() if config.num_machines == 1 else 1
        self.name = name
        #: entity types always resident (single partition / featurized)
        self.global_types = entities.unpartitioned_types(config.entities)
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
            if self.committer is not None:
                self.committer.held(part)
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
        committer = self.committer
        for entity_type, part in keys:
            table = self.model.drop_table(entity_type, part)
            self.pipeline.park(
                entity_type, part, table.weights, table.optimizer.state,
                on_flushed=(
                    None if committer is None
                    else partial(committer.landed, part)
                ),
                # Rows touched since the fetch: the backend decides
                # whether to push only those.
                dirty_rows=table.dirty_row_indices(),
            )
        return len(keys)

    def prefetch(self, bucket: Bucket) -> None:
        """Schedule background loads for the bucket expected next, to
        overlap with training the current one. Resident partitions need
        no I/O; ones the backend does not have are skipped by the
        prefetch thread and initialised at swap time (rule 2)."""
        self.pipeline.schedule(
            key
            for key in sorted(self.required_partitions(bucket))
            if not self.model.has_table(*key)
        )

    def flush(self, keep_resident: bool) -> None:
        """Epoch-end barrier: returns once every write of the epoch has
        landed, so a model assembled or checkpointed from the backend
        is complete. ``keep_resident`` leaves the partitioned tables in
        the model (callbacks and the checkpoint read them) and persists
        them, unless ``config.checkpoint_dir`` is set: the checkpoint
        :func:`run_epochs` writes next stores them in this same store,
        once. Otherwise they are evicted. At budget 0 each write has
        landed when the call that made it returns: nothing is left to
        drain."""
        pipe = self.pipeline
        pipe.settle()
        if not keep_resident:
            self.evict()
        elif self.config.checkpoint_dir is None:
            for entity_type, part in self.model.resident_tables():
                if entity_type not in self.global_types:
                    table = self.model.get_table(entity_type, part)
                    pipe.persist(
                        entity_type, part,
                        table.weights, table.optimizer.state,
                    )
        if pipe.budget_bytes != 0:
            pipe.drain()

    # -- the bucket loop ------------------------------------------------

    def run_epoch(self, epoch: int, schedule, keep_resident: bool) -> EpochStats:
        """Train one epoch over the buckets ``schedule`` hands out.

        Iterating ``schedule`` yields ``(bucket, edges)`` per visit, or
        ``None`` when it has no bucket for now: the loop then gives up
        every partition it holds (timed as I/O) and asks again.
        ``schedule.swapped()`` runs after each swap and names the bucket
        to prefetch (or ``None``). A bucket without edges is swapped but
        not trained. The epoch ends with :meth:`flush`.
        """
        start = time.perf_counter()
        stats = EpochStats(epoch=epoch)
        pipe_base = self.pipeline_stats()
        for visit in schedule:
            t0 = time.perf_counter()
            if visit is None:
                self.evict()
                stats.io_time += time.perf_counter() - t0
                continue
            bucket, edges = visit
            label = f"{bucket.lhs},{bucket.rhs}"
            with telemetry.span("swap.bucket", cat="stall", bucket=label, epoch=epoch):
                stats.swaps += self.swap(bucket)
            stats.io_time += time.perf_counter() - t0
            nxt = schedule.swapped()
            if nxt is not None:
                self.prefetch(nxt)
            if len(edges) == 0:
                continue
            # Optional in-training eval (PBG's eval stats): rank a held-out
            # fraction of the bucket's edges before and after training it.
            holdout = EdgeList.empty()
            if self.config.eval_fraction > 0 and len(edges) > 1:
                n_hold = max(1, int(self.config.eval_fraction * len(edges)))
                perm = self.rng.permutation(len(edges))
                holdout, edges = edges[perm[:n_hold]], edges[perm[n_hold:]]
                before = self._bucket_eval(bucket, holdout)
            t1 = time.perf_counter()
            with telemetry.span("train.bucket", cat="compute", bucket=label, epoch=epoch):
                trained = self.train(bucket, edges)
            stats.train_time += time.perf_counter() - t1
            if len(holdout):
                stats.eval_rr_before += before * len(holdout)
                stats.eval_rr_after += self._bucket_eval(bucket, holdout) * len(holdout)
                stats.num_eval_edges += len(holdout)
            stats.loss += trained.loss
            stats.num_edges += trained.num_edges
            stats.violations += trained.violations
        t0 = time.perf_counter()
        with telemetry.span("epoch.flush", cat="stall", epoch=epoch):
            self.flush(keep_resident)
        stats.io_time += time.perf_counter() - t0
        stats.pipeline = self.pipeline_stats().since(pipe_base)
        stats.wall_time = time.perf_counter() - start
        return stats

    _EVAL_CANDIDATES = 100
    _EVAL_MAX_EDGES = 512

    def _bucket_eval(self, bucket: Bucket, holdout: EdgeList) -> float:
        """Quick in-bucket MRR: rank held-out destinations against
        uniform candidates from the resident destination partition."""
        holdout = holdout[: self._EVAL_MAX_EDGES]
        ranks: list[np.ndarray] = []
        for rel_id, chunk in holdout.group_by_relation().items():
            lhs_table, rhs_table = self._tables(rel_id, bucket)
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
        return float((1.0 / np.concatenate(ranks)).mean())

    # -- accounting ----------------------------------------------------

    def resident_nbytes(self) -> int:
        """Bytes held by the model plus the pipeline's staged entries."""
        return self.model.resident_nbytes() + self.pipeline.nbytes()

    def pipeline_stats(self) -> PipelineStats:
        """The pipeline's counters now."""
        return view(PipelineStats, self.pipeline.metrics)

    # -- in-bucket training (stale-by-one lanes) -------------------------

    def train(self, bucket: Bucket, edges: EdgeList) -> ChunkStats:
        """Train one bucket's edges over its resident partitions: batch
        ``b`` on lane ``b % lanes`` (:class:`_Lane`)."""
        batches = list(iterate_batches(
            edges, self.config.batch_size, self.rng,
            chunk_size=self.config.chunk_size, groups=self.rel_groups,
        ))
        groups = [self.rel_groups[batch.rel] for batch in batches]
        first = np.cumsum([0] + [1 + np.count_nonzero(np.diff(g)) for g in groups])
        done = [threading.Event() for _ in range(2 * first[-1])]  # turns
        # From three batches: over P = 16 of dense_social's graph (one or two
        # a bucket) two lanes lost 18 % an epoch to interpreter-lock waits.
        lanes = self.lanes if len(batches) >= 3 else 1
        stats: "list[ChunkStats]" = [None] * len(batches)
        failures: "list[BaseException]" = []  # the first is the cause

        def lane(k: int) -> None:  # runs-on: lane
            mine = _Lane(done, failures, self.sync)
            try:
                for b in range(k, len(batches), lanes):
                    stats[b] = self._train_batch(bucket, batches[b], self.rng, mine, first[b])
                mine.flush()
            except BaseException as exc:
                failures.append(exc)
                for event in done:  # the other lanes raise, never hang
                    event.set()

        helpers = [threading.Thread(target=lane, args=(k,), name=f"{self.name}-lane-{k}")
                   for k in range(1, lanes)]
        for helper in helpers:
            helper.start()
        lane(0)
        for helper in helpers:
            helper.join()
        if failures:
            raise failures[0]
        total = ChunkStats()
        for batch_stats in stats:  # in batch order, whatever the lanes
            total.merge(batch_stats)
        return total

    def _train_batch(
        self, bucket: Bucket, batch: EdgeList, rng: np.random.Generator,
        lane: "_Lane | None" = None, step: int = 0,
    ) -> ChunkStats:
        stats = ChunkStats()
        # One model call, one update, per relation group of the batch (on
        # ``lane``, calls ``step``, ``step + 1``, ...); the model cuts it
        # into chunks, which share a relation and a pool.
        group = self.rel_groups[batch.rel]
        cuts = np.flatnonzero(group[1:] != group[:-1]) + 1
        for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(batch)])):
            run = batch[lo:hi]
            stats.merge(self.model.forward_backward_chunk(
                run.rel, run.src, run.dst, *self._tables(run.rel[0], bucket),
                rng, edge_weights=run.weights, chunk_size=self.config.chunk_size,
                turn=None if lane is None else lane.wait(step + i),
            ))
        return stats

    def _tables(self, rel_id: int, bucket: Bucket):
        """The resident (lhs, rhs) tables of relation ``rel_id`` in ``bucket``."""
        rel = self.config.relations[rel_id]
        parts = self.entities.num_partitions
        return (
            self.model.get_table(rel.lhs, bucket.lhs if parts(rel.lhs) > 1 else 0),
            self.model.get_table(rel.rhs, bucket.rhs if parts(rel.rhs) > 1 else 0),
        )


def host_lanes() -> int:
    """Lanes for a lone machine: 2 with at least two usable CPUs, else 1."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else [0]
    return 2 if len(usable) >= 2 else 1


class _Lane:
    """One thread's model calls, and the ``turn`` the model takes. Call
    ``s`` reads (negatives, relation parameters, rows) after call ``s -
    1``'s read and ``s - 2``'s update (and ``sync``), before ``s - 1``'s
    update: turns ``R0 R1 U0 R2 U1 ...``, turn ``t`` after ``done[t -
    1]``; this order fixes every bit. A lane runs the update it holds
    before its next read, or after it if that read makes it due."""

    def __init__(self, done, failures, sync) -> None:
        self.done, self.failures, self.sync = done, failures, sync
        self.step, self.held = 0, None

    def _turn(self, t: int) -> int:  # runs-on: lane
        if t and not self.done[t - 1].is_set():
            with telemetry.span("train.turn", cat="stall", turn=t):
                self.done[t - 1].wait()
        if self.failures:
            raise RuntimeError("another lane of this bucket failed")
        return t

    def wait(self, s: int) -> "_Lane":  # runs-on: lane
        if self.held is not None and self.held[0] != s - 1:
            self.flush()
        self._turn(max(2 * s - 1, 0))
        self.step = s
        return self

    def read_done(self) -> None:  # runs-on: lane
        self.done[max(2 * self.step - 1, 0)].set()
        self.flush()

    def update(self, apply: Callable[[], object]) -> None:  # runs-on: lane
        self.held = (self.step, apply)

    def flush(self) -> None:  # runs-on: lane
        if self.held is not None:
            (s, apply), self.held = self.held, None
            t = self._turn(min(2 * s + 2, len(self.done) - 1))
            apply()
            self.sync()
            self.done[t].set()


@dataclass
class Grants:
    """A machine's schedule: the visits ``lock_server`` grants it in the
    epoch's round, each with its :func:`stratum_edges`, released when
    the loop asks for the next (deferred if a committer will lift it).
    Starved, it has the loop evict, then waits for a grant or the
    round's end; when its pipeline can prefetch (budget other than 0),
    it reserves the next visit to prefetch.
    ``registry`` gets the ``machine.*`` counters and the
    ``resident_bytes()`` gauge, set after each swap."""

    machine: int
    executor: BucketExecutor
    bucketed: BucketedEdges
    lock_server: object
    registry: MetricsRegistry
    epoch: int
    resident_bytes: Callable[[], int]
    reserved: "Visit | None" = None

    def __iter__(self):
        locks, machine, count = self.lock_server, self.machine, self.registry.counter
        defer = self.executor.committer is not None
        while True:
            granted = locks.acquire(machine)
            if granted is None:
                if not locks.remaining_count():
                    return  # the round is granted out
                yield None  # starved: the loop evicts (run_epoch)
                t0 = time.perf_counter()
                with telemetry.span("lock.starved", cat="stall", machine=machine):
                    granted = locks.acquire(machine, wait=True)
                count("machine.idle_time").inc(time.perf_counter() - t0)
                if granted is None:
                    return
            if self.reserved == granted:  # swapped() reserved it
                count("machine.reservation_hits").inc()
            count("machine.buckets_trained").inc()
            yield granted.bucket, stratum_edges(
                self.bucketed, granted.bucket, self.executor.config,
                self.epoch, granted.stratum,
            )
            locks.release(machine, granted, defer=defer)

    def swapped(self) -> "Visit | None":
        self.registry.gauge("machine.resident_bytes").set(self.resident_bytes())
        # Two-phase protocol: pull the likely next bucket while this trains.
        if self.executor.pipeline.budget_bytes != 0:
            self.reserved = self.lock_server.reserve(self.machine)
            if self.reserved is not None:
                self.registry.counter("machine.reservations").inc()
        return self.reserved


def cache_budget(config: ConfigSchema) -> "int | None":
    """A trainer's pipeline budget: 0 (serial) unless ``config.pipeline``."""
    return config.partition_cache_budget if config.pipeline else 0


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
        # Partitioned unless every configured type is unpartitioned.
        configured = [t for t in entities.types if t in config.entities]
        self._partitioned = entities.unpartitioned_types(config.entities) != configured
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
        # Imported here: repro.distributed imports this module.
        from repro.distributed.lock_server import LockServer

        pipeline = PartitionPipeline(
            self.storage,
            budget_bytes=cache_budget(self.config) if self._partitioned else 0,
        )
        executor = BucketExecutor(
            self.config, self.model, self.entities, self.rng, pipeline
        )
        self._ensure_global_types(executor.global_types)
        grid = bucketed.nparts_lhs, bucketed.nparts_rhs
        locks, registry = LockServer(*grid), MetricsRegistry()  # no peers

        def run_epoch(epoch: int) -> EpochStats:
            locks.new_epoch(epoch_visits(self.config, *grid, epoch))
            grants = Grants(0, executor, bucketed, locks, registry, epoch,
                            executor.resident_nbytes)
            # The flushed tables stay resident for after_epoch
            # callbacks and the checkpoint.
            epoch_stats = executor.run_epoch(epoch, grants, keep_resident=True)
            stats.peak_resident_bytes = int(
                registry.gauge("machine.resident_bytes").max
            )
            return epoch_stats

        try:
            # Only the resident partitions: the evicted ones are in the
            # partition store, the checkpoint's own embeddings/.
            yield run_epoch, lambda: self.model
        finally:
            failing = sys.exc_info()[0] is not None
            try:
                pipeline.close()
            except Exception:
                # Teardown after a training failure must not mask the
                # original exception with a writeback error.
                if not failing:
                    raise

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


def stratum_edges(
    bucketed: BucketedEdges, bucket: Bucket, config: ConfigSchema, epoch: int, stratum: int
) -> EdgeList:
    """``bucket``'s edges for pass ``stratum`` of ``epoch``: slice
    ``stratum`` of ``config.stratum_passes`` disjoint slices that cover
    it, drawn from ``[seed, epoch, lhs, rhs]`` alone, so any machine
    granted the visit trains the same slice (paper footnote 3, Gemulla
    et al.'s "stratum losses": more bucket switches, more swaps). One
    pass: the whole bucket."""
    edges = bucketed.edges_for(bucket)
    passes = config.stratum_passes
    if passes > 1 and len(edges):
        perm = np.random.default_rng(
            [config.seed, epoch, bucket.lhs, bucket.rhs]
        ).permutation(len(edges))
        edges = edges[perm[stratum::passes]]
    return edges


def epoch_visits(
    config: ConfigSchema, nparts_lhs: int, nparts_rhs: int, epoch: int
) -> "list[Visit]":
    """Epoch ``epoch``'s round: ``config.bucket_order`` drawn once from
    ``[seed, epoch]`` alone (so both trainers draw the same
    permutation), repeated for each of ``config.stratum_passes``."""
    order = bucket_order(
        config.bucket_order, nparts_lhs, nparts_rhs,
        np.random.default_rng([config.seed, epoch]),
    )
    return [
        Visit(b.lhs, b.rhs, stratum)
        for stratum in range(config.stratum_passes)
        for b in order
    ]
