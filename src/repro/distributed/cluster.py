"""Multi-machine training, simulated in-process or across processes.

Each "machine" runs the paper's per-bucket protocol (Figure 2):

1. request a bucket from the lock server;
2. save partitions no longer needed to the sharded partition server,
   fetch the new bucket's partitions (initialise on first touch);
3. train the bucket's edges;
4. synchronise shared parameters with the parameter server
   (throttled, asynchronous w.r.t. other machines);
5. release the bucket.

Two transports are provided:

- ``mode="thread"`` — machines are threads with private parameter
  copies (encode/decode copy). Deterministic-ish and cheap;
  used by tests. Python's GIL serialises compute, so wallclock does
  not shrink with machines in this mode.
- ``mode="process"`` — machines are OS processes; the three servers are
  hosted by a ``multiprocessing`` manager and accessed through proxies,
  so every transfer really crosses a process boundary (pickled encoded
  payloads — an honest stand-in for the paper's TCP transport). The
  scaling benchmarks use this mode: compute parallelism is real.

In both modes the caller is the coordinator, and it runs the
single-machine epoch loop (:func:`~repro.core.trainer.run_epochs`): it
gives the machines an epoch's go-ahead and waits at the drain barrier,
before which each machine queues a report of its share (loss, edges,
swaps, train/io seconds, pipeline counters). The coordinator sums the
reports into the epoch's ``EpochStats``, resets the lock server and,
with ``checkpoint_dir`` set, checkpoints there: the model assembled
from the servers, saved like the single-machine trainer's.

The bucket loop and its two pipeline modes
------------------------------------------

Steps 2–3 and the epoch-end flush are not implemented here: each
machine drives the single-machine trainer's
:class:`~repro.core.trainer.BucketExecutor` (that module's docstring
has the loop, the synchronous / pipelined modes ``config.pipeline``
selects, and the thread-ownership rules) over a
:class:`~repro.graph.storage.PartitionPipeline` backed by a
:class:`~repro.distributed.partition_server.PartitionServerStorage`
adapter instead of disk. This module adds the protocol around it. Its
rules hold in **both** modes — a push lands, and commits, before the
evicting call returns (synchronous) or on the writeback thread, off
the critical path (pipelined):

- **Deferred release (network flush-before-reuse).** A bucket is
  released with ``defer=True``: the lock server keeps its partitions
  unavailable to other machines until their push-backs land and the
  :class:`_PartitionCommitter` calls ``commit_partition``. Releasing
  without deferral is the historical release/fetch race — the push
  happened lazily, at the next swap, so another machine could acquire
  the bucket and fetch the previous, stale version from the server.
- **An index commits after *all* its pushes.** Deferral is keyed by
  partition index and entity types share indices; the committer hears
  of a whole eviction pass before its first push starts (rule 4 of the
  executor's module), so the last type's landing is what commits.
- **A starved machine evicts.** Holding deferred partitions while the
  lock server has no bucket for it, a machine pushes and commits them
  — two starved machines cross-holding each other's next partitions
  must not wedge the grid.
- **Reservation prefetch (pipelined mode only).** After a swap the
  machine asks the lock server to
  :meth:`~repro.distributed.lock_server.LockServer.reserve` its likely
  *next* bucket and prefetches its partitions while the current one
  trains. A reservation lost to another machine's acquire just costs a
  prefetch miss; staged copies are version-checked against the server,
  so a stale prefetch is never consumed.
- **Drain barrier.** The epoch-end flush evicts everything and drains,
  so the partition server is complete and consistent when the
  coordinator checkpoints and runs ``after_epoch``.
- **First touch stays home**, on the owning machine's main thread
  (never the prefetch thread), so with one machine the pipelined run
  is bit-identical to the synchronous one under a fixed seed.
- **HOGWILD workers are per machine** (``config.num_workers``);
  parameter-server syncs stay on the machine's main thread.

Compressed transport
--------------------

All partition-server traffic goes through
:class:`~repro.distributed.partition_server.PartitionServerStorage`,
which owns the codec (``config.partition_compression``): it encodes
what a machine pushes — with ``config.writeback_delta`` only the dirty
rows — and decodes what it fetches, so encoded payloads are what cross
the thread or process boundary and what the server hosts and patches.
Stale deltas degrade to full pushes. The coordinator assembles models
through the same adapter; a shared-parameter sync is one
``ParameterServer.sync`` call.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.managers import BaseManager
from typing import Callable

import numpy as np

from repro import telemetry
from repro.config import ConfigError, ConfigSchema
# Unused here: outside-in instrumentation (benchmarks/perf) rebinds
# these two names on this module as well as on core.trainer.
from repro.core.batching import iterate_batches, iterate_chunks  # noqa: F401
from repro.core.model import EmbeddingModel
from repro.core.tables import DenseEmbeddingTable
from repro.core.trainer import (
    BucketExecutor,
    EpochStats,
    TrainingStats,
    run_epochs,
)
from repro.distributed.lock_server import LockServer
from repro.distributed.parameter_server import (
    ParameterServer,
    SharedParameterClient,
)
from repro.distributed.partition_server import (
    PartitionServer,
    PartitionServerStorage,
)
from repro.graph.buckets import Bucket
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import BucketedEdges, bucket_edges
from repro.graph.storage import PartitionPipeline
from repro.telemetry.metrics import MetricsRegistry, view

__all__ = ["DistributedTrainer", "MachineStats", "DistributedStats"]

_IDLE_SLEEP = 0.002  # seconds between lock-server retries when starved
_BARRIER_TIMEOUT = 3600.0


@dataclass
class MachineStats:
    """Per-machine accounting.

    The pipeline block is all zero in serial (non-pipelined) mode. A
    *prefetch hit* is a bucket partition served from the staging cache
    (prefetched off the reservation, or retained since this machine
    last held it); a *miss* paid a synchronous partition-server fetch
    or a first-touch initialisation; a *stale prefetch* is a staged
    copy discarded because another machine pushed a newer version
    before the bucket was acquired. ``transfer_overlap_time`` is the
    partition-server I/O wall time this machine's background threads
    absorbed off the critical path (total adapter I/O seconds minus the
    swap/flush time still paid inline).

    The wire block is this machine's partition-server traffic in
    *encoded* bytes, read off the payloads that crossed;
    ``wire_bytes_saved`` is how many fp32 bytes the codec and delta
    writeback avoided moving. ``delta_pushes`` counts
    dirty-row writebacks that applied server-side; ``delta_fallbacks``
    counts deltas rejected as stale and degraded to full pushes.
    """

    machine: int
    buckets_trained: int = 0
    num_edges: int = 0
    loss: float = 0.0
    train_time: float = 0.0
    idle_time: float = 0.0
    transfer_time: float = 0.0
    peak_resident_bytes: int = 0
    # Pipelined distributed mode.
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    stale_prefetches: int = 0
    prefetch_wait_time: float = 0.0
    writeback_stall_time: float = 0.0
    transfer_overlap_time: float = 0.0
    reservations: int = 0
    reservation_hits: int = 0
    # Compressed transport (both pipeline modes).
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    wire_bytes_saved: int = 0
    delta_pushes: int = 0
    delta_fallbacks: int = 0


@dataclass
class DistributedStats(TrainingStats):
    """A cluster run's :class:`TrainingStats` (one :class:`EpochStats`
    per epoch, built from every machine's report; ``peak_resident_bytes``
    is the largest machine's) plus each machine's accounting."""

    machines: "list[MachineStats]" = field(default_factory=list)

    @property
    def mean_idle_fraction(self) -> float:
        busy = sum(m.train_time for m in self.machines)
        idle = sum(m.idle_time for m in self.machines)
        return idle / (busy + idle) if busy + idle > 0 else 0.0

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of bucket swap-ins served from the staging caches."""
        return self.pipeline.hit_rate

    @property
    def reservation_accuracy(self) -> float:
        """Fraction of lock-server reservations that predicted the
        bucket actually granted next."""
        hits = sum(m.reservation_hits for m in self.machines)
        total = sum(m.reservations for m in self.machines)
        return hits / total if total else 0.0

    @property
    def wire_bytes_total(self) -> int:
        """Encoded partition-server bytes moved, summed over machines."""
        return sum(
            m.wire_bytes_sent + m.wire_bytes_received for m in self.machines
        )

    @property
    def wire_bytes_saved(self) -> int:
        """fp32 bytes the codec + delta writeback kept off the wire."""
        return sum(m.wire_bytes_saved for m in self.machines)


class _ServerManager(BaseManager):
    """Manager hosting the three coordination servers for process mode."""


_ServerManager.register("LockServer", LockServer)
_ServerManager.register("PartitionServer", PartitionServer)
_ServerManager.register("ParameterServer", ParameterServer)


@dataclass
class _WorkerContext:
    """Everything one machine needs; picklable for process mode
    (under the fork start method it is simply inherited)."""

    machine: int
    config: ConfigSchema
    entities: EntityStorage
    bucketed: BucketedEdges
    unpartitioned_types: "list[str]"


class _PartitionCommitter:
    """Translates writeback completions into lock-server commits.

    A partition index may be parked once per partitioned entity type;
    its lock-server deferral must lift only after *all* of those pushes
    land. ``expect`` registers the pending pushes of one eviction pass
    (main thread, before the first starts — registered one by one, the
    first type's landing would drain the count); ``landed`` (writeback
    thread, or main thread in synchronous mode) commits once the count
    drains. Over-delivery is harmless: ``commit_partition`` is a no-op
    for non-deferred partitions.
    """

    def __init__(self, lock_server, machine: int) -> None:
        self._lock_server = lock_server
        self._machine = machine
        self._lock = threading.Lock()
        self._pending: "dict[int, int]" = {}  # guarded-by: _lock

    def expect(self, parts: "list[int]") -> None:
        with self._lock:
            for part in parts:
                self._pending[part] = self._pending.get(part, 0) + 1

    def landed(self, part: int) -> None:
        with self._lock:
            n = self._pending.get(part, 0) - 1
            if n > 0:
                self._pending[part] = n
                return
            self._pending.pop(part, None)
        self._lock_server.commit_partition(self._machine, part)


def _machine_main(
    ctx: _WorkerContext,
    lock_server,
    partition_server,
    parameter_server,
    barrier,
    result_queue,
) -> None:
    """One machine's full run (works with objects or proxies); every
    epoch ends by queueing an ``("epoch", EpochStats, MachineStats)``
    report, then meeting the drain barrier."""
    cfg = ctx.config
    telemetry.set_lane(f"machine-{ctx.machine}.main")
    # Per-machine registry: the MachineStats shipped to the coordinator
    # is a view of these counters plus the pipeline's and the adapter's,
    # each named after the field it feeds, and of the epoch reports.
    registry = MetricsRegistry()
    c_idle = registry.counter("machine.idle_time")
    c_buckets = registry.counter("machine.buckets_trained")
    c_reservations = registry.counter("machine.reservations")
    c_res_hits = registry.counter("machine.reservation_hits")
    g_resident = registry.gauge("machine.resident_bytes")
    #: wall seconds of partition-server I/O paid on the critical path
    #: (swap-in waits, epoch flush barriers) — the overlap baseline.
    inline_io = 0.0
    pipe = None
    try:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, ctx.machine])
        )
        model = EmbeddingModel(cfg, ctx.entities, rng=rng)
        # Unpartitioned entity types are shared parameters: same init
        # seed on every machine, then the parameter server's canonical
        # copy takes over.
        shared = ctx.unpartitioned_types
        for t in shared:
            model.init_partition(t, 0, np.random.default_rng(cfg.seed))
        client = SharedParameterClient(
            parameter_server,
            get_params=lambda: _shared_snapshot(model, shared),
            set_params=lambda p: _shared_restore(model, p, shared),
            sync_interval=cfg.parameter_sync_interval,
        )
        client.initial_sync()
        # The adapter runs the server's codec, counts wire bytes, tracks
        # delta baselines and guards decoded dtypes.
        backend = PartitionServerStorage(
            partition_server, use_delta=cfg.writeback_delta
        )
        pipe = PartitionPipeline(
            backend,
            budget_bytes=cfg.partition_cache_budget,
            validate=backend.is_current,
            name=f"machine-{ctx.machine}",
            synchronous=not cfg.pipeline,
        )
        executor = BucketExecutor(
            cfg, model, ctx.entities, rng, pipe,
            committer=_PartitionCommitter(lock_server, ctx.machine),
            sync=client.maybe_sync,
        )

        run = EpochStats(epoch=cfg.num_epochs)  # this machine's sums
        for epoch in range(cfg.num_epochs):
            barrier.wait(_BARRIER_TIMEOUT)  # coordinator go-ahead
            report = EpochStats(epoch=epoch)
            pipe_base = executor.pipeline_stats()
            reserved: Bucket | None = None
            while True:
                bucket = lock_server.acquire(ctx.machine)
                if bucket is None:
                    if lock_server.epoch_done():
                        break
                    if barrier.broken:  # a peer died holding a bucket
                        raise threading.BrokenBarrierError
                    executor.evict()  # starved: see module docstring
                    t0 = time.perf_counter()
                    with telemetry.span(
                        "lock.starved", cat="stall", machine=ctx.machine
                    ):
                        time.sleep(_IDLE_SLEEP)
                    c_idle.inc(time.perf_counter() - t0)
                    continue
                bucket = Bucket(*bucket)
                if reserved is not None:
                    if reserved == bucket:
                        c_res_hits.inc()
                    reserved = None
                t0 = time.perf_counter()
                with telemetry.span(
                    "swap.bucket", cat="stall", machine=ctx.machine,
                    bucket=f"{bucket.lhs},{bucket.rhs}",
                ):
                    report.swaps += executor.swap(bucket)
                elapsed = time.perf_counter() - t0
                report.io_time += elapsed
                inline_io += elapsed
                hosted = partition_server.shard_nbytes()[ctx.machine]
                g_resident.set(executor.resident_nbytes() + hosted)
                if cfg.pipeline:
                    # Two-phase protocol: learn the likely next bucket
                    # and pull its partitions from the partition server
                    # while this bucket trains.
                    nxt = lock_server.reserve(ctx.machine)
                    if nxt is not None:
                        reserved = Bucket(*nxt)
                        c_reservations.inc()
                        executor.prefetch(reserved)
                edges = ctx.bucketed.edges_for(bucket)
                t1 = time.perf_counter()
                with telemetry.span(
                    "train.bucket", cat="compute", machine=ctx.machine,
                    bucket=f"{bucket.lhs},{bucket.rhs}",
                ):
                    bstats = executor.train(bucket, edges)
                report.train_time += time.perf_counter() - t1
                report.loss += bstats.loss
                report.num_edges += bstats.num_edges
                report.violations += bstats.violations
                c_buckets.inc()
                lock_server.release(ctx.machine, bucket, defer=True)

            # Flush resident partitions so the epoch-end model is complete.
            t0 = time.perf_counter()
            with telemetry.span(
                "epoch.flush", cat="stall", machine=ctx.machine
            ):
                executor.flush(keep_resident=False)
                inline_io += time.perf_counter() - t0
                client.maybe_sync(force=True)
            report.io_time += time.perf_counter() - t0
            report.pipeline = executor.pipeline_stats().since(pipe_base)
            run.merge(report)
            mstats = view(
                MachineStats, registry, pipe.metrics, backend.metrics,
                machine=ctx.machine,
                loss=run.loss, num_edges=run.num_edges,
                train_time=run.train_time, transfer_time=run.io_time,
                peak_resident_bytes=int(g_resident.max),
                transfer_overlap_time=max(  # see MachineStats
                    0.0, backend.io_seconds.value - inline_io
                ),
            )
            result_queue.put(("epoch", report, mstats))
            barrier.wait(_BARRIER_TIMEOUT)  # epoch end
    except BaseException as exc:
        # Abort first so peers (and the coordinator) fall out of their
        # barrier waits instead of hanging until the timeout; then ship
        # the full traceback — repr(exc) alone made cluster failures
        # undebuggable from the coordinator side.
        tb = traceback.format_exc()
        try:
            barrier.abort()
        finally:
            result_queue.put(
                ("error", f"machine {ctx.machine}: {exc!r}\n{tb}")
            )
    finally:
        if pipe is not None:
            try:
                pipe.close()
            except Exception:
                pass  # teardown must not mask the run's outcome


def _shared_snapshot(
    model: EmbeddingModel, unpartitioned_types: "list[str]"
) -> "dict[str, np.ndarray]":
    params = model.get_shared_params()
    for t in unpartitioned_types:
        params[f"table_{t}"] = model.get_table(t, 0).weights.copy()
    return params


def _shared_restore(
    model: EmbeddingModel,
    params: "dict[str, np.ndarray]",
    unpartitioned_types: "list[str]",
) -> None:
    model.set_shared_params(params)
    for t in unpartitioned_types:
        key = f"table_{t}"
        if key in params:
            np.copyto(model.get_table(t, 0).weights, params[key])


class DistributedTrainer:
    """Train a PBG model on a simulated cluster of ``M`` machines.

    Parameters
    ----------
    config:
        Must have ``num_machines >= 1`` and at least
        ``2 * num_machines`` partitions on partitioned entity types.
    entities:
        Entity counts with partitionings attached.
    mode:
        ``"thread"`` (default; in-process, test-friendly) or
        ``"process"`` (true parallelism; used by scaling benchmarks).
    bandwidth_bytes_per_s:
        Vestigial: must be ``None`` (the frozen benchmark passes it).
    """

    def __init__(
        self,
        config: ConfigSchema,
        entities: EntityStorage,
        mode: str = "thread",
        bandwidth_bytes_per_s: float | None = None,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown mode {mode!r}")
        if bandwidth_bytes_per_s is not None:
            raise ValueError(
                "the modelled NIC is gone: bandwidth_bytes_per_s must be None"
            )
        # Machines train each granted bucket's edges whole and never
        # hold out edges: refuse the single-machine knobs, don't drop them.
        if config.stratum_passes > 1:
            raise ConfigError(
                "stratum_passes > 1 is single-machine only; "
                "DistributedTrainer trains each bucket once per epoch"
            )
        if config.eval_fraction > 0:
            raise ConfigError(
                "eval_fraction > 0 is single-machine only; "
                "DistributedTrainer does no in-training evaluation"
            )
        self.config = config
        self.entities = entities
        self.mode = mode
        self.num_machines = config.num_machines
        # Instantiated per-train() in process mode; kept for inspection
        # in thread mode.
        self.lock_server = None
        self.partition_server = None
        self.parameter_server = None
        self._unpartitioned_types = [
            t
            for t in entities.types
            if t in config.entities and entities.num_partitions(t) == 1
        ]

    # ------------------------------------------------------------------

    def train(
        self,
        edges: EdgeList,
        after_epoch: Callable[[int, DistributedStats], None] | None = None,
    ) -> tuple[EmbeddingModel, DistributedStats]:
        """Run the cluster; returns the assembled model and statistics.

        The epoch loop is :func:`~repro.core.trainer.run_epochs`; its
        checkpoint and ``after_epoch`` run at the drain barrier, outside
        ``stats.epoch_times`` (a callback that needs the model calls
        :meth:`assemble_model`)."""
        bucketed = bucket_edges(edges, self.config, self.entities)
        if bucketed.nparts_lhs != bucketed.nparts_rhs:
            raise ValueError(
                "distributed training expects a square partition grid"
            )
        stats = DistributedStats()
        with self._launch(bucketed) as cluster:
            run_epochs(
                self.config, self.entities, stats,
                self._session(stats, *cluster), after_epoch,
            )
            return self.assemble_model(), stats

    @contextmanager
    def _session(self, stats: DistributedStats, barrier, results, workers):
        """Start the machines; once they exit, raise the coordinator's
        own failure, else every machine failure (with tracebacks)."""
        for w in workers:
            w.start()
        failure = None
        try:
            yield (
                partial(self._run_epoch, stats=stats, barrier=barrier,
                        results=results),
                self.assemble_model,
            )
        except BaseException as exc:
            barrier.abort()  # machines waiting for a go-ahead fall out
            failure = exc
        items, deadline = [], time.monotonic() + 60
        while True:  # drain first: a process exits once its puts are taken
            alive = any(w.is_alive() for w in workers)
            try:
                items.append(results.get(timeout=0.01 if alive else 0))
            except queue_mod.Empty:
                if not alive or time.monotonic() > deadline:
                    break
        errors = [item[1] for item in items if item[0] == "error"]
        stuck = [w.name for w in workers if w.is_alive()]
        if failure is not None and not isinstance(
            failure, threading.BrokenBarrierError
        ):
            raise failure
        if errors:
            raise RuntimeError("machine failure(s):\n" + "\n".join(errors))
        if failure or stuck:
            # The barrier broke (timeout / abort) yet no error arrived —
            # never pretend the state on the servers is a trained model.
            raise RuntimeError(
                "cluster run incomplete"
                + (f", still running: {stuck}" if stuck else "")
            )

    def _run_epoch(
        self, epoch: int, stats: DistributedStats, barrier, results
    ) -> EpochStats:
        """Release the machines, wait at the epoch-end barrier, and sum
        the report each machine queued before reaching it."""
        start = time.perf_counter()
        barrier.wait(_BARRIER_TIMEOUT)  # go-ahead
        barrier.wait(_BARRIER_TIMEOUT)  # every machine flushed
        epoch_stats = EpochStats(
            epoch=epoch, wall_time=time.perf_counter() - start
        )
        reports = [
            results.get(timeout=_BARRIER_TIMEOUT)[1:]
            for _ in range(self.num_machines)
        ]
        for report, _ in reports:
            epoch_stats.merge(report)
        stats.machines = sorted((m for _, m in reports), key=lambda m: m.machine)
        stats.peak_resident_bytes = max(
            m.peak_resident_bytes for m in stats.machines
        )
        self.lock_server.new_epoch()
        return epoch_stats

    @contextmanager
    def _launch(self, bucketed: BucketedEdges):
        """Bring up the three servers and one unstarted worker per
        machine — in this process as threads, or as forked processes
        beside a manager process that hosts the servers; nothing
        outside this method knows which. Yields ``(barrier,
        result_queue, workers)`` and, however the run ends, takes the
        manager down with it."""
        manager = None
        try:
            if self.mode == "process":
                manager = _ServerManager()
                manager.start()
                fork = mp.get_context("fork")
                lock_cls, partition_cls, parameter_cls = (
                    manager.LockServer, manager.PartitionServer,
                    manager.ParameterServer,
                )
                barrier_cls, queue_cls, worker_cls = (
                    fork.Barrier, fork.Queue, fork.Process
                )
            else:
                lock_cls, partition_cls, parameter_cls = (
                    LockServer, PartitionServer, ParameterServer
                )
                barrier_cls, queue_cls, worker_cls = (
                    threading.Barrier, queue_mod.Queue, threading.Thread
                )
            self.lock_server = lock_cls(
                bucketed.nparts_lhs, bucketed.nparts_rhs
            )
            self.partition_server = partition_cls(
                self.num_machines, self.config.partition_compression
            )
            self.parameter_server = parameter_cls(self.num_machines)
            barrier = barrier_cls(self.num_machines + 1)
            result_queue = queue_cls()
            workers = [
                worker_cls(
                    target=_machine_main,
                    args=(
                        _WorkerContext(
                            m, self.config, self.entities, bucketed,
                            self._unpartitioned_types,
                        ),
                        self.lock_server, self.partition_server,
                        self.parameter_server, barrier, result_queue,
                    ),
                    daemon=True,
                )
                for m in range(self.num_machines)
            ]
            yield barrier, result_queue, workers
        finally:
            if manager is not None:
                manager.shutdown()
                # Proxies die with the manager; drop the references.
                self.lock_server = None
                self.partition_server = None
                self.parameter_server = None

    # ------------------------------------------------------------------

    def assemble_model(self) -> EmbeddingModel:
        """Build a complete model from the servers' current state."""
        seed = self.config.seed
        model = EmbeddingModel(
            self.config, self.entities, rng=np.random.default_rng(seed)
        )
        for t in self._unpartitioned_types:
            model.init_partition(t, 0, np.random.default_rng(seed))
        backend = PartitionServerStorage(self.partition_server)
        for entity_type, part in self.partition_server.keys():
            model.set_table(
                entity_type, part,
                DenseEmbeddingTable(*backend.load(entity_type, part)),
            )
        # Any never-stored partitions (untrained) get fresh tables.
        for t in self.config.entities:
            for p in range(self.entities.num_partitions(t)):
                if not model.has_table(t, p):
                    model.init_partition(t, p, np.random.default_rng(seed))
        shared = self.parameter_server.sync(
            dict.fromkeys(self.parameter_server.names())
        )
        model.set_shared_params(shared)
        for t in self._unpartitioned_types:
            key = f"table_{t}"
            if key in shared:
                np.copyto(model.get_table(t, 0).weights, shared[key])
        return model
