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

In both modes the caller is the coordinator: workers meet a barrier at
each epoch end; the coordinator flushes learning-curve evaluations,
resets the lock server, and releases the next epoch.

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
  so the partition server is complete and consistent before the
  coordinator assembles a model or checkpoints.
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
from repro.core.trainer import BucketExecutor
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
class DistributedStats:
    """Whole-cluster run statistics."""

    machines: "list[MachineStats]" = field(default_factory=list)
    total_time: float = 0.0
    epoch_times: "list[float]" = field(default_factory=list)

    @property
    def peak_machine_bytes(self) -> int:
        """Max over machines of resident + hosted-shard memory."""
        return max((m.peak_resident_bytes for m in self.machines), default=0)

    @property
    def total_edges(self) -> int:
        return sum(m.num_edges for m in self.machines)

    @property
    def mean_idle_fraction(self) -> float:
        busy = sum(m.train_time for m in self.machines)
        idle = sum(m.idle_time for m in self.machines)
        return idle / (busy + idle) if busy + idle > 0 else 0.0

    @property
    def prefetch_hit_rate(self) -> float:
        """Fraction of bucket swap-ins served from the staging caches."""
        hits = sum(m.prefetch_hits for m in self.machines)
        total = hits + sum(m.prefetch_misses for m in self.machines)
        return hits / total if total else 0.0

    @property
    def reservation_accuracy(self) -> float:
        """Fraction of lock-server reservations that predicted the
        bucket actually granted next."""
        hits = sum(m.reservation_hits for m in self.machines)
        total = sum(m.reservations for m in self.machines)
        return hits / total if total else 0.0

    @property
    def transfer_overlap_seconds(self) -> float:
        """Partition-server transfer seconds hidden behind compute,
        summed over machines."""
        return sum(m.transfer_overlap_time for m in self.machines)

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
    """One machine's full run (works with objects or proxies)."""
    cfg = ctx.config
    telemetry.set_lane(f"machine-{ctx.machine}.main")
    # Per-machine registry: the MachineStats shipped to the coordinator
    # is a view of these counters plus the pipeline's and the adapter's,
    # each named after the field it feeds.
    registry = MetricsRegistry()
    c_train = registry.counter("machine.train_time")
    c_transfer = registry.counter("machine.transfer_time")
    c_idle = registry.counter("machine.idle_time")
    c_loss = registry.counter("machine.loss")
    c_edges = registry.counter("machine.num_edges")
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

        for _epoch in range(cfg.num_epochs):
            reserved: Bucket | None = None
            while True:
                bucket = lock_server.acquire(ctx.machine)
                if bucket is None:
                    if lock_server.epoch_done():
                        break
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
                    executor.swap(bucket)
                elapsed = time.perf_counter() - t0
                c_transfer.inc(elapsed)
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
                c_train.inc(time.perf_counter() - t1)
                c_loss.inc(bstats.loss)
                c_edges.inc(bstats.num_edges)
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
            c_transfer.inc(time.perf_counter() - t0)
            barrier.wait(_BARRIER_TIMEOUT)  # epoch end
            barrier.wait(_BARRIER_TIMEOUT)  # coordinator go-ahead
        mstats = view(
            MachineStats, registry, pipe.metrics, backend.metrics,
            machine=ctx.machine,
            peak_resident_bytes=int(g_resident.max),
            # Partition-server I/O hidden behind compute: total adapter
            # I/O seconds minus what was still paid inline (swap waits,
            # flush barriers) — parameter-server sync is excluded. In
            # synchronous mode all of it is inline.
            transfer_overlap_time=max(
                0.0, backend.io_seconds.value - inline_io
            ),
        )
        result_queue.put(("ok", mstats))
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
        self._partitioned_types = [
            t
            for t in entities.types
            if t in config.entities and entities.num_partitions(t) > 1
        ]

    # ------------------------------------------------------------------

    def train(
        self,
        edges: EdgeList,
        after_epoch: Callable[[int, EmbeddingModel], None] | None = None,
    ) -> tuple[EmbeddingModel, DistributedStats]:
        """Run the cluster; returns the assembled model and statistics.

        ``after_epoch(epoch, model)`` runs in the coordinator (this
        process) with a freshly assembled model while the machines wait
        at the epoch barrier — its cost is excluded from epoch times.
        """
        bucketed = bucket_edges(edges, self.config, self.entities)
        if bucketed.nparts_lhs != bucketed.nparts_rhs:
            raise ValueError(
                "distributed training expects a square partition grid"
            )

        with self._launch(bucketed) as (barrier, result_queue, workers):
            stats = DistributedStats()
            #: live view of the running stats (epoch_times grows as
            #: epochs complete) — learning-curve callbacks read this.
            self.current_stats = stats
            start = time.perf_counter()
            epoch_start = start
            for w in workers:
                w.start()
            barrier_broken = False
            try:
                for epoch in range(self.config.num_epochs):
                    barrier.wait(_BARRIER_TIMEOUT)  # workers hit epoch end
                    stats.epoch_times.append(
                        time.perf_counter() - epoch_start
                    )
                    if after_epoch is not None:
                        after_epoch(epoch, self.assemble_model())
                    self.lock_server.new_epoch()
                    epoch_start = time.perf_counter()
                    barrier.wait(_BARRIER_TIMEOUT)  # release next epoch
            except threading.BrokenBarrierError:
                barrier_broken = True  # a worker failed; surface below
            except Exception:
                barrier.abort()
                raise
            finally:
                results: list = []
                deadline = time.monotonic() + 120
                while len(results) < self.num_machines:
                    try:
                        results.append(
                            result_queue.get(
                                timeout=max(0.1, deadline - time.monotonic())
                            )
                        )
                    except queue_mod.Empty:
                        break
                for w in workers:
                    w.join(timeout=30)
            errors = [r[1] for r in results if r[0] == "error"]
            if errors:
                raise RuntimeError(f"machine failure(s): {errors}")
            if barrier_broken or len(results) < self.num_machines:
                # The barrier broke (timeout / abort) or a worker never
                # reported, yet no error result arrived — never pretend
                # the partial state on the servers is a trained model.
                stuck = [w.name for w in workers if w.is_alive()]
                raise RuntimeError(
                    f"cluster run incomplete: {len(results)}/"
                    f"{self.num_machines} machine results"
                    + (f", still running: {stuck}" if stuck else "")
                )
            stats.machines = sorted(
                (r[1] for r in results), key=lambda m: m.machine
            )
            stats.total_time = time.perf_counter() - start
            return self.assemble_model(), stats

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
                            machine=m,
                            config=self.config,
                            entities=self.entities,
                            bucketed=bucketed,
                            unpartitioned_types=self._unpartitioned_types,
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
        for t in self._partitioned_types:
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
