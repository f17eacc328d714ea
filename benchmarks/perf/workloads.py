"""The four workloads: seeded inputs, the run, and its output checks.

Each ``run_*`` function generates its inputs from the seed, sets the
program up (several times — ``setup_s`` is the median), drives it
through its public API on real files / real IPC, checks what came out,
and returns a :class:`Result`. Why these four, and what each one
bypasses, is recorded in ``BENCHMARK.json`` and the README.

Work is sized from ``--seconds`` by a nominal per-unit cost, not by a
deadline: the number of epochs / query batches — and with it the model
quality and the sample counts — is the same on every machine.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import (
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    single_entity_config,
)
from repro.core.checkpointing import load_model
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.datasets.knowledge import knowledge_graph
from repro.datasets.social import livejournal_like, youtube_like
from repro.distributed.cluster import DistributedTrainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import bucket_edges, partition_entities
from repro.graph.storage import PartitionedEmbeddingStorage
from repro.serving import (
    IVFPQIndex,
    QueryService,
    SnapshotManager,
    publish_embeddings,
)

__all__ = [
    "WORKLOADS", "QUICK_SECONDS", "TIMED_SECTION", "Result", "RunContext",
    "tail",
]

DIM = 64
K = 10
EVAL_EDGES = 5000
EVAL_CANDIDATES = 1000
#: held-out MRR must beat 20x the 1/candidates of a random ranking
MIN_MRR = 20.0 / EVAL_CANDIDATES
MIN_RECALL = 0.95

_TRAIN_KWARGS = dict(
    dimension=DIM, batch_size=1000, chunk_size=100,
    num_batch_negs=50, num_uniform_negs=50,
)

#: the benchmark's own span around what ``wall_s`` measures
TIMED_SECTION = "harness.timed_section"

#: ``--quick`` is a one-second run of the ~1/20-size graphs below
QUICK_SECONDS = 1.0

# ``epoch_s`` / ``*_per_s`` are the nominal costs that turn --seconds
# into a unit count. Full-size epochs last 2.5-3 s, so a 20 s run holds
# one warm-up epoch and six measured ones; the traced run spends the
# same budget on fewer epochs (``traced_epoch_s``), and the traced
# distributed run, whose machines share one interpreter lock, on
# fewer still.
SIZES = {
    "dense_social": {
        False: dict(
            num_nodes=20_000, epoch_s=2.8, traced_epoch_s=4.5, setups=15,
        ),
        True: dict(
            num_nodes=1_000, epoch_s=0.3, traced_epoch_s=0.3, setups=3,
        ),
    },
    "partitioned_disk": {
        False: dict(
            num_nodes=80_000, epoch_s=2.9, traced_epoch_s=4.5, setups=15,
        ),
        True: dict(
            num_nodes=4_000, epoch_s=0.3, traced_epoch_s=0.3, setups=3,
        ),
    },
    "distributed_kg": {
        False: dict(
            num_entities=130_000, num_edges=325_000, relations=20,
            epoch_s=2.9, traced_epoch_s=6.5, setups=9,
        ),
        True: dict(
            num_entities=6_000, num_edges=8_000, relations=5,
            epoch_s=0.3, traced_epoch_s=0.3, setups=3,
        ),
    },
    "serve_knn": {
        False: dict(
            blobs=32, per_blob=3125, num_lists=256,
            warm_exact=20, exact_per_s=5.0, warm_ivf=50, ivf_per_s=52.5,
            setups=3,
        ),
        True: dict(
            blobs=8, per_blob=625, num_lists=32,
            warm_exact=5, exact_per_s=20.0, warm_ivf=10, ivf_per_s=100.0,
            setups=2,
        ),
    },
}


@dataclass
class RunContext:
    """What one child run was asked to do."""

    seed: int
    seconds: float
    quick: bool
    work_dir: Path
    #: spans.Recorder / probes.Probes, in the traced run only
    recorder: "object | None" = None
    probes: "object | None" = None

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def span(self, name: str):
        return self.recorder.span(name) if self.traced else nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as a span of the benchmark's own;
        returns ``(result, seconds)``."""
        t0 = time.perf_counter()
        with self.span(name):
            out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def install(self, *groups: str) -> None:
        if self.probes is not None:
            self.probes.install(groups)

    def remove(self) -> None:
        if self.probes is not None:
            self.probes.remove()


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    checks: "dict[str, bool]" = field(default_factory=dict)
    #: end-to-end metrics, by the names in BENCHMARK.json
    metrics: "dict[str, float]" = field(default_factory=dict)
    #: per-layer numbers the benchmark timed itself or read from the
    #: program's public stats objects (traced or not)
    layers: "dict[str, float]" = field(default_factory=dict)
    #: raw timing samples (seconds) behind the medians
    samples: "dict[str, list[float]]" = field(default_factory=dict)


def tail(samples: "list[float]") -> "tuple[str, float]":
    """The highest percentile with at least ten samples beyond it, as
    ``(label, value)``. Under a hundred samples there is none; the tail
    is then the interpolated p90 — of six epochs, the mean of the two
    slowest. (Their bare maximum moved by 15 % of the median between
    identical runs: one disk or scheduler hiccup per run decides it.)"""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            break
    else:
        pct = 90.0
    return f"p{pct:g}", float(np.percentile(samples, pct))


def _timing_metrics(
    result: Result, setups: "list[float]", units: "list[float]",
    steady_s: float, wall: float, throughput: float,
) -> None:
    """End-to-end timing metrics of a timed section of ``wall`` seconds
    whose steady-state part took ``steady_s``; ``units`` are the
    durations (epochs, query batches) the latency metrics describe."""
    result.metrics["setup_s"] = statistics.median(setups)
    result.metrics["wall_s"] = wall
    result.metrics["throughput_per_s"] = throughput
    result.metrics["unit_p50_ms"] = statistics.median(units) * 1e3
    result.metrics["unit_tail_ms"] = tail(units)[1] * 1e3
    # Everything in the timed section that is not steady state: lazy
    # first-touch work, process start-up, the warm-up units. One sample
    # per run, so too noisy to carry a bound (IQR up to 28 % of the
    # median on a busy host); wall_s carries it instead.
    result.layers["harness.warmup_s"] = wall - steady_s
    result.samples["setup_s"] = setups
    result.samples["unit_s"] = units


def _training_metrics(
    result: Result, setups: "list[float]", epoch_walls: "list[float]",
    wall: float, num_train: int, trained_edges: int,
) -> None:
    steady = epoch_walls[1:]  # epoch 0 initialises partitions lazily
    _timing_metrics(
        result, setups, steady, sum(steady), wall,
        num_train / statistics.median(steady),
    )
    result.attempted = len(epoch_walls) * num_train
    result.failed = max(0, result.attempted - trained_edges)
    result.checks["every_edge_trained"] = trained_edges == result.attempted


def _epochs(ctx: RunContext, size: dict) -> int:
    nominal = size["traced_epoch_s" if ctx.traced else "epoch_s"]
    return max(3, round(ctx.seconds / nominal))


def _partitioned_entities(ctx: RunContext, entity_type, count, parts):
    entities = EntityStorage({entity_type: count})
    partitioning, _ = ctx.call(
        "graph.partitioning.partition_entities", partition_entities,
        count, parts, np.random.default_rng(ctx.seed),
    )
    entities.set_partitioning(entity_type, partitioning)
    return entities


def _bucket_layer(result: Result, num_train: int, seconds: "list[float]"):
    result.layers["graph.partitioning.bucket_edges.edges_per_s"] = (
        num_train / statistics.median(seconds)
    )


def _evaluate(ctx: RunContext, result: Result, model, test) -> None:
    held_out = test[:EVAL_EDGES]
    ranking, seconds = ctx.call(
        "eval.ranking.evaluate",
        LinkPredictionEvaluator(model).evaluate,
        held_out, num_candidates=EVAL_CANDIDATES,
        rng=np.random.default_rng(0),
    )
    result.metrics["quality"] = ranking.mrr
    result.layers["eval.ranking.evaluate.edges_per_s"] = (
        len(held_out) / seconds
    )
    result.checks["mrr_at_least_20x_random"] = ranking.mrr >= MIN_MRR


# ----------------------------------------------------------------------
# Single-machine training: dense_social, partitioned_disk
# ----------------------------------------------------------------------


def _run_single_machine(
    ctx: RunContext, graph, split, num_partitions: int, size: dict,
    **config_kwargs,
) -> Result:
    result = Result()
    train, test = graph.edges.split(split, np.random.default_rng(ctx.seed))
    epochs = _epochs(ctx, size)
    partitioned = num_partitions > 1
    setups, bucket_s = [], []
    for attempt in range(size["setups"]):
        root = ctx.work_dir / f"ckpt-{attempt}"
        t0 = time.perf_counter()
        config = single_entity_config(
            num_partitions=num_partitions, comparator="cos",
            num_epochs=epochs, seed=ctx.seed,
            checkpoint_dir=str(root) if partitioned else None,
            **_TRAIN_KWARGS, **config_kwargs,
        )
        entities = _partitioned_entities(
            ctx, "node", graph.num_nodes, num_partitions
        )
        bucketed, seconds = ctx.call(
            "graph.partitioning.bucket_edges",
            bucket_edges, train, config, entities,
        )
        bucket_s.append(seconds)
        model = EmbeddingModel(
            config, entities, np.random.default_rng(ctx.seed)
        )
        # The swap store shares the checkpoint's layout, so a
        # checkpoint is complete (load_model sees every partition) and
        # its writes land beside the swap reads.
        storage = (
            PartitionedEmbeddingStorage(root / "embeddings")
            if partitioned else None
        )
        trainer = Trainer(
            config, model, entities, storage,
            np.random.default_rng(ctx.seed),
        )
        setups.append(time.perf_counter() - t0)
    _bucket_layer(result, len(train), bucket_s)

    ctx.install("core", "storage")
    stamps = [time.perf_counter()]
    with ctx.span(TIMED_SECTION):
        stats, wall = ctx.call(
            "core.trainer.train_bucketed", trainer.train_bucketed, bucketed,
            after_epoch=lambda e, s: stamps.append(time.perf_counter()),
        )
    ctx.remove()
    _training_metrics(
        result, setups, np.diff(stamps).tolist(), wall, len(train),
        stats.total_edges,
    )

    losses = [e.mean_loss for e in stats.epochs]
    result.checks["loss_finite"] = all(math.isfinite(x) for x in losses)
    result.checks["loss_decreased"] = losses[-1] < losses[0]
    pipe = stats.pipeline
    result.layers.update({
        "core.trainer.train_bucketed.buckets":
            epochs * len(bucketed.nonempty_buckets()),
        "graph.storage.pipeline.prefetch_hit_ratio": pipe.hit_rate,
        "graph.storage.writeback.stall_s": pipe.writeback_stall_time,
        "graph.storage.cache.evictions": pipe.cache_evictions,
    })

    if partitioned:
        # The last checkpoint must hold exactly the trained model:
        # resident partitions as they are in memory, the rest as the
        # swap store has them.
        _, _, loaded, _ = load_model(root)
        result.checks["checkpoint_reproduces_model"] = all(
            np.array_equal(
                loaded.get_table("node", part).weights,
                model.get_table("node", part).weights
                if model.has_table("node", part)
                else storage.load("node", part)[0],
            )
            for part in range(num_partitions)
        )
        model = loaded
    _evaluate(ctx, result, model, test)
    return result


def run_dense_social(ctx: RunContext) -> Result:
    size = SIZES["dense_social"][ctx.quick]
    graph = livejournal_like(num_nodes=size["num_nodes"], seed=ctx.seed)
    return _run_single_machine(ctx, graph, [0.9, 0.1], 1, size)


DISK_PARTITIONS = 16
#: the staging cache may hold this many partitions beside the two
#: being trained: the next bucket's prefetched pair and the pair just
#: evicted, still being written back
DISK_CACHED_PARTITIONS = 4


def run_partitioned_disk(ctx: RunContext) -> Result:
    size = SIZES["partitioned_disk"][ctx.quick]
    graph = youtube_like(num_nodes=size["num_nodes"], seed=ctx.seed)
    partition_nbytes = 4 * (DIM + 1) * graph.num_nodes // DISK_PARTITIONS
    return _run_single_machine(
        ctx, graph, [0.95, 0.05], DISK_PARTITIONS, size,
        pipeline=True, partition_compression="none",
        partition_cache_budget=DISK_CACHED_PARTITIONS * partition_nbytes,
    )


# ----------------------------------------------------------------------
# distributed_kg
# ----------------------------------------------------------------------

KG_PARTITIONS = 8
KG_MACHINES = 2


def run_distributed_kg(ctx: RunContext) -> Result:
    size = SIZES["distributed_kg"][ctx.quick]
    result = Result()
    # freebase_like's shape, but with every relation symmetric. The
    # generator gives relation r a 1/r share of the edges and plants
    # asymmetric relations as cluster shifts that translation + dot
    # does not learn in a few epochs, so with a random quarter of the
    # relations symmetric, held-out MRR swings 0.05-0.20 with whichever
    # head relations the seed happened to make symmetric (IQR 60 % of
    # the median over ten seeds); all-symmetric it is 0.39 +/- 2 %.
    graph = knowledge_graph(
        num_entities=size["num_entities"], num_relations=size["relations"],
        num_edges=size["num_edges"], num_clusters=50,
        symmetric_fraction=1.0, popularity_exponent=0.9, seed=ctx.seed,
    )
    train, _, test = graph.edges.split(
        [0.9, 0.05, 0.05], np.random.default_rng(ctx.seed)
    )
    epochs = _epochs(ctx, size)
    setups, bucket_s = [], []
    for _ in range(size["setups"]):
        t0 = time.perf_counter()
        config = ConfigSchema(
            entities={"entity": EntitySchema(num_partitions=KG_PARTITIONS)},
            relations=[
                RelationSchema(
                    name=f"r{i}", lhs="entity", rhs="entity",
                    operator="translation",
                )
                for i in range(size["relations"])
            ],
            comparator="dot", num_epochs=epochs,
            num_machines=KG_MACHINES, pipeline=True,
            partition_compression="int8", writeback_delta=True,
            seed=ctx.seed, **_TRAIN_KWARGS,
        )
        entities = _partitioned_entities(
            ctx, "entity", graph.num_entities, KG_PARTITIONS
        )
        # train() buckets the edges itself; this call prices that step.
        _, seconds = ctx.call(
            "graph.partitioning.bucket_edges",
            bucket_edges, train, config, entities,
        )
        bucket_s.append(seconds)
        # The traced run puts both machines on threads of this process
        # so that one recorder sees them; they then share the
        # interpreter lock and its busy times are not process mode's.
        trainer = DistributedTrainer(
            config, entities, mode="thread" if ctx.traced else "process",
            bandwidth_bytes_per_s=None,
        )
        setups.append(time.perf_counter() - t0)
    _bucket_layer(result, len(train), bucket_s)

    ctx.install("core", "storage", "distributed")
    with ctx.span(TIMED_SECTION):
        (model, stats), wall = ctx.call(
            "distributed.cluster.train", trainer.train, train
        )
    ctx.remove()
    _training_metrics(
        result, setups, stats.epoch_times, wall, len(train),
        stats.total_edges,
    )

    machines = stats.machines
    mean_loss = sum(m.loss for m in machines) / max(stats.total_edges, 1)
    result.checks["loss_finite"] = math.isfinite(mean_loss)
    delta_pushes = sum(m.delta_pushes for m in machines)
    # A feature that is configured on and records no use is a failure.
    result.checks["delta_writeback_used"] = delta_pushes > 0
    result.checks["codec_saved_wire_bytes"] = stats.wire_bytes_saved > 0

    occupied = sum(
        m.train_time + m.transfer_time + m.idle_time for m in machines
    )
    result.layers.update({
        "distributed.cluster.wire_mb_per_epoch":
            stats.wire_bytes_total / 1e6 / epochs,
        "distributed.cluster.wire_saved_mb_per_epoch":
            stats.wire_bytes_saved / 1e6 / epochs,
        "distributed.cluster.delta_pushes": delta_pushes,
        "distributed.cluster.delta_fallbacks":
            sum(m.delta_fallbacks for m in machines),
        "distributed.cluster.machine.train_s":
            sum(m.train_time for m in machines),
        "distributed.cluster.machine.transfer_s":
            sum(m.transfer_time for m in machines),
        "distributed.cluster.machine.idle_share":
            sum(m.idle_time for m in machines) / occupied,
        "distributed.cluster.machine.prefetch_hit_ratio":
            stats.prefetch_hit_rate,
        "distributed.cluster.machine.reservation_accuracy":
            stats.reservation_accuracy,
    })
    if ctx.traced:
        # Thread mode keeps its servers after train(); process mode
        # shuts them down with the manager.
        _server_layers(result, trainer)
    _evaluate(ctx, result, model, test)
    return result


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


def _server_layers(result: Result, trainer: DistributedTrainer) -> None:
    locks = trainer.lock_server.stats
    parts = trainer.partition_server.stats
    result.layers.update({
        "distributed.lock_server.acquire.empty_ratio": _ratio(
            locks.failed_acquires, locks.acquires + locks.failed_acquires
        ),
        "distributed.lock_server.reserve.accuracy": _ratio(
            locks.reservation_hits,
            locks.reservation_hits + locks.reservation_misses,
        ),
        "distributed.partition_server.get.bytes": parts.bytes_sent,
        "distributed.partition_server.put.bytes": parts.bytes_received,
        "distributed.partition_server.bytes_saved": parts.bytes_saved,
        "distributed.partition_server.put_delta.stale_ratio": _ratio(
            parts.delta_stale, parts.delta_puts + parts.delta_stale
        ),
    })


# ----------------------------------------------------------------------
# serve_knn
# ----------------------------------------------------------------------

BATCH = 64
NPROBE = 8
PROBE_BATCHES = 16
#: phase B publishes a new version each time one of these shares of
#: its batches has been sent. Three swaps put some thirty batches beside
#: an index build, so that the p99 of ~1000 lies inside that group
#: instead of on its edge (one swap: ten, and p99 flips in and out).
SWAP_AT = (0.1, 0.35, 0.6)
FINAL_VERSION = 1 + len(SWAP_AT)


def _clustered_table(rng: np.random.Generator, blobs: int, per_blob: int):
    """Gaussian blobs wide enough to overlap and to span several IVF
    lists each, so that ``nprobe`` lists miss some true neighbours and
    recall can move (well-separated blobs give exactly 1.0)."""
    centers = rng.standard_normal((blobs, DIM))
    table = np.repeat(centers, per_blob, axis=0) + 0.5 * rng.standard_normal(
        (blobs * per_blob, DIM)
    )
    return table[rng.permutation(len(table))].astype(np.float32)


def _recall(found: np.ndarray, truth: np.ndarray) -> float:
    hits = sum(len(np.intersect1d(f, t)) for f, t in zip(found, truth))
    return hits / truth.size


def _unanswered(ids: np.ndarray) -> int:
    """Queries whose top-k holds a ``-1`` ("no result") id."""
    return int((ids < 0).any(axis=1).sum())


def run_serve_knn(ctx: RunContext) -> Result:
    size = SIZES["serve_knn"][ctx.quick]
    result = Result()
    rng = np.random.default_rng(ctx.seed)
    table_v1 = _clustered_table(rng, size["blobs"], size["per_blob"])
    table_v2 = table_v1 + 0.01 * rng.standard_normal(
        table_v1.shape
    ).astype(np.float32)
    exact_batches = size["warm_exact"] + round(
        size["exact_per_s"] * ctx.seconds
    )
    ivf_batches = size["warm_ivf"] + round(size["ivf_per_s"] * ctx.seconds)
    # Queries are slightly perturbed member rows, a fresh batch per call.
    picks = rng.integers(
        0, len(table_v1), (exact_batches + ivf_batches, BATCH)
    )
    noise = 0.05 * rng.standard_normal((BATCH, DIM)).astype(np.float32)

    def queries(i: int) -> np.ndarray:
        return table_v1[picks[i]] + noise

    def ivf_factory(table):
        return IVFPQIndex(
            comparator="cos", num_lists=size["num_lists"], nprobe=NPROBE,
            seed=ctx.seed,
        ).build(table)

    ctx.install("serving")
    setups = []
    for attempt in range(size["setups"]):
        root = ctx.work_dir / f"snapshots-{attempt}"
        t0 = time.perf_counter()
        ctx.call(
            "serving.shards.publish",
            publish_embeddings, root, table_v1, comparator="cos",
        )
        exact = SnapshotManager(root)
        exact.refresh()
        ivf = SnapshotManager(root, index_factory=ivf_factory)
        ivf.refresh()
        setups.append(time.perf_counter() - t0)
        if attempt < size["setups"] - 1:
            exact.close()
            ivf.close()

    published, visible = {}, {}

    def publish_updates(due: "list[threading.Event]") -> None:
        for version, go in enumerate(due, start=2):
            go.wait()
            ctx.call(
                "serving.shards.publish", publish_embeddings, root,
                table_v2 if version % 2 == 0 else table_v1,
                comparator="cos",
            )
            published[version] = time.perf_counter()
            ivf.refresh()

    def serve():
        """Both phases, one closed-loop client; returns the batch
        latencies of each, the answering versions of phase B, the
        number of queries left without an answer, and phase B's
        ServingStats."""
        unanswered = 0
        # Phase A: the default exact index.
        service = QueryService(exact, batch_size=BATCH, default_k=K)
        exact_lat = []
        for i in range(exact_batches):
            batch = queries(i)
            t0 = time.perf_counter()
            ids, _ = service.query(batch)
            exact_lat.append(time.perf_counter() - t0)
            unanswered += _unanswered(ids)
        exact.close()

        # Phase B: IVF, while a second thread publishes new versions
        # and refreshes — index builds and snapshot swaps beside reads.
        service = QueryService(ivf, batch_size=BATCH, default_k=K)
        due = {
            int(share * ivf_batches): threading.Event() for share in SWAP_AT
        }
        publisher = threading.Thread(
            target=publish_updates, args=(list(due.values()),),
            name="publisher",
        )
        publisher.start()
        ivf_lat, versions = [], []
        try:
            for i in range(ivf_batches):
                if i in due:
                    due[i].set()
                batch = queries(exact_batches + i)
                t0 = time.perf_counter()
                ids, _, version = service.query_pinned(batch)
                done = time.perf_counter()
                ivf_lat.append(done - t0)
                versions.append(version)
                visible.setdefault(version, done)
                unanswered += (
                    _unanswered(ids) if 1 <= version <= FINAL_VERSION
                    else len(batch)
                )
        finally:
            for go in due.values():
                go.set()
            publisher.join()
        return exact_lat, ivf_lat, versions, unanswered, service.stats()

    with ctx.span(TIMED_SECTION):
        (exact_lat, ivf_lat, versions, unanswered, served), wall = ctx.call(
            "harness.closed_loop_client", serve
        )
    ctx.remove()
    exact_lat = exact_lat[size["warm_exact"]:]
    ivf_lat = ivf_lat[size["warm_ivf"]:]

    # Throughput is queries per steady-state second over both phases;
    # the latency metrics describe phase B, where the swap happens.
    steady_s = sum(exact_lat) + sum(ivf_lat)
    _timing_metrics(
        result, setups, ivf_lat, steady_s, wall,
        BATCH * (len(exact_lat) + len(ivf_lat)) / steady_s,
    )
    result.samples["exact_batch_s"] = exact_lat
    result.layers.update({
        "serving.exact.qps": BATCH * len(exact_lat) / sum(exact_lat),
        "serving.ivf.qps": BATCH * len(ivf_lat) / sum(ivf_lat),
        # publish commit -> first batch answered by the new version
        "serving.snapshot.swap_visible_s": statistics.median(
            [visible[v] - published[v] for v in published if v in visible]
            or [0.0]
        ),
        "serving.snapshot.swaps": served.swaps,
        "serving.snapshot.retired_pinned": ivf.retired_count(),
    })

    # Output checks, on the index that ended up serving; probed
    # a batch at a time, so that the checks do not set the peak RSS.
    reference = SnapshotManager(root)
    reference.refresh()
    true_ids, found_ids, full_probe_equal = [], [], True
    with reference.acquire() as ref, ivf.acquire() as snap:
        for i in range(PROBE_BATCHES):
            probe = queries(i)
            ids, scores = ref.index.query(probe, k=K)
            true_ids.append(ids)
            found_ids.append(snap.index.query(probe, k=K)[0])
            # Probing every list degenerates to the exact scan, bitwise.
            snap.index.nprobe = snap.index.num_lists
            full_ids, full_scores = snap.index.query(probe, k=K)
            snap.index.nprobe = NPROBE
            full_probe_equal = (
                full_probe_equal
                and np.array_equal(full_ids, ids)
                and np.array_equal(full_scores, scores)
            )
    true_ids = np.concatenate(true_ids)
    found_ids = np.concatenate(found_ids)
    recall = _recall(found_ids, true_ids)
    result.metrics["quality"] = recall
    result.checks.update({
        "full_probe_ivf_equals_exact": full_probe_equal,
        "recall_at_10": recall >= MIN_RECALL,
        "versions_only_move_forward":
            versions[0] == 1 and versions == sorted(versions),
        # Not "the last batch saw it": on a slow host the third build
        # can outlast the remaining batches, and that is not an error.
        "final_version_live": ivf.current_version() == FINAL_VERSION,
        "no_retired_snapshot_pinned": ivf.retired_count() == 0,
    })
    reference.close()
    ivf.close()
    result.attempted = BATCH * (exact_batches + ivf_batches)
    result.failed = unanswered
    return result


WORKLOADS = {
    "dense_social": run_dense_social,
    "partitioned_disk": run_partitioned_disk,
    "distributed_kg": run_distributed_kg,
    "serve_knn": run_serve_knn,
}
