"""Command-line interface: train and evaluate from config + edge files.

Mirrors the workflow of the original PBG release, which is driven by a
config file and imported edge lists::

    python -m repro train  --config config.json --edges edges.npz \
                           --checkpoint ./model
    python -m repro eval   --checkpoint ./model --edges test.npz \
                           --candidates 1000
    python -m repro export --checkpoint ./model --entity-type node \
                           --output embeddings.npy

Edge files are ``.npz`` archives with ``src``, ``rel``, ``dst`` int64
arrays (and optional ``weights``), or whitespace-separated text files
with ``src rel dst`` columns. Entity counts are inferred from the edges
unless the config's metadata provides them.

Configs with ``num_machines > 1`` train on the simulated cluster
(``--mode thread|process``); ``--pipeline`` and
``--partition-cache-budget`` then control the per-machine
partition-server prefetch pipeline instead of the disk pipeline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.config import (
    COMPRESSION_NAMES,
    INDEX_NAMES,
    ConfigSchema,
    ServingConfig,
    fingerprint,
)
from repro.core.checkpointing import load_model
from repro.core.model import EmbeddingModel
from repro.core.trainer import Trainer
from repro.eval.ranking import LinkPredictionEvaluator
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities

__all__ = ["main", "load_edges"]


def load_edges(path: "str | Path") -> EdgeList:
    """Read an edge list from ``.npz`` or whitespace text."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no edge file at {path}")
    if path.suffix == ".npz":
        with np.load(path) as data:
            weights = data["weights"] if "weights" in data.files else None
            return EdgeList(data["src"], data["rel"], data["dst"], weights)
    rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError(
            f"text edge files need 3 columns (src rel dst); got "
            f"{rows.shape[1]} in {path}"
        )
    return EdgeList(rows[:, 0], rows[:, 1], rows[:, 2])


def save_edges(path: "str | Path", edges: EdgeList) -> None:
    """Write an edge list as ``.npz`` (the CLI's native format)."""
    arrays = {"src": edges.src, "rel": edges.rel, "dst": edges.dst}
    if edges.weights is not None:
        arrays["weights"] = edges.weights
    np.savez(path, **arrays)


def _infer_counts(config: ConfigSchema, edges: EdgeList) -> "dict[str, int]":
    """Entity counts = 1 + max id seen per entity type."""
    counts = {name: 1 for name in config.entities}
    for rid in np.unique(edges.rel) if len(edges) else []:
        rel = config.relations[int(rid)]
        mask = edges.rel == rid
        counts[rel.lhs] = max(counts[rel.lhs], int(edges.src[mask].max()) + 1)
        counts[rel.rhs] = max(counts[rel.rhs], int(edges.dst[mask].max()) + 1)
    return counts


def _arm_tracer(config: ConfigSchema):
    """Arm the span tracer when the run asks for a trace file. The
    CLI owns the tracer (trainers only arm one if nobody else has), so
    the digest can be computed from the in-memory spans after export.
    The config fingerprint is stamped into the trace metadata so the
    trace differ can refuse apples-to-oranges comparisons."""
    if not config.trace_path:
        return None
    tracer = telemetry.enable()
    telemetry.set_lane("cli.main")
    tracer.add_metadata(config_fingerprint=config.fingerprint())
    return tracer


def _finish_tracer(tracer, config: ConfigSchema) -> None:
    if tracer is None:
        return
    try:
        tracer.export(config.trace_path)
        print(f"trace written to {config.trace_path}")
    finally:
        telemetry.disable()


def _print_digest(tracer) -> None:
    """One-screen telemetry digest (overlap, stalls, slowest buckets)
    derived from the captured trace — replaces the raw counter dump,
    which now hides behind --verbose."""
    if tracer is None:
        return
    from repro.telemetry.analyze import analyze_tracer, render_digest

    print(render_digest(analyze_tracer(tracer)))


def _apply_overrides(obj, args: argparse.Namespace):
    """``obj`` (a config dataclass) with every field that a flag set
    replaced. A config-backed flag's ``dest`` is its field's name and
    its default is ``None``, so an absent flag keeps the file's value."""
    return dataclasses.replace(obj, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(obj)
        if getattr(args, f.name, None) is not None
    })


def _cmd_train(args: argparse.Namespace) -> int:
    config = _apply_overrides(
        ConfigSchema.from_json(Path(args.config).read_text()), args
    )
    edges = load_edges(args.edges)
    counts = (
        json.loads(args.entity_counts)
        if args.entity_counts
        else _infer_counts(config, edges)
    )
    entities = EntityStorage(counts)
    rng = np.random.default_rng(config.seed)
    for name, schema in config.entities.items():
        if schema.num_partitions > 1:
            entities.set_partitioning(
                name,
                partition_entities(counts[name], schema.num_partitions, rng),
            )
    distributed = config.num_machines > 1
    if distributed:
        from repro.distributed.cluster import DistributedTrainer

        trainer = DistributedTrainer(config, entities, mode=args.mode)
    elif config.checkpoint_dir is None and any(
        s.num_partitions > 1 for s in config.entities.values()
    ):
        print("error: partitioned training requires --checkpoint "
              "(or checkpoint_dir in the config)", file=sys.stderr)
        return 2
    else:
        trainer = Trainer(config, EmbeddingModel(config, entities), entities)

    def progress(epoch: int, stats) -> None:
        e = stats.epochs[-1]
        line = (
            f"epoch {epoch}: loss {e.mean_loss:.4f} "
            f"({e.num_edges} edges, {e.train_time:.1f}s train, "
            f"{e.io_time:.1f}s io)"
        )
        if config.pipeline and args.verbose:
            p = e.pipeline
            line += (
                f" [pipeline: {p.prefetch_hits} hits / "
                f"{p.prefetch_misses} misses, "
                f"{p.writeback_stall_time:.1f}s stalled]"
            )
        print(line)

    # Process-mode machines record into their own copies of the tracer.
    tracer = _arm_tracer(config)
    try:
        stats = trainer.train(edges, after_epoch=progress)
    finally:
        _finish_tracer(tracer, config)
    if distributed:
        _, stats = stats  # the cluster trainer also returns its model
    line = (
        f"done: {stats.total_edges} edge-visits"
        + (f" on {config.num_machines} machines" if distributed else "")
        + f" in {stats.total_time:.1f}s ({stats.edges_per_second:,.0f} "
        f"edges/s), peak {stats.peak_resident_bytes / 1e6:.1f} MB"
    )
    if distributed:
        line += f" per machine, idle {stats.mean_idle_fraction:.0%}"
    print(line)
    _print_digest(tracer)
    if config.pipeline and args.verbose:
        p = stats.pipeline
        line = (
            f"pipeline: {p.hit_rate:.0%} prefetch hit rate "
            f"({p.prefetch_hits}/{p.prefetch_hits + p.prefetch_misses}), "
            f"{p.prefetch_wait_time:.1f}s prefetch wait, "
            f"{p.writeback_stall_time:.1f}s writeback stall"
        )
        if distributed:
            line += (
                f", {stats.reservation_accuracy:.0%} reservation accuracy, "
                f"{sum(m.transfer_overlap_time for m in stats.machines):.1f}s "
                "transfer overlapped"
            )
        print(line)
    if distributed and args.verbose and (
        config.partition_compression != "none" or config.writeback_delta
    ):
        deltas = sum(m.delta_pushes for m in stats.machines)
        fallbacks = sum(m.delta_fallbacks for m in stats.machines)
        print(
            f"wire: {stats.wire_bytes_total / 1e6:.1f} MB moved "
            f"({config.partition_compression} codec), "
            f"{stats.wire_bytes_saved / 1e6:.1f} MB saved, "
            f"{deltas} delta pushes ({fallbacks} stale fallbacks)"
        )
    # Either trainer checkpointed every epoch: nothing more to write.
    if config.checkpoint_dir is not None and config.num_epochs:
        print(f"checkpoint written to {config.checkpoint_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config, entities, model, metadata = load_model(args.checkpoint)
    del config, entities
    edges = load_edges(args.edges)
    filter_edges = (
        [load_edges(p) for p in args.filter] if args.filter else None
    )
    evaluator = LinkPredictionEvaluator(model, filter_edges=filter_edges)
    metrics = evaluator.evaluate(
        edges,
        num_candidates=args.candidates,
        filtered=bool(args.filter),
        rng=np.random.default_rng(args.seed),
    )
    print(f"checkpoint epoch: {metadata.get('epoch', '?')}")
    print(metrics)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.format == "mmap":
        from repro.serving import publish_checkpoint

        version = publish_checkpoint(
            args.output, args.checkpoint, args.entity_type
        )
        print(
            f"published snapshot v{version} of {args.entity_type!r} "
            f"to {args.output}"
        )
        return 0
    _, _, model, _ = load_model(args.checkpoint)
    embeddings = model.global_embeddings(args.entity_type)
    np.save(args.output, embeddings)
    print(
        f"wrote {embeddings.shape[0]} x {embeddings.shape[1]} embeddings "
        f"to {args.output}"
    )
    return 0


def _serving_config(args: argparse.Namespace) -> ServingConfig:
    """ServingConfig from --config (if given) + CLI overrides."""
    serving = (
        ConfigSchema.from_json(Path(args.config).read_text()).serving
        if args.config else ServingConfig()
    )
    return _apply_overrides(serving, args)


def _open_service(args: argparse.Namespace, auto_refresh: bool = False):
    """Build (manager, service) over the snapshot root, or raise."""
    from repro.serving import (
        QueryService,
        ServingError,
        SnapshotManager,
        make_index,
    )

    serving = _serving_config(args)

    def factory(table):
        return make_index(serving, table.comparator).build(table)

    manager = SnapshotManager(args.snapshots, index_factory=factory)
    if not manager.refresh():
        raise ServingError(
            f"no published snapshot under {args.snapshots}; run "
            f"'repro export --format mmap' first"
        )
    service = QueryService(
        manager,
        batch_size=serving.batch_size,
        default_k=serving.default_k,
        auto_refresh=auto_refresh,
        slow_batch_seconds=serving.slow_batch_seconds,
    )
    return manager, service, serving


def _cmd_serve(args: argparse.Namespace) -> int:
    """Batch-serve a query file through the configured index."""
    from repro.serving import ServingError

    tracer = None
    if args.trace:
        tracer = telemetry.enable()
        telemetry.set_lane("cli.serve")
    metrics_server = None
    try:
        try:
            manager, service, serving = _open_service(
                args, auto_refresh=args.poll
            )
        except ServingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if tracer is not None:
            tracer.add_metadata(
                config_fingerprint=fingerprint(dataclasses.asdict(serving))
            )
        if args.metrics_port is not None:
            from repro.telemetry import MetricsServer

            def health():
                return {
                    "status": "ok",
                    "version": manager.current_version(),
                }

            metrics_server = MetricsServer(
                manager.metrics, port=args.metrics_port, health=health
            ).start()
            print(f"metrics at {metrics_server.url}/metrics")
        queries = np.load(args.queries)
        idx, scores = service.query(queries, k=args.k)
        if args.output:
            np.savez(args.output, indices=idx, scores=scores)
            print(f"results written to {args.output}")
        stats = service.stats()
        with manager.acquire() as snap:
            print(
                f"index: {serving.index} over {snap.index.num_items} "
                f"items ({snap.index.nbytes() / 1e6:.1f} MB resident, "
                f"snapshot v{snap.version})"
            )
        print(stats.summary())
        manager.close()
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if tracer is not None:
            try:
                tracer.export(args.trace)
                print(f"trace written to {args.trace}")
            finally:
                telemetry.disable()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot neighbour lookup (by query file or entity ids)."""
    from repro.serving import ServingError

    try:
        manager, service, _ = _open_service(args)
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exclude = None
    if args.ids is not None:
        ids = np.asarray(
            [int(tok) for tok in args.ids.split(",") if tok.strip()],
            dtype=np.int64,
        )
        if not len(ids):
            print("error: --ids is empty", file=sys.stderr)
            return 2
        with manager.acquire() as snap:
            queries = snap.table.gather(ids)
        exclude = ids  # an entity is not its own neighbour
    else:
        queries = np.load(args.queries)
    idx, scores, version = service.query_pinned(
        queries, k=args.k, exclude_self=exclude
    )
    labels = (
        [str(i) for i in ids] if args.ids is not None
        else [str(i) for i in range(len(queries))]
    )
    print(f"snapshot v{version}, top-{idx.shape[1]}:")
    for label, row_idx, row_scores in zip(labels, idx, scores):
        pairs = " ".join(
            f"{int(j)}:{s:.4f}"
            for j, s in zip(row_idx, row_scores)
            if j >= 0
        )
        print(f"  {label}: {pairs}")
    print(service.stats().summary())
    manager.close()
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the service registry as Prometheus text, without a server.

    Same text ``/metrics`` serves under ``repro serve
    --metrics-port`` — mostly zeros here (the service just came up),
    but it shows every metric name and label a scrape would see.
    """
    from repro.serving import ServingError

    try:
        manager, service, _ = _open_service(args)
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(service.stats_text(), end="")
    manager.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBG reproduction: train / evaluate graph embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config")
    p_train.add_argument("--config", required=True,
                         help="path to a ConfigSchema JSON file")
    p_train.add_argument("--edges", required=True,
                         help="training edges (.npz or text)")
    # Config-backed flags: dest = the ConfigSchema field it overrides,
    # default None = keep the config file's value (_apply_overrides).
    p_train.add_argument("--checkpoint", dest="checkpoint_dir",
                         default=None, metavar="DIR",
                         help="directory for checkpoints / partition swap "
                              "(default: config value)")
    p_train.add_argument("--entity-counts", default=None,
                         help='JSON dict of entity counts, e.g. '
                              '\'{"node": 10000}\' (default: inferred)')
    p_train.add_argument("--pipeline", action="store_true", default=None,
                         help="overlap partition I/O with training "
                              "(async prefetch + background writeback)")
    p_train.add_argument("--partition-cache-budget", type=int, default=None,
                         metavar="BYTES",
                         help="byte budget of the pipelined partition "
                              "cache (default: unlimited; per machine "
                              "in distributed mode)")
    p_train.add_argument("--partition-compression",
                         choices=COMPRESSION_NAMES, default=None,
                         help="codec for swapped partitions on wire and "
                              "disk (default: config value / none)")
    p_train.add_argument("--writeback-delta", action="store_true",
                         default=None,
                         help="push dirty-row deltas instead of whole "
                              "partitions on distributed writeback")
    p_train.add_argument("--mode", choices=("thread", "process"),
                         default="thread",
                         help="distributed transport when the config "
                              "has num_machines > 1 (default: thread)")
    p_train.add_argument("--trace", dest="trace_path", default=None,
                         metavar="PATH",
                         help="write a Chrome trace_event JSON of the "
                              "run's spans here (view in Perfetto or "
                              "analyze with python -m repro.telemetry)")
    p_train.add_argument("-v", "--verbose", action="store_true",
                         help="also print raw pipeline / wire counter "
                              "summaries (default: telemetry digest "
                              "only when tracing)")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="rank held-out edges")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--edges", required=True)
    p_eval.add_argument("--candidates", type=int, default=None,
                        help="sampled candidates per query "
                             "(default: all entities)")
    p_eval.add_argument("--filter", nargs="*", default=None,
                        help="edge files whose edges are filtered from "
                             "candidate sets")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=_cmd_eval)

    p_export = sub.add_parser(
        "export", help="dump embeddings to .npy or publish mmap shards"
    )
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--entity-type", required=True)
    p_export.add_argument("--output", required=True,
                          help=".npy path (--format npy) or snapshot "
                               "root directory (--format mmap)")
    p_export.add_argument("--format", choices=("npy", "mmap"),
                          default="npy",
                          help="npy: one dense array; mmap: a versioned "
                               "snapshot of raw per-partition shards + "
                               "manifest that 'repro serve' memory-maps "
                               "(default: npy)")
    p_export.set_defaults(fn=_cmd_export)

    def add_serving_args(p) -> None:
        p.add_argument("--snapshots", required=True, metavar="DIR",
                       help="snapshot root written by "
                            "'export --format mmap'")
        p.add_argument("--config", default=None,
                       help="ConfigSchema JSON whose 'serving' section "
                            "configures the index (CLI flags override)")
        p.add_argument("--k", type=int, default=None,
                       help="neighbours per query "
                            "(default: serving.default_k)")
        # Config-backed flags: dest = the ServingConfig field.
        p.add_argument("--index", choices=INDEX_NAMES, default=None,
                       help="index implementation (default: config "
                            "value / exact)")
        p.add_argument("--num-lists", type=int, default=None,
                       dest="num_lists", metavar="L",
                       help="IVF coarse cells (default: config value)")
        p.add_argument("--nprobe", type=int, default=None, metavar="P",
                       help="IVF cells scanned per query — the "
                            "recall/latency knob (default: config "
                            "value)")
        p.add_argument("--pq-subvectors", type=int, default=None,
                       dest="pq_subvectors", metavar="M",
                       help="product-quantization subvectors; 0 stores "
                            "full float vectors (default: config value)")
        p.add_argument("--refine", type=int, default=None, metavar="R",
                       help="re-score top k*R PQ candidates against "
                            "raw vectors; 0 disables (default: config "
                            "value)")

    p_serve = sub.add_parser(
        "serve",
        help="batch-serve a query file over a published snapshot",
        description="Load the CURRENT snapshot, build the configured "
                    "k-NN index, answer every query in --queries in "
                    "batches, and print a QPS digest. With --poll, a "
                    "snapshot published mid-stream is picked up at the "
                    "next batch boundary (atomic swap, no downtime).",
    )
    add_serving_args(p_serve)
    # Only serve splits its queries into batches (query answers from
    # one pinned batch; metrics runs none).
    p_serve.add_argument("--batch-size", type=int, default=None,
                         dest="batch_size", metavar="N",
                         help="queries per pinned-snapshot batch "
                              "(default: serving.batch_size)")
    p_serve.add_argument("--slow-batch", type=float, default=None,
                         dest="slow_batch_seconds", metavar="SECONDS",
                         help="batches slower than this emit a sampled "
                              "serve.query.slow span and a structured "
                              "log line (default: config value / off)")
    p_serve.add_argument("--queries", required=True,
                         help=".npy file of (q, d) query vectors")
    p_serve.add_argument("--output", default=None, metavar="PATH",
                         help="write results as .npz with 'indices' "
                              "and 'scores' arrays")
    p_serve.add_argument("--poll", action="store_true",
                         help="re-check CURRENT between batches and "
                              "hot-swap to newly published snapshots")
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="write a Chrome trace_event JSON of "
                              "serve.query/serve.swap spans")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         dest="metrics_port", metavar="PORT",
                         help="serve GET /metrics (Prometheus text) and "
                              "/healthz on 127.0.0.1:PORT while queries "
                              "run (0 picks an ephemeral port)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_query = sub.add_parser(
        "query",
        help="print nearest neighbours for a few queries",
        description="One-shot lookup against the CURRENT snapshot: "
                    "pass --ids to look up entities already in the "
                    "table (self excluded), or --queries for a .npy "
                    "of external query vectors.",
    )
    add_serving_args(p_query)
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument("--ids", default=None,
                       help="comma-separated entity ids to look up, "
                            "e.g. '0,17,42'")
    group.add_argument("--queries", default=None,
                       help=".npy file of (q, d) query vectors")
    p_query.set_defaults(fn=_cmd_query)

    p_metrics = sub.add_parser(
        "metrics",
        help="print the serving registry as Prometheus text",
        description="Open the CURRENT snapshot and dump its metrics "
                    "registry in the Prometheus text exposition format "
                    "— the same text 'repro serve --metrics-port' "
                    "serves at /metrics.",
    )
    add_serving_args(p_metrics)
    p_metrics.set_defaults(fn=_cmd_metrics)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
