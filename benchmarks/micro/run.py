"""Per-layer micro ledger: one registry of row groups, one paired harness.

Six groups price the layers behind the paper's speed claims at the
shapes of the benchmark of record: ``import`` (entity partitioning and
edge bucketing, §4.1), ``chunk_step`` (the batched-negatives step of
§4.3, the layers under it, epochs on one and two lanes), ``partition_swap`` (§4.1),
``partition_rpc`` (§4.2), ``knn_query`` and ``serving_knn``.
An entry builds its rows from one ``repro`` package namespace: per row
the timed call, its call count and the output two versions must agree
on, plus named checks over the recorded rows. ``--against PATH``
imports a second ``repro`` from PATH (a checkout or its ``src``) as
distinct module objects and builds every row on both; after the same
untimed warm-up calls their outputs must be bit-identical, then the
timed calls alternate one each in turn, the side that goes first
alternating (one warm process resolves what separate processes on a
shared box cannot). Per row: the 10 %-trimmed mean per side, the ratio
this / against, n, bit-identity. One history record per group; exit 1
on a lost bit-identity or a failed check. A change that means to move a
row's numbers names the row in ``NUMERIC_CHANGES``: its lost bit-identity
is recorded as ``declared`` and passes, and a declared row that stays
bit-identical against another tree fails as stale. One BLAS thread
throughout.

Usage::

    python benchmarks/micro/run.py [GROUP ...] [--quick] [--against PATH]
        [--history PATH ('' skips)]
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import os
import pickle
import statistics
import sys
import tempfile
import threading
import time
from collections.abc import Mapping
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

# One BLAS thread, like every child of benchmarks/perf/run.py; must be
# set before numpy loads the library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import scipy.sparse as sp

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT.parent / "src")]

from common import (
    append_history,
    eval_ranking,
    kg_config,
    livejournal_splits,
    provenance,
    social_config,
)

from repro.config import RelationSchema
from repro.core.batching import iterate_batches
from repro.core.negatives import sample_pool
from repro.graph.edgelist import EdgeList

# --- Harness ----------------------------------------------------------


class Row(NamedTuple):
    call: Callable[[], Any]  # the timed operation
    calls: int  # timed calls per side
    #: read after the warm-up calls, must be bit-identical between the sides
    output: Callable[[], Any]
    info: Callable[[], dict] = dict  # recorded, read after the timing
    #: ``(name, units per call)``: also record units per second
    rate: "tuple[str, int] | None" = None


class Group(NamedTuple):
    params: dict  # the group's shape, which the fingerprint covers
    rows: "dict[str, Row]"
    #: check name -> predicate over the recorded rows
    checks: "dict[str, Callable[[dict], bool]]" = {}


#: row name -> why this tree's output differs from the parent's. Emptied
#: by the change after: against another tree a declared row that stays
#: bit-identical fails as stale.
NUMERIC_CHANGES: "dict[str, str]" = {}

#: group name -> (history ``benchmark`` name, ``build(pkg, quick)``
#: context manager yielding the group)
GROUPS: "dict[str, tuple[str, Callable]]" = {}


def group(benchmark: str, name: "str | None" = None):
    """Register the decorated generator, under ``name`` or its own, as a
    group."""

    def register(build):
        GROUPS[name or build.__name__] = (benchmark, contextmanager(build))
        return build

    return register


#: namespace attribute -> module under ``repro``: what the entries use
_MODULES = {
    "config": "config", "batching": "core.batching", "model": "core.model",
    "tables": "core.tables", "optimizers": "core.optimizers",
    "losses": "core.losses", "comparators": "core.comparators",
    "trainer": "core.trainer", "entities": "graph.entity_storage",
    "edgelist": "graph.edgelist", "partitioning": "graph.partitioning",
    "storage": "graph.storage", "compression": "graph.compression",
    "cluster": "distributed.cluster", "serving": "serving",
    "partition_server": "distributed.partition_server",
    "parameter_server": "distributed.parameter_server",
}


def _namespace() -> SimpleNamespace:
    return SimpleNamespace(**{
        alias: importlib.import_module(f"repro.{name}")
        for alias, name in _MODULES.items()
    })


def _src(path: "str | Path") -> Path:
    root = Path(path).resolve()
    return root if (root / "repro").is_dir() else root / "src"


def load_package(path: "str | Path") -> SimpleNamespace:
    """The ``repro`` package under ``path`` (or ``path/src``), imported as
    module objects distinct from the ``repro`` this script runs on.
    Objects that cross a pickle (``partition_rpc``'s manager process)
    resolve to this tree's classes."""
    root = _src(path)

    def ours():
        return [n for n in sys.modules if n.split(".")[0] == "repro"]

    saved = {name: sys.modules.pop(name) for name in ours()}
    sys.path.insert(0, str(root))
    try:
        return _namespace()
    finally:
        sys.path.remove(str(root))
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def _arrays(value) -> "list[np.ndarray]":
    if isinstance(value, Mapping):
        value = [value[key] for key in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return [np.asarray(value)]


def _trimmed_mean(samples: "list[float]", cut: float = 0.1) -> float:
    samples = sorted(samples)
    drop = int(len(samples) * cut)
    return statistics.fmean(samples[drop:len(samples) - drop])


def measure(name: str, sides: "list[Row]") -> dict:
    """Warm up, compare and time one row: ``sides[0]`` is this tree's,
    ``sides[1]`` (if any) the ``--against`` tree's."""
    row, record, paired = sides[0], {}, len(sides) == 2
    for side in sides:
        for _ in range(max(1, row.calls // 20)):
            side.call()
    if paired:
        a, b = (_arrays(side.output()) for side in sides)
        record["bit_identical"] = len(a) == len(b) and all(
            x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
        )
    samples = [[] for _ in sides]
    for i in range(row.calls):
        for side in range(len(sides))[::1 if i % 2 == 0 else -1]:
            start = time.perf_counter()
            sides[side].call()
            samples[side].append((time.perf_counter() - start) * 1e6)
    us = [_trimmed_mean(s) for s in samples]
    line = f"  {name:52s} {us[0]:11.1f} us"
    if paired:
        record.update(against_us=us[1], ratio=us[0] / us[1])
        line += (f" vs {us[1]:11.1f}  x{us[0] / us[1]:.3f}  "
                 f"bit-identical: {record['bit_identical']}")
    extras = row.info()
    if row.rate is not None:
        extras[row.rate[0]] = row.rate[1] / (us[0] * 1e-6)
    print(line, f" n={row.calls}", *(f"{k}={v:.4g}" for k, v in extras.items()))
    return {"us": us[0], "n": row.calls, **record, **extras}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("groups", nargs="*", metavar="GROUP",
                        help="groups to run (default: all, in this order: "
                             + ", ".join(GROUPS) + ")")
    parser.add_argument("--quick", action="store_true",
                        help="CI sizes: smaller inputs, fewer calls")
    parser.add_argument("--against", metavar="PATH",
                        help="pair every row with the repro package under "
                             "PATH (a checkout or its src) in one process")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append one record per group to this history "
                             "file ('' to skip)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.groups if name not in GROUPS]
    if unknown:
        parser.error(f"unknown group(s): {', '.join(unknown)}; "
                     f"valid: {', '.join(GROUPS)}")

    packages = [_namespace()]
    if args.against:
        packages.append(load_package(args.against))
        print(f"this tree paired with {args.against} in one process")
    failed = []
    for name in args.groups or GROUPS:
        benchmark, build = GROUPS[name]
        print(f"\n{name}")
        start = time.perf_counter()
        with ExitStack() as stack:
            groups = [
                stack.enter_context(build(pkg, args.quick)) for pkg in packages
            ]
            rows = {
                row: measure(row, [g.rows[row] for g in groups])
                for row in groups[0].rows
            }
        checks = {
            check: bool(holds(rows))
            for check, holds in groups[0].checks.items()
        }
        print(f"{name}: {time.perf_counter() - start:.1f} s")
        for check, ok in checks.items():
            print(f"  {'PASS' if ok else 'FAIL'}  {check}")
        for row, r in rows.items():
            if r.get("bit_identical") is False and row in NUMERIC_CHANGES:
                r["declared"] = NUMERIC_CHANGES[row]
                print(f"  declared  {row}: {r['declared']}")
        lost = [row for row, r in rows.items()
                if r.get("bit_identical") is False and "declared" not in r]
        stale = [row for row, r in rows.items()
                 if r.get("bit_identical") and row in NUMERIC_CHANGES
                 and _src(args.against) != _src(_ROOT.parent)]
        if lost:
            print(f"  FAIL  not bit-identical: {', '.join(lost)}")
        if stale:
            print(f"  FAIL  declared in NUMERIC_CHANGES, still bit-identical: "
                  f"{', '.join(stale)}")
        if lost or stale or not all(checks.values()):
            failed.append(name)
        record = {
            "benchmark": benchmark,
            "params": {**groups[0].params, "quick": args.quick},
            "against": args.against, "rows": rows, "checks": checks,
        }
        record["provenance"] = provenance(record["params"])
        if args.history:
            append_history(record, args.history)
    print(f"\n{len(failed)} group(s) failed: {', '.join(failed)}" if failed
          else "\nall rows and checks passed")
    return 1 if failed else 0


# --- import: entity partitioning and edge bucketing, §4.1 -------------

#: the benchmark of record's training edges per workload: entities,
#: partitions, edges, relations (``--quick``: a twentieth of each count)
IMPORT_SHAPES = {
    "kg": (130_000, 8, 292_500, 20),
    "disk": (80_000, 16, 197_600, 1),
    "dense": (20_000, 1, 252_000, 1),
}


@functools.lru_cache(maxsize=None)
def _import_edges(count: int, num_edges: int, relations: int):
    """Uniform endpoints; relation r takes a 1/r share of the edges."""
    rng = np.random.default_rng(count)
    share = 1.0 / np.arange(1, relations + 1)
    rel = rng.choice(relations, num_edges, p=share / share.sum())
    return rng.integers(0, count, num_edges), rel, rng.integers(0, count, num_edges)


def _bucketed_arrays(bucketed) -> list:
    """The grid, the keys in order, and each bucket's columns and their
    dtypes."""
    out = [np.asarray([bucketed.nparts_lhs, bucketed.nparts_rhs]),
           np.asarray(list(bucketed.buckets)).reshape(-1, 2)]
    for edges in bucketed.buckets.values():
        columns = [edges.src, edges.rel, edges.dst]
        columns += [] if edges.weights is None else [edges.weights]
        out += [*columns, np.asarray([c.dtype.str for c in columns])]
    return out


@group("micro_import", name="import")
def import_(pkg, quick: bool):
    """``bucket_edges`` on each workload's training edges (compared: keys,
    key order, every bucket's columns and dtypes), ``partition_entities``
    at ``distributed_kg``'s size, and ``radix_argsort`` on a batch's row
    stack and on ``distributed_kg``'s bucket keys."""
    scale = 20 if quick else 1
    bucket_calls, part_calls, sort_calls = (5, 20, 20) if quick else (40, 200, 400)
    rows: "dict[str, Row]" = {}
    for name, (count, nparts, num_edges, relations) in IMPORT_SHAPES.items():
        count, num_edges = count // scale, num_edges // scale
        config = pkg.config.ConfigSchema(
            entities={"node": pkg.config.EntitySchema(num_partitions=nparts)},
            relations=[pkg.config.RelationSchema(name=f"r{i}", lhs="node", rhs="node")
                       for i in range(relations)],
            dimension=DIM,
        )
        entities = pkg.entities.EntityStorage({"node": count})
        layout = partial(pkg.partitioning.partition_entities, count, nparts)
        entities.set_partitioning("node", layout(np.random.default_rng(0)))
        edges = pkg.edgelist.EdgeList(*_import_edges(count, num_edges, relations))
        bucket = partial(pkg.partitioning.bucket_edges, edges, config, entities)
        rows[f"bucket_edges[{name}]"] = Row(
            bucket, bucket_calls, lambda bucket=bucket: _bucketed_arrays(bucket()),
            rate=("edges_per_s", num_edges))
        if name == "kg":
            def partition(layout=layout):
                return layout(np.random.default_rng(0))

            def layout_arrays(partition=partition):
                p = partition()
                return [p.part_of, p.offset_of, p.part_sizes, *p.global_of]

            rows["partition_entities[kg]"] = Row(partition, part_calls, layout_arrays)
    keys = np.random.default_rng(1).integers(0, 64, IMPORT_SHAPES["kg"][2])
    for ids in (_stack(BATCH)[0], keys):
        sort = partial(pkg.optimizers.radix_argsort, ids)
        rows[f"radix_argsort[{len(ids)}_ids]"] = Row(sort, sort_calls, sort)
    yield Group({
        "shapes": {name: list(shape) for name, shape in IMPORT_SHAPES.items()},
        "scale": scale, "bucket_calls": bucket_calls,
        "partition_calls": part_calls, "sort_calls": sort_calls,
    }, rows)


# --- chunk_step: the batched-negatives step of §4.3, layers under it --

CHUNK, BATCH, NEGS, DIM, NUM_ROWS = 100, 1000, 50, 64, 20_000
KG_EDGES, KG_RELATIONS, KG_ROWS, DISK_BATCH = 4571, 20, 16_250, 775


def _one_relation(comparator: str, operator: str, **kw):
    return social_config(comparator=comparator, relations=[
        RelationSchema(name="r", lhs="node", rhs="node", operator=operator)
    ], **kw)


@functools.lru_cache(maxsize=None)
def _uniform(edges: int) -> "list[tuple]":
    """Four seeded one-relation batches of ``edges`` edges."""
    draw = np.random.default_rng(edges).integers
    return [(0, draw(0, NUM_ROWS, edges), draw(0, NUM_ROWS, edges))
            for _ in range(4)]


@functools.lru_cache(maxsize=None)
def _kg_bucket() -> EdgeList:
    """One ``distributed_kg`` bucket: 20 relations with 1/r shares."""
    rng = np.random.default_rng(0)
    share = 1.0 / np.arange(1, KG_RELATIONS + 1)
    return EdgeList(
        rng.integers(0, KG_ROWS, KG_EDGES),
        rng.choice(KG_RELATIONS, KG_EDGES, p=share / share.sum()),
        rng.integers(0, KG_ROWS, KG_EDGES),
    )


@functools.lru_cache(maxsize=None)
def _packed_kg_batches() -> "list[tuple]":
    return [(b.rel, b.src, b.dst) for b in iterate_batches(
        _kg_bucket(), BATCH, np.random.default_rng(3), chunk_size=CHUNK,
        groups=np.zeros(KG_RELATIONS, dtype=np.int64),
    )]


def _cycle(batches, split: "int | None" = None):
    """A feed that takes the next of ``batches`` per timed call, as one
    model call per ``split`` edges (one-relation batches only)."""
    turn = itertools.count()

    def feed(rng):
        rel, src, dst = batches[next(turn) % len(batches)]
        width = split or len(src)
        return [(rel, src[lo:lo + width], dst[lo:lo + width])
                for lo in range(0, len(src), width)]

    return feed


def _training_row(pkg, calls, config, feed, *, num_rows=NUM_ROWS,
                  two_tables=False, chunk_size=CHUNK, info=dict) -> Row:
    """``forward_backward_chunk`` at ``chunk_size`` on what ``feed``
    yields per timed call, on this side's model and tables (seeded alike
    on both sides); compared: tables, Adagrad state, relation
    parameters, last stats."""
    config = pkg.config.ConfigSchema.from_dict(config.to_dict())
    (entity,) = config.entities
    rng = np.random.default_rng(0)
    model = pkg.model.EmbeddingModel(config, pkg.entities.EntityStorage({entity: num_rows}), rng)
    create = pkg.tables.DenseEmbeddingTable.create
    lhs = create(num_rows, DIM, rng)
    tables = [lhs, create(num_rows, DIM, rng)] if two_tables else [lhs]
    rng, last = np.random.default_rng(1), []

    def step():
        for rel, src, dst in feed(rng):
            last[:] = [model.forward_backward_chunk(
                rel, src, dst, lhs, tables[-1], rng, chunk_size=chunk_size
            )]

    def state():
        s = last[0]
        return [*model.rel_params, *(o.state for o in model.rel_optimizers),
                *((t.weights, t.optimizer.state) for t in tables),
                (s.loss, s.num_edges, s.num_negatives, s.violations)]

    return Row(step, calls, state, info)


def _bucket_row(pkg, calls, operator: str, groups, chunk_size: int) -> Row:
    """The kg bucket as ``iterate_batches`` packs it; info: its model
    calls, chunks and runs of equal-width chunks (six matmuls a run)."""

    def batches(rng):
        return ((b.rel, b.src, b.dst) for b in pkg.batching.iterate_batches(
            _kg_bucket(), BATCH, rng, chunk_size=chunk_size, groups=groups
        ))

    widths = [np.diff(pkg.batching.chunk_bounds(rel, CHUNK))
              for rel, _, _ in batches(np.random.default_rng(2))]
    shape = {
        "calls": len(widths), "chunks": sum(map(len, widths)),
        "matmul_runs": int(sum(
            1 + np.count_nonzero(w[1:] != w[:-1]) for w in widths
        )),
    }
    return _training_row(pkg, calls, kg_config(KG_RELATIONS, operator),
                         batches, num_rows=KG_ROWS, info=shape.copy)


@functools.lru_cache(maxsize=None)
def _stack(edges: int):
    """The row stack ``[src | src negs | dst | dst negs]`` of ``edges``
    same-table edges in chunks of 100 (400 rows a chunk), a gradient per
    row, and ranking-loss scores and mask of the same chunks."""
    rng = np.random.default_rng(2)
    src, dst = (rng.integers(0, NUM_ROWS, edges) for _ in range(2))
    pools = [sample_pool(side.reshape(-1, CHUNK), side.reshape(-1, CHUNK),
                         NUM_ROWS, NEGS, NEGS, rng) for side in (src, dst)]
    stack = np.concatenate(
        (src, pools[0].entities.ravel(), dst, pools[1].entities.ravel())
    )
    grads = rng.standard_normal((len(stack), DIM), dtype=np.float32)
    pos = rng.standard_normal(edges, dtype=np.float32)
    neg = rng.standard_normal((edges, 4 * NEGS), dtype=np.float32)
    mask = np.concatenate(
        [pool.mask.reshape(edges, 2 * NEGS) for pool in pools], axis=1
    )
    return stack, grads, pos, neg, mask


def matmul_floor():
    """A chunk's two score matrices and four backward products: the
    arithmetic floor of the paper's Figure 3."""
    rng = np.random.default_rng(1)
    a, b, pa, pb = (rng.standard_normal((n, DIM), dtype=np.float32)
                    for n in (CHUNK, CHUNK, 2 * NEGS, 2 * NEGS))
    g = rng.standard_normal((CHUNK, 2 * NEGS), dtype=np.float32)
    return lambda: (a @ pb.T, b @ pa.T, g @ pb, g.T @ a, g @ pa, g.T @ b)


def accumulate_alternatives(rows, grads):
    """The variants ``accumulate_duplicate_rows`` is measured against."""
    m = len(rows)
    ones = np.ones(m, dtype=grads.dtype)

    def coo_constructor():
        unique, inverse = np.unique(rows, return_inverse=True)
        selector = sp.csr_matrix(
            (ones, (inverse, np.arange(m))), shape=(len(unique), m)
        )
        return unique, selector @ grads

    def segments():
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
        return order, sorted_rows, np.concatenate(([0], starts))

    def csr_constructor():
        order, sorted_rows, starts = segments()
        selector = sp.csr_matrix(
            (ones, order, np.append(starts, m)), shape=(len(starts), m)
        )
        return sorted_rows[starts], selector @ grads

    def reduceat():
        order, sorted_rows, starts = segments()
        return sorted_rows[starts], np.add.reduceat(grads[order], starts)

    return {f.__name__: f for f in (coo_constructor, csr_constructor,
                                    reduceat)}


def _epoch_row(pkg, calls: int, lanes: int, nodes: int) -> Row:
    """One ``dense_social``-shaped epoch a call on ``lanes`` threads in
    the bucket (a tree without lanes trains its default); info: edges/s
    and held-out MRR afterwards."""
    graph, train, test = livejournal_splits(nodes)
    config = pkg.config.ConfigSchema.from_dict(
        social_config(num_epochs=1).to_dict()
    )
    entities = pkg.entities.EntityStorage({"node": graph.num_nodes})
    model = pkg.model.EmbeddingModel(config, entities, np.random.default_rng(0))
    trainer = pkg.trainer.Trainer(config, model, entities, None, np.random.default_rng(0))
    bucketed = pkg.trainer.bucket_edges(train, config, entities)

    def epoch():
        host_lanes = getattr(pkg.trainer, "host_lanes", None)
        if host_lanes is None:
            return trainer.train_bucketed(bucketed)
        pkg.trainer.host_lanes = lambda: lanes
        try:
            return trainer.train_bucketed(bucketed)
        finally:
            pkg.trainer.host_lanes = host_lanes

    def state():
        table = model.get_table("node", 0)
        return [*model.rel_params, table.weights, table.optimizer.state]

    return Row(
        epoch, calls, state,
        lambda: {"mrr": eval_ranking(model, test, max_eval=2000).mrr},
        ("edges_per_s", len(train)),
    )


@group("micro_chunk_step")
def chunk_step(pkg, quick: bool):
    calls, bucket_calls, epoch_calls = (40, 10, 5) if quick else (600, 100, 20)
    nodes = NUM_ROWS // 20 if quick else NUM_ROWS
    rows: "dict[str, Row]" = {}
    for comparator, operator in (("cos", "identity"), ("dot", "translation")):
        config = _one_relation(comparator, operator)
        for two_tables in (False, True):
            layout = "two_tables" if two_tables else "same_table"
            for name, feed in {
                "forward_backward_chunk": _cycle(_uniform(CHUNK)),
                "batch_as_chunk_calls": _cycle(_uniform(BATCH), CHUNK),
                "batch_as_one_call": _cycle(_uniform(BATCH)),
                "ragged_batch_as_one_call": _cycle(_uniform(DISK_BATCH)),
            }.items():
                rows[f"{name}[{comparator},{operator},{layout}]"] = (
                    _training_row(pkg, calls, config, feed,
                                  two_tables=two_tables))
    rows["batch[l2,translation,two_tables]"] = _training_row(
        pkg, calls, _one_relation("l2", "translation"), _cycle(_uniform(BATCH)), two_tables=True)
    rows["batch[dot,affine,same_table]"] = _training_row(
        pkg, calls, _one_relation("dot", "affine"), _cycle(_uniform(BATCH)))
    rows["batch[dot,translation,same_table,logistic]"] = _training_row(
        pkg, calls, _one_relation("dot", "translation", loss="logistic"),
        _cycle(_uniform(BATCH)))
    # Figure 4's unbatched baseline: every edge its own 100 uniform negatives.
    rows["unbatched_chunk[dot,translation,same_table]"] = _training_row(
        pkg, calls,
        _one_relation("dot", "translation", num_batch_negs=0, num_uniform_negs=2 * NEGS),
        _cycle(_uniform(CHUNK)), chunk_size=1)
    rows["kg_batch[dot,translation,20_relations]"] = _training_row(
        pkg, calls, kg_config(KG_RELATIONS), _cycle(_packed_kg_batches()), num_rows=KG_ROWS)
    rows["per_relation_batches[dot,translation]"] = _bucket_row(
        pkg, bucket_calls, "translation", np.arange(KG_RELATIONS), BATCH)
    for operator in ("translation", "linear"):
        rows[f"packed_batches[dot,{operator}]"] = _bucket_row(
            pkg, bucket_calls, operator, np.zeros(KG_RELATIONS, dtype=np.int64), CHUNK)
    floor = matmul_floor()
    rows["matmul_floor"] = Row(floor, calls, floor)

    for edges in (CHUNK, BATCH):
        stack, grads, pos, neg, mask = _stack(edges)
        size = f"[{len(stack)}_rows]"
        accumulate = partial(pkg.optimizers.accumulate_duplicate_rows, stack, grads)
        rows["accumulate_duplicate_rows" + size] = Row(
            accumulate, calls, accumulate,
            {"unique_row_ratio": len(np.unique(stack)) / len(stack)}.copy,
        )
        params = np.zeros((NUM_ROWS, DIM), dtype=np.float32)
        optimizer = pkg.optimizers.RowAdagrad(NUM_ROWS)
        rows["row_adagrad_step" + size] = Row(
            partial(optimizer.step, params, stack, grads, 0.1), calls,
            lambda params=params, optimizer=optimizer: (params, optimizer.state))
    # The last stack is one dense_social batch's.
    ranking = partial(pkg.losses.RankingLoss(0.1).forward_backward,
                      pos, neg, mask)
    rows["ranking_loss"] = Row(ranking, calls, ranking)
    prepare = partial(pkg.comparators.CosComparator().prepare_saved, grads)
    rows["cos_prepare_saved"] = Row(prepare, calls, prepare)

    stack, grads, *_ = _stack(CHUNK)
    expected = pkg.optimizers.accumulate_duplicate_rows(stack, grads)
    checks = {}
    for name, fn in accumulate_alternatives(stack, grads).items():
        rows[f"accumulate[{name}]"] = Row(fn, calls, fn)
        got = fn()
        same = np.array_equal(got[0], expected[0]) and np.allclose(
            got[1], expected[1], rtol=1e-7, atol=1e-5
        )
        checks[f"accumulate[{name}] equals accumulate_duplicate_rows"] = (
            lambda _, same=same: same
        )

    for lanes in (1, 2):
        rows[f"epoch[lanes={lanes}]"] = _epoch_row(pkg, epoch_calls, lanes, nodes)
    # Both rows made the same calls: the lanes change no bit.
    lanes_state = [rows[f"epoch[lanes={lanes}]"].output for lanes in (1, 2)]
    checks["epoch[lanes=1] equals epoch[lanes=2]"] = lambda _: all(
        np.array_equal(a, b) for a, b in zip(*(state() for state in lanes_state))
    )
    yield Group({
        "chunk": CHUNK, "negs_per_source": NEGS, "dim": DIM,
        "num_rows": NUM_ROWS, "batch": BATCH, "disk_batch": DISK_BATCH,
        "kg_edges": KG_EDGES, "kg_relations": KG_RELATIONS,
        "kg_rows": KG_ROWS, "epoch_nodes": nodes, "calls": calls,
        "bucket_calls": bucket_calls, "epoch_calls": epoch_calls,
    }, rows, checks)


# --- partition_swap: the partition pipeline of §4.1 ------------------

SWAP_ROWS, DRAIN_PARTS, SWAP_PARTS, BESIDE_STEPS = 5_000, 8, 4, 20


@functools.lru_cache(maxsize=None)
def _partitions() -> "list[tuple]":
    """``partitioned_disk``'s partition: 5 000 x 64 float32 and a float32
    of optimizer state per row (1.3 MB)."""
    rng = np.random.default_rng(0)
    return [(rng.standard_normal((SWAP_ROWS, DIM), dtype=np.float32),
             rng.random(SWAP_ROWS, dtype=np.float32))
            for _ in range(DRAIN_PARTS)]


def _dict_backend(absent: type) -> SimpleNamespace:
    """The ``load``/``save`` interface over a dict: no I/O, no copy."""
    parts: dict = {}

    def load(entity_type, part):
        if (entity_type, part) not in parts:
            raise absent(f"no partition {entity_type}/{part}")
        return parts[entity_type, part]

    def save(entity_type, part, *arrays, dirty_rows=None):
        parts[entity_type, part] = arrays

    return SimpleNamespace(load=load, save=save)


def _serial_pipeline(pkg, backend):
    """The serial pipeline of either tree: budget 0, or the
    ``synchronous=True`` mode of a tree that still has one."""
    cls = pkg.storage.PartitionPipeline
    if "synchronous" in inspect.signature(cls).parameters:
        return cls(backend, synchronous=True)
    return cls(backend, budget_bytes=0)


def _swap_rows(pkg, make_backend, synchronous: bool, calls: int, stack):
    """``park_take`` (the flush-before-reuse round trip), ``park_evict``
    (each park pushes the other partition out of a one-partition budget)
    and ``drain`` (park 8, drain); compared: the partitions the last
    call parked, read back from the backend after a drain."""
    parts = _partitions()
    turn = [0]

    def park_take(pipe):
        pipe.park("node", 0, *parts[0])
        pipe.take("node", 0)

    def park_evict(pipe):
        turn[0] ^= 1
        pipe.park("node", turn[0], *parts[turn[0]])

    def drain(pipe):
        for part, arrays in enumerate(parts):
            pipe.park("node", part, *arrays)
        pipe.drain()

    rows = {}
    for op, budget, parked, rate in (
        (park_take, None, lambda: [0], None),
        (park_evict, sum(a.nbytes for a in parts[0]), lambda: turn, None),
        (drain, None, lambda: range(DRAIN_PARTS),
         ("partitions_per_s", DRAIN_PARTS)),
    ):
        backend = make_backend()
        pipe = (_serial_pipeline(pkg, backend) if synchronous else
                pkg.storage.PartitionPipeline(backend, budget_bytes=budget))
        stack.callback(pipe.close)

        def stored(pipe=pipe, backend=backend, parked=parked):
            pipe.drain()
            return [backend.load("node", part) for part in parked()]

        rows[op.__name__] = Row(partial(op, pipe), calls, stored, rate=rate)
    return rows


def _swapper(pipe, stop: threading.Event, cycles: list) -> None:
    """Swap ``partitioned_disk``'s way until ``stop``: prefetch the next
    partition, park the held one (written back), take the next; then
    park the last and drain, so nothing is in flight afterwards."""
    part, held = 0, pipe.take("node", 0)[0]
    while not stop.is_set():
        nxt = (part + 1) % SWAP_PARTS
        pipe.schedule([("node", nxt)])
        pipe.park("node", part, *held)
        pipe.settle()
        part, held = nxt, pipe.take("node", nxt)[0]
        cycles[0] += 1
    pipe.park("node", part, *held)
    pipe.drain()


def _train_beside_swaps_row(pkg, calls: int, steps: int, store, stack) -> Row:
    """``steps`` calls of ``partitioned_disk``'s batch step on the main
    thread while a second thread keeps a pipelined disk store swapping
    5 000 x 64 partitions: what the swap threads cost the trainer in
    interpreter-lock time. Compared: the trained tables, as
    ``ragged_batch_as_one_call`` does; info: swaps per second."""
    train = _training_row(pkg, calls, _one_relation("cos", "identity"),
                          _cycle(_uniform(DISK_BATCH)), two_tables=True)
    for part in range(SWAP_PARTS):
        store.save("node", part, *_partitions()[part])
    pipe = pkg.storage.PartitionPipeline(
        store, budget_bytes=sum(a.nbytes for a in _partitions()[0]),
        name="beside")
    stack.callback(pipe.close)
    cycles, seconds = [0], [0.0]

    def call():
        stop = threading.Event()
        thread = threading.Thread(target=_swapper, args=(pipe, stop, cycles))
        start = time.perf_counter()
        thread.start()
        try:
            for _ in range(steps):
                train.call()
        finally:
            stop.set()
            thread.join()
            seconds[0] += time.perf_counter() - start

    return Row(call, calls, train.output,
               lambda: {"swaps_per_s": cycles[0] / seconds[0]})


@group("micro_partition_swap")
def partition_swap(pkg, quick: bool):
    calls = 40 if quick else 400
    rows: "dict[str, Row]" = {}
    with tempfile.TemporaryDirectory(prefix="micro_partition_swap_") as tmp, \
            ExitStack() as stack:
        disks = itertools.count()
        backends = {
            "memory": partial(_dict_backend, pkg.storage.PartitionAbsent),
            "disk": lambda: pkg.storage.PartitionedEmbeddingStorage(
                Path(tmp) / str(next(disks))
            ),
        }
        for backend, make_backend in backends.items():
            for synchronous in (True, False):
                mode = "synchronous" if synchronous else "pipelined"
                for name, row in _swap_rows(
                    pkg, make_backend, synchronous, calls, stack
                ).items():
                    rows[f"{name}[{backend},{mode}]"] = row
        beside_calls = 10 if quick else 60
        rows["train_beside_swaps[disk,pipelined]"] = _train_beside_swaps_row(
            pkg, beside_calls, BESIDE_STEPS, backends["disk"](), stack)
        yield Group({"rows": SWAP_ROWS, "dim": DIM,
                     "drain_parts": DRAIN_PARTS, "calls": calls,
                     "beside_calls": beside_calls,
                     "beside_steps": BESIDE_STEPS}, rows)


# --- partition_rpc: partition- and parameter-server calls of §4.2 ----

RPC_ROWS, DIRTY, SYNC_PARAMS = 16_250, 8_900, 20


@functools.lru_cache(maxsize=None)
def _rpc_inputs():
    """``distributed_kg``'s partition (16 250 x 64 and a float32 of state
    per row) and the ~8 900 rows one bucket dirties."""
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((RPC_ROWS, DIM), dtype=np.float32)
    state = rng.random(RPC_ROWS, dtype=np.float32)
    return emb, state, np.sort(rng.permutation(RPC_ROWS)[:DIRTY])


def _server_rows(pkg, server, codec_name: str, calls: int):
    """Server calls handed an encoded payload, and the same through the
    per-machine ``PartitionServerStorage`` (codec plus call); info: the
    pickled bytes that cross per call (what a proxy writes; in process
    nothing is pickled)."""
    emb, state, dirty = _rpc_inputs()
    codec = pkg.compression.get_codec(codec_name)
    payload = codec.encode(emb, state)
    delta = pkg.compression.encode_delta(codec, dirty, emb[dirty],
                                         state[dirty])
    full, part = ({"pickled_bytes": len(pickle.dumps(p))}.copy
                  for p in (payload, delta))
    version = [server.put("bench", 0, payload)]

    def put_delta():
        version[0] = server.put_delta("bench", 0, delta, version[0])

    store = pkg.partition_server.PartitionServerStorage(server, use_delta=True)
    store.save("bench", 1, emb, state)  # the adapter's delta baseline
    held = [partial(server.get_versioned, "bench", key) for key in range(4)]
    load = partial(store.load, "bench", 1)
    return {
        "server.get_versioned": Row(held[0], calls, held[0], full),
        "server.put": Row(partial(server.put, "bench", 2, payload), calls,
                          held[2], full),
        "server.put_delta": Row(put_delta, calls, held[0], part),
        "adapter.load": Row(load, calls, load, full),
        "adapter.save": Row(partial(store.save, "bench", 3, emb, state),
                            calls, held[3], full),
        "adapter.save_delta": Row(
            partial(store.save, "bench", 1, emb, state, dirty_rows=dirty),
            calls, held[1], part,
        ),
    }


def _sync_row(pkg, server, calls: int) -> Row:
    """One ``SharedParameterClient`` sync of 20 parameters of 64 floats,
    every one changed; info: deltas out plus values back, pickled."""
    params = {f"r{i}": np.zeros(DIM, dtype=np.float32)
              for i in range(SYNC_PARAMS)}
    client = pkg.parameter_server.SharedParameterClient(
        server, lambda: {k: v.copy() for k, v in params.items()},
        params.update, sync_interval=1,
    )
    client.initial_sync()

    def sync():
        for value in params.values():
            value += 1.0  # every parameter has a delta to push
        client.maybe_sync()

    return Row(sync, calls, params.copy,
               {"pickled_bytes": 2 * len(pickle.dumps(params))}.copy)


@group("micro_partition_rpc")
def partition_rpc(pkg, quick: bool):
    calls = 20 if quick else 200
    manager = pkg.cluster._ServerManager()
    manager.start()
    try:
        rows: "dict[str, Row]" = {}
        for transport, (partitions, parameters) in {
            "in_process": (pkg.partition_server.PartitionServer,
                           pkg.parameter_server.ParameterServer),
            "proxy": (manager.PartitionServer, manager.ParameterServer),
        }.items():
            for codec in ("none", "int8", "fp16"):
                for name, row in _server_rows(
                    pkg, partitions(1, codec), codec, calls
                ).items():
                    rows[f"{name}[{codec},{transport}]"] = row
            rows[f"parameter.sync[{transport}]"] = _sync_row(pkg, parameters(2), calls)
        yield Group({"rows": RPC_ROWS, "dim": DIM, "dirty": DIRTY,
                     "sync_params": SYNC_PARAMS, "sync_dim": DIM,
                     "calls": calls}, rows)
    finally:
        manager.shutdown()


# --- knn_query and serving_knn: the serving kernels (SERVING.md) -----

K, KNN_BATCH, NPROBE = 10, 64, 8


def recall_at_k(idx, true_idx) -> float:
    return float(np.mean([len(np.intersect1d(a, b)) / true_idx.shape[1]
                          for a, b in zip(idx, true_idx)]))


@functools.lru_cache(maxsize=None)
def _serve_knn_inputs(blobs: int, per_blob: int):
    """The benchmark of record's ``serve_knn`` table (Gaussian blobs wide
    enough to overlap and to span several lists each) and 64 batches of
    perturbed member rows."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((blobs, DIM))
    table = np.repeat(centers, per_blob, axis=0) + 0.5 * rng.standard_normal(
        (blobs * per_blob, DIM)
    )
    table = table[rng.permutation(len(table))].astype(np.float32)
    picks = rng.integers(0, len(table), (64, KNN_BATCH))
    noise = 0.05 * rng.standard_normal((KNN_BATCH, DIM)).astype(np.float32)
    return table, [table[p] + noise for p in picks]


def scanned_share(index, batch: np.ndarray) -> float:
    """Comparator cells one batch scores, per query x table row."""
    cells = []
    score_matrix = index._comp.score_matrix

    def counting(a, pool, *args, **kwargs):
        cells.append(len(a) * len(pool))
        return score_matrix(a, pool, *args, **kwargs)

    index._comp.score_matrix = counting
    try:
        index.query(batch, k=K)
    finally:
        del index._comp.score_matrix
    return sum(cells) / (len(batch) * index.num_items)


@group("micro_knn_query")
def knn_query(pkg, quick: bool):
    """A fresh 64-query batch a call; info: the IVF's recall@10 and its
    share of ``queries x rows`` comparator cells, centroids included."""
    blobs, per_blob, num_lists = (8, 625, 32) if quick else (32, 3125, 256)
    ivf_calls, exact_calls = (40, 20) if quick else (200, 40)
    table, batches = _serve_knn_inputs(blobs, per_blob)
    exact = pkg.serving.ExactIndex(table, "cos")
    ivf = pkg.serving.IVFPQIndex(comparator="cos", num_lists=num_lists, nprobe=NPROBE).build(table)

    def fresh(index):
        cycle = itertools.cycle(batches)
        return lambda: index.query(next(cycle), k=K)

    def quality():
        ids = [np.concatenate([index.query(b, k=K)[0] for b in batches[:16]])
               for index in (ivf, exact)]
        return {"recall_at_10": recall_at_k(*ids),
                "scanned_row_share": scanned_share(ivf, batches[0])}

    yield Group({
        "rows": len(table), "dim": DIM, "blobs": blobs,
        "num_lists": num_lists, "nprobe": NPROBE, "batch": KNN_BATCH, "k": K,
        "ivf_calls": ivf_calls, "exact_calls": exact_calls,
    }, {
        f"ivf[b={KNN_BATCH}]": Row(fresh(ivf), ivf_calls, partial(ivf.query, batches[0], k=K),
                                   quality, ("qps", KNN_BATCH)),
        f"exact[b={KNN_BATCH}]": Row(fresh(exact), exact_calls, partial(
            exact.query, batches[0], k=K), rate=("qps", KNN_BATCH)),
    })


@functools.lru_cache(maxsize=None)
def clustered_dataset(num_clusters, per_cluster, dim, num_queries, seed=0):
    """Gaussian blobs + slightly perturbed member rows as queries."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_clusters, dim)) * 4.0
    emb = np.vstack([
        centers[i] + 0.5 * rng.standard_normal((per_cluster, dim))
        for i in range(num_clusters)
    ]).astype(np.float32)
    picks = rng.choice(len(emb), num_queries, replace=False)
    queries = (
        emb[picks] + 0.05 * rng.standard_normal((num_queries, dim))
    ).astype(np.float32)
    return emb, queries


def swap_is_clean(serving, emb, queries) -> bool:
    """Publish v1, serve, republish v2 and poll across the swap: the
    final served version is v2 and no retired snapshot stays pinned."""
    with tempfile.TemporaryDirectory(prefix="micro_serving_knn_") as root:
        serving.publish_embeddings(root, emb, comparator="cos")
        manager = serving.SnapshotManager(root)
        manager.refresh()
        try:
            service = serving.QueryService(
                manager, batch_size=max(1, len(queries) // 4),
                auto_refresh=True,
            )
            before = service.query_pinned(queries[:4], k=K)[2]
            serving.publish_embeddings(root, emb, comparator="cos")
            service.query(queries, k=K)  # polls CURRENT between batches
            after = service.query_pinned(queries[:4], k=K)[2]
            return (before, after, manager.retired_count()) == (1, 2, 0)
        finally:
            manager.close()


@group("serving_knn")
def serving_knn(pkg, quick: bool):
    """Spend recall, buy QPS: one 1 000-query batch a call (quick: 400)
    on clustered embeddings, the exact scan against float IVF at a
    sweep of ``nprobe``; checked on recall (quick) or on recall and the
    speedup over exact (full size), and on a clean snapshot swap."""
    if quick:
        clusters, per_cluster, dim, num_queries = 80, 50, 32, 400
        num_lists, probes, calls = 64, (4, 8), 20
    else:
        clusters, per_cluster, dim, num_queries = 200, 100, 64, 1000
        num_lists, probes, calls = 128, (2, 4, 8, 16), 30
    emb, queries = clustered_dataset(clusters, per_cluster, dim, num_queries)
    indexes = {"exact": pkg.serving.ExactIndex(comparator="cos")}
    for nprobe in probes:
        indexes[f"ivf[l={num_lists},p={nprobe}]"] = pkg.serving.IVFPQIndex(
            comparator="cos", num_lists=num_lists, nprobe=nprobe)
    rows, truth = {}, None
    for name, index in indexes.items():
        start = time.perf_counter()
        index.build(emb)
        info = {"build_seconds": time.perf_counter() - start,
                "nbytes": index.nbytes()}
        query = partial(index.query, queries, k=K)
        found = query()[0]
        truth = found if truth is None else truth
        info["recall_at_k"] = recall_at_k(found, truth)
        rows[name] = Row(query, calls, query, info.copy, ("qps", num_queries))
    clean = swap_is_clean(pkg.serving, emb, queries)

    def ivf(recorded):  # the float-IVF rows
        return [r for n, r in recorded.items() if n.startswith("ivf[")]
    checks = {
        "snapshot swap v1 -> v2 clean (nothing retired left pinned)":
            lambda r: clean,
    }
    if quick:
        checks["some IVF config reaches recall@10 >= 0.9"] = lambda r: any(
            row["recall_at_k"] >= 0.9 for row in ivf(r)
        )
    else:
        checks["some float-IVF config reaches >= 5x exact's QPS at "
               "recall@10 >= 0.95"] = lambda r: any(
            row["recall_at_k"] >= 0.95 and row["qps"] >= 5 * r["exact"]["qps"]
            for row in ivf(r)
        )
    yield Group({
        "num_items": len(emb), "dim": dim, "num_clusters": clusters,
        "num_queries": num_queries, "k": K, "comparator": "cos",
        "num_lists": num_lists, "calls": calls,
    }, rows, checks)


if __name__ == "__main__":
    sys.exit(main())
