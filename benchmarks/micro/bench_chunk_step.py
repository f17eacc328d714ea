"""Chunk step micro-benchmark: µs per call against the matmul-only floor.

First file of the per-layer ledger (ROADMAP item 1). At the shapes of
the benchmark of record (chunk 100, 50 + 50 negatives per side, d = 64,
20 000 rows, float32, one BLAS thread) it times

- ``EmbeddingModel.forward_backward_chunk`` for ``cos``/``identity``
  (``dense_social``) and ``dot``/``translation`` (``distributed_kg``),
  with both sides in one table and in two: one chunk, then a
  1000-edge batch as ten one-chunk calls (ten updates) against one
  batch call (ten chunks sharing one gather, backward and update);
- one ``distributed_kg`` bucket (4 571 edges of 20 relations with 1/r
  shares over a 16 250-row table, ``dot``/``translation`` and ``linear``)
  trained as the parent's one-relation batches and as packed
  relation-mixed batches, through the same ``iterate_batches`` and
  ``forward_backward_chunk`` calls — µs per bucket beside the calls,
  the chunks and the runs of equal-width chunks (each is six score
  matmuls; no slot is padding: a short chunk is a narrower rectangle) —
  and
  ``partitioned_disk``'s one-relation 775-edge batch (7 full chunks and
  a 75-edge tail, one stack);
- the six chunk-sized matmuls on their own — the arithmetic floor of
  the paper's Figure 3, below which no assembly change can go;
- ``RowAdagrad.step`` on one chunk's 400 stacked rows (~25 % repeats);
- ``accumulate_duplicate_rows`` on the same rows, beside the three
  alternatives its docstring quotes (COO -> ``csr_matrix``, the
  ``(data, indices, indptr)`` constructor, ``np.add.reduceat``);
- whole epochs of ``dense_social``'s shape with ``num_workers`` 1, 2
  and 4 (in-bucket HOGWILD threads, ``BucketExecutor.train``): edges/s
  and held-out MRR — whether threads under one interpreter lock buy
  anything is a property of the machine, so it is a ledger row.

Inputs are seeded and every timing is the median over 7 batches of 400
calls (``--quick``: 3 of 40; a kg bucket counts as 50 calls), so two
runs on one machine agree to a few percent; the epoch rows are medians
over ten rounds of three epochs that take the worker counts in rotating
order (``--quick``: one round of one epoch at 1/20 size). The report is
appended to ``BENCH_history.jsonl``.

``--against PATH`` runs the *paired* ledger instead: a second copy of
``repro`` is imported from ``PATH`` (a checkout of another commit, or
its ``src``) as module objects distinct from this one's, and both
versions train the same batches on their own, identically seeded models
and tables in one process, one call each in turn (which goes first
alternates). Separate processes on a shared box differ by more than the
few percent a change to the step is worth; calls that alternate in one
warm process do not. Each row reports the trimmed mean (10 % cut at
each end) per side, the ratio change / other with its sample count,
and whether the two versions' tables, Adagrad state, relation
parameters and statistics were still bit-identical after the untimed
first batches (the layer rows compare their outputs). The rows: the
batches of ``dense_social`` (1000 edges, ``cos``/``identity``),
``partitioned_disk`` (775 edges, two tables), a packed 20-relation
``dot``/``translation`` batch, an ``l2`` batch and an unbatched-negatives
chunk, then ``accumulate_duplicate_rows``, ``RowAdagrad.step``,
``RankingLoss.forward_backward`` and ``CosComparator.prepare_saved`` on
one batch's 4 000-row stack. ``--against src`` pairs the tree with
itself: ratios near 1, and a row that is not bit-identical fails the
run.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_chunk_step.py [--quick]
    PYTHONPATH=src python benchmarks/micro/bench_chunk_step.py \\
        --against ../parent-checkout [--quick]
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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
    time_us,
    train_single,
)

from repro.config import RelationSchema
from repro.core.batching import chunk_bounds, iterate_batches
from repro.core.model import EmbeddingModel
from repro.core.negatives import sample_pool
from repro.core.optimizers import RowAdagrad, accumulate_duplicate_rows
from repro.core.tables import DenseEmbeddingTable
from repro.graph.edgelist import EdgeList
from repro.graph.entity_storage import EntityStorage

CHUNK, BATCH, NEGS, DIM, NUM_ROWS = 100, 1000, 50, 64, 20_000
WORKERS = (1, 2, 4)
KG_EDGES, KG_RELATIONS, KG_ROWS, DISK_BATCH = 4571, 20, 16_250, 775


def chunk_steps(comparator: str, operator: str, two_tables: bool):
    """Closures over one model and seeded inputs: one training chunk,
    a batch as one-chunk calls, the same batch as one call."""
    config = social_config(comparator=comparator, relations=[
        RelationSchema(name="r", lhs="node", rhs="node", operator=operator)
    ])
    rng = np.random.default_rng(0)
    model = EmbeddingModel(config, EntityStorage({"node": NUM_ROWS}), rng)
    lhs = DenseEmbeddingTable.create(NUM_ROWS, DIM, rng)
    rhs = DenseEmbeddingTable.create(NUM_ROWS, DIM, rng) if two_tables else lhs
    src = rng.integers(0, NUM_ROWS, BATCH)
    dst = rng.integers(0, NUM_ROWS, BATCH)

    def step(lo, hi, **kwargs):
        return model.forward_backward_chunk(
            0, src[lo:hi], dst[lo:hi], lhs, rhs, rng, **kwargs
        )

    return {
        "forward_backward_chunk": lambda: step(0, CHUNK),
        "batch_as_chunk_calls": lambda: [
            step(lo, lo + CHUNK) for lo in range(0, BATCH, CHUNK)
        ],
        "batch_as_one_call": lambda: step(0, BATCH, chunk_size=CHUNK),
        "ragged_batch_as_one_call": lambda: step(
            0, DISK_BATCH, chunk_size=CHUNK
        ),
    }


def kg_bucket(operator: str):
    """One ``distributed_kg`` bucket: closures that train it as
    one-relation batches (every relation its own group, chunks of a
    whole batch) and as packed batches of one relation group, and the
    shape of each — model calls, chunks, runs of equal-width chunks."""
    rng = np.random.default_rng(0)
    config = kg_config(KG_RELATIONS, operator)
    model = EmbeddingModel(config, EntityStorage({"ent": KG_ROWS}), rng)
    table = DenseEmbeddingTable.create(KG_ROWS, DIM, rng)
    share = 1.0 / np.arange(1, KG_RELATIONS + 1)
    edges = EdgeList(
        rng.integers(0, KG_ROWS, KG_EDGES),
        rng.choice(KG_RELATIONS, KG_EDGES, p=share / share.sum()),
        rng.integers(0, KG_ROWS, KG_EDGES),
    )
    packings = {
        "per_relation_batches": dict(
            chunk_size=BATCH, groups=np.arange(KG_RELATIONS)
        ),
        "packed_batches": dict(
            chunk_size=CHUNK, groups=np.zeros(KG_RELATIONS, dtype=np.int64)
        ),
    }

    def train(packing):
        for batch in iterate_batches(edges, BATCH, rng, **packing):
            model.forward_backward_chunk(
                batch.rel, batch.src, batch.dst, table, table, rng,
                chunk_size=CHUNK,
            )

    def shape(packing):
        widths = [
            np.diff(chunk_bounds(batch.rel, CHUNK))
            for batch in iterate_batches(edges, BATCH, rng, **packing)
        ]
        return {
            "calls": len(widths),
            "chunks": sum(map(len, widths)),
            "matmul_runs": int(sum(
                1 + np.count_nonzero(w[1:] != w[:-1]) for w in widths
            )),
        }

    return {
        name: (lambda packing=packing: train(packing), shape(packing))
        for name, packing in packings.items()
    }


def matmul_floor():
    """The two score matrices and their four backward products."""
    rng = np.random.default_rng(1)
    a, b = (rng.standard_normal((CHUNK, DIM), dtype=np.float32)
            for _ in range(2))
    pa, pb = (rng.standard_normal((2 * NEGS, DIM), dtype=np.float32)
              for _ in range(2))
    g = rng.standard_normal((CHUNK, 2 * NEGS), dtype=np.float32)

    def run():
        return (a @ pb.T, b @ pa.T, g @ pb, g.T @ a, g @ pa, g.T @ b)

    return run


def stacked_rows(rng):
    """One same-table chunk's row stack and a gradient for each row."""
    src = rng.integers(0, NUM_ROWS, CHUNK)
    dst = rng.integers(0, NUM_ROWS, CHUNK)
    pools = [
        sample_pool(side, side, NUM_ROWS, NEGS, NEGS, rng).entities
        for side in (src, dst)
    ]
    rows = np.concatenate((src, pools[0], dst, pools[1]))
    grads = rng.standard_normal((len(rows), DIM), dtype=np.float32)
    return rows, grads


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
        indptr = np.append(starts, m)
        selector = sp.csr_matrix(
            (ones, order, indptr), shape=(len(starts), m)
        )
        return sorted_rows[starts], selector @ grads

    def reduceat():
        order, sorted_rows, starts = segments()
        return sorted_rows[starts], np.add.reduceat(grads[order], starts)

    return {
        "coo_constructor": coo_constructor,
        "csr_constructor": csr_constructor,
        "reduceat": reduceat,
    }


def worker_epochs(num_nodes: int, rounds: int, epochs: int):
    """Per worker count: median epoch edges/s and median held-out MRR of
    fresh ``dense_social``-shaped models (``social_config`` is that
    shape), over ``rounds`` that rotate the order of the counts."""
    graph, train, test = livejournal_splits(num_nodes)
    speed = {n: [] for n in WORKERS}
    mrr = {n: [] for n in WORKERS}
    for r in range(rounds):
        shift = r % len(WORKERS)
        for n in WORKERS[shift:] + WORKERS[:shift]:
            stamps = [time.perf_counter()]
            model, _ = train_single(
                social_config(num_workers=n, num_epochs=epochs),
                {"node": graph.num_nodes}, train,
                after_epoch=lambda *_: stamps.append(time.perf_counter()),
            )
            speed[n] += [len(train) / dt for dt in np.diff(stamps)]
            mrr[n].append(eval_ranking(model, test, max_eval=2000).mrr)
    return {
        str(n): {
            "edges_per_s": statistics.median(speed[n]),
            "edges_per_s_min": min(speed[n]),
            "edges_per_s_max": max(speed[n]),
            "mrr": statistics.median(mrr[n]),
        }
        for n in WORKERS
    }


# ----------------------------------------------------------------------
# The paired ledger (--against)
# ----------------------------------------------------------------------

_PACKAGE_MODULES = {
    "config": "config", "model": "core.model", "tables": "core.tables",
    "optimizers": "core.optimizers", "losses": "core.losses",
    "comparators": "core.comparators", "entities": "graph.entity_storage",
}


def _package_root(path: "str | Path") -> Path:
    """The directory holding ``repro``: ``path`` itself or ``path/src``."""
    root = Path(path).resolve()
    return root if (root / "repro").is_dir() else root / "src"


def load_package(path: "str | Path") -> SimpleNamespace:
    """The ``repro`` package under ``path`` (or ``path/src``), imported as
    module objects distinct from the ``repro`` this script runs on."""
    root = _package_root(path)

    def ours():
        return [n for n in sys.modules if n.split(".")[0] == "repro"]

    saved = {name: sys.modules.pop(name) for name in ours()}
    sys.path.insert(0, str(root))
    try:
        return SimpleNamespace(**{
            alias: importlib.import_module(f"repro.{name}")
            for alias, name in _PACKAGE_MODULES.items()
        })
    finally:
        sys.path.remove(str(root))
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def _paired_model(pkg, comparator, operator, two_tables, relations=1,
                  num_rows=NUM_ROWS, **config_kw):
    """One version's model and tables, seeded like the other's."""
    cfg = pkg.config
    config = cfg.ConfigSchema(
        entities={"node": cfg.EntitySchema()},
        relations=[
            cfg.RelationSchema(
                name=f"r{i}", lhs="node", rhs="node", operator=operator
            )
            for i in range(relations)
        ],
        dimension=DIM, comparator=comparator, loss="ranking", margin=0.1,
        lr=0.1, batch_size=BATCH, chunk_size=CHUNK, num_batch_negs=NEGS,
        num_uniform_negs=NEGS, **config_kw,
    )
    rng = np.random.default_rng(0)
    model = pkg.model.EmbeddingModel(
        config, pkg.entities.EntityStorage({"node": num_rows}), rng
    )
    table = pkg.tables.DenseEmbeddingTable
    lhs = table.create(num_rows, DIM, rng)
    rhs = table.create(num_rows, DIM, rng) if two_tables else lhs
    return model, lhs, rhs


def _paired_batches():
    """Row name -> (model arguments, the shared batches it cycles)."""
    rng = np.random.default_rng(3)

    def uniform(edges, count=4):
        return [
            (0, rng.integers(0, NUM_ROWS, edges),
             rng.integers(0, NUM_ROWS, edges))
            for _ in range(count)
        ]

    share = 1.0 / np.arange(1, KG_RELATIONS + 1)
    kg_edges = EdgeList(
        rng.integers(0, KG_ROWS, KG_EDGES),
        rng.choice(KG_RELATIONS, KG_EDGES, p=share / share.sum()),
        rng.integers(0, KG_ROWS, KG_EDGES),
    )
    kg = [
        (batch.rel, batch.src, batch.dst)
        for batch in iterate_batches(
            kg_edges, BATCH, rng, chunk_size=CHUNK,
            groups=np.zeros(KG_RELATIONS, dtype=np.int64),
        )
    ]
    return {
        "batch[cos,identity,same_table]": (
            dict(comparator="cos", operator="identity", two_tables=False),
            uniform(BATCH),
        ),
        "ragged_batch[cos,identity,two_tables]": (
            dict(comparator="cos", operator="identity", two_tables=True),
            uniform(DISK_BATCH),
        ),
        "kg_batch[dot,translation,20_relations]": (
            dict(comparator="dot", operator="translation", two_tables=False,
                 relations=KG_RELATIONS, num_rows=KG_ROWS),
            kg,
        ),
        "batch[l2,translation,two_tables]": (
            dict(comparator="l2", operator="translation", two_tables=True),
            uniform(BATCH),
        ),
        "unbatched_chunk[dot,translation,same_table]": (
            dict(comparator="dot", operator="translation", two_tables=False,
                 disable_batch_negs=True),
            uniform(CHUNK),
        ),
    }


def _training_state(model, lhs, rhs, stats):
    tables = [lhs] if lhs is rhs else [lhs, rhs]
    arrays = [*model.rel_params, *(o.state for o in model.rel_optimizers)]
    for table in tables:
        arrays += [table.weights, table.optimizer.state]
    return arrays, [
        (s.loss, s.num_edges, s.num_negatives, s.violations) for s in stats
    ]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


def _trimmed_mean(samples: "list[float]", cut: float = 0.1) -> float:
    samples = sorted(samples)
    drop = int(len(samples) * cut)
    return statistics.fmean(samples[drop:len(samples) - drop])


def alternate(fns, calls: int) -> "list[list[float]]":
    """µs of ``calls`` calls of each of the two ``fns``, one of each in
    turn, the first of every pair alternating between them."""
    samples = [[], []]
    for i in range(calls):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            fns[side]()
            samples[side].append((time.perf_counter() - start) * 1e6)
    return samples


def paired_rows(other, change, calls: int, warmup: int) -> "dict[str, dict]":
    """The paired ledger: ``other`` and ``change`` are two
    :func:`load_package` namespaces."""
    rows: "dict[str, dict]" = {}

    def record(name, fns, identical):
        other_us, change_us = map(_trimmed_mean, alternate(fns, calls))
        rows[name] = {
            "other_us": other_us, "change_us": change_us,
            "ratio": change_us / other_us, "n": calls,
            "bit_identical": bool(identical),
        }

    for name, (kwargs, batches) in _paired_batches().items():
        sides = []
        for pkg in (other, change):
            model, lhs, rhs = _paired_model(pkg, **kwargs)
            rng, stats, turn = np.random.default_rng(1), [], [0]

            def step(model=model, lhs=lhs, rhs=rhs, rng=rng, turn=turn):
                rel, src, dst = batches[turn[0] % len(batches)]
                turn[0] += 1
                return model.forward_backward_chunk(
                    rel, src, dst, lhs, rhs, rng, chunk_size=CHUNK
                )

            stats += [step() for _ in range(warmup)]
            sides.append((step, _training_state(model, lhs, rhs, stats)))
        (arrays_o, stats_o), (arrays_c, stats_c) = (s[1] for s in sides)
        identical = _same(arrays_o, arrays_c) and stats_o == stats_c
        record(name, [s[0] for s in sides], identical)

    # The layers, on one dense_social batch's stacked rows.
    rng = np.random.default_rng(2)
    src, dst = (rng.integers(0, NUM_ROWS, BATCH) for _ in range(2))
    pools = [
        sample_pool(side.reshape(-1, CHUNK), side.reshape(-1, CHUNK),
                    NUM_ROWS, NEGS, NEGS, rng)
        for side in (dst, src)
    ]
    stack = np.concatenate(
        (src, pools[1].entities.ravel(), dst, pools[0].entities.ravel())
    )
    grads = rng.standard_normal((len(stack), DIM), dtype=np.float32)
    pos = rng.standard_normal(BATCH, dtype=np.float32)
    neg = rng.standard_normal((BATCH, 4 * NEGS), dtype=np.float32)
    mask = np.concatenate([
        pool.mask.reshape(BATCH, 2 * NEGS) for pool in pools
    ], axis=1)

    layers = {
        "accumulate_duplicate_rows": lambda pkg: partial(
            pkg.optimizers.accumulate_duplicate_rows, stack, grads
        ),
        "ranking_loss": lambda pkg: partial(
            pkg.losses.RankingLoss(0.1).forward_backward, pos, neg, mask
        ),
        "cos_prepare_saved": lambda pkg: partial(
            pkg.comparators.CosComparator().prepare_saved, grads
        ),
    }
    for name, bind in layers.items():
        fns = [bind(other), bind(change)]
        outputs = [[np.asarray(x) for x in fn()] for fn in fns]
        record(name, fns, _same(*outputs))

    sides = []
    for pkg in (other, change):
        params = np.zeros((NUM_ROWS, DIM), dtype=np.float32)
        optimizer = pkg.optimizers.RowAdagrad(NUM_ROWS)
        step = partial(optimizer.step, params, stack, grads, 0.1)
        for _ in range(warmup):
            step()
        sides.append((step, [params, optimizer.state]))
    record("row_adagrad_step", [s[0] for s in sides],
           _same(sides[0][1], sides[1][1]))
    return rows


def main_paired(args) -> int:
    calls, warmup = (40, 5) if args.quick else (600, 30)
    other = load_package(args.against)
    change = load_package(_ROOT.parent / "src")
    rows = paired_rows(other, change, calls, warmup)
    print(f"paired in one process: this tree vs {args.against}; "
          f"{calls} alternating calls per side, 10 % trimmed means; "
          f"bit-identical after {warmup} untimed calls")
    for name, row in rows.items():
        print(f"  {name:46s} {row['other_us']:9.1f} -> "
              f"{row['change_us']:9.1f} us  x{row['ratio']:.3f}  "
              f"n={row['n']}  bit-identical: {row['bit_identical']}")
    report = {
        "benchmark": "micro_chunk_step",
        "params": {
            "paired": True, "chunk": CHUNK, "negs_per_source": NEGS,
            "dim": DIM, "num_rows": NUM_ROWS, "batch": BATCH,
            "disk_batch": DISK_BATCH, "kg_edges": KG_EDGES,
            "kg_relations": KG_RELATIONS, "kg_rows": KG_ROWS,
            "calls": calls, "warmup": warmup,
        },
        "against": str(args.against),
        "paired": rows,
    }
    report["provenance"] = provenance(report["params"])
    if args.history:
        append_history(report, args.history)
    itself = _package_root(args.against) == _package_root(_ROOT.parent)
    if itself and not all(row["bit_identical"] for row in rows.values()):
        print("FAIL: the tree paired with itself is not bit-identical")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer calls (CI smoke run)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append the report here ('' to skip)")
    parser.add_argument("--against", metavar="PATH",
                        help="pair this tree with the repro package under "
                             "PATH in one process (the paired ledger)")
    args = parser.parse_args(argv)
    if args.against:
        return main_paired(args)
    calls, repeats = (40, 3) if args.quick else (400, 7)

    us: "dict[str, float]" = {}
    chunks: "dict[str, int]" = {}  # chunk steps one call of a row stands for
    for comparator, operator in (("cos", "identity"), ("dot", "translation")):
        for two_tables in (False, True):
            layout = "two_tables" if two_tables else "same_table"
            steps = chunk_steps(comparator, operator, two_tables)
            for name, fn in steps.items():
                row = f"{name}[{comparator},{operator},{layout}]"
                chunks[row] = {
                    "forward_backward_chunk": 1,
                    "ragged_batch_as_one_call": -(-DISK_BATCH // CHUNK),
                }.get(name, BATCH // CHUNK)
                us[row] = time_us(fn, calls // chunks[row], repeats)
    us["matmul_floor"] = time_us(matmul_floor(), calls, repeats)

    kg: "dict[str, dict]" = {}
    for operator in ("translation", "linear"):
        for name, (fn, shape) in kg_bucket(operator).items():
            if operator == "linear" and name != "packed_batches":
                continue
            kg[f"{name}[dot,{operator}]"] = {
                "us": time_us(fn, max(1, calls // 50), repeats), **shape
            }

    rows, grads = stacked_rows(np.random.default_rng(2))
    params = np.zeros((NUM_ROWS, DIM), dtype=np.float32)
    optimizer = RowAdagrad(NUM_ROWS)
    us["row_adagrad_step"] = time_us(
        lambda: optimizer.step(params, rows, grads, 0.1), calls, repeats
    )
    us["accumulate_duplicate_rows"] = time_us(
        lambda: accumulate_duplicate_rows(rows, grads), calls, repeats
    )
    expected = accumulate_duplicate_rows(rows, grads)
    for name, fn in accumulate_alternatives(rows, grads).items():
        got = fn()
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_allclose(got[1], expected[1], atol=1e-5)
        us[f"accumulate[{name}]"] = time_us(fn, calls, repeats)

    unique_ratio = len(expected[0]) / len(rows)
    print(f"chunk {CHUNK}, {NEGS}+{NEGS} negatives, d={DIM}, "
          f"{NUM_ROWS} rows, float32; {repeats} x {calls} calls; "
          f"unique rows / stacked rows = {unique_ratio:.2f}")
    floor = us["matmul_floor"]
    for name, value in us.items():
        ratio = (f"  {value / (chunks[name] * floor):5.1f} x floor"
                 if name in chunks else "")
        print(f"  {name:58s} {value:8.1f} us{ratio}")

    print(f"kg bucket: {KG_EDGES} edges, {KG_RELATIONS} relations (1/r shares), "
          f"{KG_ROWS} rows, batch {BATCH}")
    for name, row in kg.items():
        print(f"  {name:36s} {row['us'] / 1e3:7.2f} ms  {row['calls']:3d} calls"
              f"  {row['chunks']:3d} chunks  {row['matmul_runs']:3d} matmul runs")

    rounds, epochs, nodes = (1, 1, NUM_ROWS // 20) if args.quick else (
        10, 3, NUM_ROWS
    )
    hogwild = worker_epochs(nodes, rounds, epochs)
    print(f"epochs of {nodes} nodes, batch {BATCH}; {rounds} rounds x "
          f"{epochs} epochs per worker count, order rotated")
    for n, row in hogwild.items():
        print(f"  epoch[num_workers={n}] {row['edges_per_s'] / 1e3:8.1f} k edges/s"
              f" ({row['edges_per_s_min'] / 1e3:.1f}-"
              f"{row['edges_per_s_max'] / 1e3:.1f})"
              f"  {row['edges_per_s'] / hogwild['1']['edges_per_s']:5.2f} x one"
              f" worker   MRR {row['mrr']:.4f}")

    report = {
        "benchmark": "micro_chunk_step",
        "params": {
            "chunk": CHUNK, "negs_per_source": NEGS, "dim": DIM,
            "num_rows": NUM_ROWS, "calls": calls, "repeats": repeats,
            "epoch_nodes": nodes, "epoch_rounds": rounds, "epochs": epochs,
            "kg_edges": KG_EDGES, "kg_relations": KG_RELATIONS,
            "kg_rows": KG_ROWS, "disk_batch": DISK_BATCH,
        },
        "us_per_call": us,
        "kg_bucket": kg,
        "unique_row_ratio": unique_ratio,
        "hogwild_epochs": hogwild,
    }
    report["provenance"] = provenance(report["params"])
    if args.history:
        append_history(report, args.history)
    return 0


if __name__ == "__main__":
    sys.exit(main())
