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

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_chunk_step.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer calls (CI smoke run)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append the report here ('' to skip)")
    args = parser.parse_args(argv)
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
