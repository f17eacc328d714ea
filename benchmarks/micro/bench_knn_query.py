"""k-NN query micro-benchmark: µs per batch of the two serving kernels.

Fourth file of the per-layer ledger: the "``chunked_topk``, IVF probe"
layers. At the shape of the benchmark of record's ``serve_knn``
workload (100 000 x 64 float32 in 32 overlapping blobs, ``cos``, 256
lists, ``nprobe`` 8, batches of 64 perturbed member rows, k = 10; a
fresh batch per call) it times

- ``ivf[b=64]`` — one ``IVFPQIndex.query`` batch through the probe path;
- ``exact[b=64]`` — one ``ExactIndex.query`` batch (``chunked_topk``);

and reports the QPS of each, the IVF's recall@10 against the exact
answers, and the share of ``queries x table rows`` comparator cells the
IVF batch scored (centroids included — the number the benchmark of
record calls ``serving.ivfpq.query.scanned_row_ratio``).

Two more rows guard the traffic ``bench_serving_knn.py`` sends, which
is not the benchmark of record's: one 1000-query batch against float
lists (128 lists, ``nprobe`` 16) and one against PQ 16 + refine 8, on
that benchmark's 20 000 x 64 table. Both are timed as the median of
repeated calls; a first call also pays the first touch of the
``(q * nprobe, k * refine)`` candidate buffers, whose size is reported.

Every timing is the median over 5 rounds (``--quick``: 3, on the quick
sizes of the two benchmarks). The report is appended to
``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_knn_query.py [--quick]
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT.parent / "src")]

from bench_serving_knn import clustered_dataset, recall_at_k
from common import append_history, provenance, time_us

from repro.serving import ExactIndex, IVFPQIndex

DIM, BATCH, K, NPROBE, RECALL_BATCHES = 64, 64, 10, 8, 16


def serve_knn_table(rng, blobs: int, per_blob: int) -> np.ndarray:
    """The table of the benchmark of record's ``serve_knn``: Gaussian
    blobs wide enough to overlap and to span several lists each."""
    centers = rng.standard_normal((blobs, DIM))
    table = np.repeat(centers, per_blob, axis=0) + 0.5 * rng.standard_normal(
        (blobs * per_blob, DIM)
    )
    return table[rng.permutation(len(table))].astype(np.float32)


def scanned_share(index: IVFPQIndex, batch: np.ndarray) -> float:
    """Comparator cells one batch scores, per query x table row."""
    cells = []
    score_matrix = index._comp.score_matrix

    def counting(a, pool):
        cells.append(len(a) * len(pool))
        return score_matrix(a, pool)

    index._comp.score_matrix = counting
    try:
        index.query(batch, k=K)
    finally:
        del index._comp.score_matrix
    return sum(cells) / (len(batch) * index.num_items)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small tables, fewer calls (CI smoke run)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append the report here ('' to skip)")
    args = parser.parse_args(argv)
    if args.quick:
        blobs, per_blob, num_lists = 8, 625, 32
        ivf_calls, exact_calls, repeats = 10, 4, 3
        guard = dict(clusters=80, per_cluster=50, dim=32, queries=400,
                     num_lists=64, nprobe=8, pq=8, refine=8)
    else:
        blobs, per_blob, num_lists = 32, 3125, 256
        ivf_calls, exact_calls, repeats = 40, 8, 5
        guard = dict(clusters=200, per_cluster=100, dim=64, queries=1000,
                     num_lists=128, nprobe=16, pq=16, refine=8)

    rng = np.random.default_rng(0)
    table = serve_knn_table(rng, blobs, per_blob)
    picks = rng.integers(0, len(table), (64, BATCH))
    noise = 0.05 * rng.standard_normal((BATCH, DIM)).astype(np.float32)
    batches = itertools.cycle([table[p] + noise for p in picks])
    exact = ExactIndex(table, "cos")
    ivf = IVFPQIndex(
        comparator="cos", num_lists=num_lists, nprobe=NPROBE
    ).build(table)

    rows: "dict[str, dict]" = {}

    def timed(name, operation, queries, calls):
        us = time_us(operation, calls, repeats)
        rows[name] = {"us_per_batch": us, "qps": queries / (us * 1e-6)}

    timed("ivf[b=64]", lambda: ivf.query(next(batches), k=K), BATCH,
          ivf_calls)
    timed("exact[b=64]", lambda: exact.query(next(batches), k=K), BATCH,
          exact_calls)
    probe = [next(batches) for _ in range(RECALL_BATCHES)]
    recall = recall_at_k(
        np.concatenate([ivf.query(b, k=K)[0] for b in probe]),
        np.concatenate([exact.query(b, k=K)[0] for b in probe]),
    )
    share = scanned_share(ivf, probe[0])

    # bench_serving_knn.py's traffic: one large batch per call.
    big_table, big_queries = clustered_dataset(
        guard["clusters"], guard["per_cluster"], guard["dim"],
        guard["queries"],
    )
    lists = dict(
        comparator="cos", num_lists=guard["num_lists"],
        nprobe=guard["nprobe"],
    )
    float_name = f"ivf[b={guard['queries']}]"
    pq_name = (
        f"ivfpq[b={guard['queries']},m={guard['pq']},r={guard['refine']}]"
    )
    for name, index in (
        (float_name, IVFPQIndex(**lists)),
        (pq_name, IVFPQIndex(
            pq_subvectors=guard["pq"], refine=guard["refine"], **lists
        )),
    ):
        index.build(big_table)
        timed(name, lambda: index.query(big_queries, k=K),
              guard["queries"], 1)
    # float64 scores + int64 ids, (q * nprobe, k * refine) each
    rows[pq_name]["candidate_buffer_mb"] = (
        guard["queries"] * guard["nprobe"] * K * guard["refine"] * 16 / 1e6
    )

    print(f"table {len(table)} x {DIM} float32, {num_lists} lists, "
          f"nprobe {NPROBE}, batch {BATCH}, k {K}; guard rows on "
          f"{len(big_table)} x {guard['dim']}, {guard['num_lists']} lists, "
          f"nprobe {guard['nprobe']}; median of {repeats} rounds")
    for name, row in rows.items():
        extra = (
            f"  ({row['candidate_buffer_mb']:.1f} MB of candidate buffers)"
            if "candidate_buffer_mb" in row else ""
        )
        print(f"  {name:28s} {row['us_per_batch']:12.1f} us/batch "
              f"{row['qps']:10.0f} QPS{extra}")
    print(f"  ivf[b=64] recall@{K} {recall:.4f}, scanned-row share "
          f"{share:.4f} of queries x rows")

    report = {
        "benchmark": "micro_knn_query",
        "params": {
            "quick": args.quick, "rows": len(table), "dim": DIM,
            "blobs": blobs, "num_lists": num_lists, "nprobe": NPROBE,
            "batch": BATCH, "k": K, "repeats": repeats,
            "ivf_calls": ivf_calls, "exact_calls": exact_calls,
            "guard": guard,
        },
        "rows": rows,
        "recall_at_10": recall,
        "scanned_row_share": share,
    }
    report["provenance"] = provenance(report["params"])
    if args.history:
        append_history(report, args.history)
    return 0


if __name__ == "__main__":
    sys.exit(main())
