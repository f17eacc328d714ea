"""Partition swap micro-benchmark: µs per pipeline operation.

Second file of the per-layer ledger (ROADMAP item 1). At the partition
shape of the benchmark of record's ``partitioned_disk`` workload
(5 000 x 64 float32 embeddings plus one float32 of optimizer state per
row, 1.3 MB) it times the three things a bucket loop asks of a
``PartitionPipeline``:

- ``park_take`` — park a partition and take it straight back (the
  flush-before-reuse round trip: pipelined, the take waits for the
  write the park started);
- ``park_evict`` — park under a one-partition budget, so every park
  pushes the previous one out (pipelined, after its write has landed);
- ``drain`` — park 8 partitions and drain, per partition.

Each runs synchronous and pipelined, over an in-memory dict backend
(what the pipeline itself costs: locks, futures, thread hand-offs) and
over a ``PartitionedEmbeddingStorage`` in a fresh temp directory (the
same plus ``np.savez`` and the rename). Every timing is the median over
5 batches of 40 operations (``--quick``: 3 of 8). The report is
appended to ``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_partition_swap.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT.parent / "src")]

from common import append_history, provenance, time_us

from repro.graph.storage import (
    PartitionAbsent,
    PartitionPipeline,
    PartitionedEmbeddingStorage,
)

ROWS, DIM, DRAIN_PARTS = 5_000, 64, 8


class DictBackend:
    """The ``load``/``save`` interface over a dict: no I/O, no copy."""

    def __init__(self) -> None:
        self.parts: dict = {}

    def save(self, entity_type, part, embeddings, optim_state):
        self.parts[entity_type, part] = (embeddings, optim_state)

    def load(self, entity_type, part):
        try:
            return self.parts[entity_type, part]
        except KeyError:
            raise PartitionAbsent(f"no partition {entity_type}/{part}") from None


def scenarios(backend, synchronous: bool, parts):
    """``name -> (pipeline, operation, operations per call)``."""
    nbytes = sum(a.nbytes for a in parts[0])

    def pipeline(budget=None):
        return PartitionPipeline(
            backend, budget_bytes=budget, synchronous=synchronous
        )

    round_trip, evicting, draining = pipeline(), pipeline(nbytes), pipeline()
    turn = [0]

    def park_take():
        round_trip.park("node", 0, *parts[0])
        round_trip.take("node", 0)

    def park_evict():
        turn[0] ^= 1  # two keys in turn: each park evicts the other
        evicting.park("node", turn[0], *parts[turn[0]])

    def drain():
        for part, arrays in enumerate(parts):
            draining.park("node", part, *arrays)
        draining.drain()

    return {
        "park_take": (round_trip, park_take, 1),
        "park_evict": (evicting, park_evict, 1),
        "drain": (draining, drain, len(parts)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer calls (CI smoke run)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append the report here ('' to skip)")
    args = parser.parse_args(argv)
    calls, repeats = (8, 3) if args.quick else (40, 5)

    rng = np.random.default_rng(0)
    parts = [
        (rng.standard_normal((ROWS, DIM), dtype=np.float32),
         rng.random(ROWS, dtype=np.float32))
        for _ in range(DRAIN_PARTS)
    ]
    us: "dict[str, float]" = {}
    with tempfile.TemporaryDirectory(prefix="bench_partition_swap_") as tmp:
        backends = {
            "memory": DictBackend,
            "disk": lambda: PartitionedEmbeddingStorage(Path(tmp) / "swap"),
        }
        for backend_name, make_backend in backends.items():
            for synchronous in (True, False):
                mode = "synchronous" if synchronous else "pipelined"
                cases = scenarios(make_backend(), synchronous, parts)
                for name, (pipe, operation, per_call) in cases.items():
                    try:
                        us[f"{name}[{backend_name},{mode}]"] = (
                            time_us(operation, calls, repeats) / per_call
                        )
                    finally:
                        pipe.close()

    print(f"partition {ROWS} x {DIM} float32 + state "
          f"({sum(a.nbytes for a in parts[0]) / 1e6:.2f} MB); "
          f"{repeats} x {calls} calls; drain of {DRAIN_PARTS} partitions, "
          f"per partition")
    for name, value in us.items():
        print(f"  {name:36s} {value:10.1f} us")

    report = {
        "benchmark": "micro_partition_swap",
        "params": {
            "rows": ROWS, "dim": DIM, "drain_parts": DRAIN_PARTS,
            "calls": calls, "repeats": repeats,
        },
        "us_per_op": us,
    }
    report["provenance"] = provenance(report["params"])
    if args.history:
        append_history(report, args.history)
    return 0


if __name__ == "__main__":
    sys.exit(main())
