"""Partition / parameter server round trips: µs and bytes per call.

Third file of the per-layer ledger: the "lock/partition server
round-trip" layer. At the partition shape of the benchmark of record's
``distributed_kg`` workload (16 250 x 64 float32 embeddings plus one
float32 of optimizer state per row; a bucket dirties ~8 900 rows) it
times what a machine asks of the servers, per codec (``none``,
``int8``) and per transport — ``in_process`` (thread mode: a method
call) and ``proxy`` (process mode: a real ``_ServerManager`` process,
pickled over its socket):

- ``server.get_versioned`` / ``server.put`` / ``server.put_delta`` —
  the call alone, handed a payload that is already encoded;
- ``adapter.load`` / ``adapter.save`` / ``adapter.save_delta`` — the
  same through ``PartitionServerStorage``: codec plus call, what a
  machine pays per swap;
- ``parameter.sync`` — one ``SharedParameterClient`` sync of 20
  parameters of 64 floats, every one of them changed.

Beside each timing: the pickled bytes that cross per call (what the
proxy writes to its socket; in process nothing is pickled, the number
is the same payload's). Every timing is the median over 5 batches of
10 calls (``--quick``: 3 of 2). The report is appended to
``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/micro/bench_partition_rpc.py [--quick]
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT.parent / "src")]

from common import append_history, provenance, time_us

from repro.distributed.cluster import _ServerManager
from repro.distributed.parameter_server import (
    ParameterServer,
    SharedParameterClient,
)
from repro.distributed.partition_server import (
    PartitionServer,
    PartitionServerStorage,
)
from repro.graph.compression import encode_delta, get_codec

ROWS, DIM, DIRTY = 16_250, 64, 8_900
SYNC_PARAMS, SYNC_DIM = 20, 64


def partition_cases(server, codec_name, emb, state, dirty):
    """``name -> (operation, pickled bytes per call)`` on one server."""
    codec = get_codec(codec_name)
    payload = codec.encode(emb, state)
    delta = encode_delta(codec, dirty, emb[dirty], state[dirty])
    full_nbytes = len(pickle.dumps(payload))
    delta_nbytes = len(pickle.dumps(delta))
    version = [server.put("bench", 0, payload)]

    def put_delta():
        version[0] = server.put_delta("bench", 0, delta, version[0])

    store = PartitionServerStorage(server, use_delta=True)
    store.save("bench", 1, emb, state)  # the adapter's delta baseline

    return {
        "server.get_versioned": (
            lambda: server.get_versioned("bench", 0), full_nbytes
        ),
        "server.put": (lambda: server.put("bench", 2, payload), full_nbytes),
        "server.put_delta": (put_delta, delta_nbytes),
        "adapter.load": (lambda: store.load("bench", 1), full_nbytes),
        "adapter.save": (
            lambda: store.save("bench", 3, emb, state), full_nbytes
        ),
        "adapter.save_delta": (
            lambda: store.save("bench", 1, emb, state, dirty_rows=dirty),
            delta_nbytes,
        ),
    }


def sync_case(server):
    params = {
        f"r{i}": np.zeros(SYNC_DIM, dtype=np.float32)
        for i in range(SYNC_PARAMS)
    }
    client = SharedParameterClient(
        server, lambda: {k: v.copy() for k, v in params.items()},
        params.update, sync_interval=1,
    )
    client.initial_sync()

    def sync():
        for value in params.values():
            value += 1.0  # every parameter has a delta to push
        client.maybe_sync()

    # Deltas go out, values come back: two dicts of the same arrays.
    return sync, 2 * len(pickle.dumps(params))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer calls (CI smoke run)")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="append the report here ('' to skip)")
    args = parser.parse_args(argv)
    calls, repeats = (2, 3) if args.quick else (10, 5)

    rng = np.random.default_rng(0)
    emb = rng.standard_normal((ROWS, DIM), dtype=np.float32)
    state = rng.random(ROWS, dtype=np.float32)
    dirty = np.sort(rng.permutation(ROWS)[:DIRTY])

    us: "dict[str, float]" = {}
    nbytes: "dict[str, int]" = {}
    manager = _ServerManager()
    manager.start()
    try:
        transports = {
            "in_process": (PartitionServer, ParameterServer),
            "proxy": (manager.PartitionServer, manager.ParameterServer),
        }
        for transport, (partitions, parameters) in transports.items():
            for codec in ("none", "int8"):
                cases = partition_cases(
                    partitions(1, codec), codec, emb, state, dirty
                )
                for name, (operation, crossed) in cases.items():
                    key = f"{name}[{codec},{transport}]"
                    us[key] = time_us(operation, calls, repeats)
                    nbytes[key] = crossed
            operation, crossed = sync_case(parameters(2))
            key = f"parameter.sync[{transport}]"
            us[key] = time_us(operation, calls, repeats)
            nbytes[key] = crossed
    finally:
        manager.shutdown()

    print(f"partition {ROWS} x {DIM} float32 + state, delta of {DIRTY} rows; "
          f"sync of {SYNC_PARAMS} x {SYNC_DIM} floats; "
          f"{repeats} x {calls} calls")
    for name, value in us.items():
        print(f"  {name:42s} {value:10.1f} us {nbytes[name]:12d} bytes")

    report = {
        "benchmark": "micro_partition_rpc",
        "params": {
            "rows": ROWS, "dim": DIM, "dirty": DIRTY,
            "sync_params": SYNC_PARAMS, "sync_dim": SYNC_DIM,
            "calls": calls, "repeats": repeats,
        },
        "us_per_op": us,
        "pickled_bytes_per_op": nbytes,
    }
    report["provenance"] = provenance(report["params"])
    if args.history:
        append_history(report, args.history)
    return 0


if __name__ == "__main__":
    sys.exit(main())
