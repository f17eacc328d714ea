"""Smoke test of the benchmark of record (``--quick`` sizes).

Runs the whole suite once at ~1/20 size and checks the report against
``BENCHMARK.json``: every metric printed by name with its unit, the
bypass predictions (a layer a workload does not use reports 0 calls),
the driver's one-JSON-line contract, and that a traced run leaves no
wrapper behind. Everything is written under ``tmp_path``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: per-layer metrics whose healthy value is 0, or that a fast disk and
#: an idle box can legitimately leave at 0
MAY_BE_ZERO = {
    "serving.snapshot.retired_pinned",
    "distributed.cluster.delta_fallbacks",
    "distributed.partition_server.put_delta.stale_ratio",
    "distributed.lock_server.acquire.empty_ratio",
    "graph.storage.writeback.stall_s",
    "graph.storage.cache.evictions",
}

#: name prefixes of the layers each workload must not enter
BYPASSED = {
    "dense_social": (
        "graph.storage.", "graph.compression.", "core.checkpointing.",
        "distributed.", "serving.",
    ),
    "partitioned_disk": ("graph.compression.", "distributed.", "serving."),
    "distributed_kg": ("serving.", "core.checkpointing."),
    "serve_knn": ("core.", "graph.", "distributed.", "eval."),
}


def run(*args, cwd=None):
    return subprocess.run(
        [*RUN, *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    proc = run("--quick", "--out", str(out), cwd=out)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, summary, out


def test_spec_stays_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        m["name"]
        for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    )
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in SPEC["workloads"]
    )
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_quick_suite_is_correct_and_names_every_metric(suite):
    stdout, summary, _ = suite
    assert summary["correct"] and summary["failed"] == 0
    workloads = [w["name"] for w in SPEC["workloads"]]
    untraced = {
        r["workload"]: r for r in summary["runs"] if r["trace"] == 0
    }
    traced = {r["workload"]: r for r in summary["runs"] if r["trace"] == 1}
    assert sorted(untraced) == sorted(traced) == sorted(workloads)

    # Every end-to-end metric, on every workload, never 0.
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            assert untraced[workload]["metrics"][metric["name"]] > 0, (
                workload, metric["name"],
            )
    # Every per-layer metric is measured (non-zero) on some workload.
    for metric in SPEC["per_layer"]:
        values = [r["layers"].get(metric["name"], 0.0) for r in traced.values()]
        assert metric["name"] in MAY_BE_ZERO or any(values), metric["name"]
    # ... and printed by name with its unit.
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        line = re.compile(
            rf"\b{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            re.MULTILINE,
        )
        assert line.search(stdout), metric["name"]
    assert stdout.count("trace_overhead_share") == len(workloads)


def test_bypassed_layers_report_zero_calls(suite):
    _, summary, _ = suite
    for run_ in summary["runs"]:
        if run_["trace"] != 1:
            continue
        entered = [
            name for name, value in run_["layers"].items()
            if name.endswith(".calls") and value
            and name.startswith(BYPASSED[run_["workload"]])
        ]
        assert not entered, (run_["workload"], entered)
    kg = next(
        r for r in summary["runs"]
        if r["workload"] == "distributed_kg" and r["trace"] == 0
    )
    assert kg["layers"]["distributed.cluster.delta_pushes"] > 0


def test_traced_run_writes_its_artifacts_under_out_only(suite):
    _, _, out = suite
    traces = sorted(p.name for p in out.glob("trace-*.json"))
    assert traces == sorted(
        f"trace-{w['name']}-seed0.json" for w in SPEC["workloads"]
    )
    events = json.loads((out / traces[0]).read_text())["traceEvents"]
    assert events and {"name", "ts", "dur", "tid", "args"} <= set(events[0])
    # Work directories are removed after every run.
    assert not [p for p in out.iterdir() if p.is_dir()]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_single_run_prints_the_driver_contract(tmp_path, trace, section):
    proc = run(
        "--quick", "--workload", "dense_social", "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in SPEC[section]
    }


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "dense_social", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
        env={"PATH": "/usr/bin:/bin"},  # no PYTHONPATH to find repro on
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_probes_leave_nothing_behind(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        from probes import GROUPS, Probes
        from spans import Recorder
        from workloads import WORKLOADS, RunContext
    finally:
        sys.path.remove(str(HERE))
    from repro.core import checkpointing, comparators, model, optimizers
    from repro.core import tables, trainer
    from repro.distributed import cluster, lock_server, parameter_server
    from repro.distributed import partition_server
    from repro.graph import compression, storage
    from repro.serving import index, ivfpq, server, shards, snapshot

    owners = [
        checkpointing, model, trainer, cluster, compression, index, ivfpq,
        comparators.Comparator, model.EmbeddingModel,
        optimizers.RowAdagrad, optimizers.DenseAdagrad,
        tables.DenseEmbeddingTable, storage.PartitionedEmbeddingStorage,
        storage.PartitionPipeline, compression.PartitionCodec,
        lock_server.LockServer, partition_server.PartitionServer,
        parameter_server.SharedParameterClient, cluster.DistributedTrainer,
        ivfpq.IVFPQIndex, server.QueryService, snapshot.SnapshotManager,
        shards.MmapShardedTable,
    ]
    before = [dict(vars(owner)) for owner in owners]

    recorder = Recorder("smoke")
    probes = Probes(recorder)
    probes.install(GROUPS)
    assert [dict(vars(owner)) for owner in owners] != before
    probes.remove()
    assert [dict(vars(owner)) for owner in owners] == before

    # A whole traced workload cleans up after itself too.
    ctx = RunContext(
        seed=0, seconds=1.0, quick=True, work_dir=tmp_path,
        recorder=recorder, probes=probes,
    )
    result = WORKLOADS["dense_social"](ctx)
    assert all(result.checks.values())
    assert recorder.spans
    assert [dict(vars(owner)) for owner in owners] == before
