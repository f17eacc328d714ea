"""The benchmark of record: one command, every metric by name.

    python3 benchmarks/perf/run.py                       # whole suite
    python3 benchmarks/perf/run.py --workload serve_knn --trace 0
    python3 benchmarks/perf/run.py --quick               # smoke sizes
    python3 benchmarks/perf/run.py --repeat 2 --check-agreement

This process only orchestrates: every workload run is a fresh child
process (``--child``) with one BLAS thread, so that memory and caches
do not leak between runs and the two cores go to the program's own
threads and processes. ``--trace 0`` gives the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the probes and gives the
per-layer metrics; without ``--trace`` both runs are made and the
tracing overhead is the difference between them.

The last line of standard output is one JSON object. For a single run
it is ``{"correct", "attempted", "failed", "metrics"}``; for several
runs the same three totals plus ``"runs"``. The exit code is 0 only if
every output check of every run passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC_PATH = REPO / "BENCHMARK.json"

#: a run that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 170
#: AF_UNIX socket paths (multiprocessing's manager) must stay short
_MAX_TMPDIR_LEN = 60


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Child: one workload, in this process
# ----------------------------------------------------------------------


def _decomposition(
    recorder, section: str, wall: float
) -> "tuple[dict, float]":
    """Main-thread self time per layer inside the span ``section``,
    and the share of ``wall`` no layer accounts for."""
    inside = {
        name: layer.self_s
        for name, layer in recorder.totals(
            thread=threading.main_thread().ident, within=section
        ).items()
    }
    return inside, (wall - sum(inside.values())) / wall


def child_main(args) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from workloads import (
        QUICK_SECONDS, TIMED_SECTION, WORKLOADS, RunContext, tail,
    )

    ctx = RunContext(
        seed=args.seed,
        seconds=QUICK_SECONDS if args.quick else args.seconds,
        quick=args.quick, work_dir=Path(args.work_dir),
    )
    if args.trace:
        from probes import Probes
        from spans import Recorder

        ctx.recorder = Recorder(f"{args.workload}-seed{args.seed}")
        ctx.probes = Probes(ctx.recorder)
    result = WORKLOADS[args.workload](ctx)

    layers = dict(result.layers)
    decomposition = None
    if args.trace:
        layers.update(ctx.probes.layer_metrics())
        inside, residual = _decomposition(
            ctx.recorder, TIMED_SECTION, result.metrics["wall_s"]
        )
        decomposition = {"self_s": inside, "residual_share": residual}
        layers.update({
            "harness.traced.throughput_per_s":
                result.metrics["throughput_per_s"],
            "harness.traced.unit_p50_ms": result.metrics["unit_p50_ms"],
            "harness.traced.spans": len(ctx.recorder.spans),
            "harness.traced.residual_share": residual,
        })
        if args.trace_file:
            ctx.recorder.write(args.trace_file)
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    result.metrics["peak_rss_mb"] = usage / 1024.0  # Linux reports KiB
    correct = all(result.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        # A failed output check voids every operation of the run.
        "failed": result.failed if correct else result.attempted,
        "checks": result.checks,
        "metrics": result.metrics,
        "layers": layers,
        "timings": {
            name: {
                "median": statistics.median(samples),
                "tail": tail(samples),
                "n": len(samples),
            }
            for name, samples in result.samples.items()
        },
        "decomposition": decomposition,
    }))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, collect, report
# ----------------------------------------------------------------------


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool,
    out_dir: "Path | None",
) -> dict:
    """One workload run in a fresh process; returns its report (an
    ``error`` report if the child died, timed out or printed none)."""
    base = out_dir if out_dir is not None else Path.cwd() / ".bench_work"
    work_dir = base / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    # One BLAS thread per process: the chunk-sized matmuls do not
    # scale with threads, and oversubscribing two cores is what made
    # process-mode epochs take 6-27 s instead of 1.4 s.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if len(str(work_dir)) <= _MAX_TMPDIR_LEN:
        env["TMPDIR"] = str(work_dir)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    if quick:
        cmd.append("--quick")
    if trace and out_dir is not None:
        cmd += [
            "--trace-file",
            str(out_dir / f"trace-{workload}-seed{seed}.json"),
        ]
    # Its own session, so that the whole process group — machines and
    # manager of the distributed workload included — can be stopped.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        stdout, error = "", f"no result within {CHILD_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        if out_dir is None:
            try:
                base.rmdir()  # unless another run is using it
            except OSError:
                pass
    lines = stdout.strip().splitlines()
    if error is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            error = "no result printed"
    return {"error": error, "correct": False, "attempted": 1, "failed": 1}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(report: dict, units: "dict[str, str]") -> None:
    traced = bool(report["trace"])
    print(
        f"== {report['workload']} (seed {report['seed']}, "
        f"{'traced' if traced else 'untraced'}) =="
    )
    if "error" in report:
        print(f"  FAILED: {report['error']}")
        return
    # End-to-end numbers are only ever taken from the untraced run.
    for name, value in ({} if traced else report["metrics"]).items():
        print(f"  {name:34s} {_fmt(value):>12s} {units.get(name, '')}")
    for name, t in report["timings"].items():
        label, value = t["tail"]
        print(
            f"  timing {name}: median {_fmt(t['median'])} s, "
            f"{label} {_fmt(value)} s, n={t['n']}"
        )
    failed = [name for name, ok in report["checks"].items() if not ok]
    print(
        f"  checks: {len(report['checks']) - len(failed)} passed"
        + (f", FAILED: {', '.join(failed)}" if failed else "")
        + f"; attempted {report['attempted']}, failed {report['failed']}"
    )
    for name in sorted(report["layers"]):
        print(
            f"  layer {name:52s} {_fmt(report['layers'][name]):>12s} "
            f"{units.get(name, '')}"
        )
    if report["decomposition"] is not None:
        dec = report["decomposition"]
        parts = sorted(dec["self_s"].items(), key=lambda kv: -kv[1])
        print(
            f"  wall {_fmt(report['metrics']['wall_s'])} s = main-thread self "
            "time of "
            + " + ".join(f"{name} {_fmt(s)}" for name, s in parts)
            + f" + residual {dec['residual_share']:.1%} of wall"
        )


def contract_metrics(report: dict, wanted: "list[dict]", source: str) -> dict:
    """Every metric of one BENCHMARK.json list, in its declared unit; a
    per-layer metric the workload bypasses reads 0."""
    values = report.get(source, {})
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }


def check_agreement(
    sets: "list[dict[str, dict]]", spec: dict
) -> bool:
    """Print each end-to-end metric's spread over the sets, per
    workload — the distance between the quartiles as a share of the
    median, or the whole range when there are fewer than four sets;
    False if a spread exceeds the metric's bound."""
    agreed = True
    print("== agreement between sets ==")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            values = [
                s[workload]["metrics"][name] for s in sets
                if name in s[workload].get("metrics", {})
            ]
            if len(values) < len(sets):
                print(f"  {workload:18s} {name:18s} missing (failed run)")
                agreed = False
                continue
            median = statistics.median(values)
            if len(values) >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread, kind = (q3 - q1) / median, "iqr"
            else:
                spread, kind = (max(values) - min(values)) / median, "range"
            ok = spread <= bound
            agreed = agreed and ok
            print(
                f"  {workload:18s} {name:18s} median {_fmt(median):>10s} "
                f"{kind}/median {spread:7.2%}  bound {bound:.0%}  "
                + ("ok" if ok else "DISAGREE")
            )
    return agreed


def overhead_line(workload: str, untraced: dict, traced: dict) -> str:
    share = (
        traced["metrics"]["unit_p50_ms"] / untraced["metrics"]["unit_p50_ms"]
        - 1.0
    )
    note = (
        "; the traced run is thread mode, so this is the price of one "
        "interpreter lock, not of the probes"
        if workload == "distributed_kg" else ""
    )
    return (
        f"  trace_overhead_share {share:+.1%} (median unit time, traced vs "
        f"untraced{note})"
    )


def run_set(
    workloads: "list[str]", seed: int, seconds: float, traces: "list[int]",
    quick: bool, out_dir: "Path | None", units: "dict[str, str]",
) -> "list[dict]":
    """Every selected workload once per trace mode, reported as it goes."""
    runs = []
    for workload in workloads:
        untraced = None
        for trace in traces:
            report = run_child(workload, seed, seconds, trace, quick, out_dir)
            report.update(workload=workload, seed=seed, trace=trace)
            runs.append(report)
            print_report(report, units)
            if "error" in report:
                continue
            if not trace:
                untraced = report
                continue
            if untraced is not None:
                print(overhead_line(workload, untraced, report))
            if out_dir is not None:
                table = out_dir / f"metrics-{workload}-seed{seed}.json"
                table.write_text(json.dumps(report["layers"], indent=1))
    return runs


def parent_main(args) -> int:
    spec = load_spec()
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    workloads = names if args.workload is None else [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traces = [0, 1] if args.trace is None else [args.trace]
    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out).resolve()
        out_dir.mkdir(parents=True, exist_ok=True)

    sets = [
        run_set(
            workloads, args.seed + rep if args.vary_seed else args.seed,
            seconds, traces, args.quick, out_dir, units,
        )
        for rep in range(args.repeat)
    ]
    runs = [report for set_ in sets for report in set_]
    correct = all(r["correct"] for r in runs)
    if args.check_agreement and 0 in traces:
        untraced_sets = [
            {r["workload"]: r for r in set_ if r["trace"] == 0}
            for set_ in sets
        ]
        correct = check_agreement(untraced_sets, spec) and correct

    if len(runs) == 1:
        report = runs[0]
        if "error" in report:
            return 1  # no result line for a run that produced none
        wanted, source = (
            (spec["per_layer"], "layers") if report["trace"]
            else (spec["end_to_end"], "metrics")
        )
        summary = {"metrics": contract_metrics(report, wanted, source)}
    else:
        keys = (
            "workload", "seed", "trace", "correct", "attempted", "failed",
            "metrics", "layers", "error",
        )
        summary = {"runs": [{k: r.get(k) for k in keys} for r in runs]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        **summary,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None,
                        help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed section "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, untraced; 1: per-layer "
                             "metrics, traced (default: both runs)")
    parser.add_argument("--quick", action="store_true",
                        help="same code paths at ~1/20 size")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="keep the Chrome trace and the metric table "
                             "of traced runs here (default: not written)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N sets")
    parser.add_argument("--vary-seed", action="store_true",
                        help="set i uses seed + i (default: same seed)")
    parser.add_argument("--check-agreement", action="store_true",
                        help="fail if the sets' spread of an end-to-end "
                             "metric exceeds its bound")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
