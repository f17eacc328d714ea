#!/usr/bin/env bash
# CI step: Benchmark of record at quick sizes (output checks + bypass
# predictions), then the history regression gate over the committed
# records, seeded into BENCH_history.jsonl.
# Run from the repository root: bash ci/perf_regress.sh
set -e
root="$(dirname "$0")/.."
python "$root/benchmarks/perf/run.py" --quick --out perf-out
cp "$root/benchmarks/baseline_history.jsonl" BENCH_history.jsonl
PYTHONPATH=src python -m repro.telemetry regress BENCH_history.jsonl \
  --metric throughput_per_s=higher --metric wall_s=lower
