#!/usr/bin/env bash
# CI step: Trace analyzer smoke check (the partitioned run's trace)
# Run from the repository root, after ci/train_and_publish.sh: bash ci/trace_analyzer.sh
# The run is pipelined, so some transfer time hides under compute:
# --assert-overlap exits 1 on a zero overlap efficiency.
set -e
PYTHONPATH=src python -m repro.telemetry TRACE_train.json --assert-overlap
