#!/usr/bin/env bash
# CI step: Trace analyzer smoke check (the partitioned run's trace)
# Run from the repository root, after ci/train_and_publish.sh: bash ci/trace_analyzer.sh
set -e
PYTHONPATH=src python -m repro.telemetry TRACE_train.json
