#!/usr/bin/env bash
# CI step: Concurrency lint (annotated modules must be clean, the
# seeded-violation corpus must be flagged)
# Run from the repository root: bash ci/concurrency_lint.sh
set -e
corpus="$(dirname "$0")/../tests/lint_corpus"
PYTHONPATH=src python -m repro.analysis
PYTHONPATH=src python -m repro.analysis --expect-findings \
  "$corpus/bad_guarded_mutation.py" \
  "$corpus/bad_guarded_mutation__tracer_ring.py" \
  "$corpus/bad_guarded_mutation__exposition_snapshot.py" \
  "$corpus/bad_blocking_under_lock.py" \
  "$corpus/bad_missing_lock.py" \
  "$corpus/bad_owned_by_role.py"
