"""Concurrency invariant checking for the pipelined training stack.

Three PRs of pipelining (async prefetch, writeback queues, deferred
release, version-checked staging) made this reproduction a genuinely
concurrent system whose correctness rules — "the main thread owns
resident tables", "prefetch only fills the staging cache", "a released
partition is invisible until its push lands" — previously lived only in
docstrings. This package turns them into machinery that runs on every
commit:

- :mod:`repro.analysis.lint` — an AST-based static checker for
  lightweight ``# guarded-by:`` / ``# owned-by:`` / ``# public-guard:``
  annotations on the concurrency modules. Run it with
  ``python -m repro.analysis``.
- :mod:`repro.analysis.lockdep` — an opt-in runtime harness: an
  instrumented lock wrapper that records the lock-acquisition-order
  graph and flags cycles (potential deadlocks), plus an ownership state
  machine for partitions (exactly one of resident / staged /
  writeback-in-flight / on-server at any time). Activated by the
  ``REPRO_LOCKDEP=1`` pytest fixture in ``tests/conftest.py`` so the
  existing pipeline/cluster tests double as race tests.
- :mod:`repro.analysis.hooks` — the ultra-light indirection the
  production modules consult to find an active ownership tracker;
  importing it costs nothing when the harness is off.
- :mod:`repro.analysis.reach` — the reachability map: which functions
  of ``src/repro`` the committed commands (workloads, paper claims,
  examples, micro rows, CI steps) enter. Run it with
  ``python -m repro.analysis.reach``.

See ``CONCURRENCY.md`` at the repository root for the annotation
syntax, the ownership state machine, and how to run both layers
locally.
"""

__all__ = ["hooks"]
