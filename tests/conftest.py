"""Shared fixtures.

``REPRO_LOCKDEP=1`` turns every test into a race test: locks created
during the test are instrumented for lock-order-cycle detection and the
partition ownership tracker is armed, and the test fails if it produced
a potential deadlock or an illegal ownership transition (see
``repro/analysis/lockdep.py`` and ``CONCURRENCY.md``). CI runs the
suite once in this mode; locally::

    REPRO_LOCKDEP=1 PYTHONPATH=src python -m pytest -x -q
"""

import os

import pytest

RUN_LOCKDEP = os.environ.get("REPRO_LOCKDEP") == "1"


@pytest.fixture(autouse=True)
def lockdep_harness():
    if not RUN_LOCKDEP:
        yield None
        return
    from repro.analysis import hooks, lockdep

    registry = lockdep.LockdepRegistry()
    tracker = lockdep.PartitionOwnershipTracker()
    registry.install()
    hooks.install_ownership_tracker(tracker)
    try:
        yield (registry, tracker)
    finally:
        hooks.install_ownership_tracker(None)
        registry.uninstall()
    # Outside the finally: report violations only after the patches are
    # rolled back, so one failing test cannot poison the next.
    registry.assert_no_cycles()
    tracker.assert_clean()
