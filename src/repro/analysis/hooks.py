"""Runtime-harness hooks consulted by the production modules.

:class:`~repro.graph.storage.PartitionPipeline` reports partition
ownership transitions through this module so the opt-in race-detection
harness (:mod:`repro.analysis.lockdep`) can check them. The module is
deliberately dependency-free and the default state is "no tracker":
when the harness is not installed, every hook call is a single
attribute load and a ``None`` check — effectively free, so production
code paths can call them unconditionally.

Thread-safety: `install`/`uninstall` happen on the test main thread
before/after worker threads exist; readers only ever see ``None`` or a
fully constructed tracker.
"""

from __future__ import annotations

__all__ = ["ownership_tracker", "install_ownership_tracker", "uninstall_ownership_tracker"]

#: the active PartitionOwnershipTracker, or None when the harness is off
_TRACKER = None


def ownership_tracker():
    """The active ownership tracker, or ``None`` (harness off)."""
    return _TRACKER


def install_ownership_tracker(tracker) -> None:
    """Activate ``tracker`` for subsequently created pipelines."""
    global _TRACKER
    _TRACKER = tracker


def uninstall_ownership_tracker() -> None:
    """Deactivate the ownership tracker."""
    global _TRACKER
    _TRACKER = None
