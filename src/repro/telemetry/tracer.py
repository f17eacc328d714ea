"""Span tracer: timeline events on per-thread lanes, Chrome-exportable.

A :class:`Tracer` records *complete spans* — named intervals with a
category, a monotonic start timestamp, a duration, and free-form args —
into a bounded in-memory ring buffer.  Each recording thread gets a
*lane* (a small integer ``tid`` plus a human name), so the exported
Chrome ``trace_event`` JSON renders as one row per thread in
``chrome://tracing`` / Perfetto.

Design constraints (load-bearing, see OBSERVABILITY.md):

- The tracer lock is a strict *leaf*: ``_record`` appends under the
  lock and never calls out, so arming the tracer can never add a
  lock-order edge to the graph checked by the lockdep harness.
- ``span().__enter__`` only stamps ``perf_counter()``; all bookkeeping
  happens once at ``__exit__``.  Hot paths pay two clock reads and one
  locked deque append per span — and *nothing at all* when disabled,
  because the module-level :func:`repro.telemetry.span` hands out a
  shared null span without touching any Tracer.
- The ring buffer drops the *oldest* events on overflow and counts the
  drops, so a long run degrades to "recent window" rather than OOM.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

DEFAULT_CAPACITY = 262_144


@dataclass
class SpanEvent:
    """One completed span, timestamps in microseconds since tracer start."""

    name: str
    cat: str
    ts_us: int
    dur_us: int
    tid: int
    args: "dict[str, object]" = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def note(self, **args) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """Live span context manager; records itself on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def note(self, **args) -> None:
        """Attach args discovered mid-span (e.g. wire bytes, hit/miss)."""
        self.args.update(args)

    def __exit__(self, *exc) -> None:
        self._tracer._record(
            self.name, self.cat, self._t0, time.perf_counter(), self.args
        )


class Tracer:  # public-guard: _lock
    """Bounded in-memory span recorder with per-thread lanes."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._events = deque(maxlen=capacity)  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock
        self._lane_of_ident = {}  # guarded-by: _lock
        self._lane_names = {}  # guarded-by: _lock
        self._next_tid = 0  # guarded-by: _lock
        self._metadata = {}  # guarded-by: _lock

    # -- recording ---------------------------------------------------

    def span(self, name, cat="", **args) -> _Span:  # lint: no-lock (defers)
        return _Span(self, name, cat, args)

    def _record(
        self, name: str, cat: str, t0: float, t1: float, args: dict
    ) -> None:
        ts_us = int((t0 - self._origin) * 1e6)
        dur_us = max(0, int((t1 - t0) * 1e6))
        ident = threading.get_ident()
        thread_name = threading.current_thread().name
        with self._lock:
            tid = self._lane_of_ident.get(ident)
            if tid is None:
                tid = self._next_tid
                self._next_tid += 1
                self._lane_of_ident[ident] = tid
                self._lane_names[tid] = thread_name
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(
                SpanEvent(
                    name=name, cat=cat, ts_us=ts_us, dur_us=dur_us,
                    tid=tid, args=args,
                )
            )

    def set_lane(self, name: str) -> None:
        """Name the calling thread's lane (overrides the thread name)."""
        ident = threading.get_ident()
        with self._lock:
            tid = self._lane_of_ident.get(ident)
            if tid is None:
                tid = self._next_tid
                self._next_tid += 1
                self._lane_of_ident[ident] = tid
            self._lane_names[tid] = name

    def add_metadata(self, **kv) -> None:
        """Attach run-level metadata (exported under ``otherData``)."""
        with self._lock:
            self._metadata.update(kv)

    # -- reading -----------------------------------------------------

    def to_chrome(self) -> dict:
        """Render as a Chrome ``trace_event`` JSON object (complete events)."""
        with self._lock:
            events = list(self._events)
            lanes = dict(self._lane_names)
            dropped = self._dropped
            meta = dict(self._metadata)
        trace_events: "list[dict]" = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": lane_name},
            }
            for tid, lane_name in sorted(lanes.items())
        ]
        for ev in events:
            trace_events.append(
                {
                    "ph": "X",
                    "name": ev.name,
                    "cat": ev.cat or "default",
                    "ts": ev.ts_us,
                    "dur": ev.dur_us,
                    "pid": 0,
                    "tid": ev.tid,
                    "args": ev.args,
                }
            )
        meta.setdefault("dropped_events", dropped)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }

    def export(self, path) -> None:  # lint: no-lock (to_chrome snapshots)
        """Write Chrome trace JSON to ``path`` (load in chrome://tracing)."""
        doc = self.to_chrome()
        with open(path, "w") as fh:
            # default=str: span args may carry numpy scalars etc.
            json.dump(doc, fh, default=str)
            fh.write("\n")
