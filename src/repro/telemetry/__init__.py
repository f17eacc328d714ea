"""Unified telemetry: span tracer + metrics registry + trace analysis.

Two substrates live here (see OBSERVABILITY.md for the full guide):

- :mod:`repro.telemetry.metrics` — always-on counters/gauges/histograms
  that the end-of-run ``*Stats`` dataclasses are derived from.
- :mod:`repro.telemetry.tracer` — an opt-in span tracer whose module-
  level API below is **no-op by default**.  Hot paths write::

      with telemetry.span("prefetch.fetch", cat="transfer", part=p) as sp:
          ...
          sp.note(bytes=n)

  and pay nothing (a shared null context manager, no locks, no clock
  reads) unless a tracer has been armed with :func:`enable`.  This is
  what keeps the bit-identical serial oracle and the benchmark numbers
  unaffected when tracing is off.

Arming is process-global and single-owner by convention: whoever calls
:func:`enable` (the CLI for ``--trace``, a benchmark, a test) exports
and calls :func:`disable`.  Trainers arm themselves only when
``config.trace_path`` is set *and* nothing is armed yet, so an outer
owner (e.g. the CLI, which wants the in-memory events for its digest)
always wins.
"""

from __future__ import annotations

from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.telemetry.tracer import (
    DEFAULT_CAPACITY,
    NULL_SPAN,
    SpanEvent,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "metric_key",
    "DEFAULT_BUCKET_BOUNDS",
    "DEFAULT_CAPACITY",
    "NULL_SPAN",
    "SpanEvent",
    "Tracer",
    "active",
    "disable",
    "enable",
    "set_lane",
    "span",
]

_TRACER: "Tracer | None" = None


def enable(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Arm a fresh tracer process-wide and return it."""
    global _TRACER
    tracer = Tracer(capacity=capacity)
    _TRACER = tracer
    return tracer


def disable() -> "Tracer | None":
    """Disarm tracing; returns the tracer that was active, if any."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    return tracer


def active() -> "Tracer | None":
    return _TRACER


def span(name: str, cat: str = "", **args):
    """Span context manager on the active tracer; inert no-op if none."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat, **args)


def set_lane(name: str) -> None:
    """Name the calling thread's lane on the active tracer, if any."""
    tracer = _TRACER
    if tracer is not None:
        tracer.set_lane(name)
