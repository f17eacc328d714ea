"""Trace-driven analysis: overlap efficiency, critical path, lock times.

Consumes Chrome ``trace_event`` JSON (as produced by
:meth:`repro.telemetry.Tracer.to_chrome` / ``--trace``) and answers the
questions the end-of-run counters cannot:

- **overlap efficiency** — of the seconds the run spent moving bytes
  (category ``transfer``), what fraction was hidden under concurrent
  compute (category ``compute``)?  1.0 means every transfer second was
  covered by training somewhere; 0.0 means transfers ran bare on the
  critical path (the serial regime).
- **per-bucket critical path** — wall seconds of training vs. inline
  swap I/O attributed to each ``(lhs, rhs)`` bucket, slowest first.
- **lock hold / wait** — time spent inside lock-server RPCs, holding a
  granted bucket, and starved waiting for one.

All interval math is done on second-unit ``(start, end)`` pairs via
plain union/intersection sweeps; categories are the span taxonomy
documented in OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: category -> Gantt marker (also the legend shown under the timeline)
CAT_MARKERS = {
    "compute": "#",
    "transfer": "=",
    "stall": ".",
    "lock": "L",
    "codec": "c",
    "checkpoint": "K",
    "serve": "s",
}
_DEFAULT_MARKER = "-"


@dataclass
class BucketCost:
    """Wall-clock attribution for one bucket across the whole run."""

    bucket: str
    train_s: float = 0.0
    swap_s: float = 0.0
    visits: int = 0

    @property
    def total_s(self) -> float:
        return self.train_s + self.swap_s


@dataclass
class LockReport:
    acquires: int = 0
    acquire_rpc_s: float = 0.0
    hold_s: float = 0.0
    starved_s: float = 0.0


@dataclass
class TraceAnalysis:
    duration_s: float = 0.0
    num_events: int = 0
    dropped: int = 0
    lanes: "dict[int, str]" = field(default_factory=dict)
    cat_busy_s: "dict[str, float]" = field(default_factory=dict)
    compute_busy_s: float = 0.0
    transfer_busy_s: float = 0.0
    overlapped_s: float = 0.0
    overlap_efficiency: float = 0.0
    stall_s: float = 0.0
    buckets: "list[BucketCost]" = field(default_factory=list)
    lock: LockReport = field(default_factory=LockReport)


# ----------------------------------------------------------------------
# Interval math
# ----------------------------------------------------------------------


def union_intervals(
    intervals: "list[tuple[float, float]]",
) -> "list[tuple[float, float]]":
    """Merge overlapping/touching intervals into a sorted disjoint set."""
    out: "list[tuple[float, float]]" = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _total(disjoint: "list[tuple[float, float]]") -> float:
    return sum(end - start for start, end in disjoint)


def _intersection_length(
    a: "list[tuple[float, float]]", b: "list[tuple[float, float]]"
) -> float:
    """Overlap length of two disjoint sorted interval sets (sweep)."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ----------------------------------------------------------------------
# Loading / analysis
# ----------------------------------------------------------------------


def load_trace(path: str) -> dict:
    """Load a Chrome trace file (object form or bare event array)."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):  # the JSON Array Format is also legal
        doc = {"traceEvents": doc}
    if "traceEvents" not in doc or not isinstance(doc["traceEvents"], list):
        raise ValueError(f"{path}: not a Chrome trace_event file")
    return doc


def _complete_events(trace: dict) -> "list[dict]":
    return [
        ev
        for ev in trace.get("traceEvents", [])
        if ev.get("ph") == "X" and "ts" in ev
    ]


def _lane_names(trace: dict) -> "dict[int, str]":
    lanes: "dict[int, str]" = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            lanes[int(ev.get("tid", 0))] = str(
                ev.get("args", {}).get("name", "")
            )
    return lanes


def analyze_chrome(trace: dict) -> TraceAnalysis:
    """Analyze an in-memory Chrome trace object."""
    events = _complete_events(trace)
    out = TraceAnalysis(
        num_events=len(events),
        lanes=_lane_names(trace),
        dropped=int(trace.get("otherData", {}).get("dropped_events", 0) or 0),
    )
    if not events:
        return out

    by_cat: "dict[str, list[tuple[float, float]]]" = {}
    buckets: "dict[str, BucketCost]" = {}
    lock = LockReport()
    lock_open: "dict[object, float]" = {}  # machine -> grant time
    t_min = float("inf")
    t_max = 0.0
    for ev in sorted(events, key=lambda e: e["ts"]):
        start = ev["ts"] / 1e6
        dur = ev.get("dur", 0) / 1e6
        end = start + dur
        t_min = min(t_min, start)
        t_max = max(t_max, end)
        cat = ev.get("cat", "default")
        by_cat.setdefault(cat, []).append((start, end))
        name = ev.get("name", "")
        args = ev.get("args", {}) or {}
        if name in ("train.bucket", "swap.bucket"):
            key = str(args.get("bucket", "?"))
            cost = buckets.setdefault(key, BucketCost(bucket=key))
            if name == "train.bucket":
                cost.train_s += dur
                cost.visits += 1
            else:
                cost.swap_s += dur
        elif name == "lock.acquire":
            lock.acquires += 1
            lock.acquire_rpc_s += dur
            if args.get("granted", True):
                lock_open[args.get("machine")] = end
        elif name == "lock.release":
            grant = lock_open.pop(args.get("machine"), None)
            if grant is not None and end > grant:
                lock.hold_s += end - grant
        elif name == "lock.starved":
            lock.starved_s += dur

    compute = union_intervals(by_cat.get("compute", []))
    transfer = union_intervals(by_cat.get("transfer", []))
    out.duration_s = max(0.0, t_max - t_min)
    out.cat_busy_s = {
        cat: _total(union_intervals(ivs)) for cat, ivs in by_cat.items()
    }
    out.compute_busy_s = _total(compute)
    out.transfer_busy_s = _total(transfer)
    out.overlapped_s = _intersection_length(compute, transfer)
    out.overlap_efficiency = (
        out.overlapped_s / out.transfer_busy_s if out.transfer_busy_s else 0.0
    )
    out.stall_s = out.cat_busy_s.get("stall", 0.0)
    out.buckets = sorted(
        buckets.values(), key=lambda b: b.total_s, reverse=True
    )
    out.lock = lock
    return out


def analyze_tracer(tracer) -> TraceAnalysis:
    """Analyze a live (armed) Tracer without exporting to disk."""
    return analyze_chrome(tracer.to_chrome())


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _gantt_lanes(
    trace: dict,
) -> "dict[str, list[tuple[float, float, str]]]":
    lane_names = _lane_names(trace)
    lanes: "dict[str, list[tuple[float, float, str]]]" = {}
    for ev in sorted(_complete_events(trace), key=lambda e: e["ts"]):
        cat = ev.get("cat", "default")
        marker = CAT_MARKERS.get(cat)
        if marker is None:
            continue  # phase wrappers (epoch, ...) would paint over lanes
        tid = int(ev.get("tid", 0))
        name = lane_names.get(tid, f"tid {tid}")
        start = ev["ts"] / 1e6
        lanes.setdefault(name, []).append(
            (start, start + ev.get("dur", 0) / 1e6, marker)
        )
    return lanes


def render_gantt(trace: dict, width: int = 64) -> str:
    """ASCII Gantt timeline, one row per recorded lane."""
    # Lazy import: repro.eval.__init__ pulls in the heavy eval stack.
    from repro.eval.ascii_plot import ascii_gantt

    lanes = _gantt_lanes(trace)
    if not lanes:
        return "(no categorized spans to draw)"
    legend = "   ".join(
        f"{marker} {cat}" for cat, marker in CAT_MARKERS.items()
    )
    return ascii_gantt(lanes, width=width) + "\n" + legend


def dropped_warning(analysis: TraceAnalysis) -> "str | None":
    """Prominent warning when the tracer ring overflowed, else None.

    A full ring drops the *oldest* spans, so every unioned interval —
    overlap efficiency, per-bucket critical path, lock hold/wait — is
    computed over a truncated window and cannot be trusted.
    """
    if not analysis.dropped:
        return None
    return (
        f"WARNING: {analysis.dropped} span(s) were dropped by the "
        f"tracer ring buffer — overlap/critical-path numbers below "
        f"cover only the surviving window and are NOT trustworthy. "
        f"Re-capture with a larger capacity "
        f"(telemetry.enable(capacity=...))."
    )


def render_report(
    analysis: TraceAnalysis,
    trace: "dict | None" = None,
    top: int = 5,
    width: int = 64,
) -> str:
    """Full multi-section analyzer output (``python -m repro.telemetry``)."""
    a = analysis
    lines = [
        f"trace: {a.num_events} events ({a.dropped} dropped), "
        f"{a.duration_s:.3f} s, {len(a.lanes)} lanes",
        "busy seconds by category: "
        + (
            ", ".join(
                f"{cat} {a.cat_busy_s[cat]:.3f}"
                for cat in sorted(a.cat_busy_s)
            )
            or "(none)"
        ),
        f"overlap: transfer busy {a.transfer_busy_s:.3f} s, covered by "
        f"compute {a.overlapped_s:.3f} s "
        f"-> efficiency {a.overlap_efficiency:.1%}",
        f"stalls: {a.stall_s:.3f} s",
    ]
    warning = dropped_warning(a)
    if warning is not None:
        lines.insert(1, warning)
    if a.lock.acquires:
        lines.append(
            f"locks: {a.lock.acquires} acquires, "
            f"rpc {a.lock.acquire_rpc_s:.3f} s, "
            f"hold {a.lock.hold_s:.3f} s, "
            f"starved {a.lock.starved_s:.3f} s"
        )
    if a.buckets:
        lines.append(f"per-bucket critical path (top {top} of {len(a.buckets)}):")
        for cost in a.buckets[:top]:
            lines.append(
                f"  bucket {cost.bucket}: total {cost.total_s:.3f} s "
                f"(train {cost.train_s:.3f}, swap {cost.swap_s:.3f}, "
                f"{cost.visits} visits)"
            )
    if trace is not None:
        lines.append("")
        lines.append(render_gantt(trace, width=width))
    return "\n".join(lines)


def render_digest(analysis: TraceAnalysis, top: int = 3) -> str:
    """One-screen end-of-run digest for the training CLI."""
    a = analysis
    lines = [
        f"telemetry: overlap {a.overlap_efficiency:.1%} "
        f"(transfer {a.transfer_busy_s:.2f} s, "
        f"hidden {a.overlapped_s:.2f} s) | "
        f"stalls {a.stall_s:.2f} s | "
        f"{a.num_events} spans ({a.dropped} dropped)"
    ]
    if a.buckets:
        slow = " · ".join(
            f"{c.bucket} {c.total_s:.2f}s" for c in a.buckets[:top]
        )
        lines.append(f"slowest buckets: {slow}")
    warning = dropped_warning(a)
    if warning is not None:
        lines.append(warning)
    return "\n".join(lines)
