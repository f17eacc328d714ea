"""Prometheus text rendering of a :class:`~repro.telemetry.metrics.MetricsRegistry`.

:func:`render_prometheus` renders every registered instrument in the
Prometheus text exposition format (version 0.0.4).  Counters and gauges
map directly; histograms render as summaries with
``quantile="0.5|0.95|0.99"`` labels plus ``_sum`` / ``_count`` (and
``_min`` / ``_max`` gauges, which Prometheus summaries lack but the
registry tracks exactly).  ``repro metrics`` prints it for a serving
registry; ``QueryService.stats_text`` returns it.

Thread-safety: rendering takes no registry-wide snapshot lock — it
lists the instrument map once, then reads each instrument through its
own leaf lock (see metrics.py), so a render never blocks the query hot
path for more than one instrument update.
"""

from __future__ import annotations

import re

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = ["render_prometheus"]

#: quantiles exported for every histogram
EXPORT_QUANTILES = (0.5, 0.95, 0.99)

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Registry metric name -> legal Prometheus metric name."""
    out = _NAME_SANITIZE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _split_key(key: str) -> "tuple[str, list[tuple[str, str]]]":
    """Parse a canonical ``name{k=v,...}`` registry key back apart.

    Label values are rendered with ``str()`` at registration time, so
    this is best-effort string parsing — good enough for the int/str
    labels the codebase uses (``machine=1``, ``shard=3``).
    """
    if "{" not in key:
        return key, []
    name, _, inner = key.partition("{")
    inner = inner.rstrip("}")
    labels = []
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels.append((k, v))
    return name, labels


def _label_str(labels: "list[tuple[str, str]]") -> str:
    if not labels:
        return ""
    quoted = ",".join(
        '{}="{}"'.format(k, v.replace("\\", r"\\").replace('"', r"\""))
        for k, v in labels
    )
    return "{" + quoted + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    typed: "set[str]" = set()
    lines: "list[str]" = []

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, inst in registry.instruments():
        raw_name, labels = _split_key(key)
        name = _prom_name(raw_name)
        if isinstance(inst, Counter):
            type_line(name, "counter")
            lines.append(f"{name}{_label_str(labels)} {_fmt(inst.value)}")
        elif isinstance(inst, Gauge):
            type_line(name, "gauge")
            lines.append(f"{name}{_label_str(labels)} {_fmt(inst.value)}")
            type_line(f"{name}_max", "gauge")
            lines.append(
                f"{name}_max{_label_str(labels)} {_fmt(inst.max)}"
            )
        elif isinstance(inst, Histogram):
            s = inst.summary()
            type_line(name, "summary")
            for q in EXPORT_QUANTILES:
                q_labels = labels + [("quantile", str(q))]
                lines.append(
                    f"{name}{_label_str(q_labels)} "
                    f"{_fmt(inst.quantile(q))}"
                )
            lines.append(
                f"{name}_sum{_label_str(labels)} {_fmt(s['total'])}"
            )
            lines.append(
                f"{name}_count{_label_str(labels)} {_fmt(s['count'])}"
            )
            type_line(f"{name}_min", "gauge")
            lines.append(f"{name}_min{_label_str(labels)} {_fmt(s['min'])}")
            type_line(f"{name}_max", "gauge")
            lines.append(f"{name}_max{_label_str(labels)} {_fmt(s['max'])}")
    return "\n".join(lines) + "\n"
