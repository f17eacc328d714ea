"""History-based perf regression gate over ``BENCH_history.jsonl``.

Every benchmark appends one provenance-stamped JSON line per run (see
``benchmarks/common.append_history``).  This tool reads that history
back and turns it into a gate::

    python -m repro.telemetry regress BENCH_history.jsonl

Records are grouped by ``(benchmark, provenance.config_fingerprint)``
— only runs of the same benchmark under the same parameters compare.
Within each group the **newest** record's headline metrics are checked
against the **median of all prior records** (median, not mean, so one
historic outlier machine does not poison the baseline).  A metric
regresses when it moves past its noise band in its bad direction:

- ``*wall_seconds`` / ``*_seconds`` headline timings — higher is worse;
- ``*qps`` — lower is worse;
- ``*overlap_efficiency`` — lower is worse.

The default band is 15%; override per metric (``--band
wall_seconds=0.5``) or globally (``--band 0.3``), and add metrics with
``--metric recall_at_k=higher``.  Groups with no prior record are
reported as "baseline recorded" and never fail — which is why CI seeds
the history with a committed baseline line before the smoke runs.
Exit status: 1 if any metric regressed, else 0 (2 on unreadable input).
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_BAND",
    "HEADLINE_METRICS",
    "MetricCheck",
    "RegressReport",
    "check_history",
    "flatten_numeric",
    "load_history",
    "main",
]

DEFAULT_BAND = 0.15

#: final-path-component -> direction in which the metric gets *better*
HEADLINE_METRICS: "dict[str, str]" = {
    "wall_seconds": "lower",
    "qps": "higher",
    "overlap_efficiency": "higher",
}


def flatten_numeric(obj, prefix: str = "") -> "dict[str, float]":
    """Flatten nested dicts to ``a.b.c -> float`` (bools excluded)."""
    out: "dict[str, float]" = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_numeric(v, key))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def load_history(path: "str | Path") -> "list[dict]":
    """Parse a ``BENCH_history.jsonl`` file, skipping blank lines."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON record: {exc}"
                ) from exc
            if isinstance(rec, dict):
                records.append(rec)
    return records


def _group_key(record: dict) -> "tuple[str, str]":
    return (
        str(record.get("benchmark", "?")),
        str(
            (record.get("provenance") or {}).get("config_fingerprint", "?")
        ),
    )


@dataclass
class MetricCheck:
    """One headline metric of one group, newest vs prior median."""

    benchmark: str
    fingerprint: str
    metric: str  # full dotted path inside the record
    direction: str  # the metric's good direction: "lower" | "higher"
    baseline_median: float
    newest: float
    band: float
    num_prior: int

    @property
    def delta_frac(self) -> float:
        if self.baseline_median == 0.0:
            return 0.0 if self.newest == 0.0 else float("inf")
        return (self.newest - self.baseline_median) / abs(
            self.baseline_median
        )

    @property
    def regressed(self) -> bool:
        if self.direction == "lower":  # lower is better: growth is bad
            return self.delta_frac > self.band
        return self.delta_frac < -self.band


@dataclass
class RegressReport:
    checks: "list[MetricCheck]" = field(default_factory=list)
    #: groups whose newest record had nothing to compare against
    baseline_only: "list[tuple[str, str]]" = field(default_factory=list)

    @property
    def regressions(self) -> "list[MetricCheck]":
        return [c for c in self.checks if c.regressed]


def _metric_direction(
    path: str, metrics: "dict[str, str]"
) -> "str | None":
    """Direction for a flattened path, matched on its last component."""
    leaf = path.rsplit(".", 1)[-1]
    return metrics.get(leaf)


def check_history(
    records: "list[dict]",
    default_band: float = DEFAULT_BAND,
    bands: "dict[str, float] | None" = None,
    metrics: "dict[str, str] | None" = None,
    min_prior: int = 1,
) -> RegressReport:
    """Compare each group's newest record against its prior median.

    ``bands`` maps metric leaf names to per-metric noise bands;
    ``metrics`` extends/overrides :data:`HEADLINE_METRICS` (leaf name
    -> the metric's *good* direction: "lower" means lower values are
    better, so growth past the band regresses; "higher" the inverse).
    """
    bands = bands or {}
    metric_dirs = dict(HEADLINE_METRICS)
    if metrics:
        metric_dirs.update(metrics)
    groups: "dict[tuple[str, str], list[dict]]" = {}
    for rec in records:
        groups.setdefault(_group_key(rec), []).append(rec)
    report = RegressReport()
    for (bench, fp), recs in sorted(groups.items()):
        newest, priors = recs[-1], recs[:-1]
        if len(priors) < min_prior:
            report.baseline_only.append((bench, fp))
            continue
        flat_new = flatten_numeric(newest)
        flat_priors = [flatten_numeric(r) for r in priors]
        for path, value in sorted(flat_new.items()):
            direction = _metric_direction(path, metric_dirs)
            if direction is None:
                continue
            prior_values = [
                f[path] for f in flat_priors if path in f
            ]
            if len(prior_values) < min_prior:
                continue
            leaf = path.rsplit(".", 1)[-1]
            report.checks.append(
                MetricCheck(
                    benchmark=bench,
                    fingerprint=fp,
                    metric=path,
                    direction=direction,
                    baseline_median=statistics.median(prior_values),
                    newest=value,
                    band=bands.get(leaf, default_band),
                    num_prior=len(prior_values),
                )
            )
    return report


def render_report(report: RegressReport) -> str:
    lines = []
    for c in report.checks:
        arrow = "REGRESSED" if c.regressed else "ok"
        delta = (
            f"{c.delta_frac:+.1%}"
            if c.delta_frac not in (float("inf"), float("-inf"))
            else "inf"
        )
        lines.append(
            f"[{arrow:>9}] {c.benchmark} ({c.fingerprint}) {c.metric}: "
            f"median {c.baseline_median:.4g} -> {c.newest:.4g} "
            f"({delta}, band ±{c.band:.0%}, n={c.num_prior})"
        )
    for bench, fp in report.baseline_only:
        lines.append(
            f"[ baseline] {bench} ({fp}): first record, nothing to "
            f"compare against yet"
        )
    n = len(report.regressions)
    lines.append(
        f"{len(report.checks)} metric(s) checked, {n} regression(s)"
    )
    return "\n".join(lines)


def _parse_band_args(
    raw: "list[str]",
) -> "tuple[float, dict[str, float]]":
    default = DEFAULT_BAND
    per_metric: "dict[str, float]" = {}
    for item in raw:
        if "=" in item:
            name, _, value = item.partition("=")
            per_metric[name.strip()] = float(value)
        else:
            default = float(item)
    return default, per_metric


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry regress",
        description="Gate on the benchmark history: newest run vs the "
        "median of prior runs, per benchmark + config fingerprint.",
    )
    parser.add_argument("history", help="path to BENCH_history.jsonl")
    parser.add_argument(
        "--band", action="append", default=[], metavar="[METRIC=]FRAC",
        help="noise band as a fraction — bare value sets the default "
        f"(default {DEFAULT_BAND}), METRIC=FRAC overrides one metric "
        "(e.g. --band wall_seconds=0.5); repeatable",
    )
    parser.add_argument(
        "--metric", action="append", default=[],
        metavar="NAME=lower|higher",
        help="additional headline metric and its good direction "
        "(e.g. --metric recall_at_k=higher); repeatable",
    )
    parser.add_argument(
        "--min-prior", type=int, default=1,
        help="prior records required before a group is gated "
        "(default 1)",
    )
    args = parser.parse_args(argv)
    try:
        records = load_history(args.history)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        default_band, bands = _parse_band_args(args.band)
        extra_metrics = {}
        for item in args.metric:
            name, _, direction = item.partition("=")
            if direction not in ("lower", "higher"):
                raise ValueError(
                    f"--metric needs NAME=lower|higher, got {item!r}"
                )
            extra_metrics[name.strip()] = direction
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_history(
        records,
        default_band=default_band,
        bands=bands,
        metrics=extra_metrics,
        min_prior=args.min_prior,
    )
    print(render_report(report))
    if report.regressions:
        for c in report.regressions:
            print(
                f"FAIL: {c.benchmark} {c.metric} regressed "
                f"{c.delta_frac:+.1%} past the ±{c.band:.0%} band",
                file=sys.stderr,
            )
        return 1
    return 0
