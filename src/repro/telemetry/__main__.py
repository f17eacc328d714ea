"""Telemetry CLI: analyze one trace or gate on history.

Two subcommands share this entry point:

- ``python -m repro.telemetry TRACE.json`` (or ``analyze TRACE.json``)
  — single-trace analysis: overlap efficiency, per-bucket critical
  path, lock hold/wait, ASCII Gantt; ``--assert-overlap`` for CI.
- ``python -m repro.telemetry regress BENCH_history.jsonl`` — compare
  the newest benchmark record per (benchmark, config fingerprint)
  against the median of its prior records; exit non-zero on regression
  (see :mod:`repro.telemetry.regress`).
"""

from __future__ import annotations

import argparse
import sys

from repro.telemetry.analyze import analyze_chrome, load_trace, render_report


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommand dispatch kept out of argparse so the original
    # positional form (``python -m repro.telemetry TRACE.json``) keeps
    # working unchanged.
    if argv and argv[0] == "regress":
        from repro.telemetry.regress import main as regress_main

        return regress_main(argv[1:])
    if argv and argv[0] == "analyze":
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Analyze a Chrome trace captured with --trace "
        "(subcommands: analyze [default], regress).",
    )
    parser.add_argument("trace", help="path to a trace_event JSON file")
    parser.add_argument(
        "--top", type=int, default=5,
        help="how many slowest buckets to show (default 5)",
    )
    parser.add_argument(
        "--width", type=int, default=72,
        help="Gantt timeline width in columns (default 72)",
    )
    parser.add_argument(
        "--no-gantt", action="store_true",
        help="skip the ASCII timeline (summary sections only)",
    )
    parser.add_argument(
        "--assert-overlap", action="store_true",
        help="exit 1 unless overlap efficiency is > 0 (CI smoke check)",
    )
    args = parser.parse_args(argv)

    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze_chrome(trace)
    print(
        render_report(
            analysis,
            trace=None if args.no_gantt else trace,
            top=args.top,
            width=args.width,
        )
    )
    if args.assert_overlap and not analysis.overlap_efficiency > 0.0:
        print(
            "FAIL: overlap efficiency is zero — no transfer time was "
            "hidden under compute",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
