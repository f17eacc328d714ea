"""CLI for the concurrency lint: ``python -m repro.analysis``.

With no arguments, checks the annotated concurrency modules
(``lint.default_targets``) and exits 0 iff they are clean. Pass
explicit paths to check other files (directories are searched for
``*.py``). ``--expect-findings`` inverts the exit status — used by CI
(``ci/concurrency_lint.sh``) against the known-bad corpus in
``tests/lint_corpus/`` to prove the checker still catches what it is
supposed to catch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .lint import check_file, default_targets


def _expand(paths: "list[str]") -> "list[Path]":
    out: "list[Path]" = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Concurrency invariant lint for annotated modules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the annotated "
        "concurrency modules)",
    )
    parser.add_argument(
        "--expect-findings",
        action="store_true",
        help="invert the exit status: fail if a checked file produces "
        "NO findings (corpus self-test)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the per-file summary, print findings only",
    )
    args = parser.parse_args(argv)

    targets = _expand(args.paths) if args.paths else default_targets()
    if not targets:
        print("no files to check", file=sys.stderr)
        return 2

    exit_code = 0
    total = 0
    for path in targets:
        try:
            findings = check_file(path)
        except (OSError, SyntaxError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            exit_code = 2
            continue
        total += len(findings)
        for f in findings:
            print(f)
        if args.expect_findings and not findings:
            print(
                f"{path}: expected findings but the file is clean",
                file=sys.stderr,
            )
            exit_code = 1

    if args.expect_findings:
        if not args.quiet:
            print(
                f"{len(targets)} file(s), {total} finding(s) "
                f"(findings expected)"
            )
        return exit_code
    if total:
        if not args.quiet:
            print(f"{len(targets)} file(s), {total} finding(s)")
        return 1
    if not args.quiet:
        print(f"{len(targets)} file(s) clean")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
