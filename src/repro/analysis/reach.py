"""Reachability map: ``python -m repro.analysis.reach``, no flags.

Runs each line of ``reach_commands.txt`` traced, prints every function of ``src/repro`` outside
``EXEMPT`` with the commands entering it, and exits 1 on one neither reached nor in
``reach_allowlist.txt`` (``path:qualname  reason``), on an allowlist line naming no function,
or on over ``MAX_ALLOWED_LINES`` allowlisted body lines. Command exit statuses are printed,
not judged: a claim can fail a timing check and still reach its code.
"""

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
COMMANDS = "src/repro/analysis/reach_commands.txt"
ALLOWLIST = "src/repro/analysis/reach_allowlist.txt"
MAX_ALLOWED_LINES = 150
EXEMPT = {
    "analysis/lockdep.py",  # a test oracle: CI's analysis job runs the suite under REPRO_LOCKDEP=1
    "analysis/reach.py",  # the map itself: it does not trace its own run
}
# Written as sitecustomize.py: keeps code objects on call events (returning None: no line events),
# writes them at exit, also from a forked child, which leaves by _exit_function and skips atexit.
_TRACER = """import atexit, os, sys, threading
import multiprocessing.util as mu
seen = set()
def trace(frame, event, arg):
    seen.add(frame.f_code)
def dump(*args, _exit_function=None, **kwargs):
    with open(os.path.join({out!r}, str(os.getpid())), "a") as f:
        f.writelines(f"{{os.path.realpath(code.co_filename)}}:{{code.co_firstlineno}}\\n"
                     for code in list(seen) if "repro" in code.co_filename)
    return _exit_function and _exit_function(*args, **kwargs)
mu._exit_function = lambda *a, _exit=mu._exit_function, **k: dump(*a, _exit_function=_exit, **k)
atexit.register(dump)
sys.settrace(trace), threading.settrace(trace)
"""


def _visit(node, path, rel, prefix, where, reached):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list], default=child.lineno)
            name = where[f"{path}:{first}"] = f"{rel}:{prefix}{child.name}"  # a setter shares it
            reached.setdefault(name, [0, set()])[0] += child.end_lineno - child.body[0].lineno + 1
            _visit(child, path, rel, f"{prefix}{child.name}.<locals>.", where, reached)
        else:
            _visit(child, path, rel, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                   else prefix, where, reached)


def reach(commands: "list[str]", root: Path) -> "dict[str, tuple[int, list[int]]]":
    """Run each shell command traced, from a scratch directory with a ``src`` link to
    root's; map ``path:qualname`` to (body lines, indices of the commands entering it)."""
    lib, where, reached = (root / "src" / "repro").resolve(), {}, {}
    for path in sorted(lib.rglob("*.py")):
        if path.relative_to(lib).as_posix() not in EXEMPT:
            _visit(ast.parse(path.read_text()), path, path.relative_to(lib), "", where, reached)
    with tempfile.TemporaryDirectory() as tmp:
        (out := Path(tmp, "out")).mkdir()
        Path(tmp, "sitecustomize.py").write_text(_TRACER.format(out=str(out)))
        Path(tmp, "python").write_text(  # first on PATH, so CI's PYTHONPATH=src keeps the tracer
            f'#!/bin/sh\nexport PYTHONPATH="{tmp}${{PYTHONPATH:+:$PYTHONPATH}}"\n'
            f'exec {sys.executable} "$@"\n')
        Path(tmp, "python").chmod(0o755)
        env = dict(os.environ, PATH=f"{tmp}:{os.environ['PATH']}", PYTHONPATH=f"{root}/src")
        for i, command in enumerate(commands):
            start = time.perf_counter()
            with tempfile.TemporaryDirectory() as cwd:
                os.symlink(root / "src", Path(cwd, "src"))
                proc = subprocess.run(command, shell=True, cwd=cwd, env=env, text=True,
                                      stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            print(f"[{i}] exit {proc.returncode}, {time.perf_counter() - start:.0f} s: "
                  f"{command.replace(f'{root}/', '')}")
            print(proc.stdout[-3000:] if proc.returncode else "", end="", flush=True)
            for dump in out.iterdir():
                for name in {where.get(line) for line in dump.read_text().split()} - {None}:
                    reached[name][1].add(i)
                dump.unlink()
    return {name: (lines, sorted(hits)) for name, (lines, hits) in reached.items()}


def check(reached: "dict[str, tuple[int, list[int]]]", root: Path) -> int:
    """Print the map against root's allowlist; return 1 on a failure, else 0."""
    allowed = dict(line.split(None, 1) for line in (root / ALLOWLIST).read_text().splitlines())
    failed = [f"{name}  allowlisted, not a library function" for name in allowed
              if name not in reached]
    for name, (lines, hits) in sorted(reached.items()):
        print(f"{name}  {lines} lines  " + (f"reached by {hits}" if hits else f"allowlisted: "
              f"{allowed[name]}" if name in allowed else "UNREACHED"))
        failed += [] if hits or name in allowed else [name]
    allowed_lines = sum(reached[name][0] for name in allowed if name in reached)
    print(*failed, f"{len(reached)} functions, {len(failed)} failing, {allowed_lines} "
          f"allowlisted body lines (at most {MAX_ALLOWED_LINES})", sep="\n", flush=True)
    return int(bool(failed) or allowed_lines > MAX_ALLOWED_LINES)


if __name__ == "__main__":
    sys.exit(check(reach([line.format(root=ROOT) for line in (ROOT / COMMANDS).read_text()
                          .splitlines() if line.strip()], ROOT), ROOT))
