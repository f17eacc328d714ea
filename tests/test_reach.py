"""The reachability map's harness (``repro.analysis.reach``) on a fixture
package: a function entered in the traced process, one entered only in a
forked ``multiprocessing`` child, one never entered, a tooling module
with a function never entered, and an exempt ``analysis/lockdep.py``."""

import pytest

from repro.analysis.reach import ALLOWLIST, check, reach

LIB = '''
def in_parent():
    return 1


def in_fork_child():
    return 2


def never():
    return 3
'''

TOOL = '''
def unused():
    return 4
'''

DRIVE = (
    'python -c "import multiprocessing, repro.lib as lib; lib.in_parent(); '
    "child = multiprocessing.get_context('fork').Process(target=lib.in_fork_child); "
    'child.start(); child.join(); raise SystemExit(child.exitcode)"'
)


def _package(root, tooling=False):
    """Write the fixture package under ``root/src/repro``; return the
    (empty) allowlist's path."""
    package = root / "src" / "repro"
    (package / "analysis").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(LIB)
    if tooling:
        (package / "telemetry").mkdir()
        (package / "telemetry" / "tool.py").write_text(TOOL)
        (package / "analysis" / "lockdep.py").write_text(TOOL)
    allowlist = root / ALLOWLIST
    allowlist.write_text("")
    return allowlist


@pytest.mark.slow
def test_reach_follows_a_fork_child_and_the_allowlist_silences_the_rest(tmp_path):
    allowlist = _package(tmp_path)

    reached = reach([DRIVE], tmp_path)

    assert reached == {
        "lib.py:in_parent": (1, [0]),
        "lib.py:in_fork_child": (1, [0]),
        "lib.py:never": (1, []),
    }
    assert check(reached, tmp_path) == 1
    allowlist.write_text("lib.py:never  a failure path\n")
    assert check(reached, tmp_path) == 0
    # A line naming no function fails, so the list cannot go stale.
    allowlist.write_text("lib.py:never  a failure path\nlib.py:gone  deleted\n")
    assert check(reached, tmp_path) == 1


@pytest.mark.slow
def test_reach_maps_the_tooling_and_exempts_lockdep(tmp_path, capsys):
    allowlist = _package(tmp_path, tooling=True)
    allowlist.write_text("lib.py:never  a failure path\n")

    reached = reach([DRIVE], tmp_path)

    assert reached["telemetry/tool.py:unused"] == (1, [])
    assert not [name for name in reached if name.startswith("analysis/")]
    capsys.readouterr()
    assert check(reached, tmp_path) == 1
    out = capsys.readouterr().out
    assert "telemetry/tool.py:unused  1 lines  UNREACHED" in out
    assert "1 failing" in out
