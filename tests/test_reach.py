"""The reachability map's harness (``repro.analysis.reach``) on a fixture
package: a function entered in the traced process, one entered only in a
forked ``multiprocessing`` child, and one never entered."""

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

DRIVE = (
    'python -c "import multiprocessing, repro.lib as lib; lib.in_parent(); '
    "child = multiprocessing.get_context('fork').Process(target=lib.in_fork_child); "
    'child.start(); child.join(); raise SystemExit(child.exitcode)"'
)


@pytest.mark.slow
def test_reach_follows_a_fork_child_and_the_allowlist_silences_the_rest(tmp_path):
    package = tmp_path / "src" / "repro"
    (package / "analysis").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(LIB)
    allowlist = tmp_path / ALLOWLIST
    allowlist.write_text("")

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
