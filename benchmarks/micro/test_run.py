"""Tests of the micro runner (``run.py``): the registry, the pairing, the
exit status, the records. Every group runs at ``--quick`` size, paired
with a second copy of the tree, one timed call a row."""

import importlib.util
import json
import shutil
from itertools import product
from pathlib import Path

import pytest

from repro.config import fingerprint

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
_spec = importlib.util.spec_from_file_location("micro_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _rows(names, *axes):
    return [f"{n}[{','.join(a)}]" for n, *a in product(names, *axes)]


#: the rows the replaced scripts printed at ``--quick`` size, per group
OLD_ROWS = {
    "chunk_step": _rows(
        ["forward_backward_chunk", "batch_as_chunk_calls",
         "batch_as_one_call", "ragged_batch_as_one_call"],
        ["cos,identity", "dot,translation"], ["same_table", "two_tables"],
    ) + [
        "matmul_floor", "per_relation_batches[dot,translation]",
        "packed_batches[dot,translation]", "packed_batches[dot,linear]",
        "row_adagrad_step", "accumulate_duplicate_rows",
        *_rows(["accumulate"], ["coo_constructor", "csr_constructor",
                                "reduceat"]),
        *_rows(["epoch"], ["num_workers=1", "num_workers=2",
                           "num_workers=4"]),
        # the --against rows
        "batch[cos,identity,same_table]",
        "ragged_batch[cos,identity,two_tables]",
        "kg_batch[dot,translation,20_relations]",
        "batch[l2,translation,two_tables]",
        "unbatched_chunk[dot,translation,same_table]",
        "ranking_loss", "cos_prepare_saved",
    ],
    "partition_swap": _rows(["park_take", "park_evict", "drain"],
                            ["memory", "disk"], ["synchronous", "pipelined"]),
    "partition_rpc": _rows(
        ["server.get_versioned", "server.put", "server.put_delta",
         "adapter.load", "adapter.save", "adapter.save_delta"],
        ["none", "int8"], ["in_process", "proxy"],
    ) + _rows(["parameter.sync"], ["in_process", "proxy"]),
    "knn_query": ["ivf[b=64]", "exact[b=64]", "ivf[b=400]",
                  "ivfpq[b=400,m=8,r=8]"],
    "serving_knn": ["exact", "ivf[l=64,p=4]", "ivf[l=64,p=8]",
                    "ivfpq[l=64,p=8,m=8,r=8]"],
}

#: rows added since, per group
NEW_ROWS = {
    "chunk_step": ["batch[dot,affine,same_table]",
                   "batch[dot,translation,same_table,logistic]",
                   "epoch[lanes=1]", "epoch[lanes=2]"],
    "partition_swap": ["train_beside_swaps[disk,pipelined]"],
    "partition_rpc": _rows(
        ["server.get_versioned", "server.put", "server.put_delta",
         "adapter.load", "adapter.save", "adapter.save_delta"],
        ["fp16"], ["in_process", "proxy"],
    ),
    "import": [*_rows(["bucket_edges"], ["kg", "disk", "dense"]),
               "partition_entities[kg]", "radix_argsort[4000_ids]",
               "radix_argsort[292500_ids]"],
}

#: duplicate rows -> the row that times the same input
MERGED = {
    "batch[cos,identity,same_table]":
        "batch_as_one_call[cos,identity,same_table]",
    "ragged_batch[cos,identity,two_tables]":
        "ragged_batch_as_one_call[cos,identity,two_tables]",
    "ivf[b=400]": "serving_knn's ivf[l=64,p=8]",
}

#: rows whose code is gone -> why
RETIRED = {
    "ivfpq[l=64,p=8,m=8,r=8]": "product quantisation and refine left the "
                               "serving index: slower than the exact scan",
    "ivfpq[b=400,m=8,r=8]": "merged into serving_knn's "
                            "ivfpq[l=64,p=8,m=8,r=8], retired with it",
    **{f"epoch[num_workers={n}]": "HOGWILD left the trainer; the "
                                  "epoch[lanes=1|2] rows train its schedule"
       for n in (1, 2, 4)},
}

#: one name for two inputs -> a row per stack size
SPLIT = {name: [f"{name}[400_rows]", f"{name}[4000_rows]"]
         for name in ("row_adagrad_step", "accumulate_duplicate_rows")}


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def quick_pair(tmp_path_factory):
    history = tmp_path_factory.mktemp("micro") / "history.jsonl"
    measure = run.measure
    run.measure = lambda name, sides: measure(
        name, [side._replace(calls=1) for side in sides]
    )
    try:
        status = run.main(
            ["--quick", "--against", str(SRC), "--history", str(history)]
        )
    finally:
        run.measure = measure
    return status, {r["benchmark"]: r for r in _records(history)}


def test_rows_are_the_replaced_scripts_rows(quick_pair):
    _, records = quick_pair
    assert list(records) == [benchmark for benchmark, _ in run.GROUPS.values()]
    for name, (benchmark, _) in run.GROUPS.items():
        expected = [new for row in OLD_ROWS.get(name, [])
                    if row not in MERGED and row not in RETIRED
                    for new in SPLIT.get(row, [row])] + NEW_ROWS.get(name, [])
        assert sorted(records[benchmark]["rows"]) == sorted(expected), name
    # A retired row was an old row (a typo would retire none).
    assert set(RETIRED) <= {row for rows in OLD_ROWS.values() for row in rows}
    # A declared numeric change names a row (a typo would declare none).
    assert set(run.NUMERIC_CHANGES) <= {
        row for record in records.values() for row in record["rows"]
    }


def test_the_replaced_scripts_are_gone():
    assert not list(HERE.parent.glob("**/bench_*.py"))


def test_self_pair_passes_and_every_row_is_compared(quick_pair):
    status, records = quick_pair
    assert status == 0
    identity = [
        r["bit_identical"]
        for record in records.values() for r in record["rows"].values()
    ]
    assert identity and all(same is True for same in identity)
    assert records["micro_chunk_step"]["checks"][
        "epoch[lanes=1] equals epoch[lanes=2]"
    ]


def test_records_recompute_their_fingerprints(quick_pair):
    for record in quick_pair[1].values():
        assert record["params"]["quick"] is True
        assert record["provenance"]["config_fingerprint"] == (
            fingerprint(record["params"])
        ), record["benchmark"]
        assert all(record["checks"].values())


def _stub(outputs, checks=None):
    """A group whose one row returns the next of ``outputs`` per side."""
    sides = iter(outputs)

    def stub(pkg, quick):
        value = next(sides)
        yield run.Group({"size": 1}, {
            "row": run.Row(lambda: value, 3, lambda: value),
        }, checks or {})

    return "micro_stub", run.contextmanager(stub)


@pytest.mark.parametrize("outputs, declared, against, status", [
    ([1, 2], False, "src", 1),
    ([1, 2], True, "src", 0),
    ([1, 1], True, "copy", 1),
    ([1, 1], True, "src", 0),
], ids=["undeclared", "declared", "stale_against_a_copy", "self_pair"])
def test_outputs_that_differ_lose_bit_identity(
    monkeypatch, tmp_path, outputs, declared, against, status
):
    """A row whose output differs fails the run unless it is declared
    in ``NUMERIC_CHANGES``; a declared row that stays bit-identical
    fails as stale against another tree, not against ``src`` itself."""
    monkeypatch.setitem(run.GROUPS, "stub", _stub(outputs))
    if declared:
        monkeypatch.setitem(run.NUMERIC_CHANGES, "row", "a deliberate change")
    if against == "copy":
        against = shutil.copytree(
            SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
    else:
        against = SRC
    history = tmp_path / "history.jsonl"
    assert run.main(["stub", "--against", str(against),
                     "--history", str(history)]) == status
    (record,) = _records(history)
    row = record["rows"]["row"]
    assert row["bit_identical"] is (outputs[0] == outputs[1])
    assert row.get("declared") == (
        "a deliberate change" if declared and not row["bit_identical"] else None
    )
    assert row["n"] == 3


def test_false_check_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setitem(run.GROUPS, "stub", _stub([1], {
        "row ran": lambda rows: rows["row"]["n"] == 3,
        "row ran twice": lambda rows: rows["row"]["n"] == 6,
    }))
    history = tmp_path / "history.jsonl"
    assert run.main(["stub", "--history", str(history)]) == 1
    (record,) = _records(history)
    assert record["checks"] == {"row ran": True, "row ran twice": False}
    assert "bit_identical" not in record["rows"]["row"]


def test_unknown_group_lists_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["chunk_stepp"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "chunk_stepp" in err
    assert all(name in err for name in run.GROUPS)
