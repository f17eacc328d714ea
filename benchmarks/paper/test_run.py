"""Tests of the paper-claims runner (``run.py``): the registry, the exit
status, the records. Only ``ablation_relation_batching`` (~1-2 s) trains."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import fingerprint

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("paper_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

#: the per-claim pytest-benchmark scripts the registry replaced
SCRIPTS = [
    "bench_table1_livejournal", "bench_table1_youtube", "bench_table2_fb15k",
    "bench_table3_freebase", "bench_table4_twitter", "bench_fig4_negatives",
    "bench_fig5_learning_curve", "bench_fig6_freebase_curves",
    "bench_fig7_twitter_curves", "bench_ablation_entity_types",
    "bench_ablation_negative_mix", "bench_ablation_ordering",
    "bench_ablation_relation_batching", "bench_ablation_stratum",
]


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_one_claim_per_replaced_script():
    assert sorted(run.CLAIMS) == sorted(
        s.removeprefix("bench_") for s in SCRIPTS
    )
    assert not [s for s in SCRIPTS if (HERE.parent / f"{s}.py").exists()]


def test_every_claim_has_a_check():
    assert all(claim.checks for claim in run.CLAIMS.values())


def test_false_check_fails_the_run(monkeypatch, tmp_path):
    def stub(report):
        report.table("stub table", ["row", "value"], [["a", 1]])
        return 1

    monkeypatch.setitem(run.CLAIMS, "stub", run.Claim(stub, {
        "value is 1": lambda r: r == 1, "value is 2": lambda r: r == 2,
    }))
    history = tmp_path / "history.jsonl"
    assert run.main(["stub", "--history", str(history)]) == 1
    (record,) = _records(history)
    assert record["checks"] == {"value is 1": True, "value is 2": False}
    assert record["metrics"] == {"a": {"value": 1.0}}


def test_unknown_claim_lists_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["table9_nonesuch"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "table9_nonesuch" in err
    assert all(name in err for name in run.CLAIMS)


def test_real_claim_writes_one_recomputable_record(tmp_path):
    history = tmp_path / "history.jsonl"
    run.main(["ablation_relation_batching", "--history", str(history)])
    (record,) = _records(history)
    assert record["params"] == {
        "title": record["benchmark"], "kind": "table",
        "shape": ["operator", "grouped", "ungrouped", "speedup"],
    }
    assert record["provenance"]["config_fingerprint"] == (
        fingerprint(record["params"])
    )
    assert set(record["checks"]) == set(
        run.CLAIMS["ablation_relation_batching"].checks
    )
