"""Tests for the comparison-and-exposition telemetry layer: latency
histograms, Prometheus exposition, the slow-query log, the dropped-span
warning, and the history regression gate.

The load-bearing properties:

- **gating** — the history regression gate exits non-zero on an
  injected 2x wall-clock regression and zero on an unmodified history;
- **exposition** — the service renders live Prometheus text including
  the per-batch latency quantiles, over real ``QueryService`` traffic.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.config import single_entity_config
from repro.serving import (
    QueryService,
    SnapshotManager,
    publish_embeddings,
)
from repro.telemetry.analyze import (
    analyze_chrome,
    dropped_warning,
    render_digest,
    render_report,
)
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.regress import check_history
from repro.telemetry.regress import main as regress_main


@pytest.fixture(autouse=True)
def _disarm_tracer():
    """No test may leak an armed tracer into the next."""
    telemetry.disable()
    yield
    telemetry.disable()


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_constant_distribution_is_exact(self):
        h = Histogram("h")
        for _ in range(100):
            h.observe(0.003)
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 0.003

    def test_endpoints_are_exact(self):
        h = Histogram("h")
        values = [0.0001, 0.004, 0.017, 0.3, 2.5]
        for v in values:
            h.observe(v)
        assert h.quantile(0.0) == min(values)
        assert h.quantile(1.0) == max(values)

    def test_monotone_in_q_and_within_bounds(self):
        h = Histogram("h")
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-5.0, sigma=2.0, size=500)
        for v in values:
            h.observe(float(v))
        qs = [i / 100 for i in range(101)]
        estimates = [h.quantile(q) for q in qs]
        assert estimates == sorted(estimates)
        assert all(
            values.min() <= e <= values.max() for e in estimates
        )

    def test_bounded_relative_error_vs_numpy(self):
        # Log-spaced power-of-two buckets: estimate and true quantile
        # share a bucket, so the ratio is within [0.5, 2].
        h = Histogram("h")
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0005, 0.5, size=2000)
        for v in values:
            h.observe(float(v))
        for q in (0.5, 0.9, 0.95, 0.99):
            true = float(np.quantile(values, q))
            est = h.quantile(q)
            assert 0.5 <= est / true <= 2.0

    def test_thread_contention_loses_nothing(self):
        h = Histogram("h")
        per_thread = 500

        def worker():
            for _ in range(per_thread):
                h.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s = h.summary()
        assert s["count"] == 8 * per_thread
        assert s["total"] == 0.5 * 8 * per_thread

    def test_summary_keys_backward_compatible(self):
        h = Histogram("h")
        h.observe(0.25)
        assert set(h.summary()) == {"count", "total", "mean", "min", "max"}

    def test_quantiles_returns_dict_keyed_by_q(self):
        h = Histogram("h")
        h.observe(0.1)
        qs = h.quantiles()
        assert set(qs) == {0.5, 0.95, 0.99}
        assert qs[0.5] == 0.1

    def test_empty_histogram_quantile_is_zero(self):
        h = Histogram("h")
        assert h.quantile(0.5) == 0.0
        assert h.quantiles() == {0.5: 0.0, 0.95: 0.0, 0.99: 0.0}

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------

US = 1_000_000


def _ev(name, cat, ts, dur, tid=0, **args):
    return {
        "name": name, "cat": cat, "ph": "X",
        "ts": int(ts * US), "dur": int(dur * US),
        "pid": 0, "tid": tid, "args": args,
    }


def _trace(events, dropped=0):
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": dropped},
    }


# ----------------------------------------------------------------------
# History regression gate
# ----------------------------------------------------------------------


def _record(bench="bench_x", fp="f1", wall=1.0, qps=100.0):
    return {
        "benchmark": bench,
        "wall_seconds": wall,
        "serving": {"qps": qps},
        "provenance": {"config_fingerprint": fp},
    }


def _write_history(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    return str(path)


class TestRegress:
    def test_unmodified_history_passes(self):
        report = check_history([_record(), _record()])
        assert not report.regressions
        assert {c.metric for c in report.checks} == {
            "wall_seconds", "serving.qps",
        }

    def test_2x_wall_regression_detected(self):
        report = check_history([_record(), _record(wall=2.0)])
        assert [c.metric for c in report.regressions] == ["wall_seconds"]
        assert report.regressions[0].delta_frac == pytest.approx(1.0)

    def test_qps_drop_is_a_regression(self):
        report = check_history([_record(), _record(qps=50.0)])
        assert [c.metric for c in report.regressions] == ["serving.qps"]

    def test_median_of_priors_resists_one_outlier(self):
        records = [
            _record(wall=1.0), _record(wall=1.0),
            _record(wall=9.0),  # one historic outlier machine
            _record(wall=1.1),  # newest: within band of median 1.0
        ]
        assert not check_history(records).regressions

    def test_different_fingerprints_never_compare(self):
        report = check_history([
            _record(fp="f1", wall=1.0), _record(fp="f2", wall=99.0),
        ])
        assert not report.checks
        assert sorted(fp for _, fp in report.baseline_only) == [
            "f1", "f2",
        ]

    def test_cli_exit_codes(self, tmp_path, capsys):
        ok = _write_history(
            tmp_path / "ok.jsonl", [_record(), _record()]
        )
        assert regress_main([ok]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

        bad = _write_history(
            tmp_path / "bad.jsonl", [_record(), _record(wall=2.0)]
        )
        assert regress_main([bad]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "wall_seconds" in captured.err
        # A widened band admits the same history.
        assert regress_main([bad, "--band", "wall_seconds=1.5"]) == 0
        capsys.readouterr()

    def test_cli_unreadable_input(self, tmp_path):
        garbled = tmp_path / "h.jsonl"
        garbled.write_text("{not json\n")
        assert regress_main([str(garbled)]) == 2
        assert regress_main([str(tmp_path / "missing.jsonl")]) == 2

    def test_cli_extra_metric_direction(self, tmp_path, capsys):
        records = [
            {"benchmark": "b", "MRR": 0.75,
             "provenance": {"config_fingerprint": "f"}},
            {"benchmark": "b", "MRR": 0.30,
             "provenance": {"config_fingerprint": "f"}},
        ]
        path = _write_history(tmp_path / "h.jsonl", records)
        assert regress_main([path]) == 0  # MRR not headline by default
        capsys.readouterr()
        assert regress_main([path, "--metric", "MRR=higher"]) == 1
        capsys.readouterr()
        assert regress_main([path, "--metric", "MRR=sideways"]) == 2


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


def _serving_stack(tmp_path, **service_kw):
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(48, 8)).astype(np.float32)
    publish_embeddings(tmp_path, emb, comparator="dot")
    manager = SnapshotManager(tmp_path)
    manager.refresh()
    return manager, QueryService(manager, **service_kw), emb


class TestExposition:
    def test_render_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries", machine=1).inc(3)
        registry.gauge("cache.bytes").set(2.5)
        h = registry.histogram("serve.batch_seconds")
        h.observe(0.25)
        text = render_prometheus(registry)
        assert "# TYPE serve_queries counter" in text
        assert 'serve_queries{machine="1"} 3.0' in text
        assert "# TYPE cache_bytes gauge" in text
        assert "cache_bytes_max 2.5" in text
        assert "# TYPE serve_batch_seconds summary" in text
        assert 'serve_batch_seconds{quantile="0.5"} 0.25' in text
        assert "serve_batch_seconds_sum 0.25" in text
        assert "serve_batch_seconds_count 1.0" in text
        assert "serve_batch_seconds_min 0.25" in text
        assert text.endswith("\n")

    def test_live_metrics_roundtrip_with_quantiles(self, tmp_path):
        manager, service, emb = _serving_stack(tmp_path)
        service.query(emb[:8], k=3)
        text = service.stats_text()
        assert 'serve_batch_seconds{quantile="0.5"}' in text
        assert 'serve_batch_seconds{quantile="0.99"}' in text
        assert "serve_queries 8.0" in text
        # The service's own registry, rendered as render_prometheus does.
        assert text == render_prometheus(manager.metrics)
        manager.close()

    def test_stats_reports_percentiles(self, tmp_path):
        manager, service, emb = _serving_stack(tmp_path, batch_size=4)
        service.query(emb[:12], k=3)
        stats = service.stats()
        assert stats.batches == 3
        assert 0 < stats.p50 <= stats.p95 <= stats.p99
        assert "batch p50/p95/p99" in stats.summary()
        manager.close()


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------


class TestSlowQueryLog:
    def test_off_by_default(self, tmp_path, caplog):
        manager, service, emb = _serving_stack(tmp_path)
        with caplog.at_level(
            logging.WARNING, logger="repro.serving.slow"
        ):
            service.query(emb[:8], k=3)
        assert not caplog.records
        assert service.stats().slow_batches == 0
        manager.close()

    def test_structured_line_and_span(self, tmp_path, caplog):
        manager, service, emb = _serving_stack(
            tmp_path, slow_batch_seconds=1e-9
        )
        tracer = telemetry.enable()
        try:
            with caplog.at_level(
                logging.WARNING, logger="repro.serving.slow"
            ):
                service.query(emb[:8], k=3)
        finally:
            telemetry.disable()
        assert len(caplog.records) == 1
        doc = json.loads(caplog.records[0].message)
        assert doc["event"] == "serve.query.slow"
        assert doc["queries"] == 8
        assert doc["k"] == 3
        assert doc["threshold_s"] == 1e-9
        assert doc["nth_slow_batch"] == 1
        assert doc["elapsed_s"] > 0
        names = [e["name"] for e in tracer.to_chrome()["traceEvents"]]
        assert "serve.query.slow" in names
        stats = service.stats()
        assert stats.slow_batches == 1
        assert "1 slow" in stats.summary()
        manager.close()

    def test_sustained_overload_is_sampled(self, tmp_path, caplog):
        # 25 slow batches: the first 10 all log, then only every 10th
        # (the 20th here) — 11 lines, not 25.
        manager, service, emb = _serving_stack(
            tmp_path, batch_size=1, slow_batch_seconds=1e-9
        )
        with caplog.at_level(
            logging.WARNING, logger="repro.serving.slow"
        ):
            service.query(emb[:25], k=3)
        assert service.stats().slow_batches == 25
        assert len(caplog.records) == 11
        nths = [
            json.loads(r.message)["nth_slow_batch"]
            for r in caplog.records
        ]
        assert nths == [*range(1, 11), 20]
        manager.close()

    def test_negative_threshold_rejected(self, tmp_path):
        manager, _, _ = _serving_stack(tmp_path)
        with pytest.raises(ValueError):
            QueryService(manager, slow_batch_seconds=-0.1)
        manager.close()


# ----------------------------------------------------------------------
# Dropped-span warning
# ----------------------------------------------------------------------


class TestDroppedWarning:
    def _trace(self, dropped):
        return _trace(
            [
                _ev("train.bucket", "compute", 0.0, 1.0, bucket="0,0"),
                _ev("prefetch.fetch", "transfer", 0.5, 0.5, tid=1),
            ],
            dropped=dropped,
        )

    def test_warning_in_report_and_digest(self):
        analysis = analyze_chrome(self._trace(dropped=7))
        warning = dropped_warning(analysis)
        assert "7 span(s)" in warning
        assert "NOT trustworthy" in warning
        report = render_report(analysis)
        # Prominent: directly under the headline line.
        assert report.splitlines()[1] == warning
        assert warning in render_digest(analysis)

    def test_no_warning_when_nothing_dropped(self):
        analysis = analyze_chrome(self._trace(dropped=0))
        assert dropped_warning(analysis) is None
        assert "NOT trustworthy" not in render_report(analysis)
        assert "NOT trustworthy" not in render_digest(analysis)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


@pytest.fixture
def published(tmp_path):
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(40, 8)).astype(np.float32)
    snaps = tmp_path / "snaps"
    publish_embeddings(snaps, emb, comparator="dot")
    queries = tmp_path / "queries.npy"
    np.save(queries, emb[:6])
    return snaps, queries


class TestCliObservability:
    def test_metrics_subcommand_prints_prometheus_text(
        self, published, capsys
    ):
        from repro.cli import main

        snaps, _ = published
        assert main(["metrics", "--snapshots", str(snaps)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_batch_seconds summary" in out
        assert "serve_queries 0.0" in out

    def test_serve_slow_batch_flag_logs(self, published, caplog):
        from repro.cli import main

        snaps, queries = published
        with caplog.at_level(
            logging.WARNING, logger="repro.serving.slow"
        ):
            rc = main([
                "serve", "--snapshots", str(snaps),
                "--queries", str(queries), "--k", "3",
                "--slow-batch", "0.000000001",
            ])
        assert rc == 0
        assert caplog.records
        doc = json.loads(caplog.records[0].message)
        assert doc["event"] == "serve.query.slow"

    def test_serve_trace_carries_serving_fingerprint(
        self, published, tmp_path, capsys
    ):
        from repro.cli import main

        snaps, queries = published
        trace_path = tmp_path / "serve_trace.json"
        rc = main([
            "serve", "--snapshots", str(snaps),
            "--queries", str(queries), "--k", "3",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        fp = doc["otherData"]["config_fingerprint"]
        assert len(fp) == 16
        int(fp, 16)  # hex digest prefix

    def test_query_prints_latency_percentiles(self, published, capsys):
        from repro.cli import main

        snaps, _ = published
        rc = main([
            "query", "--snapshots", str(snaps), "--ids", "0,5",
            "--k", "3",
        ])
        assert rc == 0
        assert "batch p50/p95/p99" in capsys.readouterr().out

    def test_config_fingerprint_is_stable_and_sensitive(self):
        base = single_entity_config(num_partitions=2, dimension=8)
        again = single_entity_config(num_partitions=2, dimension=8)
        other = single_entity_config(num_partitions=4, dimension=8)
        fp = base.fingerprint()
        assert len(fp) == 16
        int(fp, 16)
        assert fp == again.fingerprint()
        assert fp != other.fingerprint()

    def test_config_fingerprint_ignores_output_paths(self, tmp_path):
        # Two runs of the same workload that only write their
        # checkpoint/trace elsewhere carry the same provenance.
        base = single_entity_config(num_partitions=2, dimension=8)
        relocated = base.replace(
            checkpoint_dir=str(tmp_path / "ckpt"),
            trace_path=str(tmp_path / "trace.json"),
        )
        assert base.fingerprint() == relocated.fingerprint()
