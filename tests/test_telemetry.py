"""Tests for the unified telemetry layer: span tracer, metrics
registry, Chrome export, and the trace-driven overlap analyzer.

The load-bearing properties:

- **inertness** — with no tracer armed, ``telemetry.span`` returns a
  shared no-op object and instrumented code paths stay bit-identical
  to the seed behaviour (the serial-vs-pipelined oracle re-checked
  here with tracing armed);
- **thread-safety** — spans recorded from many threads land in the
  ring with per-thread lanes and no lost events until capacity;
- **schema** — exported traces are valid Chrome ``trace_event`` JSON
  that the analyzer (and chrome://tracing) can load.
"""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import NULL_SPAN, Tracer
from repro.telemetry.analyze import (
    analyze_chrome,
    analyze_tracer,
    load_trace,
    render_digest,
    render_gantt,
    render_report,
    union_intervals,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    view,
)


@pytest.fixture(autouse=True)
def _disarm_tracer():
    """No test may leak an armed tracer into the next."""
    telemetry.disable()
    yield
    telemetry.disable()


def span_event(tracer, name):
    return next(e for e in tracer.events() if e.name == name)


class TestNullSpan:
    def test_disabled_span_is_shared_noop(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        sp = telemetry.span("train.bucket", cat="compute", bucket="0,0")
        assert sp is NULL_SPAN
        assert telemetry.span("other") is sp  # no per-call allocation
        with sp as inner:
            inner.note(bytes=123)  # all no-ops

    def test_set_lane_noop_when_disabled(self):
        telemetry.set_lane("anything")  # must not raise

    def test_export_requires_armed_tracer(self):
        with pytest.raises(RuntimeError):
            telemetry.export("nowhere.json")


class TestTracer:
    def test_enable_disable_roundtrip(self):
        tracer = telemetry.enable()
        assert telemetry.active() is tracer
        assert telemetry.enabled()
        assert telemetry.disable() is tracer
        assert telemetry.active() is None

    def test_span_records_name_cat_args(self):
        tracer = telemetry.enable()
        with telemetry.span("prefetch.fetch", cat="transfer", part=3) as sp:
            sp.note(bytes=4096)
        ev = span_event(tracer, "prefetch.fetch")
        assert ev.cat == "transfer"
        assert ev.args == {"part": 3, "bytes": 4096}
        assert ev.dur_us >= 0

    def test_nested_spans_both_recorded(self):
        tracer = telemetry.enable()
        with telemetry.span("outer", cat="stall"):
            with telemetry.span("inner", cat="transfer"):
                pass
        names = [e.name for e in tracer.events()]
        # Inner exits (and records) first; both survive.
        assert names == ["inner", "outer"]

    def test_threads_get_distinct_lanes(self):
        tracer = telemetry.enable()
        telemetry.set_lane("main-lane")

        def worker():
            telemetry.set_lane("worker-lane")
            with telemetry.span("w.work"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        with telemetry.span("m.work"):
            pass
        lanes = set(tracer.lanes().values())
        assert {"main-lane", "worker-lane"} <= lanes
        tids = {e.tid for e in tracer.events()}
        assert len(tids) == 2  # one lane per thread

    def test_unnamed_lane_defaults_to_thread_name(self):
        tracer = telemetry.enable()
        with telemetry.span("x"):
            pass
        (lane,) = tracer.lanes().values()
        assert lane == threading.current_thread().name

    def test_ring_overflow_drops_oldest_and_counts(self):
        tracer = telemetry.enable(capacity=4)
        for i in range(7):
            with telemetry.span(f"s{i}"):
                pass
        assert len(tracer.events()) == 4
        assert [e.name for e in tracer.events()] == ["s3", "s4", "s5", "s6"]
        assert tracer.dropped == 3

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_concurrent_recording_loses_nothing(self):
        tracer = telemetry.enable()
        n, threads = 200, 8
        # All threads alive at once, or the OS reuses thread idents and
        # lanes legitimately collapse.
        gate = threading.Barrier(threads)

        def hammer(k):
            gate.wait()
            for i in range(n):
                with telemetry.span(f"t{k}.{i}"):
                    pass

        ts = [threading.Thread(target=hammer, args=(k,)) for k in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(tracer.events()) == n * threads
        assert tracer.dropped == 0
        assert len(set(e.tid for e in tracer.events())) == threads


class TestChromeExport:
    def test_exported_file_is_valid_chrome_json(self, tmp_path):
        tracer = telemetry.enable()
        telemetry.set_lane("lane-a")
        tracer.add_metadata(benchmark="unit")
        with telemetry.span("train.bucket", cat="compute", bucket="0,1"):
            pass
        path = tmp_path / "trace.json"
        telemetry.export(path)
        telemetry.disable()

        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["benchmark"] == "unit"
        assert doc["otherData"]["dropped_events"] == 0
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert metas and xs
        assert metas[0]["name"] == "thread_name"
        assert metas[0]["args"]["name"] == "lane-a"
        ev = xs[0]
        assert ev["name"] == "train.bucket"
        assert ev["cat"] == "compute"
        assert isinstance(ev["ts"], int) and isinstance(ev["dur"], int)
        assert ev["pid"] == 0
        assert ev["args"]["bucket"] == "0,1"
        # And it round-trips through the analyzer's loader.
        assert load_trace(path)["traceEvents"]

    def test_numpy_args_serialize(self, tmp_path):
        tracer = telemetry.enable()
        with telemetry.span("x", cat="transfer", nbytes=np.int64(42)):
            pass
        path = tmp_path / "np.json"
        tracer.export(path)
        assert json.loads(path.read_text())["traceEvents"]

    def test_loader_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            load_trace(path)


class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("a.b", {}) == "a.b"
        assert metric_key("a.b", {"z": 1, "a": "x"}) == "a.b{a=x,z=1}"

    def test_counter_exact_under_contention(self):
        c = Counter("c")
        n, threads = 1000, 8

        def hammer():
            for _ in range(n):
                c.inc()

        ts = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert int(c.value) == n * threads

    def test_gauge_tracks_high_water_mark(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.max == 5.0

    def test_histogram_summary(self):
        h = Histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["total"] == 6.0
        assert s["mean"] == 2.0
        assert s["min"] == 1.0 and s["max"] == 3.0

    def test_registry_get_or_create_and_view(self):
        @dataclasses.dataclass
        class Hits:
            hits: int
            machine: int

        r = MetricsRegistry()
        c1 = r.counter("pipeline.hits", machine=1)
        c1.inc(3)
        assert r.counter("pipeline.hits", machine=1) is c1
        assert r.counter("pipeline.hits", machine=2) is not c1
        r.gauge("resident.hits").set(7.0)
        # Labelled counters and gauges feed no field.
        with pytest.raises(KeyError, match="Hits.hits"):
            view(Hits, r, machine=1)
        r.counter("pipeline.hits").inc(2.0)
        got = view(Hits, r, machine=1)
        assert got == Hits(hits=2, machine=1)
        assert type(got.hits) is int

    def test_registry_rejects_kind_mismatch(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")


def synthetic_trace():
    """Hand-built trace: 1s compute, 0.6s transfer of which 0.5s
    overlaps, plus a lock acquire/hold and a stall."""
    us = 1_000_000

    def ev(name, cat, ts, dur, tid=0, **args):
        return {
            "name": name, "cat": cat, "ph": "X",
            "ts": int(ts * us), "dur": int(dur * us),
            "pid": 0, "tid": tid, "args": args,
        }

    return {
        "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "trainer.main"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
             "args": {"name": "prefetch"}},
            ev("train.bucket", "compute", 0.0, 1.0, bucket="0,1"),
            ev("prefetch.fetch", "transfer", 0.5, 0.5, tid=1),
            ev("prefetch.fetch", "transfer", 1.4, 0.1, tid=1),
            ev("swap.bucket", "stall", 1.0, 0.3, bucket="0,1"),
            ev("lock.acquire", "lock", 0.0, 0.01, machine=0,
               granted=True, bucket="0,1"),
            ev("lock.release", "lock", 1.3, 0.01, machine=0,
               bucket="0,1"),
            ev("lock.starved", "stall", 1.31, 0.2, machine=1),
        ],
        "otherData": {"dropped_events": 2},
    }


class TestAnalyzer:
    def test_union_intervals(self):
        assert union_intervals([(1, 2), (0, 1.5), (3, 4), (4, 4)]) == [
            (0, 2), (3, 4),
        ]

    def test_overlap_and_categories(self):
        a = analyze_chrome(synthetic_trace())
        assert a.num_events == 7
        assert a.dropped == 2
        assert a.lanes == {0: "trainer.main", 1: "prefetch"}
        assert a.compute_busy_s == pytest.approx(1.0)
        assert a.transfer_busy_s == pytest.approx(0.6)
        assert a.overlapped_s == pytest.approx(0.5)
        assert a.overlap_efficiency == pytest.approx(0.5 / 0.6)
        assert a.stall_s == pytest.approx(0.5)

    def test_bucket_costs(self):
        a = analyze_chrome(synthetic_trace())
        (cost,) = a.buckets
        assert cost.bucket == "0,1"
        assert cost.train_s == pytest.approx(1.0)
        assert cost.swap_s == pytest.approx(0.3)
        assert cost.visits == 1

    def test_lock_pairing(self):
        a = analyze_chrome(synthetic_trace())
        assert a.lock.acquires == 1
        # Hold = release end (1.31) - acquire end (0.01).
        assert a.lock.hold_s == pytest.approx(1.30)
        assert a.lock.starved_s == pytest.approx(0.2)

    def test_to_dict_keys(self):
        d = analyze_chrome(synthetic_trace()).to_dict()
        assert set(d) == {
            "duration_seconds", "num_events", "dropped_events",
            "compute_busy_seconds", "transfer_busy_seconds",
            "overlapped_seconds", "overlap_efficiency", "stall_seconds",
        }

    def test_render_report_and_digest(self):
        trace = synthetic_trace()
        a = analyze_chrome(trace)
        report = render_report(a, trace=trace)
        assert "overlap" in report
        assert "bucket 0,1" in report
        assert "trainer.main" in report  # Gantt lane
        assert "# compute" in report  # legend
        digest = render_digest(a)
        assert digest.startswith("telemetry: overlap 83.3%")
        assert "slowest buckets: 0,1" in digest
        assert digest.count("\n") <= 2  # one-screen

    def test_analyze_tracer_live(self):
        tracer = telemetry.enable()
        with telemetry.span("train.bucket", cat="compute", bucket="1,1"):
            pass
        a = analyze_tracer(tracer)
        assert a.num_events == 1
        assert a.buckets[0].bucket == "1,1"

    def test_gantt_empty_trace(self):
        assert "no categorized spans" in render_gantt({"traceEvents": []})


class TestCliAnalyzer:
    def test_main_reports_and_asserts(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        path = tmp_path / "t.json"
        path.write_text(json.dumps(synthetic_trace()))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out
        assert main([str(path), "--assert-overlap"]) == 0

    def test_assert_overlap_fails_without_overlap(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main([str(path), "--assert-overlap"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_missing_file_is_error(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        assert main([str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestInstrumentedTraining:
    """Tracing armed end to end: results stay bit-identical and the
    trace captures the pipeline's compute/transfer interleaving."""

    def test_traced_pipelined_run_bit_identical(self, tmp_path):
        from tests.test_pipeline import train_run

        serial, _, _ = train_run(
            tmp_path, pipeline=False, num_partitions=4
        )
        trace_path = tmp_path / "trace.json"
        piped, _, _ = train_run(
            tmp_path, pipeline=True, num_partitions=4,
            trace_path=str(trace_path),
        )
        np.testing.assert_array_equal(
            serial.global_embeddings("node"), piped.global_embeddings("node")
        )
        # The trainer owned the tracer: armed on entry, exported on exit.
        assert telemetry.active() is None
        a = analyze_chrome(load_trace(trace_path))
        assert a.num_events > 0
        assert a.compute_busy_s > 0
        assert a.transfer_busy_s > 0
        names = {e["name"] for e in load_trace(trace_path)["traceEvents"]}
        assert {"train.bucket", "swap.bucket", "prefetch.fetch"} <= names

    def test_traced_distributed_run(self):
        from tests.test_cluster import _graph, _setup

        from repro.distributed.cluster import DistributedTrainer

        config, entities = _setup(2, 4, num_epochs=2, pipeline=True)
        tracer = telemetry.enable()
        trainer = DistributedTrainer(config, entities)
        _, stats = trainer.train(_graph())
        telemetry.disable()
        assert stats.total_edges > 0
        lanes = set(tracer.lanes().values())
        assert {"machine-0.main", "machine-1.main"} <= lanes
        a = analyze_tracer(tracer)
        assert a.compute_busy_s > 0
        assert a.lock.acquires > 0
        assert a.lock.hold_s > 0

    def test_stats_derived_from_registry_match_run(self, tmp_path):
        """PipelineStats is a snapshot of the pipeline registry."""
        from tests.test_pipeline import train_run

        _, stats, _ = train_run(tmp_path, pipeline=True, num_partitions=4)
        p = stats.pipeline
        assert p.prefetch_hits + p.prefetch_misses > 0
        # Epoch deltas sum to the run total (merge over epochs).
        assert p.prefetch_hits == sum(
            e.pipeline.prefetch_hits for e in stats.epochs
        )
        assert p.cache_evictions == sum(
            e.pipeline.cache_evictions for e in stats.epochs
        )


class TestCliTrace:
    def test_train_cli_writes_trace_and_digest(self, tmp_path, capsys):
        from repro.cli import main, save_edges
        from repro.config import single_entity_config

        rng = np.random.default_rng(0)
        from repro.graph.edgelist import EdgeList

        edges = EdgeList(
            rng.integers(0, 100, 800, dtype=np.int64),
            np.zeros(800, dtype=np.int64),
            rng.integers(0, 100, 800, dtype=np.int64),
        )
        config = single_entity_config(
            num_partitions=2, dimension=8, num_epochs=1,
            batch_size=200, chunk_size=50,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(config.to_json())
        edges_path = tmp_path / "edges.npz"
        save_edges(edges_path, edges)
        trace_path = tmp_path / "trace.json"
        rc = main([
            "train", "--config", str(config_path),
            "--edges", str(edges_path),
            "--checkpoint", str(tmp_path / "model"),
            "--pipeline", "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry: overlap" in out
        assert f"trace written to {trace_path}" in out
        assert telemetry.active() is None
        assert load_trace(trace_path)["traceEvents"]
