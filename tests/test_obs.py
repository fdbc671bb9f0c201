"""Unit tests for the observability package (`repro.obs`)."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracing import NULL_TRACER, SpanRecord, Tracer, chrome_trace_events

from tests.trace_schema import (
    SchemaError,
    validate_chrome_trace,
    validate_manifest,
    validate_metrics_snapshot,
    validate_trace_jsonl,
)


@pytest.fixture(autouse=True)
def _reset_obs():
    """Every test starts and ends with the disabled singletons."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        outer_rec = tracer.find("outer")[0]
        inner_rec = tracer.find("inner")[0]
        assert outer_rec.parent_id is None
        assert inner_rec.parent_id == outer_rec.span_id
        # Spans are recorded on exit: the child appears first.
        assert [r.name for r in tracer.records] == ["inner", "outer"]

    def test_attributes_set_and_update(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            span.set("cost", 1.5)
            span.update(iterations=2, converged=True)
        record = tracer.records[0]
        assert record.attributes == {
            "items": 3,
            "cost": 1.5,
            "iterations": 2,
            "converged": True,
        }
        assert record.duration >= 0

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        record = tracer.records[0]
        assert "error" in record.attributes
        assert "nope" in record.attributes["error"]

    def test_instant_records_zero_duration(self):
        tracer = Tracer()
        tracer.instant("marker", reason="timeout")
        record = tracer.records[0]
        assert record.duration == 0.0
        assert record.attributes["reason"] == "timeout"

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", key=1) as span:
            span.set("a", 1)
            span.update(b=2)
        NULL_TRACER.instant("marker")
        assert NULL_TRACER.records == []
        assert NULL_TRACER.drain_payload() == []

    def test_record_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", depth=1):
                pass
        payload = [r.to_dict() for r in tracer.records]
        restored = [SpanRecord.from_dict(json.loads(json.dumps(p))) for p in payload]
        assert [r.name for r in restored] == ["inner", "outer"]
        assert restored[0].attributes == {"depth": 1}

    def test_adopt_remaps_ids_and_marks_roots(self):
        worker = Tracer()
        with worker.span("cell"):
            with worker.span("alloc"):
                pass
        payload = worker.drain_payload()
        assert worker.records == []

        parent = Tracer()
        with parent.span("run"):
            parent.adopt(payload, root_attributes={"queue_wait_seconds": 0.5})
        run = parent.find("run")[0]
        cell = parent.find("cell")[0]
        alloc = parent.find("alloc")[0]
        # Payload roots hang off the open local span and get the extras;
        # children keep their internal link even though they are
        # recorded *before* their parent (exit order).
        assert cell.parent_id == run.span_id
        assert cell.attributes["queue_wait_seconds"] == 0.5
        assert alloc.parent_id == cell.span_id
        assert "queue_wait_seconds" not in alloc.attributes
        ids = [r.span_id for r in parent.records]
        assert len(ids) == len(set(ids))

    def test_memory_tracking_records_peak(self):
        tracer = Tracer(track_memory=True)
        with tracer.span("alloc"):
            _ = [0] * 50_000
        record = tracer.records[0]
        assert record.peak_memory is not None
        assert record.peak_memory > 0

    def test_export_jsonl_and_chrome(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        tracer.instant("marker")
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        tracer.export_jsonl(jsonl)
        tracer.export_chrome(chrome)
        assert validate_trace_jsonl(jsonl) == 3
        assert validate_chrome_trace(chrome) >= 3
        events = chrome_trace_events(tracer.records)["traceEvents"]
        assert {e["ph"] for e in events} == {"X", "i", "M"}
        # Timestamps are rebased to the earliest span, in microseconds.
        assert min(e["ts"] for e in events if e["ph"] != "M") == 0

    def test_jsonl_to_chrome_conversion(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        tracer.export_jsonl(jsonl)
        assert obs.jsonl_to_chrome(jsonl, chrome) == 1
        assert validate_chrome_trace(chrome) >= 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.counter("runs").inc(2)
        registry.gauge("util", channel=0).set(0.25)
        registry.gauge("util", channel=0).set(0.75)
        hist = registry.histogram("latency", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["runs"] == 3
        assert snap["gauges"]["util{channel=0}"] == 0.75
        histogram = snap["histograms"]["latency"]
        assert histogram["counts"] == [1, 1, 1]
        assert histogram["count"] == 3
        assert histogram["sum"] == pytest.approx(55.5)
        assert hist.mean == pytest.approx(18.5)

    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("cells", algorithm="drp").inc()
        registry.counter("cells", algorithm="drp").inc()
        registry.counter("cells", algorithm="vfk").inc()
        snap = registry.snapshot()
        assert snap["counters"]["cells{algorithm=drp}"] == 2
        assert snap["counters"]["cells{algorithm=vfk}"] == 1

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("runs").inc(2)
        worker.gauge("temp").set(1.0)
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        payload = worker.drain_snapshot()
        assert worker.snapshot()["counters"] == {}

        parent = MetricsRegistry()
        parent.counter("runs").inc()
        parent.histogram("lat", buckets=(1.0,)).observe(2.0)
        parent.merge(payload)
        snap = parent.snapshot()
        assert snap["counters"]["runs"] == 3
        assert snap["gauges"]["temp"] == 1.0
        assert snap["histograms"]["lat"]["counts"] == [1, 1]

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_null_registry_is_inert(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(1.0)
        NULL_METRICS.histogram("z").observe(2.0)
        snap = NULL_METRICS.drain_snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_export_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        path = tmp_path / "m.json"
        registry.export_json(path)
        assert validate_metrics_snapshot(path) == 1


# ----------------------------------------------------------------------
# Module-level configuration
# ----------------------------------------------------------------------
class TestConfigure:
    def test_defaults_are_disabled(self):
        assert obs.get_tracer() is NULL_TRACER
        assert obs.get_metrics() is NULL_METRICS
        assert not obs.tracing_enabled()

    def test_configure_installs_and_reset_restores(self):
        tracer, registry = obs.configure(trace=True, metrics=True)
        assert obs.get_tracer() is tracer
        assert obs.get_metrics() is registry
        assert obs.tracing_enabled()
        with obs.span("x"):
            pass
        assert len(tracer.records) == 1
        obs.reset()
        assert obs.get_tracer() is NULL_TRACER

    def test_configure_replaces_instances(self):
        first, _ = obs.configure(trace=True)
        with obs.span("left-over"):
            pass
        second, _ = obs.configure(trace=True)
        assert second is not first
        assert second.records == []

    def test_worker_options_mirror_configuration(self):
        assert obs.worker_options() == {
            "trace": False,
            "metrics": False,
            "track_memory": False,
        }
        obs.configure(trace=True, metrics=True, track_memory=True)
        assert obs.worker_options() == {
            "trace": True,
            "metrics": True,
            "track_memory": True,
        }

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV_VAR, raising=False)
        monkeypatch.delenv(obs.METRICS_ENV_VAR, raising=False)
        assert obs.configure_from_env() == (None, None)
        assert obs.get_tracer() is NULL_TRACER

        monkeypatch.setenv(obs.TRACE_ENV_VAR, "trace.jsonl")
        trace_path, metrics_path = obs.configure_from_env()
        assert (trace_path, metrics_path) == ("trace.jsonl", None)
        assert obs.tracing_enabled()
        assert not obs.get_metrics().enabled


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
class TestManifest:
    def test_config_digest_is_stable_and_order_free(self):
        a = obs.config_digest({"b": 2, "a": [1, 2]})
        b = obs.config_digest({"a": [1, 2], "b": 2})
        assert a == b
        assert len(a) == 64
        assert obs.config_digest({"a": [1, 2], "b": 3}) != a

    def test_build_and_validate_manifest(self, tmp_path):
        manifest = obs.build_manifest(
            command="sweep",
            config={"figure_id": "figure2", "workers": 2},
            seed=7,
            outputs={"trace": "t.jsonl"},
            extra={"note": "test"},
        )
        assert manifest["seed"] == 7
        assert manifest["numpy"] == np.__version__
        assert manifest["config_sha256"] == obs.config_digest(
            {"figure_id": "figure2", "workers": 2}
        )
        path = tmp_path / "run.manifest.json"
        obs.write_manifest(path, manifest)
        assert validate_manifest(path) >= 10


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLog:
    def test_progress_goes_to_stderr(self, capsys):
        obs.log.progress("sweep point done")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep point done" in captured.err

    def test_logger_configured_once(self):
        logger = obs.log.get_logger()
        again = obs.log.get_logger()
        assert logger is again
        assert logger.propagate is False
        assert len(logger.handlers) == 1
        assert isinstance(logger.handlers[0], logging.Handler)


# ----------------------------------------------------------------------
# Schema checker negative cases
# ----------------------------------------------------------------------
class TestSchemaChecker:
    def test_rejects_bad_span_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "schema": 1, "name": "x"}\n')
        with pytest.raises(SchemaError):
            validate_trace_jsonl(path)

    def test_rejects_dangling_parent(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        record = tracer.records[0].to_dict()
        record["parent_id"] = 999
        path = tmp_path / "dangling.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError):
            validate_trace_jsonl(path)

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError):
            validate_trace_jsonl(path)
