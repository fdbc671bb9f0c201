"""OpenMetrics rendering and the live ``/metrics`` endpoint.

A golden render pins the exposition format (Prometheus text 0.0.4:
``# TYPE`` headers, ``_total`` counters, cumulative ``le`` buckets);
the endpoint tests do a real HTTP round-trip against the background
server on an ephemeral port.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import obs
from repro.obs.exposition import (
    MetricsServer,
    render_openmetrics,
    sanitize_metric_name,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("cds.moves").inc(7)
    registry.counter("cells.completed", algorithm="drp").inc(3)
    registry.counter("cells.completed", algorithm="drp-cds").inc(4)
    registry.gauge("adaptive.cost_under_truth").set(81.5)
    histogram = registry.histogram("queue.wait", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        histogram.observe(value)
    return registry


class TestSanitize:
    def test_passthrough(self):
        assert sanitize_metric_name("cds_moves") == "cds_moves"

    def test_dots_and_dashes(self):
        assert sanitize_metric_name("cds.moves-total") == "cds_moves_total"


class TestRender:
    def test_golden_render(self):
        text = render_openmetrics(sample_registry().snapshot())
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        expected = [
            "# TYPE repro_adaptive_cost_under_truth gauge",
            "repro_adaptive_cost_under_truth 81.5",
            "# TYPE repro_cds_moves_total counter",
            "repro_cds_moves_total 7",
            "# TYPE repro_cells_completed_total counter",
            'repro_cells_completed_total{algorithm="drp"} 3',
            'repro_cells_completed_total{algorithm="drp-cds"} 4',
            "# TYPE repro_queue_wait histogram",
            'repro_queue_wait_bucket{le="0.1"} 1',
            'repro_queue_wait_bucket{le="1.0"} 2',
            'repro_queue_wait_bucket{le="+Inf"} 3',
            "repro_queue_wait_sum 2.55",
            "repro_queue_wait_count 3",
            "# TYPE repro_queue_wait_min gauge",
            "repro_queue_wait_min 0.05",
            "# TYPE repro_queue_wait_max gauge",
            "repro_queue_wait_max 2.0",
        ]
        for line in expected:
            assert line in lines, f"missing {line!r} in:\n{text}"

    def test_counters_are_cumulative_and_buckets_monotonic(self):
        text = render_openmetrics(sample_registry().snapshot())
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_queue_wait_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 3  # +Inf bucket equals the total count

    def test_extra_gauges_and_empty_snapshot(self):
        text = render_openmetrics(
            MetricsRegistry().snapshot(),
            extra_gauges={"exposition.uptime_seconds": 1.25},
        )
        assert "repro_exposition_uptime_seconds 1.25" in text
        assert text.endswith("# EOF\n")

    def test_v1_snapshot_without_min_max(self):
        snapshot = sample_registry().snapshot()
        snapshot["schema"] = 1
        for payload in snapshot["histograms"].values():
            payload.pop("min")
            payload.pop("max")
        text = render_openmetrics(snapshot)
        assert "repro_queue_wait_count 3" in text
        assert "repro_queue_wait_min" not in text


class TestMetricsServer:
    def test_scrape_round_trip(self):
        registry = sample_registry()
        server = MetricsServer(registry.snapshot, port=0)
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert "repro_cds_moves_total 7" in body
            assert body.rstrip().endswith("# EOF")
            assert server.scrapes == 1
        finally:
            server.stop()

    def test_health_and_404(self):
        server = MetricsServer(MetricsRegistry().snapshot, port=0)
        server.start()
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/health", timeout=5) as response:
                health = json.loads(response.read().decode("utf-8"))
            assert health["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_live_scrape_sees_updates(self):
        obs.configure(metrics=True)
        server = obs.start_metrics_server(0)
        url = f"http://127.0.0.1:{server.port}/metrics"

        def scrape_counter() -> float:
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode("utf-8")
            for line in body.splitlines():
                if line.startswith("repro_live_test_total "):
                    return float(line.split()[1])
            return 0.0

        obs.get_metrics().counter("live.test").inc(5)
        first = scrape_counter()
        obs.get_metrics().counter("live.test").inc(5)
        second = scrape_counter()
        assert (first, second) == (5.0, 10.0)

