"""Live telemetry must never perturb the authoritative metrics.

The live path (periodic worker snapshots merged into a throwaway
overlay registry, the OpenMetrics endpoint, the JSONL stream) is a
*view*; the per-cell drain-merge pipeline stays the source of truth.
These tests pin that invariant:

* overlay units — ``obs.live_snapshot`` merges worker overlays
  additively and never mutates the in-process registry;
* parity — the final snapshot of a ``workers=2`` sweep is identical
  with live telemetry on and off, and identical to the serial run,
  once wall-clock-derived instruments (``*seconds*``, ``*heartbeat*``)
  are set aside;
* the endpoint serves the merged result after the pool drains.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import urllib.request

import pytest

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry

_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork"
    and sys.platform != "linux",
    reason="worker tests assume a fork-capable platform",
)


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def small_config(**overrides):
    defaults = dict(
        name="live-test",
        description="live telemetry sweep",
        sweep_parameter="num_channels",
        sweep_values=(3.0, 4.0),
        algorithms=("drp", "drp-cds"),
        num_items=20,
        replications=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def deterministic_part(snapshot):
    """The snapshot minus wall-clock-derived instruments.

    Timing histograms (``*_seconds``), EWMA rate gauges
    (``*_per_second``) and heartbeat emissions (throttled on wall
    time) legitimately vary run to run; everything else must be
    bit-for-bit reproducible.
    """

    def keep(key):
        return "seconds" not in key and "heartbeat" not in key

    return json.dumps(
        {
            section: {
                key: value
                for key, value in snapshot[section].items()
                if keep(key)
            }
            for section in ("counters", "gauges", "histograms")
        },
        sort_keys=True,
    )


class TestLiveOverlay:
    def test_without_overlays_live_snapshot_is_plain_snapshot(self):
        obs.configure(metrics=True)
        obs.get_metrics().counter("x").inc(2)
        assert obs.live_snapshot() == obs.get_metrics().snapshot()

    def test_overlays_merge_additively_in_the_view_only(self):
        obs.configure(metrics=True)
        obs.get_metrics().counter("moves").inc(10)
        worker = MetricsRegistry()
        worker.counter("moves").inc(5)
        worker.counter("worker.only").inc(1)
        obs.update_live_overlay(4242, worker.snapshot())
        live = obs.live_snapshot()
        assert live["counters"]["moves"] == 15
        assert live["counters"]["worker.only"] == 1
        # The authoritative registry is untouched by the overlay.
        assert obs.get_metrics().snapshot()["counters"]["moves"] == 10
        assert "worker.only" not in obs.get_metrics().snapshot()["counters"]

    def test_overlay_replacement_is_not_cumulative(self):
        obs.configure(metrics=True)
        worker = MetricsRegistry()
        worker.counter("moves").inc(5)
        obs.update_live_overlay(1, worker.snapshot())
        worker.counter("moves").inc(5)  # worker ships cumulative totals
        obs.update_live_overlay(1, worker.snapshot())
        assert obs.live_snapshot()["counters"]["moves"] == 10

    def test_clear_overlay_drops_the_worker_view(self):
        obs.configure(metrics=True)
        worker = MetricsRegistry()
        worker.counter("moves").inc(5)
        obs.update_live_overlay(1, worker.snapshot())
        obs.clear_live_overlay(1)
        assert "moves" not in obs.live_snapshot()["counters"]
        obs.update_live_overlay(2, worker.snapshot())
        obs.clear_live_overlays()
        assert "moves" not in obs.live_snapshot()["counters"]


@_FORK_ONLY
class TestLiveParity:
    def _run(self, *, workers=None, live=False, tmp_path=None):
        obs.reset()
        obs.configure(metrics=True)
        if live:
            obs.start_metrics_server(0)
            obs.start_metrics_stream(
                str(tmp_path / f"stream-{workers}.jsonl"), interval=3600.0
            )
        result = run_experiment(small_config(), workers=workers)
        snapshot = obs.get_metrics().snapshot()
        obs.stop_live()
        return result, snapshot

    def test_parallel_snapshot_unchanged_by_live_telemetry(self, tmp_path):
        _, plain = self._run(workers=2)
        _, live = self._run(workers=2, live=True, tmp_path=tmp_path)
        assert deterministic_part(plain) == deterministic_part(live)

    def test_serial_and_parallel_agree_under_live_telemetry(self, tmp_path):
        result_serial, serial = self._run(
            workers=None, live=True, tmp_path=tmp_path
        )
        result_parallel, parallel = self._run(
            workers=2, live=True, tmp_path=tmp_path
        )
        # The computed rows are identical, and both runs take the same
        # cell path, so every deterministic instrument comes out of the
        # worker drain-merge with the exact value the in-process run
        # records.  The one pool-only instrument,
        # experiment.queue_wait_seconds, is a timing and already set
        # aside by deterministic_part.
        assert [row.algorithm for row in result_serial.rows] == [
            row.algorithm for row in result_parallel.rows
        ]
        assert deterministic_part(serial) == deterministic_part(parallel)

    def test_no_overlays_survive_the_pool(self, tmp_path):
        obs.configure(metrics=True)
        obs.start_metrics_server(0)
        run_experiment(small_config(), workers=2)
        # Pool teardown cleared every worker overlay: the live view is
        # exactly the in-process registry again.
        assert obs.live_snapshot() == obs.get_metrics().snapshot()
        obs.stop_live()

    def test_endpoint_serves_merged_worker_metrics(self, tmp_path):
        obs.configure(metrics=True)
        server = obs.start_metrics_server(0)
        run_experiment(small_config(), workers=2)
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=5) as response:
            body = response.read().decode("utf-8")
        grid = 2 * 2 * 2  # sweep values x replications x algorithms
        assert f"repro_experiment_cells_total {grid}" in body
        obs.stop_live()

    def test_stream_final_tick_reflects_the_run(self, tmp_path):
        obs.configure(metrics=True)
        path = tmp_path / "stream.jsonl"
        obs.start_metrics_stream(str(path), interval=3600.0)
        run_experiment(small_config(), workers=2)
        obs.stop_live()
        ticks = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert ticks
        assert ticks[-1]["counters"]["experiment.cells"]["total"] == 8
