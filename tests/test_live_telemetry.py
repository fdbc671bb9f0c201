"""The live ``/metrics`` view reads the run's own registry.

The endpoint renders ``obs.get_metrics().snapshot()`` at scrape time;
a pooled worker's counters reach that registry when its cell's drain
merges, in grid order.  These tests pin that:

* parity — the final snapshot of a ``workers=2`` sweep is identical
  with the endpoint on and off, and identical to the serial run, once
  wall-clock-derived instruments (``*seconds*``, ``*heartbeat*``) are
  set aside;
* per-cell visibility — after the k-th outcome of a pooled run is
  yielded, a scrape reads exactly k cells;
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
from repro.experiments.parallel import build_cell_grid, iter_outcomes
from repro.experiments.runner import run_experiment

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


def scrape(port):
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode("utf-8")


def cells_total(body):
    """``repro_experiment_cells_total`` in a scrape, 0 when absent."""
    for line in body.splitlines():
        if line.startswith("repro_experiment_cells_total "):
            return int(line.split()[1])
    return 0


@_FORK_ONLY
class TestLiveParity:
    def _run(self, *, workers=None, live=False):
        obs.reset()
        obs.configure(metrics=True)
        if live:
            obs.start_metrics_server(0)
        result = run_experiment(small_config(), workers=workers)
        snapshot = obs.get_metrics().snapshot()
        obs.stop_live()
        return result, snapshot

    def test_parallel_snapshot_unchanged_by_live_telemetry(self):
        _, plain = self._run(workers=2)
        _, live = self._run(workers=2, live=True)
        assert deterministic_part(plain) == deterministic_part(live)

    def test_serial_and_parallel_agree_under_live_telemetry(self):
        result_serial, serial = self._run(workers=None, live=True)
        result_parallel, parallel = self._run(workers=2, live=True)
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

    def test_endpoint_serves_merged_worker_metrics(self):
        obs.configure(metrics=True)
        server = obs.start_metrics_server(0)
        run_experiment(small_config(), workers=2)
        body = scrape(server.port)
        grid = 2 * 2 * 2  # sweep values x replications x algorithms
        assert f"repro_experiment_cells_total {grid}" in body
        obs.stop_live()

    def test_each_merged_cell_is_visible_to_the_next_scrape(self):
        obs.configure(metrics=True)
        server = obs.start_metrics_server(0)
        config = small_config()
        cells = build_cell_grid(config)
        seen = []
        for outcome in iter_outcomes(config, cells, workers=2):
            assert outcome.error is None
            seen.append(cells_total(scrape(server.port)))
        assert seen == list(range(1, len(cells) + 1))
        obs.stop_live()
