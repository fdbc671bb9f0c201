"""Unit tests for the streaming estimators behind live telemetry.

The estimators trade exactness for O(1) memory, so each is checked
against a brute-force oracle on the same data:

* :class:`SlidingWindow` stats vs numpy over the retained samples;
* :class:`EwmaRate` vs the closed-form exponential average;
* :class:`P2Quantile` vs ``numpy.quantile`` within a coarse tolerance
  (P² is an approximation) and *exactly* below five samples;
* :class:`Heartbeat` emission/throttling against a real registry;
* :class:`MetricWindows` summaries over synthetic snapshots.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    EwmaRate,
    Heartbeat,
    MetricWindows,
    P2Quantile,
    SlidingWindow,
)

from .fakeclock import FakeClock


class TestSlidingWindow:
    def test_stats_match_numpy_on_retained_samples(self):
        window = SlidingWindow(duration=60.0, max_samples=512)
        values = [math.sin(i / 7.0) * 10 for i in range(100)]
        for i, value in enumerate(values):
            window.observe(value, now=float(i))
        stats = window.stats(now=99.0)
        # Window spans [39, 99] inclusive: samples 39..99 survive.
        kept = np.asarray(values[39:])
        assert stats["count"] == len(kept)
        assert stats["mean"] == pytest.approx(float(kept.mean()))
        assert stats["min"] == pytest.approx(float(kept.min()))
        assert stats["max"] == pytest.approx(float(kept.max()))
        assert stats["last"] == pytest.approx(values[-1])

    def test_time_eviction(self):
        window = SlidingWindow(duration=10.0)
        window.observe(1.0, now=0.0)
        window.observe(2.0, now=5.0)
        window.observe(3.0, now=20.0)
        assert [value for _, value in window.samples(now=20.0)] == [3.0]

    def test_capacity_eviction(self):
        window = SlidingWindow(duration=1e9, max_samples=4)
        for i in range(10):
            window.observe(float(i), now=float(i))
        assert [value for _, value in window.samples(now=9.0)] == [
            6.0,
            7.0,
            8.0,
            9.0,
        ]

    def test_empty_stats(self):
        stats = SlidingWindow().stats(now=0.0)
        assert stats["count"] == 0
        assert stats["mean"] is None


class TestEwmaRate:
    def test_constant_rate_converges(self):
        ewma = EwmaRate(halflife=2.0)
        # 10 events/second, 1s apart: the EWMA must converge to 10.
        for i in range(100):
            ewma.update(10.0, now=float(i))
        assert ewma.rate == pytest.approx(10.0, rel=1e-6)

    def test_matches_closed_form(self):
        halflife = 3.0
        ewma = EwmaRate(halflife=halflife)
        rng = random.Random(42)
        times = np.cumsum([rng.uniform(0.1, 2.0) for _ in range(50)])
        counts = [rng.uniform(0.0, 20.0) for _ in range(50)]
        expected = None
        previous = None
        for now, count in zip(times, counts):
            ewma.update(count, now=float(now))
            if previous is None:
                previous = now
                continue  # first update only anchors time
            dt = now - previous
            instantaneous = count / dt
            if expected is None:
                expected = instantaneous  # second update seeds the rate
            else:
                alpha = 1.0 - 2.0 ** (-dt / halflife)
                expected += alpha * (instantaneous - expected)
            previous = now
        assert ewma.rate == pytest.approx(expected)

    def test_first_update_reports_zero(self):
        ewma = EwmaRate()
        ewma.update(100.0, now=0.0)
        assert ewma.rate == 0.0


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        estimator = P2Quantile(q=0.5)
        for value in (5.0, 1.0, 3.0):
            estimator.observe(value)
        assert estimator.value == pytest.approx(
            float(np.quantile([5.0, 1.0, 3.0], 0.5))
        )

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tracks_numpy_quantile_uniform(self, q, seed):
        rng = random.Random(seed)
        estimator = P2Quantile(q=q)
        values = [rng.uniform(0.0, 100.0) for _ in range(5000)]
        for value in values:
            estimator.observe(value)
        exact = float(np.quantile(values, q))
        # P² on 5000 uniform samples lands within a few percent of the
        # distribution's span.
        assert abs(estimator.value - exact) < 5.0

    def test_tracks_numpy_quantile_normal(self):
        rng = random.Random(7)
        estimator = P2Quantile(q=0.5)
        values = [rng.gauss(50.0, 10.0) for _ in range(5000)]
        for value in values:
            estimator.observe(value)
        exact = float(np.quantile(values, 0.5))
        assert abs(estimator.value - exact) < 1.0

    def test_empty(self):
        assert P2Quantile().value is None


class TestHeartbeat:
    def test_emits_gauges_counter_and_rates(self):
        registry = MetricsRegistry()
        heartbeat = Heartbeat(
            "cds", registry, interval=0.0, rates=("delta_evaluations",)
        )
        heartbeat.beat(moves=3, cost=12.5, delta_evaluations=100)
        heartbeat.beat(moves=4, cost=11.0, delta_evaluations=250)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["cds.heartbeat.beats"] == 2
        assert snapshot["gauges"]["cds.heartbeat.moves"] == 4
        assert snapshot["gauges"]["cds.heartbeat.cost"] == 11.0
        assert "cds.heartbeat.delta_evaluations_per_second" in snapshot["gauges"]

    def test_throttle_suppresses_rapid_beats(self):
        registry = MetricsRegistry()
        # The clock starts at 0, below the interval: the first beat
        # must still emit.
        clock = FakeClock()
        heartbeat = Heartbeat("dp", registry, interval=3600.0, now=clock.now)
        assert heartbeat.beat(rows=1) is True  # first beat always emits
        for i in range(100):
            clock.advance(1.0)
            assert heartbeat.beat(rows=i) is False
        assert heartbeat.beats == 1
        heartbeat.flush(rows=99)  # flush ignores the throttle
        assert heartbeat.beats == 2
        assert registry.snapshot()["gauges"]["dp.heartbeat.rows"] == 99
        clock.advance(3600.0)
        assert heartbeat.beat(rows=100) is True  # throttle reopens

    def test_obs_factory_returns_none_when_disabled(self):
        obs.reset()
        assert obs.heartbeat("cds") is None
        obs.configure(metrics=True)
        try:
            assert isinstance(obs.heartbeat("cds"), Heartbeat)
        finally:
            obs.reset()


class TestMetricWindows:
    def test_counter_deltas_and_gauge_quantiles(self):
        windows = MetricWindows(window=60.0, quantile=0.5)
        for tick in range(10):
            snapshot = {
                "schema": 2,
                "counters": {"moves": 10 * (tick + 1)},
                "gauges": {"cost": 100.0 - tick},
                "histograms": {},
            }
            windows.sample(snapshot, now=float(tick))
        summary = windows.summary(now=9.0)
        counters = summary["counters"]["moves"]
        assert counters["total"] == 100
        # 9 deltas of +10 each over 9 seconds.
        assert counters["window_delta_mean"] == pytest.approx(10.0)
        gauges = summary["gauges"]["cost"]
        assert gauges["last"] == pytest.approx(91.0)
        assert gauges["window_min"] == pytest.approx(91.0)
        assert gauges["window_max"] == pytest.approx(100.0)
        assert gauges["p50"] == pytest.approx(
            float(np.quantile([100.0 - t for t in range(10)], 0.5)), abs=1.0
        )
