"""Unit tests for the live progress primitives.

* :class:`EwmaRate` vs the closed-form exponential average;
* :class:`Heartbeat` emission/throttling against a real registry.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import EwmaRate, Heartbeat

from .fakeclock import FakeClock


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

