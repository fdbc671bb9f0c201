"""Unit tests for the DES kernel of repro.verify.eventsim."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import SimulationError
from repro.verify.eventsim import Event, EventPriority, SimulationEngine


class TestEventOrdering:
    def test_time_orders_first(self):
        a = Event(1.0, 0, 5, callback=lambda: None)
        b = Event(2.0, 0, 1, callback=lambda: None)
        assert a < b

    def test_priority_breaks_time_ties(self):
        delivery = Event(1.0, EventPriority.DELIVERY, 9, callback=lambda: None)
        arrival = Event(1.0, EventPriority.ARRIVAL, 1, callback=lambda: None)
        assert delivery < arrival

    def test_sequence_breaks_remaining_ties(self):
        first = Event(1.0, 0, 1, callback=lambda: None)
        second = Event(1.0, 0, 2, callback=lambda: None)
        assert first < second


class TestScheduling:
    def test_schedule_at_runs_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append("late"))
        engine.schedule_at(1.0, lambda: fired.append("early"))
        engine.schedule_at(2.0, lambda: fired.append("middle"))
        assert engine.run() == 3
        assert fired == ["early", "middle", "late"]

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, bad):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(bad, lambda: None)

    def test_same_time_fifo(self):
        engine = SimulationEngine()
        fired = []
        for tag in ("a", "b", "c"):
            engine.schedule_at(
                1.0, lambda t=tag: fired.append(t)
            )
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_priority_overrides_fifo(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(
            1.0, lambda: fired.append("arrival"),
            priority=EventPriority.ARRIVAL,
        )
        engine.schedule_at(
            1.0, lambda: fired.append("delivery"),
            priority=EventPriority.DELIVERY,
        )
        engine.run()
        assert fired == ["delivery", "arrival"]


class TestExecution:
    def test_clock_monotone(self):
        engine = SimulationEngine()
        observed = []
        for t in (4.0, 1.0, 3.0, 2.0):
            engine.schedule_at(t, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)

    def test_processed_counter(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        assert engine.run() == 3
        assert engine.processed_events == 3
        engine.schedule_at(3.0, lambda: None)
        assert engine.run() == 1
        assert engine.processed_events == 4

    def test_callbacks_can_chain(self):
        """A three-stage pipeline driven purely by event chaining."""
        engine = SimulationEngine()
        stages = []

        def stage(n):
            stages.append((n, engine.now))
            if n < 3:
                engine.schedule_at(
                    engine.now + n + 1.0, lambda: stage(n + 1)
                )

        engine.schedule_at(0.0, lambda: stage(1))
        engine.run()
        assert stages == [(1, 0.0), (2, 2.0), (3, 5.0)]
