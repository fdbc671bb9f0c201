"""Unit tests for the reference BroadcastChannel (repro.verify.eventsim)."""

from __future__ import annotations

import pytest

from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.verify.eventsim import BroadcastChannel


@pytest.fixture
def channel():
    """Three items of sizes 10, 20, 10 at bandwidth 10 -> cycle 4 s.

    Slots: x at [0,1), y at [1,3), z at [3,4) within each cycle.
    """
    return BroadcastChannel(
        0,
        [
            DataItem("x", 0.5, 10.0),
            DataItem("y", 0.3, 20.0),
            DataItem("z", 0.2, 10.0),
        ],
        bandwidth=10.0,
    )


class TestConstruction:
    def test_cycle_length(self, channel):
        assert channel.cycle_length == pytest.approx(4.0)

    def test_empty_channel_rejected(self):
        with pytest.raises(SimulationError, match="no items"):
            BroadcastChannel(0, [], bandwidth=10.0)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(SimulationError, match="bandwidth"):
            BroadcastChannel(
                0, [DataItem("x", 1.0, 1.0)], bandwidth=0.0
            )

    def test_duplicate_items_rejected(self):
        item = DataItem("x", 0.5, 1.0)
        with pytest.raises(SimulationError, match="twice"):
            BroadcastChannel(0, [item, item], bandwidth=1.0)

    def test_carries(self, channel):
        assert channel.carries("y")
        assert not channel.carries("nope")


class TestSlots:
    def test_slot_offsets(self, channel):
        assert channel.slot_offset("x") == pytest.approx(0.0)
        assert channel.slot_offset("y") == pytest.approx(1.0)
        assert channel.slot_offset("z") == pytest.approx(3.0)

    def test_unknown_item(self, channel):
        with pytest.raises(SimulationError, match="does not carry"):
            channel.slot_offset("nope")

    def test_transmission_time(self, channel):
        assert channel.transmission_time("y") == pytest.approx(2.0)


class TestNextTransmission:
    def test_before_first_slot(self, channel):
        assert channel.next_transmission_start("y", 0.5) == pytest.approx(1.0)

    def test_exactly_at_slot_start_catches_it(self, channel):
        assert channel.next_transmission_start("y", 1.0) == pytest.approx(1.0)

    def test_mid_transmission_waits_full_cycle(self, channel):
        # Tuning in at 1.5 (during y's transmission) misses the start.
        assert channel.next_transmission_start("y", 1.5) == pytest.approx(5.0)

    def test_later_cycles(self, channel):
        assert channel.next_transmission_start("x", 9.0) == pytest.approx(12.0)

    def test_negative_time_rejected(self, channel):
        with pytest.raises(SimulationError):
            channel.next_transmission_start("x", -1.0)


class TestWaitingTimes:
    def test_delivery_completion(self, channel):
        # Tune in at 0.5 for y: next start 1.0, download 2 -> complete 3.
        assert channel.delivery_completion("y", 0.5) == pytest.approx(3.0)

    def test_waiting_time(self, channel):
        assert channel.waiting_time("y", 0.5) == pytest.approx(2.5)

    def test_expected_waiting_time_eq1(self, channel):
        # cycle/2 + z/b = 2.0 + 2.0.
        assert channel.expected_waiting_time("y") == pytest.approx(4.0)

    def test_expected_matches_uniform_average(self, channel):
        """Averaging actual waits over a fine uniform grid ≈ Eq. (1)."""
        steps = 4000
        cycle = channel.cycle_length
        total = 0.0
        for k in range(steps):
            tune_in = (k + 0.5) * cycle / steps
            total += channel.waiting_time("y", tune_in)
        average = total / steps
        assert average == pytest.approx(
            channel.expected_waiting_time("y"), rel=1e-3
        )

    def test_expected_matches_uniform_average_all_items(self, channel):
        steps = 2000
        cycle = channel.cycle_length
        for item in channel.items:
            total = sum(
                channel.waiting_time(item.item_id, (k + 0.5) * cycle / steps)
                for k in range(steps)
            )
            assert total / steps == pytest.approx(
                channel.expected_waiting_time(item.item_id), rel=1e-3
            )
