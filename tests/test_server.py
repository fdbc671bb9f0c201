"""Unit tests for repro.simulation.server."""

from __future__ import annotations

import math

import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.cost import average_waiting_time
from repro.exceptions import SimulationError
from repro.simulation.server import BroadcastProgram
from repro.verify.eventsim import BroadcastChannel


@pytest.fixture
def allocation(tiny_db):
    return ChannelAllocation(tiny_db, [tiny_db.items[:2], tiny_db.items[2:]])


class TestConstruction:
    def test_one_channel_per_group(self, allocation):
        program = BroadcastProgram(allocation, bandwidth=10.0)
        assert program.num_channels == 2
        # Channel 0 carries a(1.0), b(2.0); channel 1 c and d (7.0).
        assert program.cycle_lengths.tolist() == pytest.approx([0.3, 0.7])

    def test_bandwidth_applies_to_all_channels(self, allocation):
        program = BroadcastProgram(allocation, bandwidth=5.0)
        assert program.bandwidths.tolist() == [5.0, 5.0]
        assert program.cycle_lengths.tolist() == pytest.approx([0.6, 1.4])

    def test_per_channel_bandwidths(self, allocation):
        program = BroadcastProgram(allocation, bandwidths=[5.0, 20.0])
        assert program.bandwidths.tolist() == [5.0, 20.0]
        assert program.cycle_lengths.tolist() == pytest.approx([0.6, 0.35])

    def test_bandwidth_count_mismatch(self, allocation):
        with pytest.raises(SimulationError, match="bandwidths"):
            BroadcastProgram(allocation, bandwidths=[5.0])

    @pytest.mark.parametrize(
        "bandwidths",
        [
            {"bandwidth": math.inf},
            {"bandwidth": math.nan},
            {"bandwidth": 0.0},
            {"bandwidths": [5.0, math.inf]},
            {"bandwidths": [-1.0, 5.0]},
        ],
    )
    def test_non_finite_or_non_positive_bandwidth_rejected(
        self, allocation, bandwidths
    ):
        with pytest.raises(SimulationError, match="bandwidth"):
            BroadcastProgram(allocation, **bandwidths)

    def test_empty_channel_rejected(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items, []], allow_empty_channels=True
        )
        with pytest.raises(SimulationError, match="no items"):
            BroadcastProgram(allocation)


class TestRouting:
    def test_unknown_item_rejected(self, allocation):
        program = BroadcastProgram(allocation)
        with pytest.raises(SimulationError, match="no channel"):
            program.waiting_time("zz", 0.0)
        with pytest.raises(SimulationError, match="no channel"):
            program.expected_waiting_time("zz")

    @pytest.mark.parametrize("tune_in", [-0.5, math.inf, math.nan])
    def test_bad_tune_in_rejected(self, allocation, tune_in):
        program = BroadcastProgram(allocation)
        with pytest.raises(SimulationError, match="tune_in"):
            program.waiting_time("a", tune_in)

    def test_waiting_time_delegates(self, allocation):
        program = BroadcastProgram(allocation, bandwidth=10.0)
        reference = BroadcastChannel(0, allocation.channels[0], 10.0)
        for tune_in in (0.0, 0.05, 0.1, 0.25, 0.3, 7.77):
            for item_id in ("a", "b"):
                assert program.waiting_time(
                    item_id, tune_in
                ) == reference.waiting_time(item_id, tune_in)


class TestExpectedWaitingTimes:
    def test_per_item_expectation_eq1(self, allocation):
        program = BroadcastProgram(allocation, bandwidth=10.0)
        # Channel 0 carries a(1.0) and b(2.0): cycle = 0.3 s.
        assert program.expected_waiting_time("a") == pytest.approx(
            0.3 / 2 + 0.1
        )

    def test_frequency_weighted_expectation_equals_model_wb(self, allocation):
        """Σ f_x · E[wait_x] == W_b of Eq. (2) — the whole-model identity."""
        program = BroadcastProgram(allocation, bandwidth=10.0)
        weighted = sum(
            item.frequency * program.expected_waiting_time(item.item_id)
            for item in allocation.database
        )
        assert weighted == pytest.approx(
            average_waiting_time(allocation, bandwidth=10.0)
        )
