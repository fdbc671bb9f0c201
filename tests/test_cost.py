"""Unit tests for repro.core.cost — the analytical model (paper §2)."""

from __future__ import annotations

import math

import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.cost import (
    allocation_cost,
    average_waiting_time,
    channel_costs,
    channel_waiting_time,
    cost_under_profile,
    group_aggregates,
    group_cost,
    item_waiting_time,
    move_delta,
    waiting_time_from_cost,
)
from repro.core.item import DataItem
from repro.exceptions import InvalidAllocationError

from tests.conftest import PAPER_GOLDENS


class TestGroupQuantities:
    def test_group_aggregates(self, tiny_db):
        frequency, size = group_aggregates(tiny_db.items[:2])
        assert frequency == pytest.approx(0.7)
        assert size == pytest.approx(3.0)

    def test_group_cost_definition1(self, tiny_db):
        assert group_cost(tiny_db.items[:2]) == pytest.approx(0.7 * 3.0)

    def test_empty_group_cost_is_zero(self):
        assert group_cost([]) == 0.0

    def test_whole_paper_database_cost(self, paper_db):
        # Table 3(a): cost(D) = 135.60.
        assert group_cost(paper_db.items) == pytest.approx(
            PAPER_GOLDENS["initial_cost"], abs=0.01
        )


class TestAllocationCost:
    def test_channel_costs_and_total(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        per_channel = channel_costs(allocation)
        assert per_channel == pytest.approx([0.7 * 3.0, 0.3 * 7.0])
        assert allocation_cost(allocation) == pytest.approx(sum(per_channel))

    def test_single_channel_cost_equals_group_cost(self, paper_db):
        allocation = ChannelAllocation(paper_db, [paper_db.items])
        assert allocation_cost(allocation) == pytest.approx(
            group_cost(paper_db.items)
        )

    def test_cost_invariant_under_channel_permutation(self, medium_db):
        items = medium_db.items
        split = [items[:10], items[10:20], items[20:]]
        forward = ChannelAllocation(medium_db, split)
        backward = ChannelAllocation(medium_db, list(reversed(split)))
        assert allocation_cost(forward) == pytest.approx(
            allocation_cost(backward)
        )


class TestCostUnderProfile:
    def test_matches_item_walk(self, medium_db):
        """The array path equals the per-item sum it replaced."""
        items = medium_db.items
        allocation = ChannelAllocation(
            medium_db, [items[:7], items[7:19], items[19:]]
        )
        profile = {
            item.item_id: 1.0 / len(items) for item in reversed(items)
        }
        walked = sum(
            sum(profile[item.item_id] for item in group)
            * sum(item.size for item in group)
            for group in allocation.channels
        )
        got = cost_under_profile(
            allocation, list(profile), list(profile.values())
        )
        assert got == pytest.approx(walked, rel=1e-12)

    def test_own_profile_is_allocation_cost(self, medium_db):
        items = medium_db.items
        allocation = ChannelAllocation(medium_db, [items[:12], items[12:]])
        assert cost_under_profile(
            allocation, medium_db.item_ids, medium_db.frequencies
        ) == allocation_cost(allocation)


class TestWaitingTimes:
    def test_item_waiting_time_eq1(self, tiny_db):
        channel = tiny_db.items[:2]  # sizes 1 and 2, aggregate 3
        w = item_waiting_time(tiny_db.items[0], channel, bandwidth=10.0)
        assert w == pytest.approx(3.0 / 20.0 + 1.0 / 10.0)

    def test_item_waiting_time_requires_membership(self, tiny_db):
        with pytest.raises(InvalidAllocationError, match="not on"):
            item_waiting_time(tiny_db.items[3], tiny_db.items[:2])

    def test_item_waiting_time_rejects_bad_bandwidth(self, tiny_db):
        with pytest.raises(InvalidAllocationError, match="bandwidth"):
            item_waiting_time(
                tiny_db.items[0], tiny_db.items[:2], bandwidth=0.0
            )

    def test_channel_waiting_time_is_frequency_weighted(self, tiny_db):
        channel = tiny_db.items[:2]
        expected = (
            0.4 * item_waiting_time(channel[0], channel)
            + 0.3 * item_waiting_time(channel[1], channel)
        ) / 0.7
        assert channel_waiting_time(channel) == pytest.approx(expected)

    def test_channel_waiting_time_empty_channel_undefined(self):
        with pytest.raises(InvalidAllocationError, match="empty"):
            channel_waiting_time([])

    def test_average_waiting_time_eq2_expansion(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        bandwidth = 10.0
        expected = allocation_cost(allocation) / (2 * bandwidth) + (
            tiny_db.fixed_download_cost / bandwidth
        )
        assert average_waiting_time(
            allocation, bandwidth=bandwidth
        ) == pytest.approx(expected)

    def test_average_waiting_time_is_weighted_channel_average(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        # W_b = sum_i F_i * W^(i) — the paper's first line of Eq. (2).
        expected = 0.7 * channel_waiting_time(
            tiny_db.items[:2]
        ) + 0.3 * channel_waiting_time(tiny_db.items[2:])
        assert average_waiting_time(allocation) == pytest.approx(expected)

    def test_waiting_time_from_cost_matches(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db, [tiny_db.items[:2], tiny_db.items[2:]]
        )
        direct = average_waiting_time(allocation, bandwidth=7.0)
        indirect = waiting_time_from_cost(
            allocation_cost(allocation),
            tiny_db.fixed_download_cost,
            bandwidth=7.0,
        )
        assert direct == pytest.approx(indirect)

    def test_bandwidth_scales_waiting_time_inversely(self, tiny_db):
        allocation = ChannelAllocation(tiny_db, [tiny_db.items])
        assert average_waiting_time(
            allocation, bandwidth=20.0
        ) == pytest.approx(average_waiting_time(allocation, bandwidth=10.0) / 2)

    def test_intro_formula_single_channel_equal_sizes(self):
        # Intro: N items of size z on one channel: W = Nz/2b + z/b.
        n, z, b = 8, 5.0, 10.0
        items = [DataItem(f"i{k}", 1.0 / n, z) for k in range(n)]
        from repro.core.database import BroadcastDatabase

        db = BroadcastDatabase(items)
        allocation = ChannelAllocation(db, [db.items])
        assert average_waiting_time(allocation, bandwidth=b) == pytest.approx(
            n * z / (2 * b) + z / b
        )


class TestMoveDelta:
    def test_eq4_matches_recomputation(self, tiny_db):
        items = tiny_db.items
        allocation = ChannelAllocation(tiny_db, [items[:2], items[2:]])
        before = allocation_cost(allocation)
        item = items[0]  # move "a" from channel 0 to channel 1
        after_alloc = ChannelAllocation(
            tiny_db, [[items[1]], [items[2], items[3], item]]
        )
        after = allocation_cost(after_alloc)
        stats = allocation.channel_stats
        delta = move_delta(
            item,
            origin_frequency=stats[0].frequency,
            origin_size=stats[0].size,
            dest_frequency=stats[1].frequency,
            dest_size=stats[1].size,
        )
        assert delta == pytest.approx(before - after)

    def test_moving_last_item_never_improves(self):
        # With F_p = f_x, Z_p = z_x the delta collapses to
        # -f_x*Z_q - z_x*F_q < 0 — the automatic non-empty guard.
        item = DataItem("x", 0.3, 2.0)
        delta = move_delta(
            item,
            origin_frequency=item.frequency,
            origin_size=item.size,
            dest_frequency=0.7,
            dest_size=5.0,
        )
        assert delta == pytest.approx(-(0.3 * 5.0) - (2.0 * 0.7))
        assert delta < 0

    def test_symmetric_groups_give_negative_delta(self):
        # Moving between identical groups always adds the -2fz term.
        item = DataItem("x", 0.1, 1.0)
        delta = move_delta(
            item,
            origin_frequency=0.5,
            origin_size=10.0,
            dest_frequency=0.5 - item.frequency,
            dest_size=10.0 - item.size,
        )
        # Z_p - Z_q = 1, F_p - F_q = 0.1 => 0.1*1 + 1*0.1 - 2*0.1 = 0
        assert delta == pytest.approx(0.0)


class TestDegenerateChannels:
    def test_zero_aggregate_frequency_raises_not_crashes(self):
        """A zero-frequency channel must raise InvalidAllocationError,
        not ZeroDivisionError (DataItem forbids f <= 0, but duck-typed
        items from adapters and estimator drift can reach the model)."""

        class Stub:
            item_id = "stub"
            frequency = 0.0
            size = 4.0
            weight = 0.0

        with pytest.raises(InvalidAllocationError, match="frequency"):
            channel_waiting_time([Stub()])

    def test_cancelling_frequencies_raise_too(self):
        class Stub:
            def __init__(self, item_id, frequency, size):
                self.item_id = item_id
                self.frequency = frequency
                self.size = size
                self.weight = frequency * size

        with pytest.raises(InvalidAllocationError, match="frequency"):
            channel_waiting_time([Stub("a", 0.3, 1.0), Stub("b", -0.3, 1.0)])


class TestMembershipLookupScaling:
    def test_large_channel_member_found(self):
        # Past the set-lookup threshold the behaviour must be identical.
        items = [DataItem(f"d{i}", 0.001, 2.0) for i in range(200)]
        direct = (200 * 2.0) / (2.0 * 10.0) + 2.0 / 10.0
        assert item_waiting_time(items[150], items) == pytest.approx(direct)

    def test_large_channel_nonmember_rejected(self):
        items = [DataItem(f"d{i}", 0.001, 2.0) for i in range(200)]
        outsider = DataItem("outsider", 0.5, 1.0)
        with pytest.raises(InvalidAllocationError, match="not on the given"):
            item_waiting_time(outsider, items)

    def test_small_and_large_paths_agree(self):
        small = [DataItem(f"s{i}", 0.01, 3.0) for i in range(4)]
        large = small + [DataItem(f"p{i}", 0.01, 0.5) for i in range(100)]
        for channel in (small, large):
            expected = (
                math.fsum(m.size for m in channel) / 20.0 + small[0].size / 10.0
            )
            assert item_waiting_time(small[0], channel) == pytest.approx(
                expected
            )
