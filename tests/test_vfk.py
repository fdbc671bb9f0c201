"""Unit tests for the VF^K comparator (repro.baselines.vfk)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.baselines.vfk import VFKAllocator, unit_size_contiguous_optimal
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums
from repro.exceptions import InfeasibleProblemError
from repro.verify.reference import contiguous_quadratic
from repro.workloads.generator import WorkloadSpec, generate_database


def _unit_reference(database, num_groups):
    """The textbook O(K·N²) DP on unit-size prefix sums of the
    frequency-descending order."""
    frequencies = database.frequencies[database.frequency_order()]
    sums = PrefixSums.from_arrays(frequencies, np.ones(len(frequencies)))
    return contiguous_quadratic(sums, num_groups)


def _group_counts(num_items, *candidates):
    """The feasible ones of ``candidates`` and ``num_items``, ascending."""
    return sorted({k for k in candidates + (num_items,) if 1 <= k <= num_items})


#: (N, Zipf θ) — θ = 0 ties every frequency.
REFERENCE_SHAPES = [(1, 0.8), (9, 0.0), (40, 0.0), (40, 0.8), (90, 1.4)]


class TestUnitSizeDP:
    def test_single_group(self, tiny_db):
        boundaries, cost = unit_size_contiguous_optimal(tiny_db.items, 1)
        assert boundaries == [(0, 4)]
        assert cost == pytest.approx(1.0 * 4)

    def test_singletons(self, tiny_db):
        boundaries, cost = unit_size_contiguous_optimal(tiny_db.items, 4)
        assert len(boundaries) == 4
        assert cost == pytest.approx(1.0)  # sum f_i * 1

    def test_matches_exhaustive(self, medium_db):
        items = medium_db.sorted_by_frequency()[:10]
        k = 3
        _, dp_cost = unit_size_contiguous_optimal(items, k)
        freqs = [i.frequency for i in items]
        exhaustive = min(
            sum(
                sum(freqs[a:b]) * (b - a)
                for a, b in zip((0,) + cut, cut + (len(items),))
            )
            for cut in itertools.combinations(range(1, len(items)), k - 1)
        )
        assert dp_cost == pytest.approx(exhaustive)

    @pytest.mark.parametrize("num_items, skewness", REFERENCE_SHAPES)
    def test_matches_quadratic_reference_bit_for_bit(
        self, num_items, skewness
    ):
        database = generate_database(
            WorkloadSpec(num_items=num_items, skewness=skewness, seed=5)
        )
        ordered = database.sorted_by_frequency()
        for k in _group_counts(num_items, 1, 2, 3, 7, num_items - 1):
            assert unit_size_contiguous_optimal(ordered, k) == _unit_reference(
                database, k
            )

    def test_infeasible(self, tiny_db):
        with pytest.raises(InfeasibleProblemError):
            unit_size_contiguous_optimal(tiny_db.items, 0)
        with pytest.raises(InfeasibleProblemError):
            unit_size_contiguous_optimal(tiny_db.items, 9)


class TestVFKAllocator:
    def test_groups_contiguous_in_frequency_order(self, medium_db):
        outcome = VFKAllocator().allocate(medium_db, 5)
        rank = {
            item.item_id: index
            for index, item in enumerate(medium_db.sorted_by_frequency())
        }
        for group in outcome.allocation.channels:
            ranks = sorted(rank[item.item_id] for item in group)
            assert ranks == list(range(ranks[0], ranks[-1] + 1))

    def test_popular_items_get_smaller_channels(self, medium_db):
        """The highest-frequency group has at most the average count."""
        outcome = VFKAllocator().allocate(medium_db, 5)
        hot_channel = outcome.allocation.channel_of(
            medium_db.sorted_by_frequency()[0].item_id
        )
        hot_count = outcome.allocation.channel_stats[hot_channel].count
        assert hot_count <= len(medium_db) / 5 + 1

    def test_metadata_reports_unit_cost(self, medium_db):
        outcome = VFKAllocator().allocate(medium_db, 5)
        assert outcome.metadata["unit_size_cost"] > 0

    def test_optimal_in_conventional_environment(self, uniform_db):
        """With equal sizes and frequencies VF^K is exactly optimal."""
        from repro.baselines.exact import brute_force_optimal

        outcome = VFKAllocator().allocate(uniform_db, 3)
        _, optimal_cost = brute_force_optimal(uniform_db, 3)
        assert outcome.cost == pytest.approx(optimal_cost)

    def test_suboptimal_in_diverse_environment(self):
        """A diverse profile where frequency-only allocation must lose.

        Two popular-but-huge items and two unpopular-but-tiny items:
        VF^K pairs the popular (huge) ones on the short channel, the
        diverse-aware optimum does not.
        """
        db = BroadcastDatabase(
            [
                DataItem("big-hot-1", 0.4, 100.0),
                DataItem("big-hot-2", 0.35, 100.0),
                DataItem("tiny-cold-1", 0.15, 1.0),
                DataItem("tiny-cold-2", 0.10, 1.0),
            ]
        )
        from repro.baselines.exact import brute_force_optimal

        vfk_cost = VFKAllocator().allocate(db, 2).cost
        _, optimal_cost = brute_force_optimal(db, 2)
        assert vfk_cost > optimal_cost + 1e-9

    @pytest.mark.parametrize("num_items, skewness", REFERENCE_SHAPES)
    def test_groups_are_the_reference_partition(self, num_items, skewness):
        database = generate_database(
            WorkloadSpec(num_items=num_items, skewness=skewness, seed=6)
        )
        order = database.frequency_order().tolist()
        for k in _group_counts(num_items, 1, 2, 5):
            boundaries, unit_cost = _unit_reference(database, k)
            outcome = VFKAllocator().allocate(database, k)
            assert outcome.metadata["unit_size_cost"] == unit_cost
            assert outcome.allocation.as_id_lists() == [
                [database.item_id_at(i) for i in order[start:stop]]
                for start, stop in boundaries
            ]

    def test_cost_reported_under_true_sizes(self, medium_db):
        outcome = VFKAllocator().allocate(medium_db, 5)
        assert outcome.cost == pytest.approx(
            allocation_cost(outcome.allocation)
        )
