"""Unit tests for repro.analysis.theory — bounds and closed forms."""

from __future__ import annotations

import math

import pytest

from repro.analysis.theory import (
    conventional_waiting_time,
    cost_lower_bound,
    single_channel_cost,
    waiting_time_lower_bound,
)
from repro.baselines.exact import brute_force_optimal
from repro.core.cost import allocation_cost, average_waiting_time
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import InfeasibleProblemError
from repro.workloads.generator import WorkloadSpec, generate_database

from tests.conftest import PAPER_GOLDENS


class TestCostLowerBound:
    def test_bound_below_global_optimum(self):
        for seed in range(4):
            db = generate_database(WorkloadSpec(num_items=9, seed=seed))
            for k in (2, 3, 4):
                _, optimal = brute_force_optimal(db, k)
                assert cost_lower_bound(db, k) <= optimal + 1e-9

    def test_bound_below_heuristic_costs(self, medium_db):
        for k in (2, 5, 8):
            outcome = DRPCDSAllocator().allocate(medium_db, k)
            assert cost_lower_bound(medium_db, k) <= outcome.cost + 1e-9

    def test_k1_bound_is_tight(self, paper_db):
        # With one channel the Cauchy bound can be loose but the only
        # allocation is the whole database; bound must not exceed it.
        assert cost_lower_bound(paper_db, 1) <= single_channel_cost(
            paper_db
        ) + 1e-9

    def test_tight_for_identical_items_divisible_k(self, uniform_db):
        # 12 identical items, K=3: optimal splits 4/4/4 and the Cauchy
        # bound is met with equality.
        _, optimal = brute_force_optimal(uniform_db, 3)
        assert cost_lower_bound(uniform_db, 3) == pytest.approx(optimal)

    def test_bound_decreases_with_k(self, medium_db):
        bounds = [cost_lower_bound(medium_db, k) for k in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_download_floor(self, medium_db):
        # The bound never drops below the allocation-independent term.
        assert (
            cost_lower_bound(medium_db, 50)
            >= medium_db.fixed_download_cost - 1e-12
        )

    def test_invalid_k(self, medium_db):
        with pytest.raises(InfeasibleProblemError):
            cost_lower_bound(medium_db, 0)

    def test_array_sum_is_the_item_sum(self, medium_db):
        """The vectorized bound is bitwise the per-item fsum."""
        sqrt_sum = math.fsum(
            math.sqrt(item.frequency * item.size) for item in medium_db
        )
        assert cost_lower_bound(medium_db, 4) == max(
            sqrt_sum * sqrt_sum / 4, medium_db.fixed_download_cost
        )


class TestWaitingTimeLowerBound:
    def test_below_actual_waiting_times(self, medium_db):
        bound = waiting_time_lower_bound(medium_db, 5, bandwidth=10.0)
        outcome = DRPCDSAllocator().allocate(medium_db, 5)
        actual = average_waiting_time(outcome.allocation, bandwidth=10.0)
        assert bound <= actual + 1e-9

    def test_scales_with_bandwidth(self, medium_db):
        assert waiting_time_lower_bound(
            medium_db, 5, bandwidth=20.0
        ) == pytest.approx(
            waiting_time_lower_bound(medium_db, 5, bandwidth=10.0) / 2.0
        )


class TestSingleChannelCost:
    def test_matches_k1_allocation(self, paper_db):
        from repro.core.allocation import ChannelAllocation

        allocation = ChannelAllocation(paper_db, [paper_db.items])
        assert single_channel_cost(paper_db) == pytest.approx(
            allocation_cost(allocation)
        )

    def test_paper_value(self, paper_db):
        assert single_channel_cost(paper_db) == pytest.approx(
            PAPER_GOLDENS["initial_cost"], abs=0.01
        )


class TestConventionalFormula:
    def test_intro_formula(self):
        # N=10 items of size 2 at b=4: W = 20/8 + 2/4.
        assert conventional_waiting_time(
            10, 2.0, bandwidth=4.0
        ) == pytest.approx(2.5 + 0.5)

    def test_matches_general_model(self, uniform_db):
        from repro.core.allocation import ChannelAllocation

        allocation = ChannelAllocation(uniform_db, [uniform_db.items])
        assert conventional_waiting_time(
            len(uniform_db), 5.0, bandwidth=10.0
        ) == pytest.approx(average_waiting_time(allocation, bandwidth=10.0))

    def test_validation(self):
        with pytest.raises(InfeasibleProblemError):
            conventional_waiting_time(0, 1.0)
        with pytest.raises(InfeasibleProblemError):
            conventional_waiting_time(5, -1.0)
