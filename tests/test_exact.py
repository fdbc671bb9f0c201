"""Unit tests for the exact solvers (repro.baselines.exact)."""

from __future__ import annotations

import pytest

from repro.baselines.exact import (
    BruteForceAllocator,
    ContiguousDPAllocator,
    brute_force_optimal,
    partitions_into_k,
    stirling2,
)
from repro.core.cost import allocation_cost
from repro.core.partition import contiguous_optimal
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import InfeasibleProblemError, SolverLimitError
from repro.workloads.generator import WorkloadSpec, generate_database


class TestStirling:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (0, 0, 1),
            (1, 1, 1),
            (4, 2, 7),
            (5, 3, 25),
            (6, 3, 90),
            (10, 5, 42525),
            (5, 6, 0),
            (5, 0, 0),
        ],
    )
    def test_known_values(self, n, k, expected):
        assert stirling2(n, k) == expected

    def test_recurrence(self):
        for n in range(2, 10):
            for k in range(1, n):
                assert stirling2(n, k) == (
                    k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
                )

    def test_negative_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            stirling2(-1, 2)


class TestPartitionEnumeration:
    def test_count_matches_stirling(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                count = sum(1 for _ in partitions_into_k(n, k))
                assert count == stirling2(n, k)

    def test_partitions_are_canonical_rgs(self):
        for assignment in partitions_into_k(5, 3):
            assert assignment[0] == 0
            running_max = 0
            for label in assignment[1:]:
                assert label <= running_max + 1
                running_max = max(running_max, label)
            assert set(assignment) == {0, 1, 2}

    def test_partitions_unique(self):
        seen = set()
        for assignment in partitions_into_k(6, 3):
            key = tuple(assignment)
            assert key not in seen
            seen.add(key)

    def test_infeasible(self):
        with pytest.raises(InfeasibleProblemError):
            list(partitions_into_k(3, 4))
        with pytest.raises(InfeasibleProblemError):
            list(partitions_into_k(3, 0))


class TestBruteForce:
    def test_matches_manual_enumeration(self, tiny_db):
        _, cost = brute_force_optimal(tiny_db, 2)
        # Manually verified best 2-way partition of the tiny fixture.
        best = min(
            allocation_cost(allocation)
            for allocation in _all_two_way(tiny_db)
        )
        assert cost == pytest.approx(best)

    def test_dominates_every_heuristic(self):
        db = generate_database(WorkloadSpec(num_items=9, seed=11))
        _, optimal = brute_force_optimal(db, 3)
        heuristic = DRPCDSAllocator().allocate(db, 3)
        assert optimal <= heuristic.cost + 1e-9

    def test_budget_guard(self, medium_db):
        with pytest.raises(SolverLimitError, match="exceeds"):
            brute_force_optimal(medium_db, 10, partition_budget=1000)

    def test_allocator_wrapper(self, tiny_db):
        outcome = BruteForceAllocator().allocate(tiny_db, 2)
        _, cost = brute_force_optimal(tiny_db, 2)
        assert outcome.cost == pytest.approx(cost)
        assert outcome.metadata["searched_partitions"] == stirling2(4, 2)

    def test_infeasible(self, tiny_db):
        with pytest.raises(InfeasibleProblemError):
            brute_force_optimal(tiny_db, 0)


class TestContiguousDP:
    def test_never_worse_than_drp(self, medium_db):
        for k in (2, 4, 6):
            dp = ContiguousDPAllocator().allocate(medium_db, k)
            from repro.core.drp import drp_allocate

            assert dp.cost <= drp_allocate(medium_db, k).cost + 1e-9

    def test_never_better_than_brute_force(self):
        db = generate_database(WorkloadSpec(num_items=10, seed=5))
        _, optimal = brute_force_optimal(db, 3)
        dp = ContiguousDPAllocator().allocate(db, 3)
        assert dp.cost >= optimal - 1e-9

    def test_metadata_cost_matches(self, medium_db):
        outcome = ContiguousDPAllocator().allocate(medium_db, 4)
        assert outcome.metadata["contiguous_cost"] == pytest.approx(
            outcome.cost
        )

    @pytest.mark.parametrize("skewness", [0.0, 0.8, 1.6])
    @pytest.mark.parametrize("diversity", [0.0, 2.0])
    def test_array_path_matches_item_path(self, skewness, diversity):
        """Same id lists and the same ``contiguous_cost``, bit for bit,
        as the DP over ``DataItem`` views in benefit-ratio order — with
        θ=0 and Φ=0 ties and K=N among the instances."""
        for num_items in (1, 2, 5, 12, 40):
            for seed in range(3):
                db = generate_database(
                    WorkloadSpec(
                        num_items=num_items,
                        skewness=skewness,
                        diversity=diversity,
                        seed=seed,
                    )
                )
                ordered = db.sorted_by_benefit_ratio()
                counts = {1, min(2, num_items), min(4, num_items), num_items}
                for k in sorted(counts):
                    boundaries, cost = contiguous_optimal(ordered, k)
                    outcome = ContiguousDPAllocator().allocate(db, k)
                    assert outcome.allocation.as_id_lists() == [
                        [item.item_id for item in ordered[start:stop]]
                        for start, stop in boundaries
                    ]
                    assert outcome.metadata["contiguous_cost"] == cost


def _all_two_way(db):
    """Yield every 2-way allocation of a 4-item database."""
    from repro.core.allocation import ChannelAllocation

    items = db.items
    n = len(items)
    for mask in range(1, 2 ** n - 1):
        left = [items[i] for i in range(n) if mask & (1 << i)]
        right = [items[i] for i in range(n) if not mask & (1 << i)]
        yield ChannelAllocation(db, [left, right])
