"""Unit tests for the pure invariant checkers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.cost import move_delta
from repro.core.drp import drp_allocate
from repro.verify.invariants import (
    Violation,
    check_allocation_wellformed,
    check_cost_identities,
    check_lower_bounds,
    check_move_delta,
    check_prefix_sums,
)
from repro.verify.invariants import _sampled_ranges


@pytest.fixture
def paper_allocation(paper_db):
    return drp_allocate(paper_db, 5).allocation


class TestViolation:
    def test_to_dict_roundtrip(self):
        violation = Violation(
            check="invariants.example", message="boom", context={"k": 3}
        )
        assert violation.to_dict() == {
            "check": "invariants.example",
            "message": "boom",
            "context": {"k": 3},
        }


class TestWellformed:
    def test_clean_on_valid_allocation(self, paper_allocation):
        assert check_allocation_wellformed(paper_allocation) == []

    def test_flags_empty_channel(self, tiny_db):
        allocation = ChannelAllocation(
            tiny_db,
            [list(tiny_db.items), []],
            allow_empty_channels=True,
        )
        violations = check_allocation_wellformed(allocation)
        assert any("empty" in v.message for v in violations)
        assert check_allocation_wellformed(
            allocation, allow_empty_channels=True
        ) == []

    def test_flags_duplicate_item(self, tiny_db):
        items = tiny_db.items
        # Public construction validates, so build the broken shape
        # through the trusted path the kernels use internally.
        allocation = ChannelAllocation._trusted(
            tiny_db,
            [[items[0], items[1]], [items[1], items[2], items[3]]],
        )
        violations = check_allocation_wellformed(allocation)
        messages = " ".join(v.message for v in violations)
        assert "channels 0 and 1" in messages


class TestCostIdentities:
    def test_clean_on_drp_and_cds_output(self, paper_db):
        drp = drp_allocate(paper_db, 5)
        cds = cds_refine(drp.allocation)
        assert check_cost_identities(drp.allocation) == []
        assert check_cost_identities(cds.allocation) == []

    def test_clean_on_uniform_db(self, uniform_db):
        allocation = drp_allocate(uniform_db, 3).allocation
        assert check_cost_identities(allocation) == []


class TestMoveDelta:
    def test_clean_with_production_delta(self, paper_allocation):
        assert check_move_delta(paper_allocation) == []

    def test_sign_flip_is_caught(self, paper_allocation):
        def flipped(item, **kwargs):
            return -move_delta(item, **kwargs)

        violations = check_move_delta(paper_allocation, delta_fn=flipped)
        assert violations
        assert all(v.check == "invariants.move-delta" for v in violations)

    def test_dropped_term_is_caught(self, paper_allocation):
        def dropped(item, **kwargs):
            # Forget the -2 f z self-interaction term of Eq. (4).
            return move_delta(item, **kwargs) + 2.0 * (
                item.frequency * item.size
            )

        assert check_move_delta(paper_allocation, delta_fn=dropped)

    def test_single_channel_has_no_moves(self, tiny_db):
        allocation = ChannelAllocation(tiny_db, [list(tiny_db.items)])
        assert check_move_delta(allocation) == []


class TestPrefixSums:
    def test_clean_on_paper_items(self, paper_db):
        assert check_prefix_sums(paper_db.sorted_by_benefit_ratio()) == []

    def test_clean_on_empty_and_single(self, tiny_db):
        assert check_prefix_sums([]) == []
        assert check_prefix_sums(tiny_db.items[:1]) == []

    @pytest.mark.parametrize("n", [1, 22, 23, 2000])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_sampled_ranges_match_the_full_list(self, n, seeded):
        """The sample drawn from the population size picks the ranges
        the same draws picked from the full ``n(n+1)/2`` list."""
        ranges = [
            (start, stop)
            for start in range(n)
            for stop in range(start + 1, n + 1)
        ]
        if len(ranges) > 256:
            if seeded:
                draws = np.random.default_rng(n).choice(
                    len(ranges), size=256, replace=False
                )
            else:
                draws = random.Random(0).sample(range(len(ranges)), 256)
            ranges = [ranges[i] for i in sorted(int(i) for i in draws)]
        rng = np.random.default_rng(n) if seeded else None
        assert _sampled_ranges(n, 256, rng) == ranges


class TestLowerBounds:
    def test_clean_on_paper_database(self, paper_db):
        assert check_lower_bounds(paper_db, 5) == []

    def test_clean_on_medium_db(self, medium_db):
        assert check_lower_bounds(medium_db, 4) == []

    def test_infeasible_channel_count_is_vacuous(self, tiny_db):
        assert check_lower_bounds(tiny_db, 99) == []
