"""Large-N smoke: the array-resident pipeline at N=10^5 in seconds.

Gated behind ``REPRO_LARGE_SMOKE=1`` so the tier-1 suite's selection
and runtime are unchanged; CI runs it as its own step on every matrix
leg.  The point is not micro-benchmarking — it is that DRP, CDS and
the SMAWK DP *complete* at 10^5 items in seconds-scale wall clock
(an accidental O(N²) slip or per-item object churn would blow the CI
step's budget immediately) while creating zero per-item objects and
keeping the vectorized/scalar SMAWK bitwise parity.
"""

from __future__ import annotations

import os

import pytest

import repro.core.partition as partition
from repro.core.cds import cds_refine
from repro.core.cost import allocation_cost
from repro.core.drp import drp_allocate
from repro.core.item import items_created
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.workloads.generator import WorkloadSpec, generate_database

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_LARGE_SMOKE") != "1",
    reason="large-N smoke runs only with REPRO_LARGE_SMOKE=1 (CI step)",
)

NUM_ITEMS = 100_000
NUM_CHANNELS = 64

#: CI exercises the dirty-pair incremental scan on one matrix leg by
#: exporting ``REPRO_SMOKE_SCAN=incremental``; everywhere else the
#: default "auto" resolves per the crossover (incremental at this tier).
SMOKE_SCAN = os.environ.get("REPRO_SMOKE_SCAN", "auto")


@pytest.fixture(scope="module")
def large_database():
    return generate_database(
        WorkloadSpec(
            num_items=NUM_ITEMS, skewness=0.8, diversity=1.5, seed=7
        )
    )


def test_drp_and_cds_zero_churn(large_database):
    before = items_created()
    allocation = drp_allocate(large_database, NUM_CHANNELS).allocation
    drp_cost = allocation_cost(allocation)
    refined = cds_refine(allocation, max_iterations=3, scan=SMOKE_SCAN)
    assert items_created() == before
    assert refined.cost <= drp_cost
    assert sum(
        len(group) for group in refined.allocation.channel_index_groups
    ) == NUM_ITEMS


def test_incremental_scan_parity_at_scale(large_database):
    """First moves at N=10^5/K=64: incremental == full, far fewer Δc.

    A capped budget keeps the full-scan reference seconds-scale while
    still exercising the dirty-pair refresh path (cold build + two
    apply_move rounds) at a tier where a stale cell would surface.
    """
    allocation = drp_allocate(large_database, NUM_CHANNELS).allocation
    full = cds_refine(allocation, max_iterations=3, scan="full")
    incr = cds_refine(allocation, max_iterations=3, scan="incremental")
    assert [
        (m.item_id, m.origin, m.destination, m.delta, m.cost_after)
        for m in incr.moves
    ] == [
        (m.item_id, m.origin, m.destination, m.delta, m.cost_after)
        for m in full.moves
    ]
    assert incr.cost == full.cost  # bitwise
    assert incr.delta_evaluations < full.delta_evaluations


def test_smawk_parity_at_scale(large_database, monkeypatch):
    """Vectorized vs scalar SMAWK INTERPOLATE at N=10^5: same DP."""
    order = large_database.benefit_ratio_order()
    sums = PrefixSums.from_arrays(
        large_database.frequencies[order], large_database.sizes[order]
    )
    k = 8  # keeps the all-scalar SMAWK reference seconds-scale
    smawk_bounds, smawk_cost = contiguous_optimal(None, k, sums=sums)
    monkeypatch.setattr(partition, "_SMAWK_VECTOR_ROWS", 1 << 40)
    scalar_bounds, scalar_cost = contiguous_optimal(None, k, sums=sums)
    assert smawk_cost == scalar_cost
    assert smawk_bounds == scalar_bounds
    assert len(smawk_bounds) == k
    assert smawk_bounds[0][0] == 0 and smawk_bounds[-1][1] == NUM_ITEMS
