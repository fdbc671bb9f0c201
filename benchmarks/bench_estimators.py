"""Extension bench: frequency-estimator accuracy.

How much trace does the server need before an estimated profile yields
a near-truth program?  Sweeps trace length (L1 error should shrink like
1/sqrt(n)) and compares plain counts (``DecayedCounts`` at an infinite
half-life) with decayed counts under drift.
"""

from __future__ import annotations

import math

from benchmarks.conftest import save_report
from repro.analysis.tables import format_table
from repro.core.allocation import ChannelAllocation
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.scheduler import DRPCDSAllocator
from repro.workloads.estimator import DecayedCounts, profile_l1_error
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.trace import synthesize_trace

TRACE_LENGTHS = (200, 1000, 5000, 25000)


def estimate(trace, catalogue, *, half_life=math.inf, smoothing=0.5):
    """Smoothed profile of ``trace`` over ``catalogue`` (item id -> f)."""
    counts = DecayedCounts(catalogue, half_life=half_life)
    counts.add(
        counts.rows([record.item_id for record in trace]),
        [record.timestamp for record in trace],
    )
    return counts.estimate_profile(catalogue, smoothing=smoothing)


def accuracy_sweep():
    database = generate_database(WorkloadSpec(num_items=80, seed=4))
    ids = list(database.item_ids)
    truth = {item.item_id: item.frequency for item in database.items}
    allocator = DRPCDSAllocator()
    truth_cost = allocator.allocate(database, 6).cost
    rows = []
    for length in TRACE_LENGTHS:
        trace = synthesize_trace(database, length, seed=1)
        profile = estimate(trace, ids)
        estimated = BroadcastDatabase.from_soa(
            [profile[item_id] for item_id in ids], database.sizes, ids=ids
        )
        error = profile_l1_error(profile, truth)
        # Allocation built from the estimate, scored under the truth.
        allocation = allocator.allocate(estimated, 6).allocation
        under_truth = allocation_cost(
            ChannelAllocation(
                database,
                [
                    [database[i.item_id] for i in group]
                    for group in allocation.channels
                ],
            )
        )
        rows.append(
            (
                length,
                error,
                under_truth,
                (under_truth - truth_cost) / truth_cost * 100,
            )
        )
    return rows, truth_cost


def test_estimator_accuracy_vs_trace_length(benchmark):
    rows, truth_cost = benchmark.pedantic(
        accuracy_sweep, rounds=1, iterations=1
    )
    report = format_table(
        ["trace length", "L1 error", "cost under truth", "vs oracle (%)"],
        rows,
        title=(
            "Profile estimation: trace length vs allocation quality "
            f"(oracle cost {truth_cost:.3f})"
        ),
        precision=4,
    )
    save_report("estimator_accuracy", report)

    errors = [error for _, error, _, _ in rows]
    assert errors[-1] < errors[0]  # more data, better profile
    # With 25k requests the allocation is within 2% of the oracle.
    assert rows[-1][3] < 2.0


def test_decay_beats_counts_under_drift(benchmark):
    """After a popularity flip, decayed counts track the new regime
    while plain counts stay anchored to history."""
    database = generate_database(WorkloadSpec(num_items=40, seed=5))
    ids = list(database.item_ids)
    old_profile = [item.frequency for item in database.items]
    new_profile = list(reversed(old_profile))  # popularity flipped

    def run():
        from repro.workloads.trace import RequestTrace

        early = synthesize_trace(
            database, 4000, seed=2, probabilities=old_profile
        )
        late = synthesize_trace(
            database, 4000, seed=3, probabilities=new_profile
        )
        merged = RequestTrace()
        for record in early:
            merged.record(record.timestamp, record.item_id)
        offset = merged[len(merged) - 1].timestamp
        for record in late:
            merged.record(offset + record.timestamp, record.item_id)
        truth = dict(zip(ids, new_profile))
        count_est = estimate(merged, ids)
        decay_est = estimate(merged, ids, half_life=offset / 8)
        return (
            profile_l1_error(count_est, truth),
            profile_l1_error(decay_est, truth),
        )

    count_error, decay_error = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    save_report(
        "estimator_drift",
        format_table(
            ["estimator", "L1 error vs post-drift truth"],
            [("count", count_error), ("decay", decay_error)],
            title="Estimators after a popularity flip (same merged trace)",
        ),
    )
    assert decay_error < count_error
