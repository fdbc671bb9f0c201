"""Extension bench: adaptive re-allocation under popularity drift.

Times one adaptation epoch (estimate + re-allocate) and quantifies the
waiting-time advantage of adapting versus a frozen program — the
operational payoff of DRP-CDS being cheap (paper §4.5): a server can
afford to regenerate the program whenever the profile moves.
"""

from __future__ import annotations

import math

from benchmarks.conftest import save_report
from repro.analysis.tables import format_table
from repro.core.database import BroadcastDatabase
from repro.core.scheduler import DRPCDSAllocator
from repro.simulation.adaptive import RotatingDrift, run_adaptive_simulation
from repro.workloads.estimator import DecayedCounts
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.trace import synthesize_trace


def test_adaptive_vs_static(benchmark):
    database = generate_database(
        WorkloadSpec(num_items=60, skewness=1.2, diversity=1.8, seed=13)
    )
    drift = RotatingDrift(
        [item.frequency for item in database.items], shift_per_epoch=12
    )
    common = dict(
        num_channels=6,
        epochs=5,
        requests_per_epoch=3000,
        drift=drift,
        seed=2,
    )

    def run_both():
        adaptive = run_adaptive_simulation(database, adapt=True, **common)
        static = run_adaptive_simulation(database, adapt=False, **common)
        return adaptive, static

    adaptive, static = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        (a.epoch, s.measured.mean, a.measured.mean)
        for a, s in zip(adaptive, static)
    ]
    report = format_table(
        ["epoch", "static wait (s)", "adaptive wait (s)"],
        rows,
        title="Adaptive re-allocation under rank-rotation drift",
        precision=3,
    )
    save_report("adaptive_vs_static", report)

    # Averaged over the drifted epochs, adapting must win.
    static_mean = sum(r.measured.mean for r in static[1:]) / (len(static) - 1)
    adaptive_mean = sum(r.measured.mean for r in adaptive[1:]) / (
        len(adaptive) - 1
    )
    assert adaptive_mean < static_mean


def test_adaptation_step_runtime(benchmark):
    """One full adaptation step: estimate from 4k requests + re-allocate."""
    database = generate_database(WorkloadSpec(num_items=120, seed=7))
    ids = list(database.item_ids)
    trace = synthesize_trace(database, 4000, seed=1)
    requested = [record.item_id for record in trace]
    timestamps = [record.timestamp for record in trace]
    allocator = DRPCDSAllocator()

    def adapt_once():
        counts = DecayedCounts(ids, half_life=math.inf)
        counts.add(counts.rows(requested), timestamps)
        profile = counts.estimate_profile(ids)
        estimated = BroadcastDatabase.from_soa(
            [profile[item_id] for item_id in ids], database.sizes, ids=ids
        )
        return allocator.allocate(estimated, 7)

    outcome = benchmark(adapt_once)
    assert outcome.allocation.num_channels == 7
