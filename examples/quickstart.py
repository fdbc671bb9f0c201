"""Quickstart: allocate a synthetic workload and inspect the result.

Run with::

    python examples/quickstart.py

Walks the minimal end-to-end flow: synthesise a broadcast database from
the paper's workload model (Zipf popularity, diverse sizes), run the
paper's DRP-CDS scheduler, compare against the conventional VF^K
baseline, and validate the analytical waiting time with the
broadcast simulator.
"""

from __future__ import annotations

from repro import (
    DRPCDSAllocator,
    WorkloadSpec,
    average_waiting_time,
    generate_database,
)
from repro.analysis.tables import format_table
from repro.baselines import VFKAllocator
from repro.simulation import run_broadcast_simulation


def main() -> None:
    # 1. Build a workload: 100 items, Zipf(0.9) popularity, sizes
    #    spanning three orders of magnitude (diversity 2.5).
    spec = WorkloadSpec(num_items=100, skewness=0.9, diversity=2.5, seed=7)
    database = generate_database(spec)
    print(
        f"database: {len(database)} items, total size "
        f"{database.total_size:.1f} units\n"
    )

    # 2. Allocate to 6 broadcast channels with the paper's scheme.
    num_channels = 6
    drpcds = DRPCDSAllocator().allocate(database, num_channels)
    vfk = VFKAllocator().allocate(database, num_channels)

    rows = []
    for outcome in (vfk, drpcds):
        rows.append(
            (
                outcome.algorithm,
                outcome.cost,
                average_waiting_time(outcome.allocation),
                outcome.elapsed_seconds * 1000,
            )
        )
    print(
        format_table(
            ["algorithm", "cost", "waiting time (s)", "exec (ms)"], rows
        )
    )

    # 3. Inspect the winning allocation: hot/small items share short
    #    channels, cold/large items long ones.
    print("\nDRP-CDS channel layout:")
    for index, stats in enumerate(drpcds.allocation.channel_stats):
        print(
            f"  channel {index}: {stats.count:3d} items, "
            f"F={stats.frequency:.3f}, Z={stats.size:9.1f}, "
            f"cycle={stats.size / 10.0:8.2f}s"
        )

    # 4. Validate the analytical model by simulation.
    report = run_broadcast_simulation(
        drpcds.allocation, num_requests=20000, seed=1
    )
    print(
        f"\nsimulated waiting time: {report.measured.mean:.3f}s "
        f"± {report.measured.ci_halfwidth:.3f} (95% CI)\n"
        f"analytical waiting time: {report.analytical_waiting_time:.3f}s "
        f"(error {report.relative_error * 100:.2f}%)"
    )


if __name__ == "__main__":
    main()
