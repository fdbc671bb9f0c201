"""Scenario: validate and stress the broadcast program in simulation.

Run with::

    python examples/simulate_broadcast.py

Exercises the simulation substrate beyond the analytical model's
assumptions:

1. validates Eq. (2) under the matched Poisson workload,
2. measures tail behaviour (max waits) the expectation hides,
3. studies *profile mismatch* — what happens when the clients' actual
   interests drift from the access profile the program was built for.
"""

from __future__ import annotations

import numpy as np

from repro import DRPCDSAllocator, WorkloadSpec, generate_database
from repro.analysis.tables import format_table
from repro.simulation import run_broadcast_simulation


def main() -> None:
    database = generate_database(
        WorkloadSpec(num_items=80, skewness=1.0, diversity=2.0, seed=3)
    )
    allocation = DRPCDSAllocator().allocate(database, 6).allocation

    # 1. Matched workload: measurement vs model.
    report = run_broadcast_simulation(
        allocation, num_requests=40000, seed=0
    )
    print("matched workload (requests follow the optimised profile):")
    print(
        f"  measured  {report.measured.mean:.3f}s "
        f"± {report.measured.ci_halfwidth:.3f}\n"
        f"  analytical {report.analytical_waiting_time:.3f}s "
        f"(error {report.relative_error * 100:.2f}%)"
    )

    # 2. Tails: the mean hides how long unlucky clients wait.
    print(
        f"  worst observed wait: {report.measured.maximum:.1f}s "
        f"({report.measured.maximum / report.measured.mean:.1f}x the mean)"
    )
    hottest = database.sorted_by_frequency()[0]
    coldest = database.sorted_by_frequency()[-1]
    for label, item in (("hottest", hottest), ("coldest", coldest)):
        stats = report.per_item.get(item.item_id)
        if stats:
            print(
                f"  {label} item {item.item_id}: mean {stats.mean:.2f}s "
                f"over {stats.count} requests"
            )

    # 3. Profile mismatch: blend the true profile with uniform noise.
    print("\nprofile mismatch (clients drift away from the profile):")
    frequencies = np.array([item.frequency for item in database.items])
    uniform = np.full(len(database), 1.0 / len(database))
    rows = []
    for drift in (0.0, 0.25, 0.5, 1.0):
        blended = (1 - drift) * frequencies + drift * uniform
        drifted = run_broadcast_simulation(
            allocation,
            num_requests=40000,
            seed=0,
            request_probabilities=blended.tolist(),
        )
        rows.append(
            (
                f"{drift:.0%}",
                drifted.measured.mean,
                (drifted.measured.mean - report.analytical_waiting_time)
                / report.analytical_waiting_time
                * 100,
            )
        )
    print(
        format_table(
            ["drift toward uniform", "measured wait (s)", "vs plan (%)"],
            rows,
            precision=2,
        )
    )
    print(
        "\nthe program degrades gracefully: even a fully uniform request\n"
        "mix only raises waits by the amount shown in the last row —\n"
        "re-run the allocator on fresh profile estimates to recover."
    )


if __name__ == "__main__":
    main()
