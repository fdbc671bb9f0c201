"""Substrate benchmark: simulator throughput + validation.

Not a paper figure — this measures the request throughput of the
closed-form production simulation and of the event-driven reference it
is held to, and re-validates the analytical model (Eq. 2) against
measured waiting times under benchmark conditions.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from repro.analysis.tables import format_table
from repro.core.scheduler import make_allocator
from repro.simulation.simulator import run_broadcast_simulation
from repro.verify.eventsim import simulate_reference


@pytest.fixture(scope="module")
def allocation(request):
    database = request.getfixturevalue("small_workload")
    return make_allocator("drp-cds").allocate(database, 5).allocation


def test_simulator_throughput(benchmark, allocation):
    report = benchmark.pedantic(
        run_broadcast_simulation,
        args=(allocation,),
        kwargs={"num_requests": 20000, "seed": 0},
        rounds=3,
        iterations=1,
    )
    assert report.num_requests == 20000


def test_reference_throughput(benchmark, allocation):
    report, events = benchmark.pedantic(
        simulate_reference,
        args=(allocation,),
        kwargs={"num_requests": 20000, "seed": 0},
        rounds=3,
        iterations=1,
    )
    assert events == 40000
    assert report == run_broadcast_simulation(
        allocation, num_requests=20000, seed=0
    )


def test_model_validation_report(benchmark, allocation):
    def validate():
        rows = []
        for seed in range(3):
            report = run_broadcast_simulation(
                allocation, num_requests=20000, seed=seed
            )
            rows.append(
                (
                    seed,
                    report.measured.mean,
                    report.analytical_waiting_time,
                    report.relative_error * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(validate, rounds=1, iterations=1)
    report = format_table(
        ["seed", "measured W_b", "analytical W_b", "error %"],
        rows,
        title="DES validation of the Eq. (2) waiting-time model",
    )
    save_report("simulator_validation", report)
    for _, _, _, error in rows:
        assert error < 3.0
