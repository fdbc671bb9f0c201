"""Figure 7: number of broadcast items N vs execution time.

Expected shape (paper §4.5): GOPT's execution time grows markedly with
N (longer chromosomes mean more work per generation *and* a larger
search space), and is more sensitive to N than to K; DRP-CDS stays
orders of magnitude cheaper throughout.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from repro.core.scheduler import make_allocator
from repro.experiments.figures import figure7
from repro.experiments.runner import run_experiment


def test_figure7_series(benchmark):
    config = figure7()
    result = benchmark.pedantic(
        run_experiment, args=(config,), rounds=1, iterations=1
    )
    save_report("figure7", result.to_text("mean_elapsed_seconds", precision=5))

    values = result.sweep_values()
    # GOPT massively slower at every N (loose factor absorbs timing
    # noise on cold first runs; typical ratios are 30-65x).
    for value in values:
        drpcds = result.cell(value, "drp-cds").mean_elapsed_seconds
        gopt = result.cell(value, "gopt").mean_elapsed_seconds
        assert gopt > 4 * drpcds
    # GOPT's time grows with N.
    gopt_series = result.series("gopt", "mean_elapsed_seconds")
    assert gopt_series[-1][1] > gopt_series[0][1]


def test_gopt_n_sensitivity_exceeds_k_sensitivity(benchmark, small_workload, large_workload):
    """The paper's observation: N drives GOPT's cost more than K.

    Compare tripling N (60 -> 180 at K = 7) against more than doubling
    K (4 -> 10 at N = 120): the N ratio must exceed the K ratio.
    """
    import time

    allocator = make_allocator("gopt")

    def measure(database, channels):
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            allocator.allocate(database, channels)
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[1]  # median of three absorbs timing noise

    def experiment():
        n_ratio = measure(large_workload, 7) / measure(small_workload, 7)
        from repro.workloads.generator import WorkloadSpec, generate_database

        mid = generate_database(WorkloadSpec(num_items=120, seed=99))
        k_ratio = measure(mid, 10) / measure(mid, 4)
        return n_ratio, k_ratio

    n_ratio, k_ratio = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert n_ratio > k_ratio


@pytest.mark.parametrize(
    "fixture", ["small_workload", "standard_workload", "large_workload"]
)
def test_gopt_runtime_vs_items(benchmark, request, fixture):
    database = request.getfixturevalue(fixture)
    allocator = make_allocator("gopt")
    benchmark.pedantic(
        allocator.allocate, args=(database, 7), rounds=2, iterations=1
    )
