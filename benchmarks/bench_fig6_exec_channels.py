"""Figure 6: channel number K vs execution time.

The complexity comparison between DRP-CDS and GOPT as K varies.
Expected shape (paper §4.5): GOPT's execution time dwarfs DRP-CDS's at
every K, and K affects GOPT only mildly (K changes the gene alphabet,
not the chromosome length).

Absolute times differ from the paper's 2005 Java numbers; the relative
shape is the reproduction target (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_report
from repro.core.scheduler import make_allocator
from repro.experiments.figures import figure6
from repro.experiments.runner import run_experiment


def test_figure6_series(benchmark):
    config = figure6()
    result = benchmark.pedantic(
        run_experiment, args=(config,), rounds=1, iterations=1
    )
    save_report("figure6", result.to_text("mean_elapsed_seconds", precision=5))

    # GOPT massively slower at every K (loose factor absorbs timing
    # noise on cold first runs; typical ratios are 34-83x).
    for value in result.sweep_values():
        drpcds = result.cell(value, "drp-cds").mean_elapsed_seconds
        gopt = result.cell(value, "gopt").mean_elapsed_seconds
        assert gopt > 4 * drpcds


@pytest.mark.parametrize("num_channels", [4, 7, 10])
def test_gopt_runtime_vs_channels(benchmark, standard_workload, num_channels):
    allocator = make_allocator("gopt")
    benchmark.pedantic(
        allocator.allocate,
        args=(standard_workload, num_channels),
        rounds=2,
        iterations=1,
    )


@pytest.mark.parametrize("num_channels", [4, 7, 10])
def test_drp_runtime_vs_channels(benchmark, standard_workload, num_channels):
    allocator = make_allocator("drp")
    outcome = benchmark(allocator.allocate, standard_workload, num_channels)
    assert outcome.allocation.num_channels == num_channels
