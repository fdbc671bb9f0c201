"""Reproducible perf harness for the vectorized hot-path kernels.

Times the production numpy kernels of the cost-model hot paths — CDS
refinement, DRP allocation (and its split scan) and the contiguous DP —
against the scalar references in :mod:`repro.verify.reference`, and
writes ``BENCH_core.json`` at the repository root so successive PRs
accumulate a perf trajectory.

Run standalone (CI smoke run uses ``--sizes 100``)::

    python benchmarks/bench_kernels.py [--sizes 100 1000 10000]
                                       [--output BENCH_core.json]

or via ``make bench-kernels``.  A pytest-benchmark smoke wrapper at the
bottom keeps the kernel comparison in the ``make bench`` record.

Methodology: every (kernel, N) cell reports the median of ``--repeats``
runs.  CDS is timed for a fixed move budget from a deliberately bad
contiguous seed built through the trusted index-group constructor, so
seeding a million-item run materialises zero per-item objects; it is
timed twice — ``scan="full"`` and ``scan="incremental"`` — with an
in-run assert that both modes executed the identical move sequence,
and each row records the *measured* Δc evaluation count
(``delta_evaluations_measured``), its per-move rate and the
``per_move_reduction`` the dirty-pair index achieves.  DRP has no
scalar twin: its row times the production allocation, and a separate
``best_split`` row times the scalar reference split scan against the
vectorized one over the whole ordered catalogue (the range DRP splits
first).  The contiguous DP cell times SMAWK on the structure-of-arrays
prefix sums against the quadratic reference DP and cross-checks the
cost (schema v4).  Scalar references are skipped above
``--scalar-limit`` items and the quadratic DP above
``--dp-oracle-limit`` — O(K·N²) in pure Python is minutes at N=10k —
with the skip recorded in the JSON rather than silently dropped.

Memory: each cell reports ``items_materialized`` (the
:func:`repro.core.item.items_created` delta across its timed runs —
the SoA zero-churn guarantee, asserted at large N), the process peak
RSS high-watermark after the cell, and — below
``--memory-profile-limit`` items — a ``tracemalloc`` peak for one
extra instrumented run of the vectorized path (tracemalloc slows the
run several-fold, so it is never sampled during timing).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.drp import drp_allocate
from repro.core.item import items_created
from repro.core.partition import PrefixSums, best_split_in, contiguous_optimal
from repro.verify.reference import (
    best_split_reference,
    cds_refine_reference,
    contiguous_quadratic,
)
from repro.workloads.generator import WorkloadSpec, generate_database

SCHEMA_VERSION = 4
DEFAULT_SIZES = (100, 1000, 10000)
DEFAULT_CHANNELS = 8
DEFAULT_CDS_ITERATIONS = 10
DEFAULT_REPEATS = 3
DEFAULT_DP_ORACLE_LIMIT = 2000
DEFAULT_SCALAR_LIMIT = 20_000
DEFAULT_MEMORY_PROFILE_LIMIT = 200_000
DEFAULT_SEED = 7


def _median_seconds(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def _median_seconds_with_result(function, repeats: int):
    """Like :func:`_median_seconds` but also hands back the last result,
    so correctness cross-checks don't need an extra untimed run (the DP
    at N=10^6 costs minutes per invocation)."""
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2], result


def _tracemalloc_peak(function) -> int:
    """Peak traced allocation (bytes) of one instrumented run."""
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_rss_kb() -> int:
    """Process peak RSS high-watermark in KiB (monotone over the run)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _contiguous_seed(database, num_channels: int) -> ChannelAllocation:
    """A deliberately bad catalogue-order chunking: plenty of CDS moves.

    Built from index groups through the trusted constructor — no
    per-item objects even at a million items.
    """
    n = len(database)
    size = max(1, n // num_channels)
    groups = [
        np.arange(i * size, (i + 1) * size)
        for i in range(num_channels - 1)
    ]
    groups.append(np.arange((num_channels - 1) * size, n))
    return ChannelAllocation._from_index_groups(database, groups)


def _speedup(python_seconds: Optional[float], numpy_seconds: Optional[float]):
    if not python_seconds or not numpy_seconds:
        return None
    return python_seconds / numpy_seconds


def run_benchmarks(
    sizes=DEFAULT_SIZES,
    num_channels=DEFAULT_CHANNELS,
    cds_iterations: int = DEFAULT_CDS_ITERATIONS,
    repeats: int = DEFAULT_REPEATS,
    dp_oracle_limit: int = DEFAULT_DP_ORACLE_LIMIT,
    scalar_limit: int = DEFAULT_SCALAR_LIMIT,
    memory_profile_limit: int = DEFAULT_MEMORY_PROFILE_LIMIT,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Time every kernel at every size; return the BENCH_core document.

    ``num_channels`` is either one K for every size or a sequence
    aligned with ``sizes`` — the large-N tier runs at K in the
    hundreds while the historical small tiers stay at K=8.
    """
    if isinstance(num_channels, int):
        channels_per_size = [num_channels] * len(sizes)
    else:
        channels_per_size = list(num_channels)
        if len(channels_per_size) == 1:
            channels_per_size *= len(sizes)
        if len(channels_per_size) != len(sizes):
            raise ValueError(
                f"--channels takes one K or one per size: got "
                f"{len(channels_per_size)} for {len(sizes)} sizes"
            )
    results: List[dict] = []
    for n, size_channels in zip(sizes, channels_per_size):
        k = min(size_channels, n)
        database = generate_database(
            WorkloadSpec(num_items=n, skewness=0.8, diversity=1.5, seed=seed)
        )
        time_scalar = n <= scalar_limit
        profile_memory = n <= memory_profile_limit
        skip_note = (
            f"scalar reference skipped above N={scalar_limit}"
            if not time_scalar
            else None
        )

        # --- CDS: fixed move budget from a bad seed, both scan modes -
        cds_seed = _contiguous_seed(database, k)
        created_before = items_created()
        numpy_s, vector = _median_seconds_with_result(
            lambda: cds_refine(
                cds_seed,
                max_iterations=cds_iterations,
                scan="full",
            ),
            repeats,
        )
        full_materialized = items_created() - created_before
        created_before = items_created()
        incremental_s, incremental = _median_seconds_with_result(
            lambda: cds_refine(
                cds_seed,
                max_iterations=cds_iterations,
                scan="incremental",
            ),
            repeats,
        )
        incremental_materialized = items_created() - created_before
        # The dirty-pair index must execute the identical move sequence.
        assert incremental.moves == vector.moves, "scan modes diverged — bug"
        assert incremental.cost == vector.cost, "scan modes diverged — bug"
        python_s = None
        if time_scalar:
            python_s, scalar = _median_seconds_with_result(
                lambda: cds_refine_reference(
                    cds_seed, max_iterations=cds_iterations
                ),
                repeats,
            )
            assert scalar.moves == vector.moves, "reference diverged — bug"

        def _per_move(result) -> Optional[float]:
            if not result.moves:
                return None
            if result.scan_mode == "incremental":
                # Charge the cold index build (one full-scan equivalent)
                # to setup, not to the moves it precedes.
                build = len(database) * (k - 1)
                return (result.delta_evaluations - build) / len(result.moves)
            scans = len(result.moves) + (1 if result.converged else 0)
            return result.delta_evaluations / max(1, scans)

        full_per_move = _per_move(vector)
        incremental_per_move = _per_move(incremental)
        for scan_mode, seconds, result, materialized in (
            ("full", numpy_s, vector, full_materialized),
            ("incremental", incremental_s, incremental,
             incremental_materialized),
        ):
            row = {
                "kernel": "cds_refine",
                "n": n,
                "k": k,
                "scan_mode": scan_mode,
                "iterations": len(result.moves),
                "python_seconds": python_s if scan_mode == "full" else None,
                "numpy_seconds": seconds,
                "speedup": (
                    _speedup(python_s, seconds)
                    if scan_mode == "full"
                    else None
                ),
                "speedup_vs_full_scan": (
                    _speedup(numpy_s, seconds)
                    if scan_mode == "incremental"
                    else None
                ),
                "delta_evaluations_measured": result.delta_evaluations,
                "full_scan_equivalent": result.full_scan_equivalent,
                "delta_evaluations_per_move": _per_move(result),
                "per_move_reduction": (
                    full_per_move / incremental_per_move
                    if scan_mode == "incremental"
                    and full_per_move
                    and incremental_per_move
                    else None
                ),
                "items_materialized": materialized,
                "tracemalloc_peak_bytes": (
                    _tracemalloc_peak(
                        lambda: cds_refine(
                            cds_seed,
                            max_iterations=cds_iterations,
                            scan=scan_mode,
                        )
                    )
                    if profile_memory
                    else None
                ),
                "peak_rss_kb": _peak_rss_kb(),
            }
            if skip_note:
                row["note"] = skip_note
            results.append(row)

        # --- DRP: full allocation, split-heavy policy ----------------
        created_before = items_created()
        numpy_s = _median_seconds(
            lambda: drp_allocate(database, k, split_policy="max-reduction"),
            repeats,
        )
        materialized = items_created() - created_before
        results.append({
            "kernel": "drp_allocate",
            "n": n,
            "k": k,
            "python_seconds": None,
            "numpy_seconds": numpy_s,
            "speedup": None,
            "items_materialized": materialized,
            "tracemalloc_peak_bytes": (
                _tracemalloc_peak(
                    lambda: drp_allocate(
                        database, k, split_policy="max-reduction"
                    )
                )
                if profile_memory
                else None
            ),
            "peak_rss_kb": _peak_rss_kb(),
        })

        # The DP and the split scan time the same structure-of-arrays
        # prefix sums; building them is a one-off O(N) cumsum kept
        # outside the timed region.
        order = database.benefit_ratio_order()
        sums = PrefixSums.from_arrays(
            database.frequencies[order], database.sizes[order]
        )

        # --- Split scan: DRP's first split, reference vs kernel ------
        numpy_s, split = _median_seconds_with_result(
            lambda: best_split_in(sums, 0, n), repeats
        )
        python_s = None
        if time_scalar:
            python_s, scalar_split = _median_seconds_with_result(
                lambda: best_split_reference(sums, 0, n), repeats
            )
            assert scalar_split == split, "reference diverged — bug"
        row = {
            "kernel": "best_split",
            "n": n,
            "k": k,
            "python_seconds": python_s,
            "numpy_seconds": numpy_s,
            "speedup": _speedup(python_s, numpy_s),
        }
        if skip_note:
            row["note"] = skip_note
        results.append(row)

        # --- Contiguous DP: SMAWK vs the quadratic reference ---------
        row = {"kernel": "contiguous_dp", "n": n, "k": k}
        smawk_s, (_, smawk_cost) = _median_seconds_with_result(
            lambda: contiguous_optimal(None, k, sums=sums),
            repeats,
        )
        row["smawk_seconds"] = smawk_s
        if n <= dp_oracle_limit:
            quad_s, (_, quad_cost) = _median_seconds_with_result(
                lambda: contiguous_quadratic(sums, k),
                max(1, repeats if n <= 200 else 1),
            )
            assert quad_cost == smawk_cost, "DP reference diverged — bug"
            row["quadratic_seconds"] = quad_s
            row["speedup"] = _speedup(quad_s, smawk_s)
        else:
            row["quadratic_seconds"] = None
            row["speedup"] = None
            row["note"] = (
                f"quadratic reference skipped above N={dp_oracle_limit} "
                "(O(K*N^2) in pure Python)"
            )
        row["tracemalloc_peak_bytes"] = (
            _tracemalloc_peak(
                lambda: contiguous_optimal(None, k, sums=sums)
            )
            if profile_memory
            else None
        )
        row["peak_rss_kb"] = _peak_rss_kb()
        results.append(row)

    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_kernels.py",
        "config": {
            "sizes": list(sizes),
            "num_channels": channels_per_size,
            "cds_iterations": cds_iterations,
            "repeats": repeats,
            "dp_oracle_limit": dp_oracle_limit,
            "scalar_limit": scalar_limit,
            "memory_profile_limit": memory_profile_limit,
            "seed": seed,
            "cds_scan_modes": ["full", "incremental"],
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "memory_notes": (
                "peak_rss_kb is the process high-watermark (monotone "
                "across rows); tracemalloc_peak_bytes instruments one "
                "extra vectorized run and is null above "
                "memory_profile_limit"
            ),
        },
        "results": results,
    }


def _format_report(document: dict) -> str:
    lines = [
        f"{'kernel':<21} {'N':>8} {'K':>4}  "
        f"{'scalar (s)':>10}  {'kernel (s)':>10}  {'speedup':>8}"
    ]
    for row in document["results"]:
        label = row["kernel"]
        if row["kernel"] == "contiguous_dp":
            base = row.get("quadratic_seconds")
            fast = row.get("smawk_seconds")
            speedup = row.get("speedup")
        elif row.get("scan_mode") == "incremental":
            label = f"{row['kernel']}/incr"
            base = None  # the full-scan row above is the baseline
            fast = row.get("numpy_seconds")
            speedup = row.get("speedup_vs_full_scan")
        else:
            base = row.get("python_seconds")
            fast = row.get("numpy_seconds")
            speedup = row.get("speedup")
        base_text = f"{base:>10.4f}" if base is not None else f"{'—':>10}"
        speed_text = f"{speedup:>7.1f}x" if speedup else f"{'—':>8}"
        lines.append(
            f"{label:<21} {row['n']:>8} {row['k']:>4}  "
            f"{base_text}  {fast:>10.4f}  {speed_text}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="catalogue sizes N to benchmark (default: 100 1000 10000)",
    )
    parser.add_argument(
        "--channels", type=int, nargs="+", default=[DEFAULT_CHANNELS],
        help="channel count K — one value for every size, or one per "
             "size (default: 8)",
    )
    parser.add_argument(
        "--cds-iterations", type=int, default=DEFAULT_CDS_ITERATIONS,
        help="CDS move budget per timed run (default: 10)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="timed repeats per cell; the median is reported (default: 3)",
    )
    parser.add_argument(
        "--dp-oracle-limit", type=int, default=DEFAULT_DP_ORACLE_LIMIT,
        help="largest N the quadratic reference DP is timed at "
             "(default: 2000)",
    )
    parser.add_argument(
        "--scalar-limit", type=int, default=DEFAULT_SCALAR_LIMIT,
        help="largest N the pure-Python references are timed at "
             "(default: 20000)",
    )
    parser.add_argument(
        "--memory-profile-limit", type=int,
        default=DEFAULT_MEMORY_PROFILE_LIMIT,
        help="largest N given an extra tracemalloc-instrumented run "
             "(default: 200000)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_core.json",
        help="where to write the JSON document (default: repo root)",
    )
    options = parser.parse_args(argv)

    document = run_benchmarks(
        sizes=options.sizes,
        num_channels=options.channels,
        cds_iterations=options.cds_iterations,
        repeats=options.repeats,
        dp_oracle_limit=options.dp_oracle_limit,
        scalar_limit=options.scalar_limit,
        memory_profile_limit=options.memory_profile_limit,
        seed=options.seed,
    )
    options.output.write_text(json.dumps(document, indent=2) + "\n")
    print(_format_report(document))
    print(f"\nwrote {options.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark smoke wrapper (keeps `make bench` coverage)
# ----------------------------------------------------------------------
def test_kernel_speedups_smoke(benchmark):
    from benchmarks.conftest import save_report

    document = benchmark.pedantic(
        lambda: run_benchmarks(sizes=(100, 1000), repeats=1),
        rounds=1,
        iterations=1,
    )
    for row in document["results"]:
        if row["kernel"] == "cds_refine" and row["n"] >= 1000:
            assert row["items_materialized"] == 0
            if row["scan_mode"] == "full":
                assert row["speedup"] and row["speedup"] > 1.0
            else:
                # The dirty-pair index must pay fewer Δc evaluations
                # per move than a full rescan, even at K=8.
                assert row["per_move_reduction"] and (
                    row["per_move_reduction"] > 1.0
                )
    save_report("kernels", _format_report(document))


if __name__ == "__main__":
    raise SystemExit(main())
