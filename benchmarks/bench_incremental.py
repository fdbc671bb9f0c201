"""Extension bench: warm-start epoch re-allocation vs a cold rebuild.

The warm-start engine
(:class:`repro.core.incremental.IncrementalAllocator`) against a cold
DRP+CDS pipeline across profile drift rates, reported as epochs/sec and
written to ``BENCH_incr.json`` at the repo root.

Run the harness standalone (CI smoke uses ``--items 600 --epochs 2``)::

    python benchmarks/bench_incremental.py [--items 10000] [--epochs 4]
        [--drift-rates 0.001 0.01 0.05] [--output BENCH_incr.json]

or via ``make bench-incr``.  Methodology: one engine holds state across
``--epochs`` drifted profiles per drift rate; every epoch is timed for
the warm engine and for a cold DRP+CDS re-run on the identical drifted
database, and the per-epoch **median** makes the headline epochs/sec.
The drift parameter is the approximate fraction of probability mass
moved per epoch (each frequency is scaled by ``1 ± 4·rate`` uniformly,
then renormalized).  Cost parity is recorded per epoch as
``(warm - cold) / cold``; the guard bounds it by construction.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cds import cds_refine
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.incremental import IncrementalAllocator
from repro.core.item import DataItem
from repro.workloads.generator import WorkloadSpec, generate_database

SCHEMA_VERSION = 1
DEFAULT_ITEMS = 10_000
DEFAULT_CHANNELS = 8
DEFAULT_EPOCHS = 4
DEFAULT_DRIFT_RATES = (0.001, 0.01, 0.05)
DEFAULT_SEED = 7


def _drifted(
    database: BroadcastDatabase, rng: np.random.Generator, rate: float
) -> BroadcastDatabase:
    """Move roughly ``rate`` of the probability mass between items."""
    factors = 1.0 + rng.uniform(-4.0 * rate, 4.0 * rate, size=len(database))
    raw = [
        item.frequency * factor
        for item, factor in zip(database.items, factors)
    ]
    total = sum(raw)
    return BroadcastDatabase(
        [
            DataItem(item.item_id, freq / total, item.size)
            for item, freq in zip(database.items, raw)
        ]
    )


def _median(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def run_benchmarks(
    num_items: int = DEFAULT_ITEMS,
    num_channels: int = DEFAULT_CHANNELS,
    epochs: int = DEFAULT_EPOCHS,
    drift_rates=DEFAULT_DRIFT_RATES,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Time warm vs cold epoch re-allocation; return the BENCH_incr doc."""
    results: List[dict] = []
    base = generate_database(
        WorkloadSpec(
            num_items=num_items, skewness=0.8, diversity=1.5, seed=seed
        )
    )
    for rate in drift_rates:
        rng = np.random.default_rng(seed)
        engine = IncrementalAllocator(num_channels)
        engine.reallocate(base)  # untimed cold start seeds the engine
        warm_samples: List[float] = []
        cold_samples: List[float] = []
        gaps: List[float] = []
        modes: dict = {}
        database = base
        for _ in range(epochs):
            database = _drifted(database, rng, rate)

            start = time.perf_counter()
            warm = engine.reallocate(database)
            warm_samples.append(time.perf_counter() - start)

            start = time.perf_counter()
            rough = drp_allocate(database, num_channels)
            cold = cds_refine(rough.allocation)
            cold_samples.append(time.perf_counter() - start)

            gaps.append((warm.cost - cold.cost) / cold.cost)
            modes[warm.mode] = modes.get(warm.mode, 0) + 1
        warm_s = _median(warm_samples)
        cold_s = _median(cold_samples)
        results.append(
            {
                "drift_rate": rate,
                "n": num_items,
                "k": num_channels,
                "epochs": epochs,
                "warm_seconds_per_epoch": warm_s,
                "cold_seconds_per_epoch": cold_s,
                "warm_epochs_per_second": 1.0 / warm_s if warm_s else None,
                "cold_epochs_per_second": 1.0 / cold_s if cold_s else None,
                "speedup": cold_s / warm_s if warm_s else None,
                "mean_cost_gap_percent": sum(gaps) / len(gaps) * 100,
                "max_cost_gap_percent": max(gaps) * 100,
                "warm_modes": modes,
                "warm_moves_total": engine.stats.warm_moves,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_incremental.py",
        "config": {
            "num_items": num_items,
            "num_channels": num_channels,
            "epochs": epochs,
            "drift_rates": list(drift_rates),
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
    }


def _format_report(document: dict) -> str:
    lines = [
        f"{'drift':>7}  {'warm (s)':>9}  {'cold (s)':>9}  "
        f"{'speedup':>8}  {'gap mean/max (%)':>17}"
    ]
    for row in document["results"]:
        lines.append(
            f"{row['drift_rate']:>7g}  "
            f"{row['warm_seconds_per_epoch']:>9.4f}  "
            f"{row['cold_seconds_per_epoch']:>9.4f}  "
            f"{row['speedup']:>7.1f}x  "
            f"{row['mean_cost_gap_percent']:>8.3f} / "
            f"{row['max_cost_gap_percent']:.3f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=DEFAULT_ITEMS,
        help="catalogue size N (default: 10000)",
    )
    parser.add_argument(
        "--channels", type=int, default=DEFAULT_CHANNELS,
        help="channel count K (default: 8)",
    )
    parser.add_argument(
        "--epochs", type=int, default=DEFAULT_EPOCHS,
        help="drifted epochs timed per drift rate (default: 4)",
    )
    parser.add_argument(
        "--drift-rates", type=float, nargs="+",
        default=list(DEFAULT_DRIFT_RATES),
        help="profile mass moved per epoch (default: 0.001 0.01 0.05)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_incr.json",
        help="where to write the JSON document (default: repo root)",
    )
    options = parser.parse_args(argv)

    document = run_benchmarks(
        num_items=options.items,
        num_channels=options.channels,
        epochs=options.epochs,
        drift_rates=options.drift_rates,
        seed=options.seed,
    )
    options.output.write_text(json.dumps(document, indent=2) + "\n")
    print(_format_report(document))
    print(f"\nwrote {options.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark wrappers (keep `make bench` coverage)
# ----------------------------------------------------------------------
def test_warm_epoch_speedup_smoke(benchmark):
    """Small-N smoke of the BENCH_incr harness: warm beats cold."""
    from benchmarks.conftest import save_report

    document = benchmark.pedantic(
        lambda: run_benchmarks(num_items=2000, epochs=2, drift_rates=(0.01,)),
        rounds=1,
        iterations=1,
    )
    row = document["results"][0]
    assert row["speedup"] and row["speedup"] > 1.0
    assert row["max_cost_gap_percent"] <= 2.0 + 1e-6  # the guard, in %
    save_report("incremental_epochs", _format_report(document))


if __name__ == "__main__":
    raise SystemExit(main())
