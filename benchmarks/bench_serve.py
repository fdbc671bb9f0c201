"""Live-service bench: sketch-based serving vs the exact-counter oracle.

Measures the ``repro serve`` ingestion loop end to end — request
serving, sketch updates, epoch re-estimation, warm re-allocation and
cycle-aligned handover — on a generated drifting stream, once with the
count-min estimator and once with the exact-counter oracle baseline.
Headlines are **ingested requests/second** and **epochs/second**, plus
the sketch's final-epoch allocation-cost ratio against the oracle
(bounded by the 1.02x regression guard in the end-to-end tests) and the
estimator state sizes (the sketch's O(width x depth) vs the oracle's
O(items)).

Run standalone (CI smoke uses ``--requests-per-epoch 300 --epochs 4``)::

    python benchmarks/bench_serve.py [--items 2000] [--epochs 12]
        [--requests-per-epoch 3000] [--output BENCH_serve.json]

or via ``make bench-serve``.  Timings are medians over ``--repeats``
full service runs; both estimator modes consume the identical
pre-materialised stream.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parents[1]

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cost import cost_under_profile
from repro.service import BroadcastService, drifting_stream
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.sketch import CountMinSketch

SCHEMA_VERSION = 1
DEFAULT_ITEMS = 2_000
DEFAULT_CHANNELS = 8
DEFAULT_EPOCHS = 12
DEFAULT_REQUESTS_PER_EPOCH = 3_000
# Long enough that the major broadcast cycle of a 2000-item programme
# fits inside one epoch, so every staged re-allocation actually promotes
# (handovers ~ epochs) instead of being replaced while pending.
DEFAULT_EPOCH_SECONDS = 600.0
DEFAULT_WIDTH = 1024
DEFAULT_DEPTH = 4
DEFAULT_REPEATS = 3
DEFAULT_SEED = 7


def _median(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _run_once(sizes, database, records, *, channels, epoch_seconds, sketch):
    service = BroadcastService(
        sizes,
        channels,
        epoch_seconds=epoch_seconds,
        sketch=sketch,
        initial_database=database,
    )
    start = time.perf_counter()
    reports = service.run(iter(records))
    elapsed = time.perf_counter() - start
    return service, reports, elapsed


def run_benchmarks(
    num_items: int = DEFAULT_ITEMS,
    num_channels: int = DEFAULT_CHANNELS,
    epochs: int = DEFAULT_EPOCHS,
    requests_per_epoch: int = DEFAULT_REQUESTS_PER_EPOCH,
    epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
    sketch_width: int = DEFAULT_WIDTH,
    sketch_depth: int = DEFAULT_DEPTH,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Time sketch vs exact-oracle service runs; return the BENCH doc."""
    database = generate_database(
        WorkloadSpec(num_items=num_items, skewness=1.2, seed=seed)
    )
    sizes = {item.item_id: item.size for item in database.items}
    half_life = 2.0 * epoch_seconds
    records = list(
        drifting_stream(
            database,
            epochs=epochs,
            requests_per_epoch=requests_per_epoch,
            epoch_seconds=epoch_seconds,
            seed=seed,
        )
    )
    variants = {
        "sketch": lambda: CountMinSketch(
            sketch_width, sketch_depth, half_life=half_life
        ),
        "exact": lambda: CountMinSketch(1, 1, half_life=half_life, exact=True),
    }
    rows = {}
    finals = {}
    for name, make_sketch in variants.items():
        samples: List[float] = []
        service = reports = None
        for _ in range(repeats):
            service, reports, elapsed = _run_once(
                sizes,
                database,
                records,
                channels=num_channels,
                epoch_seconds=epoch_seconds,
                sketch=make_sketch(),
            )
            samples.append(elapsed)
        seconds = _median(samples)
        rows[name] = {
            "estimator": name,
            "n": num_items,
            "k": num_channels,
            "epochs": len(reports),
            "requests": len(records),
            "seconds": seconds,
            "requests_per_second": len(records) / seconds,
            "epochs_per_second": len(reports) / seconds,
            "handovers": len(service.live.handovers),
            "estimator_state": service.sketch.state_size,
            "modes": _mode_counts(reports),
        }
        finals[name] = service
    # Judge both final allocations under the oracle's exact belief —
    # the same yardstick as tests/test_serve.py.
    truth = finals["exact"].profile()
    ids, frequencies = list(truth), list(truth.values())
    sketch_cost = cost_under_profile(
        finals["sketch"].live.allocation, ids, frequencies
    )
    oracle_cost = cost_under_profile(
        finals["exact"].live.allocation, ids, frequencies
    )
    results = [rows["sketch"], rows["exact"]]
    results[0]["final_cost_ratio_vs_exact"] = sketch_cost / oracle_cost
    results[0]["state_ratio_vs_exact"] = (
        rows["sketch"]["estimator_state"] / rows["exact"]["estimator_state"]
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_serve.py",
        "config": {
            "num_items": num_items,
            "num_channels": num_channels,
            "epochs": epochs,
            "requests_per_epoch": requests_per_epoch,
            "epoch_seconds": epoch_seconds,
            "sketch_width": sketch_width,
            "sketch_depth": sketch_depth,
            "repeats": repeats,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "results": results,
    }


def _mode_counts(reports) -> dict:
    modes: dict = {}
    for report in reports:
        modes[report.allocation_mode] = modes.get(report.allocation_mode, 0) + 1
    return modes


def _format_report(document: dict) -> str:
    lines = [
        f"{'estimator':>9}  {'req/s':>10}  {'epochs/s':>9}  "
        f"{'state':>9}  {'handovers':>9}"
    ]
    for row in document["results"]:
        lines.append(
            f"{row['estimator']:>9}  "
            f"{row['requests_per_second']:>10.0f}  "
            f"{row['epochs_per_second']:>9.2f}  "
            f"{row['estimator_state']:>9}  "
            f"{row['handovers']:>9}"
        )
    sketch_row = document["results"][0]
    lines.append(
        f"final cost ratio vs exact oracle: "
        f"{sketch_row['final_cost_ratio_vs_exact']:.4f} "
        f"(state {sketch_row['state_ratio_vs_exact']:.2f}x of exact)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--items", type=int, default=DEFAULT_ITEMS,
        help="catalogue size N (default: 2000)",
    )
    parser.add_argument(
        "--channels", type=int, default=DEFAULT_CHANNELS,
        help="channel count K (default: 8)",
    )
    parser.add_argument(
        "--epochs", type=int, default=DEFAULT_EPOCHS,
        help="stream length in epochs (default: 12)",
    )
    parser.add_argument(
        "--requests-per-epoch", type=int, default=DEFAULT_REQUESTS_PER_EPOCH,
        help="request volume per epoch (default: 3000)",
    )
    parser.add_argument(
        "--sketch-width", type=int, default=DEFAULT_WIDTH,
        help="count-min width (default: 1024)",
    )
    parser.add_argument(
        "--sketch-depth", type=int, default=DEFAULT_DEPTH,
        help="count-min depth (default: 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="timed service runs per estimator; median wins (default: 3)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_serve.json",
        help="where to write the JSON document (default: repo root)",
    )
    options = parser.parse_args(argv)

    document = run_benchmarks(
        num_items=options.items,
        num_channels=options.channels,
        epochs=options.epochs,
        requests_per_epoch=options.requests_per_epoch,
        sketch_width=options.sketch_width,
        sketch_depth=options.sketch_depth,
        repeats=options.repeats,
        seed=options.seed,
    )
    options.output.write_text(json.dumps(document, indent=2) + "\n")
    print(_format_report(document))
    print(f"\nwrote {options.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark wrappers (keep `make bench` coverage)
# ----------------------------------------------------------------------
def test_serve_ingest_smoke(benchmark):
    """Small smoke of the BENCH_serve harness: sketch serving works and
    stays within the regression guard of the exact oracle."""
    from benchmarks.conftest import save_report

    document = benchmark.pedantic(
        lambda: run_benchmarks(
            num_items=300,
            epochs=4,
            requests_per_epoch=400,
            repeats=1,
        ),
        rounds=1,
        iterations=1,
    )
    sketch_row = document["results"][0]
    assert sketch_row["requests_per_second"] > 0
    assert sketch_row["final_cost_ratio_vs_exact"] <= 1.02 + 1e-9
    save_report("serve_ingest", _format_report(document))


if __name__ == "__main__":
    raise SystemExit(main())
