"""End-to-end benchmark of the serve pipeline and the paper sweep.

Run from the repository root::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` says why each exists;
``perfbench/workloads.json`` records each one's reference seed, a
holdout seed for later claims, what each end-to-end metric means on
each workload, and which end-to-end metric each per-layer metric
should move):

* ``serve-steady``: N=2000, K=8, stationary profile, 10 epochs of 100k
  requests replayed from JSONL; the request path dominates.
* ``serve-drift``: N=5000, K=8, profile rotated 50 ranks per epoch,
  8 epochs of 10k requests; warm re-allocation dominates.
* ``paper-sweep``: the Figure 2-5 configs run serially, 480 cells.

``--trace 0`` runs as many untraced passes as fit in ``--seconds`` (at
least one) and reports the end-to-end metrics.  Timings are rescaled to
a host of fixed speed by a reference loop run between the pieces of
work they time (``perfbench/reference.py``); the unscaled throughput is
printed too.  ``peak_rss_mb`` is the peak RSS of the first timed pass
over the RSS once inputs are built.  ``--trace 1`` runs one untraced
pass, then one pass with each layer's public functions wrapped
(``perfbench/layers.py``), and reports the per-layer ledger; the
tracing overhead is the traced minus the untraced unscaled throughput.
Either way every metric is printed by name with its unit, then the
output-check verdict; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import reference
from ledger import Ledger

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("serve-steady", "serve-drift", "paper-sweep")

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "alloc_mean_ms": "ms",
    "wait_mean_s": "s",
    "cost_lb_ratio": "ratio",
    "peak_rss_mb": "MB",
}

Metrics = Dict[str, Tuple[Optional[float], str]]


def _status_kb(key: str) -> int:
    """A ``kB`` field of ``/proc/self/status``, such as VmRSS or VmHWM."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {key}")


def _reset_peak_rss() -> bool:
    """Lower the kernel's peak-RSS mark (VmHWM) to the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def measure(workload: Any, seconds: float) -> Tuple[List[Any], Metrics, List[str]]:
    """Untraced passes that fit in ``seconds``, at least one.

    Each pass is checked and reduced to its figures as soon as it ends,
    so one pass's program is alive at a time; the peak RSS is the first
    pass's.
    """
    notes: List[str] = []
    gc.collect()
    baseline_kb = _status_kb("VmRSS")
    if not _reset_peak_rss():
        notes.append("peak_rss_mb: peak mark not reset, input generation counts")
    passes = []
    start = time.perf_counter()
    last = 0.0
    # A pass starts only if, as long as the last one, it ends in time.
    while not passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        run = workload.run_pass()
        workload.summarize(run)
        passes.append(run)
        gc.collect()
        last = time.perf_counter() - began
        if len(passes) == 1:
            # Later passes raise the peak through heap fragmentation, and
            # how many of them fit in ``seconds`` depends on the speed.
            peak_mb = (_status_kb("VmHWM") - baseline_kb) / 1024
    setups = [run.setup_s for run in passes]
    while len(setups) < workload.setup_samples:
        setups.append(workload.setup()[0])
    samples = [sample for run in passes for sample in run.samples]
    segments = [segment for run in passes for segment in run.segments]
    units = sum(count for count, _ in segments)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": units / sum(seconds for _, seconds in segments),
        "alloc_mean_ms": 1e3 * statistics.fmean(samples),
        # Fixed by the seed, so every pass gives the same ones.
        **passes[-1].values,
        "peak_rss_mb": peak_mb,
    }
    notes += [
        f"throughput_per_s: {units} {workload.unit} in {len(segments)} timed "
        f"segments of {len(passes)} passes; unscaled "
        f"{statistics.median(run.throughput for run in passes):.6g} 1/s",
        f"alloc_mean_ms: mean of {len(samples)} {workload.sample_name}",
        f"setup_s: median of {len(setups)} set-ups",
        f"timings rescaled to a {1e3 * reference.NOMINAL_S:g} ms reference loop; "
        f"it took {1e3 * statistics.median(workload.reference.samples):.4g} ms "
        f"(median of {len(workload.reference.samples)} probes)",
    ]
    metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    return passes, metrics, notes


def trace(workload: Any) -> Tuple[List[Any], Metrics, Metrics, List[str]]:
    """One untraced pass, then one traced pass and its per-layer ledger."""
    passes, e2e, notes = measure(workload, 0.0)
    workload.reference = reference.Reference(runs=0)
    ledger = Ledger()
    before = layers.items_created()
    layers.install(ledger)
    try:
        ledger.start()
        traced = workload.run_pass(ledger)
        ledger.stop()
    finally:
        ledger.close()
    after = layers.items_created()
    workload.summarize(traced)
    traced.counts["items_created"] = (
        None if before is None or after is None else after - before
    )
    per_layer = layers.metrics(
        ledger, traced.counts, passes[0].throughput, traced.throughput
    )
    return passes + [traced], e2e, per_layer, notes + layers.table(ledger)


def _show(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        default=15.0,
        help="untraced runs repeat passes until this long has gone by",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    # Measure the library's defaults: no REPRO_* switch from the caller's
    # environment (worker pools, tracing, live metrics) may apply.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import pipeline

    workload = pipeline.make(args.workload, args.seed, WORKDIR)
    per_layer: Metrics = {}
    try:
        workload.prepare()
        if args.trace:
            passes, e2e, per_layer, notes = trace(workload)
        else:
            passes, e2e, notes = measure(workload, args.seconds)
    finally:
        workload.cleanup()

    attempted = sum(run.attempted for run in passes)
    failed = sum(run.failed for run in passes)
    problems = [problem for run in passes for problem in run.problems]
    correct = failed == 0 and not problems

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)}"
    )
    _show("end-to-end (untraced)", e2e)
    if per_layer:
        _show("per-layer (traced pass)", per_layer)
    for note in notes:
        print(note)
    verdict = "ok" if correct else "FAILED"
    print(f"output check: {verdict}, {failed} of {attempted} {workload.unit} failed")
    for problem in problems[:20]:
        print(f"  {problem}")
    reported = per_layer if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
