"""Strict check of one ``perfbench/run.py`` output.

``perfbench/run.py`` exits 0 even when its output check fails; its
verdict and metrics are the JSON object on the last stdout line.  This
script fails (exit 1, reasons on stderr) unless that line:

* parses as JSON with ``NaN`` and ``Infinity`` rejected;
* holds ``correct: true``, ``failed: 0`` and ``attempted > 0``;
* reports every metric ``BENCHMARK.json`` declares for the pass kind
  (end-to-end untraced, per-layer traced) and no other;
* gives every end-to-end metric a finite number, and every per-layer
  metric a finite number or null;
* gives every ``--positive`` metric a number above 0.

Usage::

    python3 perfbench/run.py --workload serve-steady --seed 1 \\
        --seconds 1 --trace 0 > out.txt
    python3 benchmarks/check_perfbench_output.py out.txt --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _no_constant(name: str) -> Any:
    raise ValueError(f"non-standard JSON constant {name}")


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def declared(trace: bool) -> List[str]:
    """Metric names ``BENCHMARK.json`` declares for one kind of pass."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def check(text: str, trace: bool, positive: Sequence[str] = ()) -> List[str]:
    """The problems with one perfbench stdout; empty if it passes."""
    lines = text.splitlines()
    if not lines or not lines[-1].strip():
        return ["the last stdout line is empty"]
    try:
        result = json.loads(lines[-1], parse_constant=_no_constant)
    except ValueError as exc:
        return [f"the last stdout line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["the last stdout line is not a JSON object"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    failed, attempted = result.get("failed"), result.get("attempted")
    if not _is_number(failed) or failed != 0:
        problems.append(f"failed is {failed!r}, not 0")
    if not _is_number(attempted) or attempted <= 0:
        problems.append(f"attempted is {attempted!r}, not above 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = declared(trace)
    kind = "per-layer" if trace else "end-to-end"
    for name in sorted(set(metrics) - set(names)):
        problems.append(f"{name}: not a declared {kind} metric")
    values: Dict[str, Any] = {}
    for name in names:
        entry = metrics.get(name)
        if not isinstance(entry, dict) or "value" not in entry:
            problems.append(f"{name}: missing")
            continue
        value = values[name] = entry["value"]
        if not (_is_number(value) or (trace and value is None)):
            wanted = "a finite number or null" if trace else "a finite number"
            problems.append(f"{name}: {value!r} is not {wanted}")
    for name in positive:
        value = values.get(name)
        if not _is_number(value) or value <= 0:
            problems.append(f"{name}: {value!r} is not above 0")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="perfbench stdout, saved to a file")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), required=True,
        help="the --trace value the run was given",
    )
    parser.add_argument(
        "--positive", action="append", default=[], metavar="NAME",
        help="a metric that must be above 0 (repeatable)",
    )
    args = parser.parse_args(argv)
    text = Path(args.output).read_text(encoding="utf-8")
    problems = check(text, bool(args.trace), args.positive)
    for problem in problems:
        print(f"{args.output}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
