"""Layers the traced pass wraps, and the per-layer metrics they give.

Targets are named, not imported, so this file runs unchanged on a
revision that renames or deletes one of them: that target's metrics
then read null.  The estimator is wrapped on whatever class the live
service's ``sketch`` is.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ledger import Ledger, SpanStats, Target

Metrics = Dict[str, Tuple[Optional[float], str]]

ALLOCATE = "repro.core.scheduler:Allocator.allocate"

#: Spans of the paper's own allocators; every other allocator's span
#: belongs to the ``baselines`` layer.
PAPER_ALLOCATORS = ("alloc.drp", "alloc.drp-cds", "alloc.cds-only")

#: Re-allocation modes a serve epoch report can carry.
MODES = ("cold", "warm", "fallback", "cache", "reused")

#: Counts a workload reads from the program's own reports.
REPORT_COUNTS = tuple(f"incremental.{mode}" for mode in MODES) + (
    "incremental.reallocations",
    "incremental.warm_moves",
    "live.handovers",
)


def _allocator_span(allocator: Any, *args: Any, **kwargs: Any) -> str:
    return f"alloc.{allocator.name}"


def _cds_counts(result: Any) -> Dict[str, int]:
    return {
        "moves": int(getattr(result, "iterations", 0)),
        "delta_evals": int(getattr(result, "delta_evaluations", 0)),
    }


TARGETS = (
    Target(
        "trace.decode", "repro.workloads.trace:iter_trace_jsonl", generator=True
    ),
    Target("service.init", "repro.service.serve:BroadcastService.__init__"),
    Target("service.run", "repro.service.serve:BroadcastService.run"),
    Target("live.program_for", "repro.service.serve:LiveProgram.program_for"),
    Target("live.stage", "repro.service.serve:LiveProgram.stage"),
    Target(
        "program.wait", "repro.simulation.server:BroadcastProgram.waiting_time"
    ),
    Target("program.build", "repro.simulation.server:BroadcastProgram.__init__"),
    Target(
        "incremental.reallocate",
        "repro.core.incremental:IncrementalAllocator.reallocate",
    ),
    Target(
        "incremental.fingerprint", "repro.core.incremental:database_fingerprint"
    ),
    Target("cds", "repro.core.cds:cds_refine", collect=_cds_counts),
    Target("drp", "repro.core.drp:drp_allocate"),
    Target("database.build", "repro.core.database:BroadcastDatabase.__init__"),
    Target("database.build", "repro.core.database:BroadcastDatabase.from_soa"),
    Target(
        "database.build",
        "repro.core.database:BroadcastDatabase.with_frequencies",
    ),
    Target(_allocator_span, ALLOCATE),
    Target("generator", "repro.workloads.generator:generate_database"),
    Target("experiment.run", "repro.experiments.runner:run_experiment"),
)

#: ``(span, method name)`` on the live service's estimator class.
ESTIMATOR_METHODS = (
    ("estimator.add", "add"),
    ("estimator.profile", "estimate_profile"),
)

LAYER_OF = {
    "trace.decode": "workloads.trace",
    "estimator.add": "workloads.estimator",
    "estimator.profile": "workloads.estimator",
    "program.wait": "simulation.server",
    "program.build": "simulation.server",
    "service.init": "service.serve",
    "service.run": "service.serve",
    "live.program_for": "service.serve",
    "live.stage": "service.serve",
    "incremental.reallocate": "core.incremental",
    "incremental.fingerprint": "core.incremental",
    "cds": "core.cds",
    "drp": "core.drp",
    "database.build": "core.database",
    "generator": "workloads.generator",
    "experiment.run": "experiments.runner",
}

LAYERS = (
    "workloads.trace",
    "workloads.estimator",
    "simulation.server",
    "service.serve",
    "core.incremental",
    "core.cds",
    "core.drp",
    "core.database",
    "core.scheduler",
    "baselines",
    "workloads.generator",
    "experiments.runner",
)


def layer_of(span: str) -> str:
    if span in LAYER_OF:
        return LAYER_OF[span]
    return "core.scheduler" if span in PAPER_ALLOCATORS else "baselines"


def install(ledger: Ledger) -> None:
    for target in TARGETS:
        ledger.wrap(target)


def wrap_estimator(ledger: Ledger, estimator: Any) -> None:
    for span, attr in ESTIMATOR_METHODS:
        ledger.wrap_method(type(estimator), attr, span)


def items_created() -> Optional[int]:
    """The library's ``DataItem`` construction count, or None if it is gone."""
    try:
        counter = importlib.import_module("repro.core.item").items_created
    except (ImportError, AttributeError):
        return None
    return counter()


def _ratio(
    numerator: Optional[float], denominator: Optional[float]
) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def metrics(
    ledger: Ledger,
    counts: Dict[str, Optional[int]],
    untraced_rate: float,
    traced_rate: float,
) -> Metrics:
    """Every per-layer metric of one traced pass: ``name -> (value, unit)``.

    ``counts`` holds what the workload reads from the program's own
    reports: handovers, re-allocation modes and items created.
    """

    def read(
        span: str, field: Callable[[SpanStats], float], label: Optional[str] = None
    ) -> Optional[float]:
        if ledger.is_missing(label or span):
            return None
        return field(ledger.get(span))

    def calls(span: str) -> Optional[float]:
        return read(span, lambda stats: stats.calls)

    def busy(span: str, label: Optional[str] = None) -> Optional[float]:
        return read(span, lambda stats: stats.inclusive_s, label)

    def own(span: str) -> Optional[float]:
        return read(span, lambda stats: stats.self_s)

    def extra(span: str, key: str) -> Optional[float]:
        return read(span, lambda stats: stats.extras.get(key, 0))

    stages = calls("live.stage")
    moves = extra("cds", "moves")
    evals = extra("cds", "delta_evals")
    reallocations = counts["incremental.reallocations"]
    out: Metrics = {
        "trace.records": (extra("trace.decode", "items"), "count"),
        "trace.decode_s": (busy("trace.decode"), "s"),
        "estimator.add_calls": (calls("estimator.add"), "count"),
        "estimator.add_s": (busy("estimator.add"), "s"),
        "estimator.profile_s": (busy("estimator.profile"), "s"),
        "program.wait_calls": (calls("program.wait"), "count"),
        "program.wait_s": (busy("program.wait"), "s"),
        "program.builds": (calls("program.build"), "count"),
        "program.build_s": (busy("program.build"), "s"),
        "live.program_for_s": (busy("live.program_for"), "s"),
        "serve.loop_self_s": (own("service.run"), "s"),
        "live.stages": (stages, "count"),
        "live.handovers": (counts["live.handovers"], "count"),
        "handover_ratio": (_ratio(counts["live.handovers"], stages), "ratio"),
        "incremental.reallocate_s": (busy("incremental.reallocate"), "s"),
        "incremental.reallocate_self_s": (own("incremental.reallocate"), "s"),
        "incremental.fingerprint_s": (busy("incremental.fingerprint"), "s"),
        "incremental.reallocations": (reallocations, "count"),
    }
    for mode in MODES:
        out[f"incremental.{mode}"] = (counts[f"incremental.{mode}"], "count")
    out.update(
        {
            "incremental.warm_moves": (counts["incremental.warm_moves"], "count"),
            "warm_ratio": (
                _ratio(counts["incremental.warm"], reallocations),
                "ratio",
            ),
            "cds.calls": (calls("cds"), "count"),
            "cds.s": (busy("cds"), "s"),
            "cds.self_s": (own("cds"), "s"),
            "cds.moves": (moves, "count"),
            "cds.delta_evals": (evals, "count"),
            "cds.evals_per_move": (_ratio(evals, moves), "count"),
            "drp.calls": (calls("drp"), "count"),
            "drp.s": (busy("drp"), "s"),
            "database.builds": (calls("database.build"), "count"),
            "database.build_s": (busy("database.build"), "s"),
            "items_created": (counts["items_created"], "count"),
            "gopt.s": (busy("alloc.gopt", ALLOCATE), "s"),
            "vfk.s": (busy("alloc.vfk", ALLOCATE), "s"),
            "generator.s": (busy("generator"), "s"),
            "runner.self_s": (own("experiment.run"), "s"),
        }
    )
    wall = ledger.wall_s
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, stats in ledger.stats.items():
        layer_self[layer_of(name)] += stats.self_s
    layer_self["unattributed"] = wall - ledger.attributed_s()
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.share"] = (100.0 * seconds / wall, "%")
    delta = traced_rate - untraced_rate
    out["ledger.wall_s"] = (wall, "s")
    out["tracing.throughput_delta_per_s"] = (delta, "1/s")
    out["tracing.overhead_pct"] = (-100.0 * delta / untraced_rate, "%")
    return out


def table(ledger: Ledger) -> List[str]:
    """The span ledger as printable lines, largest self time first."""
    wall = ledger.wall_s
    lines = [
        f"  {'span':<24} {'layer':<20} {'calls':>9} {'incl s':>9} "
        f"{'self s':>9} {'share':>7}"
    ]
    ranked = sorted(ledger.stats.items(), key=lambda item: -item[1].self_s)
    for name, stats in ranked:
        lines.append(
            f"  {name:<24} {layer_of(name):<20} {stats.calls:>9} "
            f"{stats.inclusive_s:>9.3f} {stats.self_s:>9.3f} "
            f"{100.0 * stats.self_s / wall:>6.1f}%"
        )
    rest = wall - ledger.attributed_s()
    lines.append(
        f"  {'unattributed':<24} {'':<20} {'':>9} {'':>9} {rest:>9.3f} "
        f"{100.0 * rest / wall:>6.1f}%"
    )
    missing = sorted(ledger.missing - ledger.resolved)
    lines.append(
        f"  ledger wall {wall:.3f} s; missing targets: "
        f"{', '.join(missing) or 'none'}"
    )
    return lines
