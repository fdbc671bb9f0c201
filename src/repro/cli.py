"""Command-line interface: ``repro-broadcast`` / ``python -m repro``.

Subcommands
-----------
``list``
    Show registered algorithms and reproducible figures.
``example``
    Walk the paper's worked example (Tables 2–4) step by step.
``allocate``
    Generate a workload, run one or more algorithms, compare results
    (``--stats`` adds per-algorithm iteration/counter detail).
``figure`` / ``sweep``
    Regenerate the data behind one of the paper's figures (``sweep``
    takes the figure as ``--figure 2`` instead of a positional id).
``simulate``
    Validate an allocation against the analytical model: serve a
    Poisson request stream and compare the measured waiting time.
``shard``
    Sharded, resumable sweep execution: ``compile`` a shard manifest,
    ``run`` each shard as an independent (killable, resumable) OS
    process against a shared results directory, ``status`` the stores,
    ``merge`` them into rows identical to a serial run.
``trace-convert``
    Convert a ``--trace`` JSONL file to Chrome ``trace_event`` JSON.
``bench-check``
    Gate ``BENCH_*.json`` runs against the rolling benchmark history
    (``benchmarks/results/history.jsonl``), failing on regressions.

Observability
-------------
Every run-producing subcommand accepts ``--trace PATH`` and
``--metrics [PATH]`` (or the ``REPRO_TRACE`` / ``REPRO_METRICS``
environment variables).  When enabled, the run's spans and metric
snapshot are exported on exit — traces as JSONL when ``PATH`` ends in
``.jsonl``, Chrome ``trace_event`` JSON otherwise — together with a
``*.manifest.json`` provenance record.  Progress lines go to stderr so
stdout stays machine-parseable.

Live telemetry rides on the same flags: ``--metrics-port`` serves an
OpenMetrics ``/metrics`` endpoint over the run's own registry for the
duration of the run, and ``--profile`` attaches the statistical
sampling profiler (folded stacks on exit).  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence, Tuple

import repro.baselines  # noqa: F401  (registers baseline allocators)
from repro import obs
from repro.analysis.tables import format_float, format_table
from repro.analysis.theory import waiting_time_lower_bound
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.core.drp import drp_allocate
from repro.core.cds import cds_refine
from repro.core.scheduler import available_allocators, make_allocator
from repro.experiments.figures import (
    FIGURE_METRICS,
    FIGURES,
    figure_config,
    run_figure,
)
from repro.simulation.simulator import run_broadcast_simulation
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.paper_profile import PAPER_NUM_CHANNELS, paper_database

__all__ = ["main", "build_parser"]


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--metrics`` observability flags."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record tracing spans and write them here on exit "
            "(.jsonl = one span per line; any other extension = Chrome "
            "trace_event JSON for chrome://tracing / Perfetto)"
        ),
    )
    group.add_argument(
        "--metrics",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help=(
            "record counters/gauges/histograms and write the JSON "
            "snapshot here; with no PATH, record in-process only (for "
            "--metrics-port)"
        ),
    )
    group.add_argument(
        "--trace-memory",
        action="store_true",
        help="also record tracemalloc peak memory per span (slower)",
    )
    group.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live OpenMetrics text at http://127.0.0.1:PORT/metrics "
            "(plus /health) for the duration of the run; 0 picks a free "
            "port (also $REPRO_METRICS_PORT); implies metrics recording"
        ),
    )
    group.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help=(
            "attach the statistical sampling profiler and write "
            "collapsed/folded stacks to PATH on exit (flamegraph.pl / "
            "speedscope compatible; also $REPRO_PROFILE)"
        ),
    )


def _add_figure_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``figure`` and ``sweep`` subcommands."""
    parser.add_argument(
        "--replications", type=int, default=None, help="override replications"
    )
    parser.add_argument(
        "--workers",
        default=None,
        help=(
            "fan (sweep value x replication x algorithm) cells out over "
            "this many worker processes ('auto' = one per CPU; default: "
            "serial, or $REPRO_WORKERS when set); results are identical "
            "to a serial run"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help=(
            "with --workers >= 2: record any cell slower than this many "
            "seconds as an error instead of waiting forever"
        ),
    )
    parser.add_argument("--csv", default=None, help="write rows to CSV file")
    parser.add_argument("--json", default=None, help="write result to JSON file")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also sketch the series as an ASCII chart",
    )


def _normalize_figure_id(value: str) -> str:
    """Accept ``2``, ``fig2`` or ``figure2`` for the paper's figure ids."""
    candidate = value.strip().lower()
    if candidate in FIGURES:
        return candidate
    for prefix in ("fig", "figure"):
        if candidate.startswith(prefix):
            candidate = candidate[len(prefix):]
            break
    candidate = f"figure{candidate}"
    if candidate in FIGURES:
        return candidate
    known = ", ".join(sorted(FIGURES))
    raise argparse.ArgumentTypeError(
        f"unknown figure {value!r}; known: {known}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-broadcast",
        description=(
            "Diverse data broadcasting channel allocation "
            "(reproduction of Hung & Chen, ICDCS 2005)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list algorithms and figures")

    subparsers.add_parser(
        "example", help="walk the paper's worked example (Tables 2-4)"
    )

    allocate = subparsers.add_parser(
        "allocate", help="run algorithms on a synthetic workload"
    )
    allocate.add_argument("--items", type=int, default=120, help="N (items)")
    allocate.add_argument("--channels", type=int, default=7, help="K (channels)")
    allocate.add_argument("--skewness", type=float, default=0.8, help="Zipf θ")
    allocate.add_argument(
        "--diversity", type=float, default=1.5, help="size diversity Φ"
    )
    allocate.add_argument("--seed", type=int, default=0, help="workload seed")
    allocate.add_argument(
        "--bandwidth", type=float, default=DEFAULT_BANDWIDTH, help="bandwidth b"
    )
    allocate.add_argument(
        "--algorithms",
        nargs="+",
        default=["vfk", "drp", "drp-cds", "gopt"],
        help="registered algorithm names",
    )
    allocate.add_argument(
        "--stats",
        action="store_true",
        help=(
            "also print per-algorithm work counters (DRP splits/heap "
            "traffic, CDS moves/Δc evaluations/improvement)"
        ),
    )

    figure = subparsers.add_parser(
        "figure", help="regenerate a paper figure's data"
    )
    figure.add_argument(
        "figure_id", choices=sorted(FIGURES), help="which figure"
    )
    _add_figure_arguments(figure)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a figure sweep (like `figure`, with --figure 2 syntax)",
    )
    sweep.add_argument(
        "--figure",
        dest="figure_id",
        type=_normalize_figure_id,
        required=True,
        metavar="N",
        help="paper figure to sweep (2, fig2 and figure2 all work)",
    )
    _add_figure_arguments(sweep)

    gap = subparsers.add_parser(
        "gap", help="true optimality gaps vs brute-force ground truth"
    )
    gap.add_argument("--items", type=int, default=10, help="N per instance")
    gap.add_argument("--channels", type=int, default=3, help="K per instance")
    gap.add_argument(
        "--instances", type=int, default=10, help="number of instances"
    )
    gap.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        help="algorithms to measure (default: paper line-up + contiguous-dp)",
    )
    gap.add_argument(
        "--workers",
        default=None,
        help="solve independent instances in this many worker processes",
    )

    simulate = subparsers.add_parser(
        "simulate",
        help="validate an allocation: measured vs analytical waiting time",
    )
    simulate.add_argument("--items", type=int, default=60)
    simulate.add_argument("--channels", type=int, default=5)
    simulate.add_argument("--skewness", type=float, default=0.8)
    simulate.add_argument("--diversity", type=float, default=1.5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--requests", type=int, default=20000)
    simulate.add_argument("--algorithm", default="drp-cds")

    adaptive = subparsers.add_parser(
        "adaptive",
        help="simulate drifting demand: static vs adaptive re-allocation",
    )
    adaptive.add_argument("--items", type=int, default=60)
    adaptive.add_argument("--channels", type=int, default=6)
    adaptive.add_argument("--epochs", type=int, default=6)
    adaptive.add_argument("--requests", type=int, default=3000)
    adaptive.add_argument(
        "--shift", type=int, default=10,
        help="popularity rank rotation per epoch",
    )
    adaptive.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve",
        help="run the live broadcast service: decayed-count streaming "
        "estimation, epoch warm re-allocation, cycle-aligned handover",
    )
    serve.add_argument("--items", type=int, default=60)
    serve.add_argument("--channels", type=int, default=6)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--epoch-seconds", type=float, default=60.0,
        help="epoch length in stream time (default: 60)",
    )
    serve.add_argument(
        "--half-life", type=float, default=None,
        help="decay half-life of the request counts in stream seconds "
        "(default: 2 x epoch length; inf counts plain occurrences)",
    )
    serve.add_argument(
        "--smoothing", type=float, default=1.0,
        help="Laplace pseudo-count per catalogue item (default: 1.0)",
    )
    serve.add_argument(
        "--replay", default=None, metavar="PATH",
        help="ingest a JSONL request trace ({\"t\": ..., \"id\": ...} "
        "rows) instead of generating a drifting stream",
    )
    serve.add_argument(
        "--record", default=None, metavar="PATH",
        help="tee the ingested stream to a JSONL file (e.g. generate a "
        "replay input for a later run)",
    )
    serve.add_argument(
        "--max-epochs", type=int, default=None,
        help="stop after this many epochs (default: run the stream dry; "
        "generated streams default to 20 epochs)",
    )
    serve.add_argument(
        "--requests-per-epoch", type=int, default=2000,
        help="generated-stream request volume per epoch (default: 2000)",
    )
    serve.add_argument(
        "--shift", type=int, default=10,
        help="generated-stream popularity rank rotation per epoch",
    )
    serve.add_argument(
        "--pace",
        action="store_true",
        help="replay in real time (sleep to each record's stream time) "
        "instead of ingesting as fast as possible",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the epoch reports as a JSON document on stdout",
    )

    hetero = subparsers.add_parser(
        "hetero",
        help="allocate onto channels with unequal bandwidths",
    )
    hetero.add_argument("--items", type=int, default=90)
    hetero.add_argument(
        "--bandwidths",
        nargs="+",
        type=float,
        default=[25.0, 10.0, 10.0, 5.0, 5.0, 5.0],
        help="per-channel bandwidths (defines K)",
    )
    hetero.add_argument("--seed", type=int, default=0)

    report = subparsers.add_parser(
        "report",
        help="run the full reproduction and emit a markdown report",
    )
    report.add_argument(
        "--replications", type=int, default=None,
        help="override figure replications (default: paper settings)",
    )
    report.add_argument(
        "--workers",
        default=None,
        help="worker processes per figure sweep (see `figure --workers`)",
    )
    report.add_argument(
        "--output", default=None, help="write the markdown to this file"
    )
    report.add_argument("--quiet", action="store_true")

    convert = subparsers.add_parser(
        "trace-convert",
        help="convert a JSONL trace to Chrome trace_event JSON",
    )
    convert.add_argument("input", help="JSONL trace written by --trace")
    convert.add_argument(
        "output",
        nargs="?",
        default=None,
        help="Chrome JSON destination (default: input with .json suffix)",
    )

    verify = subparsers.add_parser(
        "verify",
        help="differential verification: fuzz invariants, oracles and "
        "metamorphic relations, or replay serialized failures",
    )
    verify.add_argument(
        "--fuzz",
        action="store_true",
        help="run the seeded metamorphic fuzzer",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--budget", type=int, default=200,
        help="number of generated cases (default: 200)",
    )
    verify.add_argument(
        "--failures-dir", default=None,
        help="directory for shrunk failure repros "
        "(default: verify_failures/)",
    )
    verify.add_argument(
        "--checks",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict to these checker names (see --list-checks)",
    )
    verify.add_argument(
        "--inject-bug",
        default=None,
        metavar="NAME",
        help="swap in a deliberately broken implementation to prove the "
        "harness catches it (e.g. delta-sign)",
    )
    verify.add_argument(
        "--replay",
        nargs="+",
        default=None,
        metavar="FILE",
        help="re-run serialized failure file(s) instead of fuzzing",
    )
    verify.add_argument(
        "--list-checks",
        action="store_true",
        help="print the checker catalogue and exit",
    )
    verify.add_argument("--quiet", action="store_true")

    shard = subparsers.add_parser(
        "shard",
        help="sharded, resumable sweep execution: compile a manifest, "
        "run shards as independent processes, merge their stores",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_compile = shard_sub.add_parser(
        "compile",
        help="partition a figure sweep into shards and write manifest.json",
    )
    shard_compile.add_argument(
        "--figure",
        dest="figure_id",
        type=_normalize_figure_id,
        required=True,
        metavar="N",
        help="paper figure to shard (2, fig2 and figure2 all work)",
    )
    shard_compile.add_argument(
        "--shards", type=int, default=2, help="number of shards (default: 2)"
    )
    shard_compile.add_argument(
        "--replications", type=int, default=None, help="override replications"
    )
    shard_compile.add_argument(
        "--output",
        default="manifest.json",
        metavar="PATH",
        help="manifest destination (default: manifest.json)",
    )

    shard_run = shard_sub.add_parser(
        "run", help="execute one shard of a compiled manifest, resumably"
    )
    shard_run.add_argument("manifest", help="manifest.json from `shard compile`")
    shard_run.add_argument(
        "--shard", type=int, required=True, metavar="I", help="shard index"
    )
    shard_run.add_argument(
        "--results-dir",
        default="results",
        metavar="DIR",
        help="shared store directory (default: results/)",
    )
    shard_run.add_argument(
        "--workers",
        default=None,
        help="worker processes within this shard (see `figure --workers`)",
    )
    shard_run.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="with --workers >= 2: per-cell timeout in seconds",
    )
    shard_run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after computing this many cells (partial run; resume "
        "later with the same command)",
    )
    shard_run.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )

    shard_merge = shard_sub.add_parser(
        "merge", help="assemble all shard stores into one result"
    )
    shard_merge.add_argument("manifest")
    shard_merge.add_argument("--results-dir", default="results", metavar="DIR")
    shard_merge.add_argument("--csv", default=None, help="write rows to CSV")
    shard_merge.add_argument(
        "--json", default=None, help="write result to JSON"
    )
    shard_merge.add_argument(
        "--diff-serial",
        action="store_true",
        help="also run the sweep serially in-process and fail unless the "
        "merged rows are identical (elapsed-time aggregates excepted)",
    )
    shard_merge.add_argument("--quiet", action="store_true")

    shard_status_p = shard_sub.add_parser(
        "status", help="per-shard completion summary (read-only)"
    )
    shard_status_p.add_argument("manifest")
    shard_status_p.add_argument(
        "--results-dir", default="results", metavar="DIR"
    )

    for shard_parser in (shard_compile, shard_run, shard_merge):
        _add_obs_arguments(shard_parser)

    bench_check = subparsers.add_parser(
        "bench-check",
        help="append BENCH_*.json runs to the benchmark history and fail "
        "when a tracked metric regresses past the threshold",
    )
    bench_check.add_argument(
        "bench",
        nargs="*",
        default=None,
        metavar="BENCH_FILE",
        help="benchmark payloads to check (default: BENCH_*.json in cwd)",
    )
    bench_check.add_argument(
        "--against",
        choices=("history",),
        default="history",
        help="baseline source (only 'history' is implemented)",
    )
    bench_check.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="history JSONL file (default: benchmarks/results/history.jsonl)",
    )
    bench_check.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression tolerance (default: 0.10 = 10%%)",
    )
    bench_check.add_argument(
        "--window",
        type=int,
        default=5,
        help="rolling-baseline window: median of the last N matching "
        "history records (default: 5)",
    )
    bench_check.add_argument(
        "--no-append",
        action="store_true",
        help="check only; do not record these runs into the history",
    )

    # Every run-producing subcommand takes the same observability flags;
    # trace-convert and bench-check only transform existing files, so
    # they stay bare.  `shard` is a command group — its run-producing
    # sub-subcommands got the flags individually above.
    for name, subparser in subparsers.choices.items():
        if name not in ("trace-convert", "bench-check", "shard"):
            _add_obs_arguments(subparser)

    return parser


def _cmd_list() -> int:
    print("Registered algorithms:")
    for name in sorted(available_allocators()):
        print(f"  {name}")
    print()
    print("Reproducible figures:")
    for figure_id in sorted(FIGURES):
        config = figure_config(figure_id)
        print(f"  {figure_id}: {config.description}")
    return 0


def _cmd_example() -> int:
    database = paper_database()
    print("Paper worked example (Tables 2-4): N=15 items, K=5 channels\n")
    rows = [
        (item.item_id, item.frequency, item.size, item.benefit_ratio)
        for item in database.sorted_by_benefit_ratio()
    ]
    print(
        format_table(
            ["item", "freq", "size", "benefit ratio"],
            rows,
            title="Table 2 profile (sorted by benefit ratio)",
        )
    )
    print()
    result = drp_allocate(
        database, PAPER_NUM_CHANNELS, split_policy="max-reduction", trace=True
    )
    for snapshot in result.snapshots:
        print(f"DRP iteration {snapshot.iteration}:")
        for index, (group, cost) in enumerate(
            zip(snapshot.groups, snapshot.costs)
        ):
            marker = " <- split next" if index == snapshot.split_group else ""
            print(
                f"  group {index + 1}: {{{', '.join(group)}}} "
                f"cost={format_float(cost, precision=2)}{marker}"
            )
    print(f"\nDRP cost: {format_float(result.cost, precision=2)} (paper: 24.09)")
    refined = cds_refine(result.allocation)
    print("\nCDS moves:")
    for move in refined.moves:
        print(
            f"  move {move.item_id}: group {move.origin + 1} -> "
            f"group {move.destination + 1}  "
            f"delta={format_float(move.delta, precision=2)}  "
            f"cost={format_float(move.cost_after, precision=2)}"
        )
    print(f"\nCDS cost: {format_float(refined.cost, precision=2)} (paper: 22.29)")
    print("\nFinal allocation:")
    for index, group in enumerate(refined.allocation.as_id_lists()):
        print(f"  channel {index + 1}: {{{', '.join(group)}}}")
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        num_items=args.items,
        skewness=args.skewness,
        diversity=args.diversity,
        seed=args.seed,
    )
    database = generate_database(spec)
    print(
        f"Workload: N={args.items}, K={args.channels}, θ={args.skewness}, "
        f"Φ={args.diversity}, seed={args.seed}"
    )
    bound = waiting_time_lower_bound(
        database, args.channels, bandwidth=args.bandwidth
    )
    rows = []
    outcomes = []
    for name in args.algorithms:
        outcome = make_allocator(name).allocate(database, args.channels)
        outcomes.append(outcome)
        rows.append(
            (
                name,
                outcome.cost,
                average_waiting_time(
                    outcome.allocation, bandwidth=args.bandwidth
                ),
                outcome.elapsed_seconds * 1000.0,
            )
        )
    print(
        format_table(
            ["algorithm", "cost", "waiting time (s)", "exec time (ms)"],
            rows,
        )
    )
    print(f"\nanalytical waiting-time lower bound: {format_float(bound)}")
    if args.stats:
        print()
        _print_allocate_stats(outcomes)
    return 0


#: ``allocate --stats`` columns: (metadata key, printed label).
_STATS_FIELDS = (
    ("drp_iterations", "DRP iterations"),
    ("drp_splits_evaluated", "DRP splits evaluated"),
    ("drp_heap_pushes", "DRP heap pushes"),
    ("drp_heap_pops", "DRP heap pops"),
    ("drp_cost", "DRP cost (pre-CDS)"),
    ("cds_moves", "CDS moves"),
    ("cds_delta_evaluations", "CDS Δc evaluations"),
    ("cds_improvement", "CDS improvement"),
    ("cds_converged", "CDS converged"),
)


def _print_allocate_stats(outcomes) -> None:
    """One work-counter table per algorithm that reported any metadata."""
    print("Per-algorithm statistics:")
    for outcome in outcomes:
        reported = [
            (label, outcome.metadata[key])
            for key, label in _STATS_FIELDS
            if key in outcome.metadata
        ]
        extras = sorted(
            set(outcome.metadata) - {key for key, _ in _STATS_FIELDS}
        )
        reported.extend((key, outcome.metadata[key]) for key in extras)
        if not reported:
            print(f"  {outcome.algorithm}: (no statistics reported)")
            continue
        print(f"  {outcome.algorithm}:")
        for label, value in reported:
            if isinstance(value, float):
                value = format_float(value, precision=4)
            print(f"    {label}: {value}")


def _cmd_figure(args: argparse.Namespace) -> int:
    # Progress goes through the stderr logger so stdout stays a clean,
    # machine-parseable table (satisfying `repro figure ... > data.txt`).
    progress = None if args.quiet else obs.log.progress
    config, result = run_figure(
        args.figure_id,
        replications=args.replications,
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        progress=progress,
    )
    print()
    for error in result.errors:
        print(
            f"cell error: {config.sweep_parameter}={error.sweep_value:g} "
            f"{error.algorithm} rep {error.replication}: {error.message}"
        )
    if result.errors:
        print()
    metric = FIGURE_METRICS[args.figure_id]
    print(result.to_text(metric))
    if "gopt" in result.algorithms and metric == "mean_waiting_time":
        from repro.analysis.summary import summarize_experiment

        print("\ngap vs GOPT (mean over sweep):")
        for summary in summarize_experiment(result, reference="gopt"):
            if summary.algorithm == "gopt":
                continue
            print(
                f"  {summary.algorithm}: {summary.mean_gap_percent:+.2f}% "
                f"(worst {summary.max_gap * 100:+.2f}%)"
            )
    if args.chart:
        from repro.analysis.charts import grouped_bar_chart

        series = {
            algorithm: [v for _, v in result.series(algorithm, metric)]
            for algorithm in result.algorithms
        }
        labels = [
            f"{config.sweep_parameter}={value:g}"
            for value in result.sweep_values()
        ]
        print()
        print(grouped_bar_chart(labels, series, title=f"{args.figure_id} shape"))
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        result.to_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.experiments.gap import DEFAULT_GAP_ALGORITHMS, run_gap_experiment

    algorithms = tuple(args.algorithms or DEFAULT_GAP_ALGORITHMS)
    reports = run_gap_experiment(
        num_items=args.items,
        num_channels=args.channels,
        instances=args.instances,
        algorithms=algorithms,
        workers=args.workers,
    )
    rows = [
        (
            report.algorithm,
            report.summary.mean * 100,
            report.worst * 100,
            f"{report.exact_hits}/{len(report.gaps)}",
        )
        for report in reports
    ]
    print(
        format_table(
            ["algorithm", "mean gap (%)", "worst gap (%)", "exact hits"],
            rows,
            title=(
                f"True optimality gaps over {args.instances} instances "
                f"(N={args.items}, K={args.channels}, brute-force optimum)"
            ),
            precision=3,
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        num_items=args.items,
        skewness=args.skewness,
        diversity=args.diversity,
        seed=args.seed,
    )
    database = generate_database(spec)
    allocator = make_allocator(args.algorithm)
    outcome = allocator.allocate(database, args.channels)
    report = run_broadcast_simulation(
        outcome.allocation,
        num_requests=args.requests,
        seed=args.seed,
    )
    print(f"algorithm: {args.algorithm}")
    print(f"requests simulated: {report.num_requests}")
    print(
        f"measured waiting time:   {format_float(report.measured.mean)} "
        f"± {format_float(report.measured.ci_halfwidth)} (95% CI)"
    )
    print(
        f"analytical waiting time: "
        f"{format_float(report.analytical_waiting_time)}"
    )
    print(f"relative error: {format_float(report.relative_error * 100, precision=2)}%")
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from repro.simulation.adaptive import RotatingDrift, run_adaptive_simulation

    database = generate_database(
        WorkloadSpec(num_items=args.items, skewness=1.2, seed=args.seed)
    )
    drift = RotatingDrift(
        [item.frequency for item in database.items],
        shift_per_epoch=args.shift,
    )
    common = dict(
        num_channels=args.channels,
        epochs=args.epochs,
        requests_per_epoch=args.requests,
        drift=drift,
        seed=args.seed,
    )
    adaptive = run_adaptive_simulation(database, adapt=True, **common)
    static = run_adaptive_simulation(database, adapt=False, **common)
    rows = [
        (a.epoch, s.measured.mean, a.measured.mean, a.profile_error)
        for a, s in zip(adaptive, static)
    ]
    print(
        format_table(
            [
                "epoch",
                "static wait (s)",
                "adaptive wait (s)",
                "adaptive profile err",
            ],
            rows,
            title=(
                f"Drift: {args.shift} ranks/epoch over {args.items} items"
            ),
            precision=3,
        )
    )
    warm_epochs = sum(
        1 for r in adaptive if r.allocation_mode in ("warm", "fallback")
    )
    fallbacks = sum(1 for r in adaptive if r.allocation_mode == "fallback")
    reused = sum(1 for r in adaptive if r.allocation_mode == "reused")
    moves = sum(r.warm_moves for r in adaptive)
    print(
        f"\nwarm start: {warm_epochs}/{len(adaptive)} epochs warm "
        f"({moves} CDS moves total), {reused} reused, "
        f"{fallbacks} guard fallbacks"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import BroadcastService, drifting_stream, replay_source
    from repro.simulation.adaptive import RotatingDrift
    from repro.workloads.trace import save_trace_jsonl

    database = generate_database(
        WorkloadSpec(num_items=args.items, skewness=1.2, seed=args.seed)
    )
    sizes = {item.item_id: item.size for item in database.items}
    service = BroadcastService(
        sizes,
        args.channels,
        epoch_seconds=args.epoch_seconds,
        half_life=args.half_life,
        smoothing=args.smoothing,
        initial_database=database,
        pace=args.pace,
    )
    if args.replay is not None:
        source = replay_source(args.replay)
        origin = f"replay of {args.replay}"
    else:
        epochs = args.max_epochs if args.max_epochs is not None else 20
        drift = RotatingDrift(
            [item.frequency for item in database.items],
            shift_per_epoch=args.shift,
        )
        source = drifting_stream(
            database,
            epochs=epochs,
            requests_per_epoch=args.requests_per_epoch,
            epoch_seconds=args.epoch_seconds,
            drift=drift,
            seed=args.seed,
        )
        origin = (
            f"generated drifting stream ({args.shift} ranks/epoch, "
            f"{args.requests_per_epoch} req/epoch)"
        )
    if args.record is not None:
        from repro.workloads.trace import RequestTrace

        recorded = RequestTrace()

        def _tee(records):
            for record in records:
                recorded.append(record)
                yield record

        source = _tee(source)
    reports = service.run(source, max_epochs=args.max_epochs)
    estimator = service.estimator
    if args.record is not None:
        save_trace_jsonl(recorded, args.record)
    if args.json:
        print(
            json_module.dumps(
                {
                    "source": origin,
                    "epochs": [report.to_dict() for report in reports],
                    "handovers": len(service.live.handovers),
                    "total_requests": service.total_requests,
                    "estimator": {
                        "half_life": estimator.half_life,
                        "state_size": estimator.state_size,
                    },
                },
                indent=2,
            )
        )
        return 0
    rows = [
        (
            report.epoch,
            report.requests,
            report.measured.mean,
            report.allocation_cost,
            report.allocation_mode,
            report.warm_moves,
            report.generation,
        )
        for report in reports
    ]
    print(
        format_table(
            [
                "epoch",
                "requests",
                "wait mean (s)",
                "alloc cost",
                "mode",
                "warm moves",
                "gen",
            ],
            rows,
            title=f"repro serve: {origin}",
            precision=3,
        )
    )
    print(
        f"\n{service.total_requests} requests, {len(reports)} epochs, "
        f"{len(service.live.handovers)} handovers; estimator: decayed "
        f"counts, state {estimator.state_size} counters, half-life "
        f"{estimator.half_life:g}s"
    )
    if args.record is not None:
        print(f"stream recorded to {args.record}")
    return 0


def _cmd_hetero(args: argparse.Namespace) -> int:
    from repro.core.hetero import (
        HeteroDRPCDSAllocator,
        hetero_waiting_time,
    )
    from repro.core.scheduler import DRPCDSAllocator

    database = generate_database(
        WorkloadSpec(num_items=args.items, seed=args.seed)
    )
    num_channels = len(args.bandwidths)
    naive = DRPCDSAllocator().allocate(database, num_channels).allocation
    aware = (
        HeteroDRPCDSAllocator(args.bandwidths)
        .allocate(database, num_channels)
        .allocation
    )
    rows = [
        (
            "paper pipeline (bandwidth-oblivious)",
            hetero_waiting_time(naive, args.bandwidths),
        ),
        (
            "bandwidth-aware pipeline",
            hetero_waiting_time(aware, args.bandwidths),
        ),
    ]
    print(
        format_table(
            ["configuration", "W_b (s)"],
            rows,
            title=f"bandwidths = {args.bandwidths}",
        )
    )
    saved = (rows[0][1] - rows[1][1]) / rows[0][1] * 100
    print(f"\nbandwidth-aware allocation saves {saved:.1f}%")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    output = args.output
    if output is None:
        base, _ = os.path.splitext(args.input)
        output = base + ".json"
    count = obs.jsonl_to_chrome(args.input, output)
    print(f"wrote {output} ({count} spans)")
    return 0


def _env_str(name: str) -> Optional[str]:
    value = os.environ.get(name, "").strip()
    return value or None


def _configure_observability(
    args: argparse.Namespace,
) -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """Install tracer/registry and live facilities per CLI flags/env.

    Returns ``(trace_path, metrics_path, profile_path)``.  A live
    endpoint (``--metrics-port``) implies metric recording even
    without ``--metrics``; ``--metrics`` with no PATH records
    in-process only (``metrics_path`` comes back ``None``, so
    nothing is exported at exit).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and metrics_path is None:
        trace_path = _env_str(obs.TRACE_ENV_VAR)
        metrics_path = _env_str(obs.METRICS_ENV_VAR)
    metrics_port = getattr(args, "metrics_port", None)
    if metrics_port is None:
        env_port = _env_str(obs.METRICS_PORT_ENV_VAR)
        if env_port is not None:
            try:
                metrics_port = int(env_port)
            except ValueError:
                raise SystemExit(
                    f"{obs.METRICS_PORT_ENV_VAR} must be an integer, "
                    f"got {env_port!r}"
                )
    profile_path = getattr(args, "profile", None) or _env_str(
        obs.PROFILE_ENV_VAR
    )
    enable_metrics = metrics_path is not None or metrics_port is not None
    enable_trace = bool(trace_path)
    if enable_trace or enable_metrics:
        obs.configure(
            trace=enable_trace,
            metrics=enable_metrics,
            track_memory=getattr(args, "trace_memory", False),
        )
    if metrics_port is not None:
        server = obs.start_metrics_server(metrics_port)
        obs.log.progress(
            f"serving live metrics on "
            f"http://{server.host}:{server.port}/metrics"
        )
    if profile_path is not None:
        obs.start_profiler()
    return trace_path or None, metrics_path or None, profile_path


def _export_observability(
    args: argparse.Namespace,
    trace_path: Optional[str],
    metrics_path: Optional[str],
    profile_path: Optional[str] = None,
) -> None:
    """Write trace/metrics/profile files plus the run manifest."""
    stopped = obs.stop_live()
    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    outputs = {}
    if trace_path and tracer.enabled:
        if trace_path.endswith(".jsonl"):
            tracer.export_jsonl(trace_path)
        else:
            tracer.export_chrome(trace_path)
        outputs["trace"] = trace_path
    if metrics_path and registry.enabled:
        registry.export_json(metrics_path)
        outputs["metrics"] = metrics_path
    profiler = stopped.get("profiler")
    if profile_path and profiler is not None:
        samples = profiler.export_folded(profile_path)
        obs.log.progress(
            f"profile: {samples} sample(s) over "
            f"{profiler.duration:.2f}s"
        )
        outputs["profile"] = profile_path
    if not outputs:
        return
    anchor = (
        outputs.get("trace")
        or outputs.get("metrics")
        or outputs["profile"]
    )
    base, _ = os.path.splitext(anchor)
    manifest_path = base + ".manifest.json"
    options = {
        key: value
        for key, value in sorted(vars(args).items())
        if key
        not in (
            "command",
            "trace",
            "metrics",
            "trace_memory",
            "metrics_port",
            "profile",
        )
    }
    manifest = obs.build_manifest(
        command=args.command,
        config=options,
        seed=getattr(args, "seed", None),
        outputs=outputs,
        extra={"spans_recorded": len(tracer.records) if tracer.enabled else 0},
    )
    obs.write_manifest(manifest_path, manifest)
    for path in (*outputs.values(), manifest_path):
        obs.log.progress(f"wrote {path}")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import fuzz as verify_fuzz

    if args.list_checks:
        print("Registered checks:")
        for spec in verify_fuzz.available_checks():
            gate = (
                "all sizes"
                if spec.max_items is None
                else f"N <= {spec.max_items}"
            )
            if spec.once:
                gate += ", once per run"
            print(f"  {spec.name:40s} {gate}")
        print("Injectable bugs:", ", ".join(sorted(verify_fuzz.INJECTABLE_BUGS)))
        return 0

    if args.replay:
        exit_code = 0
        for path in args.replay:
            violations = verify_fuzz.replay_failure(path)
            if violations:
                exit_code = 1
                print(f"{path}: {len(violations)} violation(s)")
                for violation in violations:
                    print(f"  [{violation.check}] {violation.message}")
            else:
                print(f"{path}: clean")
        return exit_code

    if not args.fuzz:
        print(
            "nothing to do: pass --fuzz, --replay FILE... or --list-checks",
            file=sys.stderr,
        )
        return 2

    report = verify_fuzz.run_fuzz(
        seed=args.seed,
        budget=args.budget,
        failures_dir=args.failures_dir or verify_fuzz.DEFAULT_FAILURES_DIR,
        checks=args.checks,
        inject=args.inject_bug,
        progress=None if args.quiet else obs.log.progress,
    )
    print(
        f"verify: {report.cases} case(s) fuzzed with seed {report.seed} "
        f"in {report.elapsed_seconds:.1f}s"
        + (f" [injected bug: {report.injected}]" if report.injected else "")
    )
    if not args.quiet:
        for name, count in sorted(report.checks_run.items()):
            print(f"  {name:40s} {count:4d} run(s)")
    if report.failures:
        print(f"{len(report.failures)} check(s) FAILED:")
        for failure in report.failures:
            print(
                f"  {failure.check}: shrunk to {failure.num_items} item(s) / "
                f"{failure.num_channels} channel(s), "
                f"{len(failure.violations)} violation(s) -> {failure.path}"
            )
        print("replay with: repro verify --replay <file>")
        return 1
    print("all checks passed")
    return 0


def _rows_without_elapsed(result) -> list:
    """Row tuples minus the wall-clock aggregates (machine-dependent)."""
    return [
        (
            row.sweep_value,
            row.algorithm,
            row.mean_cost,
            row.std_cost,
            row.mean_waiting_time,
            row.std_waiting_time,
            row.replications,
        )
        for row in result.rows
    ]


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.exceptions import ShardError

    try:
        return _shard_subcommand(args)
    except ShardError as exc:
        # A refused manifest or an incomplete sweep is a user-facing
        # condition: one line on stderr, not a traceback.
        print(f"repro shard: {exc}", file=sys.stderr)
        return 2


def _shard_subcommand(args: argparse.Namespace) -> int:
    from repro.experiments import shards as shard_fabric
    from repro.experiments.runner import run_experiment

    if args.shard_command == "compile":
        config = figure_config(args.figure_id)
        if args.replications is not None:
            config = config.scaled_down(replications=args.replications)
        manifest = shard_fabric.compile_manifest(
            config, num_shards=args.shards
        )
        shard_fabric.save_manifest(manifest, args.output)
        print(
            f"wrote {args.output}: {manifest.num_cells} cell(s) of "
            f"{config.name} in {manifest.num_shards} shard(s)"
        )
        return 0

    manifest = shard_fabric.load_manifest(args.manifest)

    if args.shard_command == "run":
        report = shard_fabric.run_shard(
            manifest,
            args.shard,
            results_dir=args.results_dir,
            workers=args.workers,
            cell_timeout=args.cell_timeout,
            max_cells=args.max_cells,
            progress=None if args.quiet else obs.log.progress,
        )
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.shard_command == "status":
        complete = True
        for entry in shard_fabric.shard_status(
            manifest, results_dir=args.results_dir
        ):
            complete = complete and entry["missing"] == 0
            flags = []
            if entry["errors"]:
                flags.append(f"{entry['errors']} error cell(s)")
            if entry["torn_trailing_record"]:
                flags.append("torn trailing record")
            print(
                f"shard {entry['shard']}: {entry['done']}/{entry['cells']} "
                "cell(s)"
                + (f"  [{', '.join(flags)}]" if flags else "")
            )
        print("sweep complete" if complete else "sweep incomplete")
        return 0 if complete else 1

    # merge
    progress = None if args.quiet else obs.log.progress
    result = shard_fabric.merge_shards(
        manifest, results_dir=args.results_dir, progress=progress
    )
    print()
    print(result.to_text("mean_waiting_time"))
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        result.to_json(args.json)
        print(f"wrote {args.json}")
    if args.diff_serial:
        serial = run_experiment(manifest.config)
        if _rows_without_elapsed(result) == _rows_without_elapsed(serial):
            print(
                "diff-serial: merged rows identical to the serial run "
                "(elapsed aggregates excepted)"
            )
        else:
            print(
                "diff-serial: MISMATCH — merged rows differ from the "
                "serial run",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import glob

    from repro.obs import bench as bench_history
    from repro.obs.manifest import config_digest

    paths = list(args.bench) if args.bench else sorted(
        glob.glob("BENCH_*.json")
    )
    if not paths:
        print("bench-check: no BENCH_*.json files found", file=sys.stderr)
        return 2
    history_path = args.history or bench_history.DEFAULT_HISTORY_PATH
    history = bench_history.load_history(history_path)
    regressions = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        name = os.path.splitext(os.path.basename(path))[0]
        metrics = bench_history.extract_metrics(payload)
        digest = config_digest(payload.get("config", {}))
        found, summary = bench_history.check_regressions(
            name,
            metrics,
            history,
            config_sha256=digest,
            threshold=args.threshold,
            window=args.window,
        )
        print(
            f"{name}: {summary['metrics_gated']}/"
            f"{summary['metrics_compared']} metric(s) gated against "
            f"{summary['history_records']} history record(s), "
            f"threshold {summary['threshold_percent']:.1f}%"
        )
        for regression in found:
            print(f"  REGRESSION {regression.describe()}")
        regressions.extend(found)
        if not args.no_append:
            bench_history.append_history(path, history_path)
    if not args.no_append:
        print(f"recorded {len(paths)} run(s) into {history_path}")
    if regressions:
        print(
            f"bench-check: {len(regressions)} regression(s) past "
            f"{args.threshold:.0%} threshold",
            file=sys.stderr,
        )
        return 1
    print("bench-check: no regressions")
    return 0


_DISPATCH = {
    "allocate": _cmd_allocate,
    "figure": _cmd_figure,
    "sweep": _cmd_figure,
    "gap": _cmd_gap,
    "simulate": _cmd_simulate,
    "adaptive": _cmd_adaptive,
    "serve": _cmd_serve,
    "hetero": _cmd_hetero,
    "trace-convert": _cmd_trace_convert,
    "verify": _cmd_verify,
    "shard": _cmd_shard,
    "bench-check": _cmd_bench_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "trace-convert":
        return _cmd_trace_convert(args)
    if args.command == "bench-check":
        return _cmd_bench_check(args)
    trace_path, metrics_path, profile_path = _configure_observability(args)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "example":
            return _cmd_example()
        if args.command == "report":
            from repro.experiments.report import generate_report

            text = generate_report(
                replications=args.replications,
                workers=args.workers,
                output=args.output,
                progress=None if args.quiet else obs.log.progress,
            )
            if args.output:
                print(f"wrote {args.output}")
            else:
                print(text)
            return 0
        handler = _DISPATCH.get(args.command)
        if handler is None:  # pragma: no cover - argparse rejects earlier
            parser.error(f"unknown command {args.command!r}")
            return 2
        return handler(args)
    finally:
        _export_observability(args, trace_path, metrics_path, profile_path)
        obs.reset()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
