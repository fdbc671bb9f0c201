"""The benchmark's workloads: inputs from a seed, timed passes, checks.

Each workload builds its inputs from the seed before any clock starts;
the library then only receives them, through its public entry points.

* ``serve-steady`` and ``serve-drift`` stream a request trace to disk
  and replay it through ``iter_trace_jsonl`` into a fresh
  ``BroadcastService`` with the service's default estimator, as
  ``repro serve --replay`` does.  Replay is a closed loop with one
  client: the service pulls each record after it has served the last.
  Broadcast clients get no reply, so the metrics are throughput at the
  stated size plus the ingest stall at each epoch boundary.
* ``paper-sweep`` runs the Figure 2-5 configs serially through
  ``run_experiment``, as ``repro figure`` does, one sweep point a call.

An untraced pass times its work in pieces (serve: runs of requests and
each epoch-boundary stall; sweep: each sweep point and each DRP-CDS
row) with the reference loop of ``reference.py`` run between them.

A workload's ``run_pass`` returns the program's outputs in
``Pass.state``; its ``summarize`` checks them and keeps only the
figures the metrics need, so no pass holds a service while later
passes run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import layers
from ledger import Ledger
from reference import Reference
from repro.analysis.theory import cost_lower_bound
from repro.core.scheduler import make_allocator
from repro.experiments import runner
from repro.experiments.figures import figure2, figure3, figure4, figure5
from repro.service import serve
from repro.simulation.adaptive import RotatingDrift
from repro.workloads import trace as trace_io
from repro.workloads.generator import WorkloadSpec, generate_database

#: The serve catalogue is fixed, so a seed varies only the request
#: stream: epoch-boundary work then follows the drift model rather than
#: whichever catalogue a seed happened to draw.
CATALOGUE_SEED = 7

#: Sweep cells draw database seeds ``base_seed + 1000 * point + rep``;
#: this stride keeps the databases of different seeds disjoint.
SWEEP_SEED_STRIDE = 100_000


@dataclass
class Pass:
    """One pass of a workload: set-up, the timed run, its checked figures."""

    setup_s: float
    run_s: float
    attempted: int
    state: Any  # the program's outputs, until ``summarize`` drops them
    # alloc_mean_ms inputs, rescaled seconds (``reference.py``)
    samples: List[float] = field(default_factory=list)
    # (requests or cells, rescaled seconds) of each timed piece of the run
    segments: List[Tuple[int, float]] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, Optional[int]] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.attempted / self.run_s


@dataclass(frozen=True)
class ServeShape:
    items: int
    channels: int
    shift: int  # popularity ranks the profile rotates per epoch
    epochs: int
    requests_per_epoch: int
    skewness: float = 1.2


SERVE_SHAPES = {
    "serve-steady": ServeShape(
        2000, 8, shift=0, epochs=10, requests_per_epoch=100_000
    ),
    "serve-drift": ServeShape(
        5000, 8, shift=50, epochs=8, requests_per_epoch=10_000
    ),
}


class ServeWorkload:
    """Replay a generated trace through a fresh ``BroadcastService``."""

    unit = "requests"
    sample_name = "epoch stalls"
    setup_samples = 3

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.shape = SERVE_SHAPES[name]
        self.seed = seed
        self.trace_path = workdir / f"{name}-{seed}.jsonl"
        self.reference = Reference()

    def prepare(self) -> None:
        shape = self.shape
        self.database = generate_database(
            WorkloadSpec(
                num_items=shape.items,
                skewness=shape.skewness,
                seed=CATALOGUE_SEED,
            )
        )
        self.sizes = dict(
            zip(self.database.item_ids, self.database.sizes.tolist())
        )
        # Two major cycles of the initial program per epoch, so a program
        # staged at one boundary goes on air before the next one.
        probe = serve.BroadcastService(
            self.sizes, shape.channels, initial_database=self.database
        )
        self.epoch_seconds = 2.0 * probe.live.major_cycle
        stream = serve.drifting_stream(
            self.database,
            epochs=shape.epochs,
            requests_per_epoch=shape.requests_per_epoch,
            epoch_seconds=self.epoch_seconds,
            drift=RotatingDrift(
                self.database.frequencies, shift_per_epoch=shape.shift
            ),
            # Epoch e draws from seed + e: scaling by the epoch count
            # keeps the streams of different seeds disjoint.
            seed=self.seed * shape.epochs,
        )
        self.records = _write_trace(
            stream, self.trace_path, self.database.item_ids
        )

    def setup(self) -> Tuple[float, Any]:
        before = self.reference.probe()
        start = time.perf_counter()
        service = serve.BroadcastService(
            self.sizes,
            self.shape.channels,
            epoch_seconds=self.epoch_seconds,
            initial_database=self.database,
        )
        took = time.perf_counter() - start
        return self.reference.rescale(took, before, self.reference.probe()), service

    def run_pass(self, ledger: Optional[Ledger] = None) -> Pass:
        setup_s, service = self.setup()
        source: Iterable[Any] = trace_io.iter_trace_jsonl(self.trace_path)
        stalls: List[float] = []
        segments: List[Tuple[int, float]] = []
        if ledger is None:
            source = _probed(
                source, self.epoch_seconds, self.reference, segments, stalls
            )
        else:
            layers.wrap_estimator(ledger, service.sketch)
        start = time.perf_counter()
        service.run(source)
        run_s = time.perf_counter() - start
        return Pass(setup_s, run_s, self.records, service, stalls, segments)

    def summarize(self, run: Pass) -> None:
        """Check the service's outputs, then keep only the pass's figures.

        Each record served once, tear-free handovers, a valid allocation;
        any problem fails every request of the pass.
        """
        service = run.state
        run.problems = self._problems(service)
        run.failed = self.records if run.problems else 0
        reports = service.reports
        served = sum(report.requests for report in reports)
        bound = cost_lower_bound(service.believed, self.shape.channels)
        run.values = {
            "wait_mean_s": sum(
                report.measured.mean * report.requests for report in reports
            )
            / served,
            "cost_lb_ratio": reports[-1].allocation_cost / bound,
        }
        modes = Counter(report.allocation_mode for report in reports)
        run.counts = {f"incremental.{mode}": modes[mode] for mode in layers.MODES}
        run.counts["incremental.reallocations"] = sum(
            report.reallocated for report in reports
        )
        run.counts["incremental.warm_moves"] = sum(
            report.warm_moves for report in reports
        )
        run.counts["live.handovers"] = len(service.live.handovers)
        run.state = None

    def _problems(self, service: Any) -> List[str]:
        problems = []
        served = sum(report.requests for report in service.reports)
        if served != self.records or service.total_requests != self.records:
            problems.append(f"served {served} of {self.records} trace records")
        for index, handover in enumerate(service.live.handovers):
            cycles = (
                handover.switch_at - handover.old_activated_at
            ) / handover.old_major_cycle
            if (
                abs(cycles - round(cycles)) > 1e-6
                or handover.promoted_at < handover.switch_at
            ):
                problems.append(f"handover {index} is off a major-cycle boundary")
            if (handover.old_generation, handover.new_generation) != (
                index,
                index + 1,
            ):
                problems.append(f"handover {index} breaks the generation order")
        generations = [report.generation for report in service.reports]
        if generations != sorted(generations):
            problems.append("epoch generations are not monotone")
        groups = service.live.allocation.as_id_lists()
        members = sorted(item_id for group in groups for item_id in group)
        if (
            len(groups) != self.shape.channels
            or not all(groups)
            or members != sorted(self.sizes)
        ):
            problems.append("the final allocation is not a K-partition")
        return problems

    def cleanup(self) -> None:
        self.trace_path.unlink(missing_ok=True)


SWEEP_FIGURES = (figure2, figure3, figure4, figure5)

#: Config and allocator construction takes microseconds, so one set-up
#: sample is the median of this many repetitions.
SWEEP_SETUP_REPEATS = 101

#: DRP-CDS allocates a sweep database in about a millisecond, so each
#: database's alloc_mean_ms sample is the fastest of this many runs.
ALLOC_REPEATS = 3


class SweepWorkload:
    """The Figure 2-5 sweeps, run serially."""

    unit = "cells"
    sample_name = "DRP-CDS databases"
    setup_samples = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = Reference()

    def prepare(self) -> None:
        pass

    def _construct(self) -> List[Any]:
        """Each figure config cut into one config per sweep point.

        Point ``i`` keeps its databases: its seeds are the figure's
        ``base_seed + 1000 * i + rep``.  Running the points one at a
        time lets the reference loop run between them.
        """
        points = []
        base_seed = self.seed * SWEEP_SEED_STRIDE
        for figure in SWEEP_FIGURES:
            config = figure()
            for index, value in enumerate(config.sweep_values):
                points.append(
                    replace(
                        config,
                        sweep_values=(value,),
                        base_seed=base_seed + 1000 * index,
                    )
                )
            for name in config.algorithms:
                make_allocator(name)
        return points

    def setup(self) -> Tuple[float, List[Any]]:
        before = self.reference.probe()
        samples = []
        for _ in range(SWEEP_SETUP_REPEATS):
            start = time.perf_counter()
            configs = self._construct()
            samples.append(time.perf_counter() - start)
        took = statistics.median(samples)
        return self.reference.rescale(took, before, self.reference.probe()), configs

    def run_pass(self, ledger: Optional[Ledger] = None) -> Pass:
        setup_s, configs = self.setup()
        results, segments = [], []
        run_s = 0.0
        before = self.reference.probe()
        for config in configs:
            start = time.perf_counter()
            results.append(runner.run_experiment(config))
            took = time.perf_counter() - start
            after = self.reference.probe()
            cells = config.replications * len(config.algorithms)
            segments.append((cells, self.reference.rescale(took, before, after)))
            run_s += took
            before = after
        run = Pass(
            setup_s,
            run_s,
            sum(cells for cells, _ in segments),
            list(zip(configs, results)),
            segments=segments,
        )
        if ledger is None:
            run.samples = _allocation_times(configs, self.reference)
        return run

    def summarize(self, run: Pass) -> None:
        """Check the sweep's rows, then keep only the pass's figures.

        No failed cell, and DRP-CDS never costs more than DRP.
        """
        refined_rows, ratios = [], []
        for config, result in run.state:
            run.failed += len(result.errors)
            run.problems += [
                f"{config.name}: {error.algorithm} at {error.sweep_value} "
                f"failed: {error.message}"
                for error in result.errors
            ]
            rows = {(row.sweep_value, row.algorithm): row for row in result.rows}
            for index, value in enumerate(config.sweep_values):
                rough = rows.get((float(value), "drp"))
                refined = rows.get((float(value), "drp-cds"))
                if refined is None:
                    continue
                if rough is not None and refined.mean_cost > rough.mean_cost * (
                    1 + 1e-12
                ):
                    run.failed += refined.replications
                    run.problems.append(
                        f"{config.name} at {value}: DRP-CDS cost "
                        f"{refined.mean_cost} above DRP cost {rough.mean_cost}"
                    )
                refined_rows.append(refined)
                ratios.append(refined.mean_cost / _mean_bound(config, index, value))
        run.values = {
            "wait_mean_s": statistics.fmean(
                row.mean_waiting_time for row in refined_rows
            ),
            "cost_lb_ratio": statistics.fmean(ratios),
        }
        run.counts = dict.fromkeys(layers.REPORT_COUNTS, 0)
        run.state = None

    def cleanup(self) -> None:
        pass


def make(name: str, seed: int, workdir: Path) -> Any:
    if name == "paper-sweep":
        return SweepWorkload(seed)
    return ServeWorkload(name, seed, workdir)


def _row_databases(config: Any, index: int, value: float) -> Iterator[Tuple[Any, int]]:
    """``(database, channels)`` of each replication of one sweep row."""
    point = config.point_parameters(value)
    for replication in range(config.replications):
        database = generate_database(
            WorkloadSpec(
                num_items=point.num_items,
                skewness=point.skewness,
                diversity=point.diversity,
                seed=config.seed_for(index, replication),
            )
        )
        yield database, point.num_channels


def _mean_bound(config: Any, index: int, value: float) -> float:
    """Mean ``cost_lower_bound`` over the databases of one sweep row."""
    return statistics.fmean(
        cost_lower_bound(database, channels)
        for database, channels in _row_databases(config, index, value)
    )


def _allocation_times(configs: List[Any], reference: Reference) -> List[float]:
    """The fastest DRP-CDS allocation of each sweep database, rescaled.

    The time is ``Allocator.allocate``'s own, the Figure 6/7 quantity.
    """
    allocator = make_allocator("drp-cds")
    times = []
    for config in configs:
        if "drp-cds" not in config.algorithms:
            continue
        for index, value in enumerate(config.sweep_values):
            before = reference.probe()
            row = [
                min(
                    allocator.allocate(database, channels).elapsed_seconds
                    for _ in range(ALLOC_REPEATS)
                )
                for database, channels in _row_databases(config, index, value)
            ]
            after = reference.probe()
            times += [reference.rescale(took, before, after) for took in row]
    return times


def _write_trace(records: Iterable[Any], path: Path, item_ids: Iterable[str]) -> int:
    """Stream ``records`` to ``path`` in the replay format; returns the count.

    One record at a time, so the workload is never held in memory and
    ``peak_rss_mb`` measures the program, not the load generator.
    """
    quoted = {item_id: json.dumps(item_id) for item_id in item_ids}
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                '{"t":%r,"id":%s}\n'
                % (float(record.timestamp), quoted[record.item_id])
            )
            count += 1
    return count


#: Requests a serve pass times between two runs of the reference loop.
SEGMENT_RECORDS = 20_000


def _probed(
    records: Iterable[Any],
    epoch_seconds: float,
    reference: Reference,
    segments: List[Tuple[int, float]],
    stalls: List[float],
) -> Iterator[Any]:
    """Yield ``records``, timing them in segments between reference probes.

    A segment ends after ``SEGMENT_RECORDS`` records and before each
    epoch's first record; ``segments`` gets its record count and
    rescaled seconds.  The epoch arithmetic mirrors the service's:
    epochs are anchored at the first record and boundaries advance by
    ``epoch_seconds``.  The gap between handing over a new epoch's
    first record and the next pull is the epoch-boundary stall (plus
    serving that one request): a one-record segment, also in ``stalls``.
    The service's close of the last epoch, after the stream ends, does
    no re-allocation and is not timed.
    """
    epoch_end: Optional[float] = None
    count = 0
    before = reference.probe()
    began = time.perf_counter()
    for record in records:
        boundary = False
        if epoch_end is None:
            epoch_end = record.timestamp + epoch_seconds
        elif record.timestamp >= epoch_end:
            while record.timestamp >= epoch_end:
                epoch_end += epoch_seconds
            boundary = True
        if boundary or count == SEGMENT_RECORDS:
            took = time.perf_counter() - began
            after = reference.probe()
            segments.append((count, reference.rescale(took, before, after)))
            before, count = after, 0
            began = time.perf_counter()
        yield record
        if boundary:
            took = time.perf_counter() - began
            after = reference.probe()
            stall = reference.rescale(took, before, after)
            stalls.append(stall)
            segments.append((1, stall))
            before = after
            began = time.perf_counter()
        else:
            count += 1
    took = time.perf_counter() - began
    segments.append((count, reference.rescale(took, before, reference.probe())))
