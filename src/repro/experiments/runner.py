"""Sweep executor: run an :class:`ExperimentConfig` to completion.

For every sweep value and replication the runner synthesises one
workload (same seed for every algorithm, so all algorithms face
identical databases), times each allocator, and aggregates cost, waiting
time and execution time across replications.

Execution has two interchangeable engines:

* the **serial** loop below (``workers=None``, the default), and
* the **parallel fan-out** of :mod:`repro.experiments.parallel`
  (``workers=N`` or the ``REPRO_WORKERS`` environment variable), which
  distributes (sweep value, replication, algorithm) cells over a
  process pool.

Both produce their measurements as :class:`CellOutcome` records and
share one merge path, so for any worker count the aggregated rows are
bitwise-identical to a serial run (wall-clock ``elapsed`` aggregates
excepted — those measure whatever machine state the run saw).

Importing :mod:`repro.baselines` as a side effect registers every
algorithm name the configs refer to.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

import os

import repro.baselines  # noqa: F401  (registers baseline allocators)
from repro import obs
from repro.analysis.stats import aggregate
from repro.core.cost import average_waiting_time
from repro.core.scheduler import make_allocator
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CellOutcome,
    build_cell_grid,
    execute_cells,
    resolve_workers,
)
from repro.experiments.records import CellError, ExperimentResult, MeasurementRow
from repro.workloads.generator import WorkloadSpec, generate_database

__all__ = ["run_experiment", "merge_outcomes"]

ProgressCallback = Callable[[str], None]


def _serial_outcomes(config: ExperimentConfig) -> List[CellOutcome]:
    """The classic in-process loop, emitting one outcome per cell.

    Allocators are stateless between ``allocate`` calls, so one instance
    per algorithm is constructed up front and reused across every
    (sweep value, replication) — the parallel path keeps per-cell
    construction instead, because its workers are isolated processes.
    """
    allocators = {
        algorithm: make_allocator(algorithm) for algorithm in config.algorithms
    }
    outcomes: List[CellOutcome] = []
    for value_index, value in enumerate(config.sweep_values):
        point = config.point_parameters(value)
        for replication in range(config.replications):
            spec = WorkloadSpec(
                num_items=point.num_items,
                skewness=point.skewness,
                diversity=point.diversity,
                seed=config.seed_for(value_index, replication),
            )
            database = generate_database(spec)
            for algorithm in config.algorithms:
                with obs.span(
                    "experiment.cell",
                    value_index=value_index,
                    replication=replication,
                    algorithm=algorithm,
                    worker_pid=os.getpid(),
                ) as span:
                    outcome = allocators[algorithm].allocate(
                        database, point.num_channels
                    )
                    span.update(
                        cost=outcome.cost,
                        compute_seconds=outcome.elapsed_seconds,
                    )
                outcomes.append(
                    CellOutcome(
                        value_index=value_index,
                        replication=replication,
                        algorithm=algorithm,
                        cost=outcome.cost,
                        waiting_time=average_waiting_time(
                            outcome.allocation, bandwidth=config.bandwidth
                        ),
                        elapsed_seconds=outcome.elapsed_seconds,
                    )
                )
    return outcomes


def merge_outcomes(
    config: ExperimentConfig,
    outcomes: List[CellOutcome],
    progress: Optional[ProgressCallback] = None,
) -> ExperimentResult:
    """Aggregate per-cell outcomes into rows, in canonical grid order.

    Shared by the serial and parallel engines *and* the shard merge
    (:func:`repro.experiments.shards.merge_shards`) — aggregation order
    (and therefore floating-point rounding) depends only on the grid,
    never on completion order, which is what makes ``workers=N`` and
    any shard layout reproduce the serial rows exactly.
    """
    result = ExperimentResult(
        name=config.name,
        description=config.description,
        sweep_parameter=config.sweep_parameter,
        algorithms=config.algorithms,
    )
    by_cell = {}
    for outcome in outcomes:
        key = (outcome.value_index, outcome.algorithm)
        by_cell.setdefault(key, []).append(outcome)
    for value_index, value in enumerate(config.sweep_values):
        progress_parts: List[str] = []
        for algorithm in config.algorithms:
            cell_outcomes = sorted(
                by_cell.get((value_index, algorithm), []),
                key=lambda outcome: outcome.replication,
            )
            good = [o for o in cell_outcomes if o.error is None]
            for failed in cell_outcomes:
                if failed.error is not None:
                    result.errors.append(
                        CellError(
                            sweep_value=float(value),
                            algorithm=algorithm,
                            replication=failed.replication,
                            message=failed.error,
                        )
                    )
            if not good:
                continue
            cost_agg = aggregate([o.cost for o in good])
            wait_agg = aggregate([o.waiting_time for o in good])
            time_agg = aggregate([o.elapsed_seconds for o in good])
            result.rows.append(
                MeasurementRow(
                    sweep_value=float(value),
                    algorithm=algorithm,
                    mean_cost=cost_agg.mean,
                    std_cost=cost_agg.std,
                    mean_waiting_time=wait_agg.mean,
                    std_waiting_time=wait_agg.std,
                    mean_elapsed_seconds=time_agg.mean,
                    std_elapsed_seconds=time_agg.std,
                    replications=len(good),
                )
            )
            progress_parts.append(f"{algorithm}={wait_agg.mean:.4f}")
        if progress is not None:
            progress(
                f"[{config.name}] {config.sweep_parameter}={value}: "
                + ", ".join(progress_parts)
            )
    return result


def run_experiment(
    config: ExperimentConfig,
    *,
    progress: Optional[ProgressCallback] = None,
    workers: Union[int, str, None] = None,
    cell_timeout: Optional[float] = None,
) -> ExperimentResult:
    """Execute every (sweep value × replication × algorithm) cell.

    Parameters
    ----------
    config:
        The experiment definition.
    progress:
        Optional callback invoked with a status line per sweep point
        (the CLI passes ``print``).
    workers:
        ``None`` (default) runs serially unless the ``REPRO_WORKERS``
        environment variable is set; an integer fans the sweep's cells
        out over that many worker processes (``1`` exercises the
        fan-out machinery in-process); ``"auto"`` uses one worker per
        CPU.  Results are bitwise-identical to the serial path for any
        worker count.
    cell_timeout:
        With ``workers`` >= 2: maximum seconds to wait for any single
        cell's result; a slower cell is recorded as a
        :class:`~repro.experiments.records.CellError` instead of
        stalling the sweep forever.

    Returns
    -------
    ExperimentResult
        One aggregated row per (sweep value, algorithm); failed cells
        are listed in ``result.errors``.
    """
    resolved = resolve_workers(workers)
    grid_size = (
        len(config.sweep_values) * config.replications * len(config.algorithms)
    )
    with obs.span(
        "experiment.run",
        experiment=config.name,
        sweep_parameter=config.sweep_parameter,
        cells=grid_size,
        workers=resolved if resolved is not None else 0,
    ) as span:
        if resolved is None:
            outcomes = _serial_outcomes(config)
        else:
            outcomes = execute_cells(
                config,
                build_cell_grid(config),
                workers=resolved,
                cell_timeout=cell_timeout,
            )
        result = merge_outcomes(config, outcomes, progress)
        span.update(rows=len(result.rows), errors=len(result.errors))
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("experiment.runs").inc()
            registry.counter("experiment.rows").inc(len(result.rows))
            registry.counter("experiment.errors").inc(len(result.errors))
    return result
