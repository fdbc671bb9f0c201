"""Sweep executor: run an :class:`ExperimentConfig` to completion.

For every sweep value and replication the runner synthesises one
workload (same seed for every algorithm, so all algorithms face
identical databases), times each allocator, and aggregates cost, waiting
time and execution time across replications.

Every cell runs through :func:`repro.experiments.parallel.run_cell`,
driven by :func:`~repro.experiments.parallel.iter_outcomes`: inline in
this process by default (``workers=1``), or fanned out over a process
pool with ``workers=N`` or the ``REPRO_WORKERS`` environment variable.
The outcomes come back in grid order and go through one merge, so for
any worker count the aggregated rows are bitwise-identical (wall-clock
``elapsed`` aggregates excepted — those measure whatever machine state
the run saw).

Importing :mod:`repro.baselines` as a side effect registers every
algorithm name the configs refer to.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

import repro.baselines  # noqa: F401  (registers baseline allocators)
from repro import obs
from repro.analysis.stats import aggregate
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CellOutcome,
    build_cell_grid,
    iter_outcomes,
    resolve_workers,
)
from repro.experiments.records import CellError, ExperimentResult, MeasurementRow

__all__ = ["run_experiment", "merge_outcomes"]

ProgressCallback = Callable[[str], None]


def merge_outcomes(
    config: ExperimentConfig,
    outcomes: Iterable[CellOutcome],
    progress: Optional[ProgressCallback] = None,
) -> ExperimentResult:
    """Aggregate per-cell outcomes into rows, in canonical grid order.

    Shared by :func:`run_experiment` and the shard merge
    (:func:`repro.experiments.shards.merge_shards`).  Outcomes may
    arrive in any order: they are grouped by cell and ordered by the
    grid, so aggregation order (and therefore floating-point rounding)
    depends only on the grid — which is what makes every worker count
    and any shard layout reproduce the same rows exactly.
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
        ``None`` (default) defers to the ``REPRO_WORKERS`` environment
        variable and runs the cells in this process when that is unset
        too (see :func:`~repro.experiments.parallel.resolve_workers`);
        an integer N >= 2 fans the cells out over N worker processes;
        ``"auto"`` uses one worker per usable CPU.  Rows are
        bitwise-identical for any worker count.
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
    cells = build_cell_grid(config)
    with obs.span(
        "experiment.run",
        experiment=config.name,
        sweep_parameter=config.sweep_parameter,
        cells=len(cells),
        workers=resolved,
    ) as span:
        outcomes = iter_outcomes(
            config, cells, workers=resolved, cell_timeout=cell_timeout
        )
        result = merge_outcomes(config, outcomes, progress)
        span.update(rows=len(result.rows), errors=len(result.errors))
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("experiment.runs").inc()
            registry.counter("experiment.rows").inc(len(result.rows))
            registry.counter("experiment.errors").inc(len(result.errors))
    return result
