"""Per-figure experiment definitions — the paper's evaluation, indexed.

Each ``figureN()`` returns the :class:`ExperimentConfig` that regenerates
the data of the paper's Figure N:

* Figure 2 — channel number K vs average waiting time,
* Figure 3 — number of broadcast items N vs average waiting time,
* Figure 4 — diversity Φ vs average waiting time,
* Figure 5 — skewness θ vs average waiting time,
* Figure 6 — channel number K vs execution time,
* Figure 7 — number of broadcast items N vs execution time.

Figures 6 and 7 reuse the sweeps of Figures 2 and 3; only the reported
metric differs (``mean_elapsed_seconds`` instead of
``mean_waiting_time``), which :data:`FIGURE_METRICS` records.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.experiments.config import (
    ExperimentConfig,
    TABLE5_CHANNELS,
    TABLE5_DIVERSITY,
    TABLE5_ITEMS,
    TABLE5_SKEWNESS,
)
from repro.experiments.records import ExperimentResult

__all__ = [
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "FIGURES",
    "FIGURE_METRICS",
    "figure_config",
    "run_figure",
]


def figure2() -> ExperimentConfig:
    """Figure 2: K = 4..10 vs average waiting time."""
    return ExperimentConfig(
        name="figure2",
        description="channel number vs average waiting time",
        sweep_parameter="num_channels",
        sweep_values=tuple(float(k) for k in TABLE5_CHANNELS),
    )


def figure3() -> ExperimentConfig:
    """Figure 3: N = 60..180 vs average waiting time."""
    return ExperimentConfig(
        name="figure3",
        description="number of broadcast items vs average waiting time",
        sweep_parameter="num_items",
        sweep_values=tuple(float(n) for n in TABLE5_ITEMS),
    )


def figure4() -> ExperimentConfig:
    """Figure 4: Φ = 0..3 vs average waiting time."""
    return ExperimentConfig(
        name="figure4",
        description="diversity vs average waiting time",
        sweep_parameter="diversity",
        sweep_values=TABLE5_DIVERSITY,
    )


def figure5() -> ExperimentConfig:
    """Figure 5: θ = 0.4..1.6 vs average waiting time."""
    return ExperimentConfig(
        name="figure5",
        description="skewness vs average waiting time",
        sweep_parameter="skewness",
        sweep_values=TABLE5_SKEWNESS,
    )


def figure6() -> ExperimentConfig:
    """Figure 6: K = 4..10 vs execution time.

    The complexity comparison needs only DRP-CDS and GOPT (the paper
    plots exactly these two).
    """
    return ExperimentConfig(
        name="figure6",
        description="channel number vs execution time",
        sweep_parameter="num_channels",
        sweep_values=tuple(float(k) for k in TABLE5_CHANNELS),
        algorithms=("drp-cds", "gopt"),
        replications=3,
    )


def figure7() -> ExperimentConfig:
    """Figure 7: N = 60..180 vs execution time."""
    return ExperimentConfig(
        name="figure7",
        description="number of broadcast items vs execution time",
        sweep_parameter="num_items",
        sweep_values=tuple(float(n) for n in TABLE5_ITEMS),
        algorithms=("drp-cds", "gopt"),
        replications=3,
    )


#: Figure id -> config factory.
FIGURES: Dict[str, Callable[[], ExperimentConfig]] = {
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
}

#: Figure id -> the metric the paper's y-axis plots.
FIGURE_METRICS: Dict[str, str] = {
    "figure2": "mean_waiting_time",
    "figure3": "mean_waiting_time",
    "figure4": "mean_waiting_time",
    "figure5": "mean_waiting_time",
    "figure6": "mean_elapsed_seconds",
    "figure7": "mean_elapsed_seconds",
}


def figure_config(figure_id: str) -> ExperimentConfig:
    """Look up a figure's config by id (``"figure2"`` .. ``"figure7"``)."""
    try:
        factory = FIGURES[figure_id]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {figure_id!r}; known: {known}") from None
    return factory()


def run_figure(
    figure_id: str,
    *,
    replications: Optional[int] = None,
    workers: Union[int, str, None] = None,
    cell_timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[ExperimentConfig, ExperimentResult]:
    """Regenerate one figure's data, optionally scaled down or fanned out.

    Convenience wrapper used by the CLI and the report generator:
    resolves the figure's config, applies a replication override, and
    runs it through :func:`~repro.experiments.runner.run_experiment`
    with the requested worker count (serial and parallel runs produce
    identical rows).  Returns ``(config, result)``.
    """
    from repro.experiments.runner import run_experiment

    config = figure_config(figure_id)
    if replications is not None:
        config = config.scaled_down(replications=replications)
    result = run_experiment(
        config,
        progress=progress,
        workers=workers,
        cell_timeout=cell_timeout,
    )
    return config, result
