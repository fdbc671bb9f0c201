"""Adaptive broadcasting: re-estimate, re-allocate, repeat.

The paper generates one program from one static profile.  A deployed
server (its Figure 1) keeps collecting access patterns while interests
drift, and periodically regenerates the program.  This module simulates
that loop over epochs:

1. clients issue requests according to the *current true* popularity
   (which drifts per epoch);
2. the server measures waiting times under its current program and logs
   the requests;
3. at the epoch boundary it re-estimates the profile from the trace
   (:mod:`repro.workloads.estimator`) and re-runs the allocator.

Comparing the adaptive loop against a static program quantifies how
much the paper's fast allocator buys operationally: DRP-CDS is cheap
enough to re-run every epoch, which a GA-based GOPT would not be.

Extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, cost_under_profile
from repro.core.database import BroadcastDatabase
from repro.core.incremental import (
    DEFAULT_REGRESSION_GUARD,
    AllocationCache,
    IncrementalAllocator,
)
from repro.core.scheduler import Allocator
from repro.exceptions import SimulationError
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram
from repro.workloads.estimator import (
    CountEstimator,
    DecayEstimator,
    estimate_database,
    profile_l1_error,
)
from repro.workloads.trace import synthesize_trace

__all__ = ["RotatingDrift", "EpochReport", "run_adaptive_simulation"]


class RotatingDrift:
    """Popularity drift by rank rotation.

    Each epoch, the popularity vector rotates by ``shift_per_epoch``
    positions over the catalogue: yesterday's hot items cool down, cold
    items heat up — a simple but harsh drift model (a rotation by N/2
    eventually inverts the profile).
    """

    def __init__(
        self, base_frequencies: Sequence[float], shift_per_epoch: int = 1
    ) -> None:
        if shift_per_epoch < 0:
            raise SimulationError(
                f"shift_per_epoch must be >= 0, got {shift_per_epoch}"
            )
        self._base = np.asarray(base_frequencies, dtype=np.float64)
        if self._base.ndim != 1 or len(self._base) == 0:
            raise SimulationError("base_frequencies must be a non-empty vector")
        self._shift = shift_per_epoch

    def probabilities(self, epoch: int) -> np.ndarray:
        """The true request distribution during ``epoch`` (0-based)."""
        if epoch < 0:
            raise SimulationError(f"epoch must be >= 0, got {epoch}")
        return np.roll(self._base, epoch * self._shift)


@dataclass
class EpochReport:
    """Measurements of one adaptation epoch.

    Attributes
    ----------
    epoch:
        0-based epoch index.
    measured:
        Waiting-time summary of this epoch's requests.
    cost_under_truth:
        Eq.-(3) cost of the epoch's allocation *evaluated against the
        true popularity* — the quantity the allocator would minimise if
        it knew the truth.
    profile_error:
        L1 distance between the profile the program was built from and
        the epoch's true distribution (0 = the server knew the truth).
    reallocated:
        Whether the program was regenerated before this epoch.
    cache_hit:
        True when the epoch boundary reused a previous program instead
        of searching: the estimator reported zero L1 drift, or the warm
        engine's allocation cache held the believed profile.
    warm_moves:
        CDS moves the warm-started refinement executed at the preceding
        epoch boundary (0 for cold/static/reused epochs).
    allocation_mode:
        How this epoch's program was obtained: ``"cold"``, ``"warm"``,
        ``"fallback"``, ``"cache"``, ``"reused"`` (zero-drift program
        reuse) or ``"static"`` (no adaptation requested).
    """

    epoch: int
    measured: SummaryStatistics
    cost_under_truth: float
    profile_error: float
    reallocated: bool
    cache_hit: bool = False
    warm_moves: int = 0
    allocation_mode: str = "cold"


def run_adaptive_simulation(
    database: BroadcastDatabase,
    allocator: Allocator,
    num_channels: int,
    *,
    epochs: int = 8,
    requests_per_epoch: int = 4000,
    drift: Optional[RotatingDrift] = None,
    estimator: "CountEstimator | DecayEstimator | None" = None,
    adapt: bool = True,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
    warm_start: bool = False,
    cache: Optional[AllocationCache] = None,
    regression_guard: Optional[float] = DEFAULT_REGRESSION_GUARD,
) -> List[EpochReport]:
    """Simulate epochs of drifting demand with optional re-allocation.

    Parameters
    ----------
    database:
        The catalogue with its *initial* access profile; sizes are fixed
        throughout, frequencies drift.
    allocator:
        Any :class:`Allocator` — regenerates the program at each epoch
        boundary when ``adapt`` is true.
    num_channels:
        Channel count K.
    epochs / requests_per_epoch:
        Simulation horizon.
    drift:
        The popularity drift model; default rotates by one rank per
        epoch.
    estimator:
        Frequency estimator applied to the previous epoch's trace;
        default :class:`CountEstimator` (Laplace-smoothed counts).
    adapt:
        False freezes the initial program — the static baseline.
    bandwidth:
        Channel bandwidth ``b``.
    seed:
        Master seed; per-epoch streams derive from it.
    warm_start:
        Route epoch-boundary re-allocations through an
        :class:`~repro.core.incremental.IncrementalAllocator`: CDS is
        re-seeded from the previous epoch's allocation (guarded by
        ``regression_guard``) instead of rebuilding from scratch, and an
        allocation cache short-circuits recurring believed profiles.
        The engine's pipeline is DRP+CDS regardless of ``allocator``
        (its first build is a cold DRP+CDS run).  Off by default — the
        cold loop reproduces the pre-existing behaviour bit for bit.
    cache:
        Optional :class:`~repro.core.incremental.AllocationCache` to
        consult/populate across epochs (and across calls, when shared);
        only used with ``warm_start``.  Default: a fresh private cache.
    regression_guard:
        Warm-start fallback threshold (see
        :func:`~repro.core.incremental.warm_start_refine`); only used
        with ``warm_start``.

    Returns
    -------
    list of EpochReport, one per epoch.

    Notes
    -----
    Independent of ``warm_start``, an epoch boundary whose re-estimated
    profile shows **zero** L1 drift against the current believed profile
    reuses the previous program verbatim (the allocator is
    deterministic, so rebuilding could only reproduce it); the epoch is
    reported with ``allocation_mode="reused"``, ``cache_hit=True`` and
    counted on the ``incremental.cache_hits`` metrics counter.
    """
    if epochs < 1:
        raise SimulationError(f"epochs must be >= 1, got {epochs}")
    if requests_per_epoch < 1:
        raise SimulationError(
            f"requests_per_epoch must be >= 1, got {requests_per_epoch}"
        )
    if drift is None:
        drift = RotatingDrift(
            [item.frequency for item in database.items], shift_per_epoch=1
        )
    if estimator is None:
        estimator = CountEstimator()

    sizes: Dict[str, float] = {
        item.item_id: item.size for item in database.items
    }
    ids = list(database.item_ids)
    believed = database  # the profile the current program was built from
    engine: Optional[IncrementalAllocator] = None
    if warm_start:
        engine = IncrementalAllocator(
            num_channels,
            regression_guard=regression_guard,
            cache=cache if cache is not None else AllocationCache(),
        )
        allocation: ChannelAllocation = engine.reallocate(believed).allocation
    else:
        allocation = allocator.allocate(believed, num_channels).allocation
    # The program is rebuilt only when the allocation changes — an
    # unchanged epoch reuses the previous program verbatim.
    program = BroadcastProgram(allocation, bandwidth=bandwidth)

    reports: List[EpochReport] = []
    reallocated = True  # the initial build counts as a (re)allocation
    cache_hit = False
    warm_moves = 0
    mode = "cold" if adapt else "static"
    for epoch in range(epochs):
        truth = drift.probabilities(epoch)
        trace = synthesize_trace(
            database,
            requests_per_epoch,
            seed=seed + epoch,
            probabilities=truth.tolist(),
        )
        waits = [
            program.waiting_time(record.item_id, record.timestamp)
            for record in trace
        ]
        believed_profile = dict(
            zip(believed.item_ids, believed.frequencies.tolist())
        )
        true_profile = dict(zip(ids, truth.tolist()))
        reports.append(
            EpochReport(
                epoch=epoch,
                measured=summarize(waits),
                cost_under_truth=cost_under_profile(allocation, ids, truth),
                profile_error=profile_l1_error(believed_profile, true_profile),
                reallocated=reallocated,
                cache_hit=cache_hit,
                warm_moves=warm_moves,
                allocation_mode=mode,
            )
        )
        registry = obs.get_metrics()
        if registry.enabled:
            report = reports[-1]
            registry.counter("adaptive.epochs").inc()
            registry.counter("adaptive.mode", mode=mode).inc()
            if reallocated:
                registry.counter("adaptive.reallocations").inc()
            registry.gauge("adaptive.epoch").set(epoch)
            registry.gauge("adaptive.cost_under_truth").set(
                report.cost_under_truth
            )
            registry.gauge("adaptive.profile_error").set(report.profile_error)
            registry.gauge("adaptive.measured_wait_mean").set(
                report.measured.mean
            )
        reallocated = False
        cache_hit = False
        warm_moves = 0
        if adapt and epoch + 1 < epochs:
            estimated = estimate_database(trace, sizes, estimator=estimator)
            estimated_profile = dict(
                zip(estimated.item_ids, estimated.frequencies.tolist())
            )
            if profile_l1_error(believed_profile, estimated_profile) == 0.0:
                # Zero drift: the deterministic allocator would
                # reproduce the current program — skip the rebuild and
                # count the reuse as a cache hit.
                cache_hit = True
                mode = "reused"
                registry = obs.get_metrics()
                if registry.enabled:
                    registry.counter("incremental.cache_hits").inc()
                if engine is not None:
                    engine.stats.cache_hits += 1
            else:
                believed = estimated
                if engine is not None:
                    result = engine.reallocate(believed)
                    allocation = result.allocation
                    mode = result.mode
                    warm_moves = result.warm_moves
                    cache_hit = result.mode == "cache"
                else:
                    allocation = allocator.allocate(
                        believed, num_channels
                    ).allocation
                    mode = "cold"
                program = BroadcastProgram(allocation, bandwidth=bandwidth)
                reallocated = True
    return reports
