"""Adaptive broadcasting: the live service, scored against the truth.

The paper generates one program from one static profile.  A deployed
server (its Figure 1) keeps collecting access patterns while interests
drift, and periodically regenerates the program.  That loop is
:class:`~repro.service.BroadcastService`; this module drives it over a
synthetic drifting stream and scores each epoch against the popularity
that generated it, which only a simulation knows:

1. :func:`~repro.service.drifting_stream` issues each epoch's requests
   from that epoch's *true* (drifted) popularity, one request per
   second of stream time;
2. the service serves them, and at each epoch boundary re-estimates the
   profile from its decayed counts and re-allocates through its warm
   DRP+CDS engine; the new program goes on air at the next major-cycle
   boundary of the old one;
3. :func:`run_adaptive_simulation` prices the program on air at each
   epoch's close under the epoch's truth.

Comparing the adaptive loop against a static program quantifies how
much the paper's fast allocator buys operationally: DRP-CDS is cheap
enough to re-run every epoch, which a GA-based GOPT would not be.

Extension beyond the paper (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, cost_under_profile
from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.workloads.estimator import profile_l1_error

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
        Eq.-(3) cost of the program on air at the epoch's close
        *evaluated against the true popularity* — the quantity the
        allocator would minimise if it knew the truth.
    profile_error:
        L1 distance between the profile that program was built from and
        the epoch's true distribution (0 = the server knew the truth).
    reallocated:
        Whether the program was regenerated at the preceding epoch
        boundary (the initial build counts for epoch 0).
    cache_hit:
        True when the epoch boundary reused a previous program instead
        of searching: the estimated profile showed zero L1 drift.
    warm_moves:
        CDS moves the warm-started refinement executed at the preceding
        epoch boundary (0 for cold/static/reused epochs).
    allocation_mode:
        How this epoch's program was obtained: ``"cold"``, ``"warm"``,
        ``"fallback"``, ``"reused"`` (zero-drift program reuse) or
        ``"static"`` (no adaptation requested).
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
    num_channels: int,
    *,
    epochs: int = 8,
    requests_per_epoch: int = 4000,
    drift: Optional[RotatingDrift] = None,
    adapt: bool = True,
    bandwidth: float = DEFAULT_BANDWIDTH,
    seed: int = 0,
) -> List[EpochReport]:
    """Simulate epochs of drifting demand with optional re-allocation.

    Parameters
    ----------
    database:
        The catalogue with its *initial* access profile; sizes are fixed
        throughout, frequencies drift.  The first program is DRP+CDS on
        this profile.
    num_channels:
        Channel count K.
    epochs / requests_per_epoch:
        Simulation horizon.  Epochs last ``requests_per_epoch`` seconds
        of stream time, one request per second.
    drift:
        The popularity drift model; default rotates by one rank per
        epoch.
    adapt:
        True runs :class:`~repro.service.BroadcastService` over the
        stream: decayed counts (half-life two epochs, Laplace smoothing
        1), warm re-allocation at every boundary, cycle-boundary
        handover.  False freezes the service's initial program over the
        same requests — the static baseline.
    bandwidth:
        Channel bandwidth ``b``.
    seed:
        Master seed; per-epoch streams derive from it.

    Returns
    -------
    list of EpochReport, one per epoch.
    """
    # Imported here: repro.service.serve imports RotatingDrift from this
    # module.
    from repro.service.serve import BroadcastService, drifting_stream

    if drift is None:
        drift = RotatingDrift(
            [item.frequency for item in database.items], shift_per_epoch=1
        )
    records = list(
        drifting_stream(
            database,
            epochs=epochs,
            requests_per_epoch=requests_per_epoch,
            epoch_seconds=float(requests_per_epoch),
            drift=drift,
            seed=seed,
        )
    )
    service = BroadcastService(
        {item.item_id: item.size for item in database.items},
        num_channels,
        bandwidth=bandwidth,
        epoch_seconds=float(requests_per_epoch),
        initial_database=database,
    )
    ids = list(database.item_ids)

    def scored(
        epoch: int,
        allocation: ChannelAllocation,
        measured: SummaryStatistics,
        **provenance: object,
    ) -> EpochReport:
        truth = drift.probabilities(epoch)
        believed = allocation.database
        return EpochReport(
            epoch=epoch,
            measured=measured,
            cost_under_truth=cost_under_profile(allocation, ids, truth),
            profile_error=profile_l1_error(
                dict(zip(believed.item_ids, believed.frequencies.tolist())),
                dict(zip(ids, truth.tolist())),
            ),
            **provenance,
        )

    if adapt:
        return [
            scored(
                report.epoch,
                report.allocation,
                report.measured,
                reallocated=report.reallocated,
                cache_hit=report.cache_hit,
                warm_moves=report.warm_moves,
                allocation_mode=report.allocation_mode,
            )
            for report in service.run(records)
        ]
    program = service.live.program
    waits = program.waiting_times(
        service.estimator.rows([record.item_id for record in records]),
        np.array([record.timestamp for record in records]),
    ).reshape(epochs, requests_per_epoch)
    return [
        scored(
            epoch,
            program.allocation,
            summarize(waits[epoch]),
            reallocated=epoch == 0,
            allocation_mode="static",
        )
        for epoch in range(epochs)
    ]
