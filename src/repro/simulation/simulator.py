"""High-level simulation driver: validate allocations end-to-end.

:func:`run_broadcast_simulation` draws a Poisson request stream, serves
every request on a broadcast program and reports the *measured* average
waiting time next to the *analytical* :math:`W_b` of Eq. (2).  The law
of large numbers says the two converge; the property-based tests assert
it within confidence bounds for arbitrary allocations.

A static program makes each request's wait a closed-form function of
its tune-in instant and its channel's cycle geometry
(:meth:`~repro.simulation.server.BroadcastProgram.waiting_times`), so
the whole stream is a handful of numpy gathers.  The discrete-event
form of the same run — two heap events per request on per-item
channels — is :func:`repro.verify.reference.simulate_reference`, which
the ``oracle.simulators`` check holds this driver to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram

__all__ = ["SimulationReport", "run_broadcast_simulation"]


@dataclass
class SimulationReport:
    """Outcome of one simulation run.

    Attributes
    ----------
    measured:
        Empirical waiting-time summary over all completed requests.
    analytical_waiting_time:
        The model's :math:`W_b` (Eq. 2) for the simulated allocation —
        only meaningful when all channels share one bandwidth and the
        request distribution matches the database profile.
    num_requests:
        Completed requests.
    per_item:
        Empirical summaries per item id (items never requested are
        absent).
    """

    measured: SummaryStatistics
    analytical_waiting_time: float
    num_requests: int
    per_item: Dict[str, SummaryStatistics]

    @property
    def relative_error(self) -> float:
        """``|measured − analytical| / analytical``."""
        if self.analytical_waiting_time == 0:
            raise SimulationError("analytical waiting time is zero")
        return (
            abs(self.measured.mean - self.analytical_waiting_time)
            / self.analytical_waiting_time
        )


def run_broadcast_simulation(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
    bandwidths: Optional[Sequence[float]] = None,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    seed: int = 0,
    request_probabilities: Optional[Sequence[float]] = None,
) -> SimulationReport:
    """Simulate a broadcast program under a Poisson request stream.

    Parameters
    ----------
    allocation:
        The channel allocation to execute.
    bandwidth / bandwidths:
        Common, or per-channel, channel bandwidth.
    num_requests:
        Requests to generate; more requests tighten the match with the
        analytical model (error shrinks as ``1/√n``).
    arrival_rate:
        Poisson arrival rate λ (requests/second).  The rate does not
        bias the expectation — tune-in instants of a Poisson stream are
        uniform over the cycle in the long run (PASTA) — but a higher λ
        packs the same request count into fewer broadcast cycles.
    seed:
        RNG seed for the request stream.
    request_probabilities:
        Optional per-item request distribution override (profile
        mismatch experiments).

    Returns
    -------
    SimulationReport
    """
    if num_requests < 1:
        raise SimulationError(f"num_requests must be >= 1, got {num_requests}")
    program = BroadcastProgram(
        allocation, bandwidth=bandwidth, bandwidths=bandwidths
    )
    generator = RequestGenerator(
        allocation.database,
        arrival_rate=arrival_rate,
        seed=seed,
        request_probabilities=request_probabilities,
    )
    with obs.span(
        "sim.run", requests=num_requests, channels=allocation.num_channels
    ) as span:
        arrivals, picks = generator.sample_batch(num_requests)
        waits = program.waiting_times(picks, arrivals)
        if float(waits.min()) < 0:
            raise SimulationError(
                f"waiting time cannot be negative, got {float(waits.min())}"
            )

        # Group waits by item without a per-request Python loop: one
        # stable sort, then contiguous slices.  summarize() sums with
        # exact fsum, so the order within a group is moot.
        order = np.argsort(picks, kind="stable")
        sorted_picks = picks[order]
        cuts = np.flatnonzero(np.diff(sorted_picks)) + 1
        heads = np.concatenate(([0], cuts))
        item_id_at = allocation.database.item_id_at
        per_item: Dict[str, SummaryStatistics] = {
            item_id_at(int(sorted_picks[head])): summarize(group)
            for head, group in zip(heads, np.split(waits[order], cuts))
        }

        report = SimulationReport(
            measured=summarize(waits),
            analytical_waiting_time=average_waiting_time(
                allocation, bandwidth=bandwidth
            ),
            num_requests=int(num_requests),
            per_item=per_item,
        )
        span.update(
            requests_served=report.num_requests,
            measured_mean=report.measured.mean,
        )
        _record_simulation_metrics(allocation, picks)
    return report


def _record_simulation_metrics(
    allocation: ChannelAllocation, picks: np.ndarray
) -> None:
    """Bump the ``sim.*`` counters and per-channel utilization gauges.

    Utilization here is each channel's share of the served requests —
    the broadcast medium itself is always transmitting, so demand share
    is the quantity that distinguishes hot channels from cold ones.
    Gauges are per channel index; ``picks`` are the served requests'
    database rows.
    """
    registry = obs.get_metrics()
    if not registry.enabled:
        return
    total = len(picks)
    registry.counter("sim.runs").inc()
    registry.counter("sim.requests_served").inc(total)
    served = np.bincount(
        allocation.assignment_array()[picks],
        minlength=allocation.num_channels,
    )
    for channel, count in enumerate(served.tolist()):
        registry.gauge("sim.channel_utilization", channel=channel).set(
            count / total
        )
        registry.counter("sim.channel_requests", channel=channel).inc(count)
