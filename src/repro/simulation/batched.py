"""Batched broadcast simulation: the static-scenario fast path.

The event-driven engine executes two Python callbacks per request
(arrival + delivery), which dominates the cost of validating large
request streams.  For *static* scenarios — a fixed broadcast program,
no adaptive re-allocation, no client cache — every request's waiting
time is a closed-form function of its tune-in instant and the carrying
channel's precomputed cycle geometry, so the whole stream can be
evaluated as a handful of numpy gathers instead of ``2·n`` heap events.

The vectorized arithmetic
(:meth:`~repro.simulation.server.BroadcastProgram.waiting_times`) mirrors
:meth:`~repro.simulation.channel.BroadcastChannel.next_transmission_start`
operation for operation (same division, same ceil, same round-down
guard, same association order when adding the download time), and the
request stream comes from the same
:meth:`~repro.simulation.client.RequestGenerator.sample_batch` draws the
engine consumes — so the reported metrics are **bitwise-identical** to
the engine's for the same seed (``tests/test_batched.py`` asserts it;
summary statistics use exact ``math.fsum`` accumulation, making them
independent of recording order).  The only intentional difference:
``events_processed`` is 0, because no events exist on this path.

Select it through ``run_broadcast_simulation(..., backend="numpy")`` —
the same ``"python" | "numpy" | "auto"`` convention as
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram

__all__ = ["batched_waiting_times", "run_batched_simulation"]


def batched_waiting_times(
    program: BroadcastProgram,
    item_ids: Sequence[str],
    arrivals: np.ndarray,
    picks: np.ndarray,
) -> np.ndarray:
    """Waiting time of every request, vectorized over the whole stream.

    ``arrivals``/``picks`` are the arrays of
    :meth:`RequestGenerator.sample_batch`; ``item_ids`` maps pick
    indices to items.  The timing model is
    :meth:`BroadcastProgram.waiting_times`.
    """
    database = program.allocation.database
    rows = np.fromiter(
        (database.index_of(item_id) for item_id in item_ids),
        dtype=np.intp,
        count=len(item_ids),
    )
    return program.waiting_times(rows[picks], arrivals)


def run_batched_simulation(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
    bandwidths: Optional[Sequence[float]] = None,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    seed: int = 0,
    request_probabilities: Optional[Sequence[float]] = None,
) -> "SimulationReport":
    """Run the static broadcast simulation without a single event.

    Drop-in replacement for
    :func:`~repro.simulation.simulator.run_broadcast_simulation` (same
    parameters, same report, identical measured statistics for the same
    seed), with ``events_processed = 0``.
    """
    from repro.simulation.simulator import SimulationReport, _record_simulation_metrics

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
        "sim.run",
        backend="numpy",
        requests=num_requests,
        channels=allocation.num_channels,
    ) as span:
        arrivals, picks = generator.sample_batch(num_requests)
        item_ids = generator.item_ids
        waits = batched_waiting_times(program, item_ids, arrivals, picks)
        if waits.size and float(waits.min()) < 0:
            raise SimulationError(
                f"waiting time cannot be negative, got {float(waits.min())}"
            )

        # Group waits by item without a per-request Python loop: one
        # stable sort, then contiguous slices.  Statistics go through
        # the same summarize() (exact fsum) as the collector, so
        # ordering is moot.
        order = np.argsort(picks, kind="stable")
        sorted_picks = picks[order]
        sorted_waits = waits[order]
        boundaries = np.flatnonzero(np.diff(sorted_picks)) + 1
        group_starts = np.concatenate(([0], boundaries))
        per_item: Dict[str, SummaryStatistics] = {}
        for group in range(len(group_starts)):
            lo = int(group_starts[group])
            hi = (
                int(group_starts[group + 1])
                if group + 1 < len(group_starts)
                else len(sorted_waits)
            )
            item_id = item_ids[int(sorted_picks[lo])]
            per_item[item_id] = summarize(sorted_waits[lo:hi].tolist())

        report = SimulationReport(
            measured=summarize(waits.tolist()),
            analytical_waiting_time=average_waiting_time(
                allocation, bandwidth=bandwidth
            ),
            num_requests=int(num_requests),
            events_processed=0,
            per_item=per_item,
        )
        span.update(
            events_processed=report.events_processed,
            requests_served=report.num_requests,
            measured_mean=report.measured.mean,
        )
        _record_simulation_metrics(report, allocation)
    return report
