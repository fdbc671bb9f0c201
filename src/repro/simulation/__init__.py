"""Discrete-event broadcast simulation substrate.

Validates the analytical waiting-time model end-to-end: a deterministic
event kernel drives cyclic broadcast channels under a Poisson client
request stream and measures actual waiting times.
"""

from repro.simulation.adaptive import (
    EpochReport,
    RotatingDrift,
    run_adaptive_simulation,
)
from repro.simulation.channel import BroadcastChannel
from repro.simulation.client import Request, RequestGenerator
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import Event, EventPriority
from repro.simulation.indexing import (
    IndexedChannel,
    IndexedTiming,
    optimal_index_replication,
)
from repro.simulation.metrics import (
    SummaryStatistics,
    WaitingTimeCollector,
    summarize,
)
from repro.simulation.batched import (
    batched_waiting_times,
    run_batched_simulation,
)
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import SimulationReport, run_broadcast_simulation

__all__ = [
    "Event",
    "EventPriority",
    "SimulationEngine",
    "BroadcastChannel",
    "BroadcastProgram",
    "Request",
    "RequestGenerator",
    "WaitingTimeCollector",
    "SummaryStatistics",
    "summarize",
    "SimulationReport",
    "run_broadcast_simulation",
    "batched_waiting_times",
    "run_batched_simulation",
    "RotatingDrift",
    "EpochReport",
    "run_adaptive_simulation",
    "IndexedChannel",
    "IndexedTiming",
    "optimal_index_replication",
]
