"""Broadcast simulation substrate.

Validates the analytical waiting-time model end-to-end: a Poisson client
request stream is served on a broadcast program and the actual waiting
times are measured.  The discrete-event kernel and the per-item channel
are kept as the scalar reference the verification oracles hold the
closed-form program to.
"""

from repro.simulation.adaptive import (
    EpochReport,
    RotatingDrift,
    run_adaptive_simulation,
)
from repro.simulation.channel import BroadcastChannel
from repro.simulation.client import RequestGenerator
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
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import SimulationReport, run_broadcast_simulation

__all__ = [
    "Event",
    "EventPriority",
    "SimulationEngine",
    "BroadcastChannel",
    "BroadcastProgram",
    "RequestGenerator",
    "WaitingTimeCollector",
    "SummaryStatistics",
    "summarize",
    "SimulationReport",
    "run_broadcast_simulation",
    "RotatingDrift",
    "EpochReport",
    "run_adaptive_simulation",
    "IndexedChannel",
    "IndexedTiming",
    "optimal_index_replication",
]
