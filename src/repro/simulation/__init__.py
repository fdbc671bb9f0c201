"""Broadcast simulation substrate.

Validates the analytical waiting-time model end-to-end: a Poisson client
request stream is served on a broadcast program and the actual waiting
times are measured.  The program is closed form; the discrete-event
kernel and per-item channel the verification oracles hold it to are
:mod:`repro.verify.eventsim`.
"""

from repro.simulation.adaptive import (
    EpochReport,
    RotatingDrift,
    run_adaptive_simulation,
)
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import SimulationReport, run_broadcast_simulation

__all__ = [
    "BroadcastProgram",
    "RequestGenerator",
    "SummaryStatistics",
    "summarize",
    "SimulationReport",
    "run_broadcast_simulation",
    "RotatingDrift",
    "EpochReport",
    "run_adaptive_simulation",
]
