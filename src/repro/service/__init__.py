"""The live broadcast service (ROADMAP item 1): `repro serve`.

Composes exact decayed request counts
(:class:`repro.workloads.estimator.DecayedCounts`), warm incremental
re-allocation (:mod:`repro.core.incremental`) and a cycle-aligned
drain/handover protocol into a long-running server over a request
stream.  See ``docs/serving.md``.
"""

from repro.service.clock import Clock, SystemClock
from repro.service.serve import (
    BroadcastService,
    HandoverRecord,
    LiveProgram,
    ServeEpochReport,
    SocketSource,
    drifting_stream,
    replay_source,
)

__all__ = [
    "Clock",
    "SystemClock",
    "BroadcastService",
    "LiveProgram",
    "HandoverRecord",
    "ServeEpochReport",
    "SocketSource",
    "drifting_stream",
    "replay_source",
]
