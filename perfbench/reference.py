"""Host-speed reference: timings rescaled to a host of fixed speed.

The benchmark runs on a shared host whose speed swings by half for tens
of seconds at a time as other tenants load it, alike for every kind of
Python code.  A fixed pure-Python loop, run between the pieces of work
a pass times, tracks that swing: each piece's seconds are rescaled by
how long the loop took on either side of it, to the seconds of a host
that runs the loop in ``NOMINAL_S``.  The loop uses no library code, so
a faster program still reads faster.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

#: Iterations of the reference loop, about 5 ms on a 2-vCPU VM.
ITERATIONS = 25_000

#: Runs of the loop per probe.  Host load comes in bursts shorter than
#: a run of the timed work, so a probe reads the mean of several runs.
RUNS = 5

#: Seconds the loop takes on the host that rescaled times refer to.
NOMINAL_S = 0.005


def _loop() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += i * 3
    return total


class Reference:
    """Runs the reference loop on demand and keeps its timings.

    With ``runs=0`` a probe runs nothing and reads ``NOMINAL_S``, so
    times pass through unscaled: a traced pass must spend no time
    outside the library's spans.
    """

    def __init__(self, runs: int = RUNS) -> None:
        self.runs = runs
        self.samples: List[float] = []

    def probe(self) -> float:
        """Seconds the reference loop takes now: the mean of ``runs``."""
        if not self.runs:
            return NOMINAL_S
        runs = []
        for _ in range(self.runs):
            start = time.perf_counter()
            _loop()
            runs.append(time.perf_counter() - start)
        took = statistics.fmean(runs)
        self.samples.append(took)
        return took

    @staticmethod
    def rescale(seconds: float, before: float, after: float) -> float:
        """``seconds`` of work between two probes, on the nominal host."""
        return seconds * NOMINAL_S / statistics.fmean((before, after))
