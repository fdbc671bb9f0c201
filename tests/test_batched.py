"""The batched waiting-time path against the analytical model.

``BroadcastProgram.waiting_times`` prices a whole request batch in one
array pass; averaged over a long Poisson stream it must approach the
analytical average waiting time (Eq. 2).
"""

from __future__ import annotations

import math

import pytest

from repro.core.cost import average_waiting_time
from repro.core.scheduler import DRPCDSAllocator
from repro.simulation.client import RequestGenerator
from repro.simulation.server import BroadcastProgram


@pytest.fixture
def allocation(medium_db):
    return DRPCDSAllocator().allocate(medium_db, 4).allocation


class TestValidation:
    def test_analytical_model_still_converges(self, allocation):
        program = BroadcastProgram(allocation)
        generator = RequestGenerator(allocation.database, seed=1)
        arrivals, picks = generator.sample_batch(40_000)
        waits = program.waiting_times(picks, arrivals)
        measured = math.fsum(waits.tolist()) / len(waits)
        analytical = average_waiting_time(allocation)
        assert abs(measured - analytical) / analytical < 0.03
