"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import tracemalloc

import pytest

from repro import obs
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.paper_profile import (
    PAPER_CDS_COST,
    PAPER_DRP_COST,
    PAPER_INITIAL_COST,
    PAPER_NUM_CHANNELS,
    paper_database,
)

#: Single source of truth for the paper's Table 2-4 golden values.
#: Every test that asserts a printed number from the worked example
#: pulls it from here (directly or via the ``paper_goldens`` fixture)
#: instead of repeating the literal; ``tests/test_paper_goldens.py``
#: walks the whole catalogue end to end.
PAPER_GOLDENS = {
    # Table 2 / 3(a): the unsplit database.
    "num_channels": PAPER_NUM_CHANNELS,
    "total_size": 135.60,
    "initial_cost": PAPER_INITIAL_COST,  # 135.60 (ΣF = 1)
    # Table 3(b)-(c): costs after DRP's first and second split.
    "first_split_costs": (29.04, 28.62),
    "second_split_costs": (6.82, 7.02, 28.62),
    # Table 3(d): the finished DRP allocation (max-reduction policy).
    "drp_channel_costs": (2.59, 1.07, 6.82, 7.26, 6.35),
    "drp_cost": PAPER_DRP_COST,  # 24.09
    # Listing's max-cost policy lands on a different, nearby optimum.
    "max_cost_policy_cost": 24.22,
    # Table 4: the two CDS moves and the local optimum.
    "cds_moves": (
        {"item": "d10", "delta": 0.95, "cost_after": 23.13},
        {"item": "d12", "delta": 0.45, "cost_after": 22.68},
    ),
    "cds_cost": PAPER_CDS_COST,  # 22.29
}


def _repro_threads() -> set:
    """Live background threads of the package (metrics server, profiler)."""
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-")
    }


def _repro_env() -> set:
    return {name for name in os.environ if name.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def _no_leaked_state():
    """Fail a test that leaves process-wide state changed from its start.

    Guarded: ``tracemalloc`` tracing, an enabled global tracer or
    metrics registry, a running metrics server or profiler thread, and
    a ``REPRO_*`` environment variable that was not set before.  Leaked
    state changes what later tests measure (allocation tracing alone
    slows them several fold), so the guard restores it, then fails the
    test that leaked it: the fix belongs where the state was made
    (``obs.reset``, ``Tracer.close``, the facility's ``stop()``,
    ``monkeypatch.setenv``), not here.
    """
    was_tracing = tracemalloc.is_tracing()
    tracer, registry = obs.get_tracer(), obs.get_metrics()
    threads = _repro_threads()
    environment = _repro_env()
    yield
    leaks = []
    if not was_tracing and tracemalloc.is_tracing():
        leaks.append("tracemalloc tracing on")
    if obs.get_tracer().enabled and obs.get_tracer() is not tracer:
        leaks.append("an enabled global tracer")
    if obs.get_metrics().enabled and obs.get_metrics() is not registry:
        leaks.append("an enabled global metrics registry")
    running = sorted(thread.name for thread in _repro_threads() - threads)
    if running:
        leaks.append("running thread(s) " + ", ".join(running))
    new_variables = sorted(_repro_env() - environment)
    if new_variables:
        leaks.append("new environment variable(s) " + ", ".join(new_variables))
    if not leaks:
        return
    obs.reset()
    if not was_tracing and tracemalloc.is_tracing():
        tracemalloc.stop()
    for name in new_variables:
        del os.environ[name]
    pytest.fail(
        "the test left " + "; ".join(leaks) + ". Undo it where it was "
        "made (obs.reset, Tracer.close, the facility's stop(), "
        "monkeypatch.setenv)"
    )


@pytest.fixture(scope="session")
def paper_goldens() -> dict:
    """The Table 2-4 golden-value catalogue (read-only)."""
    return dict(PAPER_GOLDENS)


@pytest.fixture
def paper_db() -> BroadcastDatabase:
    """The paper's Table 2 database (15 items)."""
    return paper_database()


@pytest.fixture
def tiny_db() -> BroadcastDatabase:
    """Four hand-picked items with easy-to-verify aggregates.

    frequencies sum to 1; total size = 10.
    """
    return BroadcastDatabase(
        [
            DataItem("a", 0.4, 1.0),
            DataItem("b", 0.3, 2.0),
            DataItem("c", 0.2, 3.0),
            DataItem("d", 0.1, 4.0),
        ]
    )


@pytest.fixture
def medium_db() -> BroadcastDatabase:
    """A reproducible 30-item synthetic workload."""
    return generate_database(
        WorkloadSpec(num_items=30, skewness=0.8, diversity=1.5, seed=1234)
    )


@pytest.fixture
def uniform_db() -> BroadcastDatabase:
    """Equal-size, equal-frequency items (conventional environment)."""
    n = 12
    return BroadcastDatabase(
        [DataItem(f"u{i}", 1.0 / n, 5.0) for i in range(n)]
    )
