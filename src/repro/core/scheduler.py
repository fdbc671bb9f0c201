"""Allocator interface and the paper's two-step DRP-CDS scheduler.

Every channel-allocation algorithm in this repository — the paper's
DRP/DRP-CDS, the VF^K and GOPT comparators, the simple baselines and the
exact solvers — implements the :class:`Allocator` interface, so the
experiment harness, the simulator and the CLI can treat them uniformly.

The paper's proposal is the composition *DRP for rough allocation, CDS
for fine tuning* (:class:`DRPCDSAllocator`); :class:`DRPAllocator` exposes
the rough step alone, which the paper's Figures 2–5 also plot.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.cost import (
    DEFAULT_BANDWIDTH,
    allocation_cost,
    average_waiting_time,
)
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate

__all__ = [
    "AllocationOutcome",
    "Allocator",
    "DRPAllocator",
    "DRPCDSAllocator",
    "CDSOnlyAllocator",
    "register_allocator",
    "make_allocator",
    "available_allocators",
]


@dataclass
class AllocationOutcome:
    """The result of running one allocator on one problem instance.

    Attributes
    ----------
    allocation:
        The channel allocation produced.
    cost:
        Total cost :math:`\\sum F_i Z_i` (Eq. 3).
    elapsed_seconds:
        Wall-clock time of the ``allocate`` call, measured with
        :func:`time.perf_counter`.  This is the quantity the paper's
        Figures 6–7 (execution time) report.
    algorithm:
        Name of the producing allocator.
    metadata:
        Algorithm-specific extras (iteration counts, GA generations, ...).
    """

    allocation: ChannelAllocation
    cost: float
    elapsed_seconds: float
    algorithm: str
    metadata: Dict[str, Any] = field(default_factory=dict)

    def waiting_time(self, bandwidth: float = DEFAULT_BANDWIDTH) -> float:
        """Average waiting time :math:`W_b` of the allocation (Eq. 2)."""
        return average_waiting_time(self.allocation, bandwidth=bandwidth)


class Allocator(ABC):
    """Interface of every channel-allocation algorithm.

    Subclasses implement :meth:`_allocate`; the public :meth:`allocate`
    adds timing and consistent outcome packaging.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        """Produce an allocation (subclass hook)."""

    def allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> AllocationOutcome:
        """Run the algorithm and return a timed, packaged outcome."""
        self._last_metadata: Dict[str, Any] = {}
        start = time.perf_counter()
        allocation = self._allocate(database, num_channels)
        elapsed = time.perf_counter() - start
        return AllocationOutcome(
            allocation=allocation,
            cost=allocation_cost(allocation),
            elapsed_seconds=elapsed,
            algorithm=self.name,
            metadata=dict(self._last_metadata),
        )

    def _note(self, **metadata: Any) -> None:
        """Record metadata for the outcome of the current ``allocate``."""
        self._last_metadata.update(metadata)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DRPAllocator(Allocator):
    """Algorithm DRP alone — the paper's rough allocation step."""

    name = "drp"

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        result = drp_allocate(database, num_channels)
        self._note(
            drp_iterations=result.iterations,
            drp_splits_evaluated=result.splits_evaluated,
            drp_heap_pushes=result.heap_pushes,
            drp_heap_pops=result.heap_pops,
        )
        return result.allocation


class DRPCDSAllocator(Allocator):
    """The paper's proposal: DRP rough allocation + CDS fine tuning."""

    name = "drp-cds"

    def __init__(self, *, max_cds_iterations: Optional[int] = None) -> None:
        self._max_cds_iterations = max_cds_iterations

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        rough = drp_allocate(database, num_channels)
        refined = cds_refine(
            rough.allocation, max_iterations=self._max_cds_iterations
        )
        self._note(
            drp_iterations=rough.iterations,
            drp_cost=rough.cost,
            drp_splits_evaluated=rough.splits_evaluated,
            drp_heap_pushes=rough.heap_pushes,
            drp_heap_pops=rough.heap_pops,
            cds_moves=refined.iterations,
            cds_converged=refined.converged,
            cds_improvement=refined.improvement,
            cds_delta_evaluations=refined.delta_evaluations,
        )
        return refined.allocation


class CDSOnlyAllocator(Allocator):
    """CDS started from a naive seed — an ablation, not a paper algorithm.

    Seeds CDS with a round-robin allocation over the benefit-ratio order.
    Used to measure how much of DRP-CDS's quality comes from the DRP seed
    versus the local search itself.
    """

    name = "cds-only"

    def __init__(self, *, max_cds_iterations: Optional[int] = None) -> None:
        self._max_cds_iterations = max_cds_iterations

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        ordered = database.sorted_by_benefit_ratio()
        groups = [
            list(ordered[channel::num_channels]) for channel in range(num_channels)
        ]
        seed = ChannelAllocation(database, groups)
        refined = cds_refine(seed, max_iterations=self._max_cds_iterations)
        self._note(
            cds_moves=refined.iterations,
            cds_converged=refined.converged,
            cds_improvement=refined.improvement,
            cds_delta_evaluations=refined.delta_evaluations,
        )
        return refined.allocation


# ----------------------------------------------------------------------
# Allocator registry — lets experiments and the CLI name algorithms.
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], Allocator]] = {}


def register_allocator(name: str, factory: Callable[[], Allocator]) -> None:
    """Register an allocator factory under ``name``.

    Re-registering a name overwrites the previous factory; the baselines
    package registers its algorithms on import.
    """
    _REGISTRY[name] = factory


def make_allocator(name: str) -> Allocator:
    """Instantiate a registered allocator by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown allocator {name!r}; registered: {known}"
        ) from None
    return factory()


def available_allocators() -> Dict[str, Callable[[], Allocator]]:
    """A copy of the current registry."""
    return dict(_REGISTRY)


register_allocator("drp", DRPAllocator)
register_allocator("drp-cds", DRPCDSAllocator)
register_allocator("cds-only", CDSOnlyAllocator)
