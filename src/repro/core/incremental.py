"""The warm-start allocation engine: re-allocation after profile drift.

Rebuilding the program from scratch is cheap with DRP-CDS, but even
that is unnecessary when the profile only drifted: near-optimal
partitions are stable under small frequency perturbations (the
Kenyon–Schabanel–Young PTAS argument), so re-seeding CDS from the
previous allocation converges in a handful of moves instead of a full
rebuild.  The catalogue itself is fixed: a drifted profile is a new
database over the same item ids.

* :func:`warm_start_refine` — one warm-started re-refinement with the
  regression guard: seed CDS from a previous grouping, compare the
  refined cost against a fresh rough-DRP estimate, and fall back to the
  cold DRP+CDS pipeline when the warm result regressed past the guard;
* :class:`IncrementalAllocator` — mutable engine holding the previous
  allocation; :meth:`~IncrementalAllocator.reallocate` takes each
  drifted database and re-refines warm.  The live service
  (:mod:`repro.service.serve`) runs one per stream;
* :func:`database_fingerprint` — sha256 over an exact profile.  Nothing
  in the library calls it; it stays because the end-to-end benchmark
  (``perfbench/layers.py``) names it as a ledger target.

When observability is enabled (:mod:`repro.obs`) the engine emits
``incremental.*`` spans and counters: ``warm_starts`` / ``warm_moves``,
``cold_runs`` / ``cold_drp_splits`` and ``fallbacks`` (see
docs/observability.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.exceptions import InfeasibleProblemError

__all__ = [
    "DEFAULT_REGRESSION_GUARD",
    "WarmStartResult",
    "warm_start_refine",
    "database_fingerprint",
    "IncrementalStats",
    "IncrementalAllocator",
]

#: The regression guard: a warm-started refinement is accepted only
#: while its cost stays within ``rough DRP cost × guard``; beyond that
#: the engine falls back to the cold DRP+CDS pipeline and keeps the
#: better of the two results.
DEFAULT_REGRESSION_GUARD = 1.02


# ----------------------------------------------------------------------
# Warm-start engine
# ----------------------------------------------------------------------
def _bump(name: str, amount: int = 1) -> None:
    """Increment an ``incremental.*`` counter when metrics are on."""
    registry = obs.get_metrics()
    if registry.enabled:
        registry.counter(name).inc(amount)


@dataclass
class WarmStartResult:
    """Outcome of one warm-started (or guarded-cold) re-refinement.

    ``mode`` is ``"warm"`` (seeded CDS accepted), ``"fallback"`` (the
    regression guard tripped; the better of warm and cold was kept)
    or ``"cold"`` (no usable seed — full DRP+CDS ran).
    """

    allocation: ChannelAllocation
    cost: float
    mode: str
    warm_moves: int = 0
    cold_moves: int = 0
    drp_splits: int = 0
    warm_cost: Optional[float] = None
    cold_estimate: Optional[float] = None


def _warm_seed(
    initial: Union[ChannelAllocation, Iterable[Sequence[str]], None],
    database: BroadcastDatabase,
    num_channels: int,
) -> Union[ChannelAllocation, List[List[str]], None]:
    """The seed grouping for :func:`cds_refine`, or ``None`` when
    ``initial`` cannot seed a warm start (no seed, another channel
    count or another item-id set).

    An allocation over a database sharing ``database``'s ids is its own
    seed, checked in O(1); any other seed goes through id lists.
    """
    if initial is None:
        return None
    if isinstance(initial, ChannelAllocation):
        if initial.database.shares_ids_with(database):
            return initial if initial.num_channels == num_channels else None
        id_lists = initial.as_id_lists()
    else:
        id_lists = [list(ids) for ids in initial]
    if len(id_lists) != num_channels:
        return None
    if sum(len(ids) for ids in id_lists) != len(database):
        return None
    if not all(item_id in database for ids in id_lists for item_id in ids):
        return None
    return id_lists


def _cold_pipeline(
    database: BroadcastDatabase, num_channels: int
) -> WarmStartResult:
    rough = drp_allocate(database, num_channels)
    refined = cds_refine(rough.allocation)
    return WarmStartResult(
        allocation=refined.allocation,
        cost=refined.cost,
        mode="cold",
        cold_moves=refined.iterations,
        drp_splits=rough.splits_evaluated,
        cold_estimate=rough.cost,
    )


def warm_start_refine(
    database: BroadcastDatabase,
    num_channels: int,
    initial: Union[ChannelAllocation, Iterable[Sequence[str]], None],
) -> WarmStartResult:
    """Re-refine ``database`` warm-starting from a previous grouping.

    The seeded CDS pass early-exits as soon as no improving move exists
    (that is CDS's own convergence test — an unchanged profile costs one
    Δc scan and zero moves).  A rough DRP pass first provides the
    cold-start cost estimate; if the warm-started refinement lands
    above ``estimate × DEFAULT_REGRESSION_GUARD`` the cold pipeline runs
    from the DRP seed and the better of the two allocations wins — so
    the result never costs more than the rough DRP estimate times the
    guard.  An incompatible seed (different channel count or item-id
    set) routes straight to the cold pipeline.

    Metrics counters bumped (when enabled): ``incremental.warm_starts``,
    ``incremental.warm_moves``, ``incremental.fallbacks``,
    ``incremental.cold_runs``, ``incremental.cold_drp_splits``.
    """
    with obs.span(
        "incremental.refine",
        items=len(database),
        channels=num_channels,
        guard=DEFAULT_REGRESSION_GUARD,
    ) as span:
        seed = _warm_seed(initial, database, num_channels)
        if seed is None:
            result = _cold_pipeline(database, num_channels)
            _bump("incremental.cold_runs")
            _bump("incremental.cold_drp_splits", result.drp_splits)
        else:
            rough = drp_allocate(database, num_channels)
            warm = cds_refine(rough.allocation, initial=seed)
            _bump("incremental.warm_starts")
            _bump("incremental.warm_moves", warm.iterations)
            if warm.cost <= rough.cost * DEFAULT_REGRESSION_GUARD:
                result = WarmStartResult(
                    allocation=warm.allocation,
                    cost=warm.cost,
                    mode="warm",
                    warm_moves=warm.iterations,
                    drp_splits=rough.splits_evaluated,
                    warm_cost=warm.cost,
                    cold_estimate=rough.cost,
                )
            else:
                cold = cds_refine(rough.allocation)
                _bump("incremental.fallbacks")
                _bump("incremental.cold_runs")
                _bump("incremental.cold_drp_splits", rough.splits_evaluated)
                if cold.cost <= warm.cost:
                    winner, winner_cost = cold.allocation, cold.cost
                else:
                    winner, winner_cost = warm.allocation, warm.cost
                result = WarmStartResult(
                    allocation=winner,
                    cost=winner_cost,
                    mode="fallback",
                    warm_moves=warm.iterations,
                    cold_moves=cold.iterations,
                    drp_splits=rough.splits_evaluated,
                    warm_cost=warm.cost,
                    cold_estimate=rough.cost,
                )
        span.update(
            mode=result.mode,
            cost=result.cost,
            warm_moves=result.warm_moves,
            cold_moves=result.cold_moves,
        )
    return result


def database_fingerprint(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    algorithm: Optional[str] = None,
) -> str:
    """sha256 over the exact profile: every (id, frequency, size) plus K.

    Two databases share a fingerprint iff their catalogues are
    bit-identical.  No library path calls this: it was the key of an
    allocation cache that never hit and is gone.  It stays because
    ``perfbench/layers.py`` wraps it by name as the
    ``incremental.fingerprint`` ledger target; without it that metric
    would read null, which the benchmark's output check rejects.
    """
    hasher = hashlib.sha256()
    hasher.update(f"K={num_channels};alg={algorithm or ''};".encode())
    # ``tolist()`` yields plain doubles, so ``repr`` renders each
    # feature exactly as the item's own float would.
    for item_id, frequency, size in zip(
        database.item_ids,
        database.frequencies.tolist(),
        database.sizes.tolist(),
    ):
        hasher.update(f"{item_id}:{frequency!r}:{size!r};".encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The incremental allocation engine
# ----------------------------------------------------------------------
@dataclass
class IncrementalStats:
    """Running tallies of one :class:`IncrementalAllocator`'s activity."""

    cold_runs: int = 0
    warm_runs: int = 0
    fallbacks: int = 0
    warm_moves: int = 0
    cold_moves: int = 0


class IncrementalAllocator:
    """Warm-start allocation engine holding the previous allocation.

    Each drifted database goes to :meth:`reallocate`, which re-refines
    by seeding CDS from the previous grouping and only falls back to
    the full DRP pipeline when the regression guard trips or the
    problem shape (item-id set / channel count) changed.

    Not thread-safe; one engine per adaptation loop.
    """

    def __init__(self, num_channels: Optional[int] = None) -> None:
        self._num_channels = num_channels
        self.stats = IncrementalStats()
        self._database: Optional[BroadcastDatabase] = None
        self._allocation: Optional[ChannelAllocation] = None
        self._cost: Optional[float] = None

    # -- read-only state ------------------------------------------------
    @property
    def num_channels(self) -> Optional[int]:
        return self._num_channels

    @property
    def database(self) -> Optional[BroadcastDatabase]:
        return self._database

    @property
    def allocation(self) -> Optional[ChannelAllocation]:
        return self._allocation

    @property
    def cost(self) -> Optional[float]:
        """Cost of the held allocation."""
        return self._cost

    # -- state maintenance ----------------------------------------------
    def _adopt(
        self, database: BroadcastDatabase, allocation: ChannelAllocation,
        cost: float,
    ) -> None:
        self._database = database
        self._allocation = allocation
        self._cost = cost

    def _shape_changed(
        self, database: BroadcastDatabase, num_channels: int
    ) -> bool:
        if self._allocation is None or self._database is None:
            return True
        if num_channels != self._allocation.num_channels:
            return True
        if self._database.shares_ids_with(database):
            return False
        if len(database) != len(self._database):
            return True
        return any(
            item_id not in self._database for item_id in database.item_ids
        )

    # -- entry points ---------------------------------------------------
    def reallocate(
        self,
        database: BroadcastDatabase,
        num_channels: Optional[int] = None,
    ) -> WarmStartResult:
        """(Re-)allocate for ``database``, warm when the state allows.

        The first call (or any call after N/K changed) is a cold
        DRP+CDS run that seeds the engine; subsequent calls warm-start
        from the held allocation under the regression guard.
        """
        if num_channels is None:
            num_channels = self._num_channels
        if num_channels is None:
            raise InfeasibleProblemError(
                "num_channels not set: pass it to reallocate() or the "
                "IncrementalAllocator constructor"
            )
        self._num_channels = num_channels
        with obs.span(
            "incremental.reallocate",
            items=len(database),
            channels=num_channels,
        ) as span:
            initial = (
                None
                if self._shape_changed(database, num_channels)
                else self._allocation
            )
            result = warm_start_refine(database, num_channels, initial)
            if result.mode == "cold":
                self.stats.cold_runs += 1
            elif result.mode == "fallback":
                self.stats.fallbacks += 1
            else:
                self.stats.warm_runs += 1
            self.stats.warm_moves += result.warm_moves
            self.stats.cold_moves += result.cold_moves
            self._adopt(database, result.allocation, result.cost)
            span.update(mode=result.mode, cost=result.cost)
        return result
