"""Exact solvers — true global optima at small scale.

The paper's "global optimum" (GOPT) is a genetic algorithm and therefore
only a proxy.  These solvers provide ground truth where it is feasible:

* :func:`brute_force_optimal` / :class:`BruteForceAllocator` — enumerate
  every partition of the N items into exactly K non-empty groups
  (restricted-growth-string enumeration).  The count is the Stirling
  number of the second kind ``S(N, K)``; the solver refuses instances
  whose count exceeds a budget instead of hanging.
* :class:`ContiguousDPAllocator` — the optimal *contiguous* partition in
  benefit-ratio order (delegates to
  :func:`repro.core.partition.contiguous_optimal`).  Contiguity is a
  restriction, so its cost upper-bounds the global optimum but
  lower-bounds anything DRP's bisection can reach.

The test suite uses these to measure DRP-CDS's true optimality gap on
small instances — the paper's "local optimum is very close to the global
optimum" claim, checked exactly.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.allocation import ChannelAllocation
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.core.scheduler import Allocator
from repro.exceptions import InfeasibleProblemError, SolverLimitError

__all__ = [
    "stirling2",
    "partitions_into_k",
    "brute_force_optimal",
    "BruteForceAllocator",
    "ContiguousDPAllocator",
]

#: Refuse brute-force enumeration beyond this many partitions.
DEFAULT_PARTITION_BUDGET = 5_000_000


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind ``S(n, k)``.

    The number of ways to partition ``n`` labelled items into ``k``
    non-empty unlabelled groups — the exact search-space size of the
    channel-allocation problem (channel labels are interchangeable).
    """
    if n < 0 or k < 0:
        raise InfeasibleProblemError("n and k must be non-negative")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    # dp[j] = S(i, j) rolled over i.
    previous = [0] * (k + 1)
    previous[0] = 1
    for i in range(1, n + 1):
        current = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            current[j] = j * previous[j] + previous[j - 1]
        previous = current
        previous[0] = 1 if i == 0 else 0
    return previous[k]


def partitions_into_k(n: int, k: int) -> Iterator[List[int]]:
    """Yield every partition of ``range(n)`` into exactly ``k`` blocks.

    Partitions are emitted as restricted growth strings: a list ``a``
    with ``a[0] = 0`` and ``a[i] <= max(a[:i]) + 1``, using exactly the
    labels ``0..k-1``.  Each set partition appears exactly once (block
    labels are canonical, not permuted).
    """
    if not 1 <= k <= n:
        raise InfeasibleProblemError(
            f"cannot partition {n} item(s) into {k} non-empty blocks"
        )
    assignment = [0] * n

    def extend(position: int, used: int) -> Iterator[List[int]]:
        remaining = n - position
        if position == n:
            if used == k:
                yield assignment.copy()
            return
        # Prune: even giving every remaining item a fresh label cannot
        # reach k blocks.
        if used + remaining < k:
            return
        limit = min(used + 1, k)
        for label in range(limit):
            assignment[position] = label
            yield from extend(position + 1, used + (1 if label == used else 0))

    yield from extend(1, 1)


def brute_force_optimal(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    partition_budget: int = DEFAULT_PARTITION_BUDGET,
) -> Tuple[ChannelAllocation, float]:
    """The true global optimum by exhaustive enumeration.

    Returns ``(allocation, cost)``.  Cost is computed incrementally from
    per-block aggregates, so each partition is scored in O(K).

    Raises
    ------
    SolverLimitError
        If ``S(N, K)`` exceeds ``partition_budget``.
    """
    n = len(database)
    if not 1 <= num_channels <= n:
        raise InfeasibleProblemError(
            f"cannot allocate {n} item(s) to {num_channels} non-empty channels"
        )
    count = stirling2(n, num_channels)
    if count > partition_budget:
        raise SolverLimitError(
            f"S({n}, {num_channels}) = {count} partitions exceeds the "
            f"budget of {partition_budget}; brute force is infeasible"
        )
    items: Tuple[DataItem, ...] = database.items
    frequencies = [item.frequency for item in items]
    sizes = [item.size for item in items]
    best_cost = float("inf")
    best_assignment: List[int] = []
    agg_f = [0.0] * num_channels
    agg_z = [0.0] * num_channels
    for assignment in partitions_into_k(n, num_channels):
        for g in range(num_channels):
            agg_f[g] = 0.0
            agg_z[g] = 0.0
        for index, group in enumerate(assignment):
            agg_f[group] += frequencies[index]
            agg_z[group] += sizes[index]
        cost = 0.0
        for g in range(num_channels):
            cost += agg_f[g] * agg_z[g]
        if cost < best_cost:
            best_cost = cost
            best_assignment = assignment
    allocation = ChannelAllocation.from_assignment_vector(
        database, best_assignment, num_channels
    )
    return allocation, best_cost


class BruteForceAllocator(Allocator):
    """Exhaustive global optimum (small instances only)."""

    name = "brute-force"

    def __init__(self, *, partition_budget: int = DEFAULT_PARTITION_BUDGET) -> None:
        self._partition_budget = partition_budget

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        allocation, cost = brute_force_optimal(
            database, num_channels, partition_budget=self._partition_budget
        )
        self._note(searched_partitions=stirling2(len(database), num_channels))
        del cost
        return allocation


class ContiguousDPAllocator(Allocator):
    """Optimal contiguous partition in benefit-ratio order.

    The strongest polynomial-time member of DRP's search family: it
    dominates any bisection order DRP could choose while staying within
    contiguous partitions of the ``br``-sorted sequence.
    """

    name = "contiguous-dp"

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        order = database.benefit_ratio_order()
        sums = PrefixSums.from_arrays(
            database.frequencies[order], database.sizes[order]
        )
        boundaries, cost = contiguous_optimal(None, num_channels, sums=sums)
        self._note(contiguous_cost=cost)
        # The boundaries cut the order into a partition of the catalogue.
        return ChannelAllocation._from_index_groups(
            database, [order[start:stop] for start, stop in boundaries]
        )
