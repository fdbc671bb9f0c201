"""Algorithm DRP — Dimension Reduction Partitioning (paper, Section 3.1).

DRP generates a rough channel allocation by top-down group splitting:

1. sort all items by benefit ratio ``br = f / z`` in descending order;
2. start from a single group holding the whole database;
3. repeatedly remove a group from a max priority queue, split it at the
   optimal point (Procedure ``Partition``), and re-insert the two halves;
4. stop when ``K`` groups exist.

The two-dimensional grouping problem is thereby reduced to repeated
one-dimensional partitioning.  Complexity ``K·(O(K log K) + O(N))``
(paper, Lemma 1): each of the K−1 iterations pays one heap operation and
one linear split scan.

Split-selection policy
----------------------
The paper's algorithm listing keys the priority queue on group *cost*
(``ReturnMax`` yields the group with maximal :math:`F_i Z_i`).  However,
the paper's own worked example deviates from that rule: in the final
iteration of Table 3 the example splits the group with cost 7.02 while a
group with cost 7.26 exists.  The example *is* consistent with keying on
the **cost reduction** achieved by the group's optimal split
(reductions 3.36 vs 3.23 at that step).  Both policies are implemented:

* ``"max-cost"`` — the algorithm listing (default);
* ``"max-reduction"`` — the policy the worked example actually follows,
  and the one the paper-example golden tests use.

On random workloads the two differ only marginally (see the ablation
benchmark ``bench_ablation_drp_policy``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, best_split_in
from repro.exceptions import InfeasibleProblemError

__all__ = [
    "DRPSnapshot",
    "DRPResult",
    "drp_allocate",
    "SPLIT_POLICIES",
]

#: Recognised split-selection policies (see module docstring).
SPLIT_POLICIES = ("max-cost", "max-reduction")


@dataclass(frozen=True)
class DRPSnapshot:
    """State of DRP after one iteration (mirrors the paper's Table 3).

    Attributes
    ----------
    iteration:
        0 for the initial state, then 1, 2, ... per split performed.
    groups:
        Item-id tuples of every current group, ordered by position in
        the benefit-ratio order.
    costs:
        Cost :math:`F_i Z_i` of each group, aligned with ``groups``.
    split_group:
        Index (within ``groups``) of the group that the *next* iteration
        will split, or ``None`` when the algorithm has terminated.
    """

    iteration: int
    groups: Tuple[Tuple[str, ...], ...]
    costs: Tuple[float, ...]
    split_group: Optional[int]


@dataclass
class DRPResult:
    """Outcome of :func:`drp_allocate`.

    Attributes
    ----------
    allocation:
        The resulting K-channel allocation.  Channels are ordered by the
        benefit-ratio rank of their first item (highest-``br`` group
        first), so channel 0 carries the "hottest, smallest" items.
    cost:
        Total cost :math:`\\sum F_i Z_i` of the allocation.
    iterations:
        Number of split operations performed (always ``K - 1``).
    snapshots:
        Per-iteration state traces; populated only when ``trace=True``.
    """

    allocation: ChannelAllocation
    cost: float
    iterations: int
    snapshots: List[DRPSnapshot] = field(default_factory=list)
    #: Work counters (always collected — they are O(K) bookkeeping):
    #: split-scan evaluations, heap pushes and heap pops performed.
    splits_evaluated: int = 0
    heap_pushes: int = 0
    heap_pops: int = 0
    #: Total cost after the initial grouping and after each split —
    #: the paper's Table 3 cost column as a number series.  Length is
    #: ``iterations + 1`` and the series is non-increasing whenever a
    #: split cannot raise the cost (always true for optimal splits).
    cost_trajectory: Tuple[float, ...] = ()


def drp_allocate(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    split_policy: str = "max-cost",
    trace: bool = False,
    presorted_items: Optional[Sequence[DataItem]] = None,
) -> DRPResult:
    """Run Algorithm DRP on ``database`` for ``num_channels`` channels.

    Parameters
    ----------
    database:
        The broadcast database ``D``.
    num_channels:
        The channel count ``K``; must satisfy ``1 <= K <= N``.
    split_policy:
        ``"max-cost"`` splits the group with the largest cost (the
        paper's algorithm listing); ``"max-reduction"`` splits the group
        whose optimal split reduces the total cost the most (the policy
        the paper's worked example follows).  See the module docstring.
    trace:
        Record a :class:`DRPSnapshot` per iteration (used to reproduce
        the paper's Table 3 and for debugging).  Off by default — traces
        cost O(N) memory per iteration.
    presorted_items:
        Override the benefit-ratio order.  Intended for ablation studies
        (e.g. sorting by frequency or size instead); must be a
        permutation of the database.  Default: descending ``br`` order,
        exactly as the paper prescribes.

    Returns
    -------
    DRPResult

    Raises
    ------
    InfeasibleProblemError
        If ``num_channels`` is outside ``[1, N]`` or ``split_policy`` is
        unknown.

    Notes
    -----
    When observability is enabled (see :mod:`repro.obs`) the call emits
    a ``drp.allocate`` span carrying the work counters and the
    per-iteration cost trajectory, and bumps the ``drp.*`` counters of
    the metrics registry.  Everything is derived from bookkeeping the
    algorithm keeps anyway, so enabling tracing cannot change the
    allocation.
    """
    with obs.span(
        "drp.allocate",
        items=len(database),
        channels=num_channels,
        split_policy=split_policy,
    ) as span:
        result = _drp_allocate(
            database,
            num_channels,
            split_policy=split_policy,
            trace=trace,
            presorted_items=presorted_items,
        )
        span.update(
            cost=result.cost,
            iterations=result.iterations,
            splits_evaluated=result.splits_evaluated,
            heap_pushes=result.heap_pushes,
            heap_pops=result.heap_pops,
            cost_trajectory=list(result.cost_trajectory),
        )
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("drp.runs").inc()
            registry.counter("drp.iterations").inc(result.iterations)
            registry.counter("drp.splits_evaluated").inc(result.splits_evaluated)
            registry.counter("drp.heap_pushes").inc(result.heap_pushes)
            registry.counter("drp.heap_pops").inc(result.heap_pops)
    return result


def _drp_allocate(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    split_policy: str,
    trace: bool,
    presorted_items: Optional[Sequence[DataItem]],
) -> DRPResult:
    """The uninstrumented DRP body (see :func:`drp_allocate`)."""
    n = len(database)
    if not 1 <= num_channels <= n:
        raise InfeasibleProblemError(
            f"cannot allocate {n} item(s) to {num_channels} non-empty channels"
        )
    if split_policy not in SPLIT_POLICIES:
        raise InfeasibleProblemError(
            f"unknown split_policy {split_policy!r}; choose from {SPLIT_POLICIES}"
        )
    if presorted_items is None:
        # Array-resident path: the benefit-ratio permutation and the
        # prefix sums come straight off the database's feature arrays —
        # zero DataItem objects at any catalogue size.  np.argsort with
        # a stable kind and np.cumsum reproduce the object path's order
        # and floats bit-for-bit.
        ordered: Optional[Tuple[DataItem, ...]] = None
        order = database.benefit_ratio_order()
        sums = PrefixSums.from_arrays(
            database.frequencies[order], database.sizes[order]
        )
    else:
        ordered = tuple(presorted_items)
        if sorted(item.item_id for item in ordered) != sorted(database.item_ids):
            raise InfeasibleProblemError(
                "presorted_items must be a permutation of the database"
            )
        order = None
        sums = PrefixSums(ordered)

    def ids_in(start: int, stop: int) -> Tuple[str, ...]:
        if ordered is not None:
            return tuple(item.item_id for item in ordered[start:stop])
        return tuple(
            database.item_id_at(int(order[k])) for k in range(start, stop)
        )

    # The priority queue holds contiguous ranges [start, stop) of the
    # ordered sequence.  heapq is a min-heap, so priorities are negated;
    # a monotone counter breaks ties deterministically (FIFO among equal
    # priorities).  Singleton groups can never be split and are parked in
    # ``final_groups`` instead of entering the heap.
    #
    # Each heap entry carries the group's optimal split offset so every
    # group pays for exactly one split evaluation in its lifetime: the
    # "max-reduction" policy needs the split to compute the priority and
    # caches it for the pop; "max-cost" defers the evaluation to the pop
    # (a popped group is never re-pushed).  All scans run over the one
    # shared ``sums`` — no per-call slicing or PrefixSums rebuilds.
    counter = itertools.count()
    heap: List[Tuple[float, int, int, int, Optional[int]]] = []
    final_groups: List[Tuple[int, int]] = []
    splits_evaluated = 0
    heap_pushes = 0

    def push(start: int, stop: int) -> None:
        nonlocal splits_evaluated, heap_pushes
        if stop - start == 1:
            final_groups.append((start, stop))
        elif split_policy == "max-cost":
            heap_pushes += 1
            heapq.heappush(
                heap,
                (-sums.cost(start, stop), next(counter), start, stop, None),
            )
        else:
            splits_evaluated += 1
            heap_pushes += 1
            split_offset, split_cost = best_split_in(sums, start, stop)
            reduction = sums.cost(start, stop) - split_cost
            heapq.heappush(
                heap, (-reduction, next(counter), start, stop, split_offset)
            )

    push(0, n)
    snapshots: List[DRPSnapshot] = []
    iterations = 0
    running_cost = sums.cost(0, n)
    trajectory: List[float] = [running_cost]

    def record_snapshot(last: bool) -> None:
        ranges = sorted(
            [(start, stop) for (_, _, start, stop, _) in heap] + final_groups
        )
        groups = tuple(ids_in(start, stop) for start, stop in ranges)
        costs = tuple(sums.cost(start, stop) for start, stop in ranges)
        split_group: Optional[int] = None
        if not last and heap:
            _, _, start, stop, _ = heap[0]
            split_group = ranges.index((start, stop))
        snapshots.append(
            DRPSnapshot(
                iteration=iterations,
                groups=groups,
                costs=costs,
                split_group=split_group,
            )
        )

    while len(heap) + len(final_groups) < num_channels:
        if not heap:
            # All remaining groups are singletons; unreachable for
            # K <= N, kept as a guard against future edits.
            raise InfeasibleProblemError(
                "ran out of splittable groups before reaching K channels"
            )
        if trace:
            record_snapshot(last=False)
        _, _, start, stop, split_offset = heapq.heappop(heap)
        if split_offset is None:
            splits_evaluated += 1
            split_offset, split_cost = best_split_in(sums, start, stop)
        else:
            split_cost = None
        middle = start + split_offset
        if split_cost is None:
            split_cost = sums.cost(start, middle) + sums.cost(middle, stop)
        running_cost -= sums.cost(start, stop) - split_cost
        trajectory.append(running_cost)
        push(start, middle)
        push(middle, stop)
        iterations += 1
    if trace:
        record_snapshot(last=True)

    ranges = sorted(
        [(start, stop) for (_, _, start, stop, _) in heap] + final_groups
    )
    # The ranges partition the order, itself a validated permutation of
    # the database — skip the O(N) partition re-checks.
    if ordered is None:
        allocation = ChannelAllocation._from_index_groups(
            database, [order[start:stop] for start, stop in ranges]
        )
    else:
        allocation = ChannelAllocation._trusted(
            database, [ordered[start:stop] for start, stop in ranges]
        )
    total_cost = sum(sums.cost(start, stop) for start, stop in ranges)
    return DRPResult(
        allocation=allocation,
        cost=total_cost,
        iterations=iterations,
        snapshots=snapshots,
        splits_evaluated=splits_evaluated,
        heap_pushes=heap_pushes,
        heap_pops=iterations,
        cost_trajectory=tuple(trajectory),
    )
