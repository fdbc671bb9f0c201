"""Scalar reference implementations of the core kernels.

The production kernels in :mod:`repro.core.kernels` and
:mod:`repro.core.partition` are numpy array expressions.  This module
keeps the plain-Python loops they replaced — one (item, destination)
pair, one cut point, one DP candidate at a time — so the differential
oracles in :mod:`repro.verify.oracles` can hold the production path to
them bit for bit:

* :func:`cds_refine_reference` / :func:`best_move_reference` — mechanism
  CDS with the per-pair ``move_delta`` scan (``oracle.cds-backends``,
  ``oracle.cds-scan-modes``);
* :func:`best_split_reference` — Procedure ``Partition``'s strict-``<``
  cut scan over a range of shared prefix sums (``oracle.drp-backends``);
* :func:`contiguous_quadratic` — the O(K·N²) textbook contiguous DP
  (``oracle.dp-methods``);
* :func:`summarize_reference` — the sample summary with one
  ``math.fsum`` over every value (``oracle.exact-sum``).

Both sides evaluate the identical floating-point expressions in the
identical order and break ties the same way (first maximum / first
minimum wins), so any divergence is a bug, never float noise.  No
production module imports this one.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cds import _IMPROVEMENT_EPSILON, CDSMove, CDSResult
from repro.core.cost import allocation_cost, move_delta
from repro.core.item import DataItem
from repro.core.partition import PrefixSums
from repro.simulation.metrics import SummaryStatistics

__all__ = [
    "best_move_reference",
    "best_split_reference",
    "cds_refine_reference",
    "contiguous_quadratic",
    "summarize_reference",
]


def cds_refine_reference(
    allocation: ChannelAllocation,
    *,
    max_iterations: Optional[int] = None,
) -> CDSResult:
    """Mechanism CDS as a scalar loop over :class:`DataItem` groups."""
    groups: List[List[DataItem]] = [list(group) for group in allocation.channels]
    agg_f: List[float] = [stat.frequency for stat in allocation.channel_stats]
    agg_z: List[float] = [stat.size for stat in allocation.channel_stats]
    num_channels = len(groups)
    initial_cost = allocation_cost(allocation)
    current_cost = initial_cost
    num_items = len(allocation.database)
    evaluations = 0
    moves: List[CDSMove] = []
    converged = True

    while True:
        if max_iterations is not None and len(moves) >= max_iterations:
            converged = False
            break
        best = best_move_reference(groups, agg_f, agg_z, num_channels)
        # The scan visits every (item, destination≠origin) pair once.
        evaluations += num_items * (num_channels - 1)
        if best is None:
            break
        delta, origin, position, destination = best
        item = groups[origin].pop(position)
        groups[destination].append(item)
        agg_f[origin] -= item.frequency
        agg_z[origin] -= item.size
        agg_f[destination] += item.frequency
        agg_z[destination] += item.size
        current_cost -= delta
        moves.append(
            CDSMove(
                item_id=item.item_id,
                origin=origin,
                destination=destination,
                delta=delta,
                cost_after=current_cost,
            )
        )

    refined = allocation.replace_channels(groups, validate=False)
    # Recompute from scratch to shed accumulated floating-point drift.
    return CDSResult(
        allocation=refined,
        cost=allocation_cost(refined),
        initial_cost=initial_cost,
        moves=moves,
        converged=converged,
        delta_evaluations=evaluations,
    )


def best_move_reference(
    groups: List[List[DataItem]],
    agg_f: List[float],
    agg_z: List[float],
    num_channels: int,
) -> Optional[Tuple[float, int, int, int]]:
    """Find the single move with the maximum cost reduction.

    Returns ``(delta, origin, position_in_origin, destination)`` or
    ``None`` when no move improves the cost beyond the epsilon.  Ties are
    broken by scan order (lowest origin, then item position, then lowest
    destination), matching the paper's "first maximum wins" loop.
    """
    best_delta = _IMPROVEMENT_EPSILON
    best: Optional[Tuple[float, int, int, int]] = None
    for origin in range(num_channels):
        origin_f = agg_f[origin]
        origin_z = agg_z[origin]
        for position, item in enumerate(groups[origin]):
            for destination in range(num_channels):
                if destination == origin:
                    continue
                delta = move_delta(
                    item,
                    origin_frequency=origin_f,
                    origin_size=origin_z,
                    dest_frequency=agg_f[destination],
                    dest_size=agg_z[destination],
                )
                if delta > best_delta:
                    best_delta = delta
                    best = (delta, origin, position, destination)
    return best


def best_split_reference(
    sums: PrefixSums, start: int, stop: int
) -> Tuple[int, float]:
    """Best split of ``[start, stop)``: ``(offset, cost)``, first minimum
    winning — the contract of :func:`repro.core.partition.best_split_in`."""
    best_offset = 1
    best_cost = math.inf
    for p in range(start + 1, stop):
        total = sums.cost(start, p) + sums.cost(p, stop)
        if total < best_cost:
            best_cost = total
            best_offset = p - start
    return best_offset, best_cost


def contiguous_quadratic(
    sums: PrefixSums, num_groups: int
) -> Tuple[List[Tuple[int, int]], float]:
    """Optimal K-way contiguous partition by the O(K·N²) textbook DP.

    ``sums`` are the prefix sums of the ordered sequence; ``dp[g][i]``
    is the minimal cost of splitting its first ``i`` items into ``g``
    groups.  Returns ``(boundaries, cost)`` in the shape of
    :func:`repro.core.partition.contiguous_optimal`; the predecessor of
    each state is the leftmost minimising ``j``.
    """
    n = len(sums)
    infinity = math.inf
    dp = [[infinity] * (n + 1) for _ in range(num_groups + 1)]
    choice = [[0] * (n + 1) for _ in range(num_groups + 1)]
    dp[0][0] = 0.0
    for g in range(1, num_groups + 1):
        # items[:i] needs at least g items and must leave enough for
        # the remaining groups.
        for i in range(g, n - (num_groups - g) + 1):
            best_value = infinity
            best_j = g - 1
            for j in range(g - 1, i):
                if dp[g - 1][j] == infinity:
                    continue
                value = dp[g - 1][j] + sums.cost(j, i)
                if value < best_value:
                    best_value = value
                    best_j = j
            dp[g][i] = best_value
            choice[g][i] = best_j
    boundaries: List[Tuple[int, int]] = []
    stop = n
    for g in range(num_groups, 0, -1):
        start = choice[g][stop]
        boundaries.append((start, stop))
        stop = start
    boundaries.reverse()
    return boundaries, dp[num_groups][n]


def summarize_reference(
    samples: Sequence[float], *, z_value: float = 1.96
) -> SummaryStatistics:
    """:func:`~repro.simulation.metrics.summarize` with one plain
    ``math.fsum`` over every value and every squared deviation.

    Same statistics, same float expressions and same errors: a
    ``ValueError`` on an empty or non-finite sample, and whatever
    ``fsum`` raises (``OverflowError`` on an intermediate overflow).
    """
    array = np.asarray(samples, dtype=np.float64)
    count = len(array)
    if count == 0:
        raise ValueError("cannot summarise an empty sample")
    minimum = float(array.min())
    maximum = float(array.max())
    values = array.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(
            f"cannot summarise non-finite samples (range {minimum!r} to "
            f"{maximum!r})"
        )
    mean = math.fsum(values) / count
    if count > 1:
        variance = math.fsum(
            (value - mean) * (value - mean) for value in values
        ) / (count - 1)
        std = math.sqrt(variance)
        halfwidth = z_value * std / math.sqrt(count)
    else:
        std = 0.0
        halfwidth = 0.0
    return SummaryStatistics(
        count=count,
        mean=mean,
        std=std,
        ci_halfwidth=halfwidth,
        minimum=minimum,
        maximum=maximum,
    )
