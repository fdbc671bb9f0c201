"""The analytical cost model of diverse data broadcasting.

Implements every formula of the paper's Section 2:

* Eq. (1) — waiting time of one item on its channel
  (probe half-cycle plus download time),
* the per-channel average waiting time :math:`W^{(i)}`,
* Eq. (2) — the program-wide average waiting time :math:`W_b`,
* Eq. (3) — the allocation-dependent *cost function*
  :math:`cost = \\sum_i F_i Z_i`, and
* Eq. (4) — the closed-form cost change :math:`\\Delta c` of moving one
  item between channels, used by mechanism CDS.

The relationship the whole paper rests on::

    W_b = cost / (2 b)  +  fixed_download_cost / b

Only the first term depends on the allocation, so minimising ``cost``
minimises ``W_b``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.item import DataItem
from repro.exceptions import InvalidAllocationError

__all__ = [
    "DEFAULT_BANDWIDTH",
    "group_cost",
    "group_aggregates",
    "allocation_cost",
    "soa_allocation_cost",
    "cost_under_profile",
    "channel_costs",
    "item_waiting_time",
    "channel_waiting_time",
    "average_waiting_time",
    "waiting_time_from_cost",
    "move_delta",
]

#: Channel bandwidth used throughout the paper's evaluation
#: (Table 5: 10 size units per second).
DEFAULT_BANDWIDTH = 10.0

#: Above this channel size the membership check in
#: :func:`item_waiting_time` builds a set instead of scanning linearly;
#: below it the scan is cheaper than the set construction.
_MEMBERSHIP_SCAN_LIMIT = 64


def _check_bandwidth(bandwidth: float) -> None:
    if not (isinstance(bandwidth, (int, float)) and bandwidth > 0):
        raise InvalidAllocationError(
            f"bandwidth must be a positive number, got {bandwidth!r}"
        )


# ----------------------------------------------------------------------
# Group-level quantities (work on any iterable of items)
# ----------------------------------------------------------------------
def group_aggregates(items: Iterable[DataItem]) -> Tuple[float, float]:
    """Aggregate frequency and size ``(F, Z)`` of an item group.

    These are Definitions 3 and 4 of the paper.
    """
    freq_terms: List[float] = []
    size_terms: List[float] = []
    for item in items:
        freq_terms.append(item.frequency)
        size_terms.append(item.size)
    return math.fsum(freq_terms), math.fsum(size_terms)


def group_cost(items: Iterable[DataItem]) -> float:
    """Cost of a single group, :math:`cost(D_i) = F_i \\cdot Z_i`.

    Definition 1 of the paper.  The cost of an empty group is zero.
    """
    frequency, size = group_aggregates(items)
    return frequency * size


# ----------------------------------------------------------------------
# Allocation-level quantities
# ----------------------------------------------------------------------
def channel_costs(allocation: ChannelAllocation) -> List[float]:
    """Per-channel costs :math:`F_i Z_i` of an allocation."""
    return [stat.cost for stat in allocation.channel_stats]


def allocation_cost(allocation: ChannelAllocation) -> float:
    """Total cost of an allocation, Eq. (3): :math:`\\sum_i F_i Z_i`."""
    return math.fsum(channel_costs(allocation))


def soa_allocation_cost(frequencies, sizes, index_groups) -> float:
    """Eq. (3) straight from feature arrays and catalogue-index groups.

    The array-resident twin of :func:`allocation_cost` for callers that
    hold a grouping as index arrays rather than a validated
    :class:`ChannelAllocation` (benchmarks, differential oracles).  Uses
    the same exact ``math.fsum`` accumulation in group item order, so it
    returns the identical float.
    """
    costs: List[float] = []
    for group in index_groups:
        if len(group) == 0:
            costs.append(0.0)
            continue
        frequency = math.fsum(frequencies[group].tolist())
        size = math.fsum(sizes[group].tolist())
        costs.append(frequency * size)
    return math.fsum(costs)


def cost_under_profile(
    allocation: ChannelAllocation, item_ids: Sequence[str], frequencies
) -> float:
    """Eq. (3) cost of ``allocation``'s grouping under a substituted profile.

    ``frequencies[i]`` is the access frequency of ``item_ids[i]``; the
    sizes stay the allocation's own.  Items are matched by id, so the
    profile may list the catalogue in any order.  Runs on the feature
    arrays and index groups through :func:`soa_allocation_cost` — no
    item objects.
    """
    database = allocation.database
    frequencies = np.asarray(frequencies, dtype=np.float64)
    if tuple(item_ids) != database.item_ids:
        position = {item_id: i for i, item_id in enumerate(item_ids)}
        frequencies = frequencies[[position[i] for i in database.item_ids]]
    return soa_allocation_cost(
        frequencies, database.sizes, allocation.channel_index_groups
    )


# ----------------------------------------------------------------------
# Waiting times
# ----------------------------------------------------------------------
def item_waiting_time(
    item: DataItem,
    channel_items: Sequence[DataItem],
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """Waiting time of one item on its channel, Eq. (1).

    ``W_j^(i) = (Σ_j z_j^(i)) / (2b) + z_j^(i) / b`` — half the broadcast
    cycle (expected probe time for a uniformly random tune-in) plus the
    item's own download time.

    Raises
    ------
    InvalidAllocationError
        If the item is not a member of ``channel_items``.
    """
    _check_bandwidth(bandwidth)
    if len(channel_items) > _MEMBERSHIP_SCAN_LIMIT:
        member_ids = {member.item_id for member in channel_items}
        on_channel = item.item_id in member_ids
    else:
        on_channel = any(
            member.item_id == item.item_id for member in channel_items
        )
    if not on_channel:
        raise InvalidAllocationError(
            f"item {item.item_id!r} is not on the given channel"
        )
    cycle_size = math.fsum(member.size for member in channel_items)
    return cycle_size / (2.0 * bandwidth) + item.size / bandwidth


def channel_waiting_time(
    channel_items: Sequence[DataItem],
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """Frequency-weighted average waiting time :math:`W^{(i)}` of a channel.

    ``W^(i) = Z_i / (2b) + (Σ f_j z_j) / (b F_i)`` — the paper derives this
    by weighting Eq. (1) by the (renormalised) access frequencies of the
    channel's items.
    """
    _check_bandwidth(bandwidth)
    if not channel_items:
        raise InvalidAllocationError(
            "waiting time of an empty channel is undefined"
        )
    frequency, size = group_aggregates(channel_items)
    if frequency <= 0.0:
        raise InvalidAllocationError(
            "waiting time is undefined for a channel whose aggregate "
            f"frequency is {frequency}: no client ever tunes in, so the "
            "frequency-weighted average has no meaning"
        )
    weighted_download = math.fsum(item.weight for item in channel_items)
    return size / (2.0 * bandwidth) + weighted_download / (bandwidth * frequency)


def average_waiting_time(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """Program-wide average waiting time :math:`W_b`, Eq. (2).

    ``W_b = E[W^(i)] = Σ_i F_i W^(i)`` — the per-channel averages weighted
    by the probability that a request lands on each channel.  Expands to::

        W_b = (1/2b) Σ_i F_i Z_i + (1/b) Σ_i Σ_j f_j^(i) z_j^(i)
    """
    _check_bandwidth(bandwidth)
    probe = allocation_cost(allocation) / (2.0 * bandwidth)
    download = allocation.database.fixed_download_cost / bandwidth
    return probe + download


def waiting_time_from_cost(
    cost: float,
    fixed_download_cost: float,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> float:
    """Convert an Eq.-(3) cost into an Eq.-(2) waiting time.

    Useful when an algorithm tracks only the allocation-dependent cost
    and the caller wants the physical metric the paper plots.
    """
    _check_bandwidth(bandwidth)
    return cost / (2.0 * bandwidth) + fixed_download_cost / bandwidth


# ----------------------------------------------------------------------
# Move evaluation (mechanism CDS)
# ----------------------------------------------------------------------
def move_delta(
    item: DataItem,
    origin_frequency: float,
    origin_size: float,
    dest_frequency: float,
    dest_size: float,
) -> float:
    """Cost reduction :math:`\\Delta c` of moving ``item``, Eq. (4).

    ``Δc = f_x (Z_p − Z_q) + z_x (F_p − F_q) − 2 f_x z_x`` where
    ``(F_p, Z_p)`` are the aggregates of the origin group *including* the
    item and ``(F_q, Z_q)`` those of the destination group excluding it.
    Positive values mean the move lowers the total cost.
    """
    return (
        item.frequency * (origin_size - dest_size)
        + item.size * (origin_frequency - dest_frequency)
        - 2.0 * item.frequency * item.size
    )
