"""Algorithm VF^K — the conventional-environment comparator.

Peng & Chen's VF^K ("variant-fanout" channel-allocation-tree algorithm,
Wireless Networks 2003) generates broadcast programs for the
*conventional* environment where every item has the same size.  The
paper uses it as the representative conventional algorithm (Figures
2–5): VF^K sees only access frequencies, so in a diverse environment it
misallocates large unpopular items and falls behind.

Reproduction note (also recorded in DESIGN.md): VF^K's tree growth
explores contiguous splits of the frequency-sorted item list, choosing
splits that minimise expected delay under the unit-size model.  We
implement the equivalent optimisation directly: an exact dynamic program
over contiguous splits of the frequency-descending order minimising the
unit-size cost

.. math::  \\sum_{i=1}^{K} F_i \\cdot N_i ,

which is the paper's Eq. (3) with every ``z = 1`` — the SMAWK DP
:func:`repro.core.partition.contiguous_optimal` on prefix sums of unit
sizes, whose exact integer values keep every candidate float that of
the textbook O(K·N²) DP.  This gives VF^K its best-case behaviour (the
DP dominates the greedy tree growth), so the comparison is conservative:
the diverse-environment gap the experiments show is *not* an artefact
of a weak VF^K implementation.

The resulting grouping is then evaluated under the true item sizes —
exactly how the paper scores VF^K in the diverse environment.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.core.scheduler import Allocator

__all__ = ["VFKAllocator", "unit_size_contiguous_optimal"]


def unit_size_contiguous_optimal(
    items: Sequence[DataItem],
    num_groups: int,
) -> Tuple[List[Tuple[int, int]], float]:
    """Optimal K-way contiguous partition under the unit-size cost.

    Minimises :math:`\\sum_g F_g \\cdot N_g` over contiguous partitions
    of ``items`` (which callers sort by frequency, descending).  Returns
    ``(boundaries, unit_cost)`` with half-open ``(start, stop)`` pairs;
    raises :class:`~repro.exceptions.InfeasibleProblemError` unless
    ``1 <= num_groups <= len(items)``.
    """
    return _unit_size_partition([item.frequency for item in items], num_groups)


def _unit_size_partition(frequencies, num_groups: int):
    sums = PrefixSums.from_arrays(frequencies, np.ones(len(frequencies)))
    return contiguous_optimal(None, num_groups, sums=sums)


class VFKAllocator(Allocator):
    """VF^K: frequency-only contiguous allocation (conventional model).

    Sorts items by access frequency in descending order and partitions
    that order into K contiguous groups minimising the unit-size cost
    ``Σ F_i·N_i``.  Popular items land in small (short-cycle) channels —
    optimal when all items have equal size, oblivious to actual sizes.
    """

    name = "vfk"

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        order = database.frequency_order()
        boundaries, unit_cost = _unit_size_partition(
            database.frequencies[order], num_channels
        )
        self._note(unit_size_cost=unit_cost)
        # The boundaries cut the order into a partition of the catalogue.
        return ChannelAllocation._from_index_groups(
            database, [order[start:stop] for start, stop in boundaries]
        )
