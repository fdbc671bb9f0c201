"""Metamorphic relations the cost model and allocators must respect.

A metamorphic relation transforms an input in a way whose effect on the
output is known *a priori* — no external oracle needed.  Each relation
below returns a list of :class:`~repro.verify.invariants.Violation`
records (empty = the relation holds), so the fuzzer and pytest can
consume them uniformly.

The five relations (named ``metamorphic.<slug>``):

``permutation``
    Reordering items within channels, or relabelling the channels
    themselves, leaves every cost bitwise unchanged — ``math.fsum`` is
    exactly rounded, hence permutation invariant.
``size-scaling``
    Scaling every item size by a power of two scales all costs by
    exactly that factor and leaves the DRP grouping identical: scaling
    by 2 commutes with float rounding, so every comparison DRP makes is
    preserved verbatim.
``frequency-renormalization``
    Scaling every access frequency by a common factor scales costs
    linearly and leaves the DRP grouping unchanged — the grouping only
    depends on the *relative* frequency profile, so renormalising a
    database is cost-neutral.
``monotone-channels``
    The contiguous-DP optimal cost is non-increasing in the number of
    channels K: any K-partition can be refined by splitting one group,
    and splitting removes the non-negative cross term
    ``F_p Z_q + F_q Z_p``.
``merge-split``
    The same cross term drives merge consistency:
    ``cost(p ∪ q) − cost(p) − cost(q) = F_p Z_q + F_q Z_p``, and the
    enumerated two-way split costs agree with ``best_split``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.allocation import ChannelAllocation
from repro.core.cost import allocation_cost, group_aggregates, group_cost
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.item import DataItem
from repro.core.partition import (
    PrefixSums,
    best_split,
    contiguous_optimal,
    split_costs,
)
from repro.verify.invariants import REL_TOL, Violation, close
from repro.verify.reference import best_split_reference

__all__ = [
    "relation_permutation",
    "relation_size_scaling",
    "relation_frequency_renormalization",
    "relation_monotone_channels",
    "relation_merge_split",
]


def _violation(check: str, message: str, **context: object) -> Violation:
    return Violation(check=check, message=message, context=context)


def _scaled_database(
    database: BroadcastDatabase,
    *,
    size_factor: float = 1.0,
    frequency_factor: float = 1.0,
) -> BroadcastDatabase:
    items = [
        DataItem(
            item.item_id,
            frequency=item.frequency * frequency_factor,
            size=item.size * size_factor,
            label=item.label,
        )
        for item in database.items
    ]
    return BroadcastDatabase(items, require_normalized=False)


# ---------------------------------------------------------------------------
# Permutation invariance
# ---------------------------------------------------------------------------

def relation_permutation(
    allocation: ChannelAllocation, rng
) -> List[Violation]:
    """Item order and channel labels are cost-irrelevant — bitwise.

    ``rng`` is a :class:`numpy.random.Generator` (only ``permutation``
    is used, so any object with that method works).
    """
    name = "metamorphic.permutation"
    violations: List[Violation] = []
    base_cost = allocation_cost(allocation)

    shuffled_channels = []
    for channel in allocation.channels:
        order = [int(i) for i in rng.permutation(len(channel))]
        shuffled_channels.append([channel[i] for i in order])
    channel_order = [int(i) for i in rng.permutation(len(shuffled_channels))]
    shuffled_channels = [shuffled_channels[i] for i in channel_order]

    permuted = ChannelAllocation(
        allocation.database,
        shuffled_channels,
        allow_empty_channels=True,
    )
    permuted_cost = allocation_cost(permuted)
    if permuted_cost != base_cost:
        violations.append(
            _violation(
                name,
                f"permuted allocation cost {permuted_cost!r} != base "
                f"{base_cost!r} (fsum must be permutation invariant)",
                base=base_cost,
                permuted=permuted_cost,
            )
        )

    for index, channel in enumerate(allocation.channels):
        order = [int(i) for i in rng.permutation(len(channel))]
        reordered = [channel[i] for i in order]
        if group_cost(reordered) != group_cost(channel):
            violations.append(
                _violation(
                    name,
                    f"group_cost of channel {index} changed under item "
                    "permutation",
                    channel=index,
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Size scaling
# ---------------------------------------------------------------------------

def relation_size_scaling(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    factor: float = 2.0,
) -> List[Violation]:
    """Doubling all sizes doubles all costs and preserves the grouping.

    ``factor`` must be a power of two so the scaling is exact in binary
    floating point; then every intermediate quantity DRP computes scales
    exactly and every comparison resolves identically.
    """
    name = "metamorphic.size-scaling"
    violations: List[Violation] = []
    mantissa, _ = math.frexp(factor)
    if mantissa != 0.5:
        raise ValueError(f"factor must be a power of two, got {factor}")
    if num_channels > len(database.items):
        return violations

    scaled_db = _scaled_database(database, size_factor=factor)
    base = drp_allocate(database, num_channels)
    scaled = drp_allocate(scaled_db, num_channels)

    if scaled.allocation.as_id_lists() != base.allocation.as_id_lists():
        violations.append(
            _violation(
                name,
                f"DRP grouping changed under ×{factor} size scaling",
                factor=factor,
            )
        )
    if not close(scaled.cost, factor * base.cost, rel=1e-12):
        violations.append(
            _violation(
                name,
                f"DRP cost {scaled.cost!r} != {factor} × base cost "
                f"{base.cost!r} (power-of-two scaling must be exact)",
                base=base.cost,
                scaled=scaled.cost,
                factor=factor,
            )
        )

    rebased = ChannelAllocation.rebase(
        scaled_db, base.allocation.as_id_lists()
    )
    fixed_cost = allocation_cost(rebased)
    expected = factor * allocation_cost(base.allocation)
    if fixed_cost != expected:
        violations.append(
            _violation(
                name,
                f"fixed-grouping cost {fixed_cost!r} != exactly scaled "
                f"{expected!r}",
                fixed=fixed_cost,
                expected=expected,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Frequency renormalization
# ---------------------------------------------------------------------------

def relation_frequency_renormalization(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    factor: float = 2.0,
) -> List[Violation]:
    """The grouping depends only on the relative frequency profile.

    Two legs: (a) scaling all frequencies by a power of two preserves
    the DRP grouping and scales the cost exactly; (b) renormalising the
    scaled database back to a probability profile scales any fixed
    grouping's cost linearly (within ``REL_TOL`` — the 1/total factor
    is not a power of two).
    """
    name = "metamorphic.frequency-renormalization"
    violations: List[Violation] = []
    mantissa, _ = math.frexp(factor)
    if mantissa != 0.5:
        raise ValueError(f"factor must be a power of two, got {factor}")
    if num_channels > len(database.items):
        return violations

    scaled_db = _scaled_database(database, frequency_factor=factor)
    base = drp_allocate(database, num_channels)
    scaled = drp_allocate(scaled_db, num_channels)

    if scaled.allocation.as_id_lists() != base.allocation.as_id_lists():
        violations.append(
            _violation(
                name,
                f"DRP grouping changed under ×{factor} frequency scaling",
                factor=factor,
            )
        )
    if not close(scaled.cost, factor * base.cost, rel=1e-12):
        violations.append(
            _violation(
                name,
                f"DRP cost {scaled.cost!r} != {factor} × base cost "
                f"{base.cost!r}",
                base=base.cost,
                scaled=scaled.cost,
                factor=factor,
            )
        )

    normalized_db = scaled_db.normalized()
    grouping = base.allocation.as_id_lists()
    normalized_cost = allocation_cost(
        ChannelAllocation.rebase(normalized_db, grouping)
    )
    scale = 1.0 / scaled_db.total_frequency
    expected = scale * allocation_cost(
        ChannelAllocation.rebase(scaled_db, grouping)
    )
    if not close(normalized_cost, expected):
        violations.append(
            _violation(
                name,
                f"renormalised fixed-grouping cost {normalized_cost} != "
                f"linearly scaled {expected}",
                normalized=normalized_cost,
                expected=expected,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Monotonicity in the channel count
# ---------------------------------------------------------------------------

def relation_monotone_channels(
    database: BroadcastDatabase,
    *,
    max_channels: Optional[int] = None,
) -> List[Violation]:
    """Optimal contiguous cost never increases when K grows."""
    name = "metamorphic.monotone-channels"
    violations: List[Violation] = []
    ordered = database.sorted_by_benefit_ratio()
    limit = min(len(ordered), max_channels or 8)
    previous = None
    for k in range(1, limit + 1):
        _, cost = contiguous_optimal(ordered, k)
        if previous is not None and cost > previous + REL_TOL * max(
            1.0, abs(previous)
        ):
            violations.append(
                _violation(
                    name,
                    f"optimal cost rose from {previous} (K={k - 1}) to "
                    f"{cost} (K={k})",
                    k=k,
                    previous=previous,
                    cost=cost,
                )
            )
        previous = cost
    return violations


# ---------------------------------------------------------------------------
# Merge / split consistency
# ---------------------------------------------------------------------------

def relation_merge_split(
    allocation: ChannelAllocation, rng
) -> List[Violation]:
    """Merging groups adds exactly the cross term; splits agree.

    (a) For channel pairs (p, q):
    ``cost(p ∪ q) − cost(p) − cost(q) == F_p Z_q + F_q Z_p``.
    (b) For each multi-item channel: the enumerated two-way split costs
    (:func:`split_costs`) reach their minimum exactly at
    :func:`best_split`, which agrees with the scalar reference scan.
    """
    name = "metamorphic.merge-split"
    violations: List[Violation] = []
    channels = allocation.channels

    pairs = [
        (p, q)
        for p in range(len(channels))
        for q in range(p + 1, len(channels))
    ]
    if len(pairs) > 16:
        indices = sorted(
            int(i) for i in rng.choice(len(pairs), size=16, replace=False)
        )
        pairs = [pairs[i] for i in indices]
    for p, q in pairs:
        fp, zp = group_aggregates(channels[p])
        fq, zq = group_aggregates(channels[q])
        merged = group_cost(list(channels[p]) + list(channels[q]))
        cross = fp * zq + fq * zp
        gain = merged - fp * zp - fq * zq
        scale = max(1.0, abs(merged))
        if abs(gain - cross) > REL_TOL * scale:
            violations.append(
                _violation(
                    name,
                    f"merge({p}, {q}) gain {gain} != cross term {cross}",
                    p=p,
                    q=q,
                    gain=gain,
                    cross=cross,
                )
            )
        if cross < -REL_TOL * scale:
            violations.append(
                _violation(
                    name,
                    f"negative cross term {cross} for merge({p}, {q}) — "
                    "splitting must never increase cost",
                    p=p,
                    q=q,
                    cross=cross,
                )
            )

    for index, channel in enumerate(channels):
        if len(channel) < 2:
            continue
        items: Sequence[DataItem] = list(channel)
        enumerated = split_costs(items)
        split, cost = best_split(items)
        ref_split, ref_cost = best_split_reference(
            PrefixSums(items), 0, len(items)
        )
        if min(enumerated) != cost:
            violations.append(
                _violation(
                    name,
                    f"channel {index}: min(split_costs) {min(enumerated)} "
                    f"!= best_split cost {cost}",
                    channel=index,
                )
            )
        if (split, cost) != (ref_split, ref_cost):
            violations.append(
                _violation(
                    name,
                    f"channel {index}: best_split ({split}, {cost}) "
                    f"disagrees with the reference ({ref_split}, "
                    f"{ref_cost})",
                    channel=index,
                )
            )
        whole = group_cost(items)
        if cost > whole + REL_TOL * max(1.0, abs(whole)):
            violations.append(
                _violation(
                    name,
                    f"channel {index}: best two-way split {cost} "
                    f"worse than unsplit cost {whole}",
                    channel=index,
                )
            )
    return violations
