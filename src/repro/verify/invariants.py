"""Pure invariant checkers over allocations and cost structures.

Every checker takes concrete objects (a database, an allocation, item
lists) and returns a list of :class:`Violation` records — an empty list
means the invariant holds.  Checkers never raise on a *detected*
violation; raising is reserved for being called with malformed inputs.
This shape lets the fuzzer (:mod:`repro.verify.fuzz`) treat a violation
as data it can shrink and serialize, and lets tests assert
``checker(...) == []`` directly.

The checks encode the paper's closed-form identities:

* Eq. (1): per-item wait ``W_j = Z_i / (2b) + z_j / b``;
* Eq. (2): ``W_b = cost / (2b) + fixed_download_cost / b``;
* Eq. (3): ``cost = Σ_i F_i · Z_i`` — equivalently the pairwise double
  sum ``Σ_i Σ_{j,l ∈ G_i} f_j · z_l``;
* Eq. (4): the O(1) move delta ``Δc`` versus a from-scratch recompute.

Tolerance policy
----------------
Identities that hold *bitwise* by construction (same ``math.fsum`` over
the same floats) are compared exactly.  Identities that reassociate
floating-point sums are compared with ``REL_TOL`` relative tolerance
(``ABS_TOL`` absolute floor); both are deliberately loose enough that a
genuine formula bug (wrong sign, dropped term) lands orders of magnitude
outside them.  See ``docs/verification.md`` for the catalogue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.allocation import ChannelAllocation
from repro.core.cost import (
    DEFAULT_BANDWIDTH,
    allocation_cost,
    average_waiting_time,
    channel_waiting_time,
    group_aggregates,
    item_waiting_time,
    move_delta,
    waiting_time_from_cost,
)
from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.core.cds import cds_refine
from repro.core.drp import drp_allocate
from repro.core.incremental import DEFAULT_REGRESSION_GUARD, warm_start_refine

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "Violation",
    "DeltaFn",
    "close",
    "check_allocation_wellformed",
    "check_cost_identities",
    "check_move_delta",
    "check_prefix_sums",
    "check_lower_bounds",
]

#: Relative tolerance for identities that reassociate float sums.
REL_TOL = 1e-9
#: Absolute floor so near-zero quantities do not trip the relative test.
ABS_TOL = 1e-12

#: Signature of :func:`repro.core.cost.move_delta` — checkers accept a
#: replacement so the fuzzer can inject a deliberately broken delta and
#: confirm the harness catches it (``repro verify --inject-bug``).
DeltaFn = Callable[..., float]


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``check`` is the dotted checker name (``"invariants.move-delta"``),
    ``message`` a human-readable description with the numbers that
    disagreed, and ``context`` any structured details useful for replay
    (item ids, channel indices, expected/actual values).
    """

    check: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "message": self.message,
            "context": dict(self.context),
        }


def close(a: float, b: float, *, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Tolerance predicate used across the verification layer."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _violation(check: str, message: str, **context: object) -> Violation:
    return Violation(check=check, message=message, context=context)


# ---------------------------------------------------------------------------
# Structural well-formedness
# ---------------------------------------------------------------------------

def check_allocation_wellformed(
    allocation: ChannelAllocation,
    *,
    allow_empty_channels: bool = False,
) -> List[Violation]:
    """The allocation is an exact partition with consistent aggregates.

    Checks: every database item appears on exactly one channel, no
    channel is empty (unless allowed), and the cached per-channel
    ``ChannelStats`` match a from-scratch ``math.fsum`` recompute.
    """
    name = "invariants.wellformed"
    violations: List[Violation] = []
    database = allocation.database
    seen: Dict[str, int] = {}
    for index, channel in enumerate(allocation.channels):
        if not channel and not allow_empty_channels:
            violations.append(
                _violation(name, f"channel {index} is empty", channel=index)
            )
        for item in channel:
            if item.item_id in seen:
                violations.append(
                    _violation(
                        name,
                        f"item {item.item_id!r} on channels "
                        f"{seen[item.item_id]} and {index}",
                        item=item.item_id,
                    )
                )
            seen[item.item_id] = index
    missing = set(database.item_ids) - set(seen)
    extra = set(seen) - set(database.item_ids)
    if missing:
        violations.append(
            _violation(
                name,
                f"{len(missing)} database item(s) unallocated",
                missing=sorted(missing),
            )
        )
    if extra:
        violations.append(
            _violation(
                name,
                f"{len(extra)} allocated item(s) not in the database",
                extra=sorted(extra),
            )
        )
    for index, (channel, stat) in enumerate(
        zip(allocation.channels, allocation.channel_stats)
    ):
        frequency, size = group_aggregates(channel)
        if not close(stat.frequency, frequency) or not close(stat.size, size):
            violations.append(
                _violation(
                    name,
                    f"channel {index} stats ({stat.frequency}, {stat.size}) "
                    f"!= recomputed ({frequency}, {size})",
                    channel=index,
                )
            )
        if stat.count != len(channel):
            violations.append(
                _violation(
                    name,
                    f"channel {index} count {stat.count} != {len(channel)}",
                    channel=index,
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Cost identities — Eq. (1), (2), (3)
# ---------------------------------------------------------------------------

def check_cost_identities(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
) -> List[Violation]:
    """Eq. (1)–(3) must tell one consistent story about the allocation.

    Four cross-checks:

    1. ``allocation_cost`` equals the pairwise double sum
       ``Σ_i Σ_{j,l ∈ G_i} f_j z_l`` (the raw form Eq. (3) factors);
    2. ``average_waiting_time`` equals ``waiting_time_from_cost`` applied
       to ``allocation_cost`` (Eq. (2));
    3. the frequency-weighted per-item waits of Eq. (1) aggregate to the
       same ``W_b``:  ``Σ_j f_j · W_j == W_b``;
    4. each channel's ``channel_waiting_time`` matches the
       frequency-weighted mean of its members' ``item_waiting_time``.
    """
    name = "invariants.cost-identities"
    violations: List[Violation] = []
    database = allocation.database

    cost = allocation_cost(allocation)
    pairwise = math.fsum(
        item.frequency * other.size
        for channel in allocation.channels
        for item in channel
        for other in channel
    )
    if not close(cost, pairwise):
        violations.append(
            _violation(
                name,
                f"Eq.(3) factored cost {cost} != pairwise double sum {pairwise}",
                cost=cost,
                pairwise=pairwise,
            )
        )

    w_b = average_waiting_time(allocation, bandwidth=bandwidth)
    from_cost = waiting_time_from_cost(
        cost, database.fixed_download_cost, bandwidth=bandwidth
    )
    if not close(w_b, from_cost):
        violations.append(
            _violation(
                name,
                f"Eq.(2) W_b {w_b} != waiting_time_from_cost {from_cost}",
                w_b=w_b,
                from_cost=from_cost,
            )
        )

    weighted = math.fsum(
        item.frequency * item_waiting_time(item, channel, bandwidth=bandwidth)
        for channel in allocation.channels
        for item in channel
    )
    if not close(w_b, weighted):
        violations.append(
            _violation(
                name,
                f"Eq.(1) aggregate of per-item waits {weighted} != W_b {w_b}",
                w_b=w_b,
                weighted=weighted,
            )
        )

    for index, channel in enumerate(allocation.channels):
        if not channel:
            continue
        per_channel = channel_waiting_time(channel, bandwidth=bandwidth)
        frequency, _ = group_aggregates(channel)
        member_mean = math.fsum(
            item.frequency * item_waiting_time(item, channel, bandwidth=bandwidth)
            for item in channel
        ) / frequency
        if not close(per_channel, member_mean):
            violations.append(
                _violation(
                    name,
                    f"channel {index} wait {per_channel} != "
                    f"frequency-weighted member mean {member_mean}",
                    channel=index,
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Move delta — Eq. (4)
# ---------------------------------------------------------------------------

def check_move_delta(
    allocation: ChannelAllocation,
    *,
    delta_fn: DeltaFn = move_delta,
    max_moves: int = 512,
    rng=None,
) -> List[Violation]:
    """Eq. (4)'s O(1) ``Δc`` must equal the from-scratch cost difference.

    Enumerates candidate (item, origin → destination) moves — all of
    them when the move space is small, a deterministic sample otherwise
    — and compares ``delta_fn``'s closed form against
    ``cost(before) − cost(after)`` recomputed with ``math.fsum`` on the
    two affected channels.  ``delta_fn`` defaults to the production
    :func:`repro.core.cost.move_delta`; the fuzzer swaps in a mutated
    version to prove the harness detects a broken delta.
    """
    name = "invariants.move-delta"
    violations: List[Violation] = []
    channels = allocation.channels
    num_channels = len(channels)
    if num_channels < 2:
        return violations

    moves: List[Tuple[int, int, int]] = [
        (origin, position, destination)
        for origin, channel in enumerate(channels)
        for position in range(len(channel))
        for destination in range(num_channels)
        if destination != origin
    ]
    if len(moves) > max_moves:
        if rng is None:
            import random

            rng = random.Random(0)
            indices = sorted(rng.sample(range(len(moves)), max_moves))
        else:
            indices = sorted(
                int(i) for i in rng.choice(len(moves), size=max_moves, replace=False)
            )
        moves = [moves[i] for i in indices]

    aggregates = [group_aggregates(channel) for channel in channels]
    for origin, position, destination in moves:
        item = channels[origin][position]
        origin_frequency, origin_size = aggregates[origin]
        dest_frequency, dest_size = aggregates[destination]
        closed = delta_fn(
            item,
            origin_frequency=origin_frequency,
            origin_size=origin_size,
            dest_frequency=dest_frequency,
            dest_size=dest_size,
        )

        before = (
            origin_frequency * origin_size + dest_frequency * dest_size
        )
        new_origin = [other for other in channels[origin] if other is not item]
        new_dest = list(channels[destination]) + [item]
        of, oz = group_aggregates(new_origin)
        df, dz = group_aggregates(new_dest)
        after = of * oz + df * dz
        recomputed = before - after
        scale = max(1.0, abs(before), abs(after))
        if abs(closed - recomputed) > REL_TOL * scale:
            violations.append(
                _violation(
                    name,
                    f"Eq.(4) closed-form Δc {closed} != recomputed "
                    f"{recomputed} for {item.item_id!r}: "
                    f"channel {origin} → {destination}",
                    item=item.item_id,
                    origin=origin,
                    destination=destination,
                    closed=closed,
                    recomputed=recomputed,
                )
            )
            if len(violations) >= 8:
                break  # enough evidence; keep failure payloads bounded
    return violations


# ---------------------------------------------------------------------------
# Prefix sums
# ---------------------------------------------------------------------------

def check_prefix_sums(
    items: Sequence[DataItem],
    *,
    max_ranges: int = 256,
    rng=None,
) -> List[Violation]:
    """``PrefixSums`` range queries must agree with direct ``fsum``.

    Exercises ``frequency``, ``size`` and ``cost`` over all (start,
    stop) ranges for short item lists, or a deterministic sample of
    ranges for long ones.  Prefix-sum subtraction reassociates the sum,
    so the comparison uses ``REL_TOL``.
    """
    name = "invariants.prefix-sums"
    violations: List[Violation] = []
    items = list(items)
    n = len(items)
    if n == 0:
        return violations
    sums = PrefixSums(items)

    ranges = [
        (start, stop)
        for start in range(n)
        for stop in range(start + 1, n + 1)
    ]
    if len(ranges) > max_ranges:
        if rng is None:
            import random

            picker = random.Random(0)
            indices = sorted(picker.sample(range(len(ranges)), max_ranges))
        else:
            indices = sorted(
                int(i)
                for i in rng.choice(len(ranges), size=max_ranges, replace=False)
            )
        ranges = [ranges[i] for i in indices]

    for start, stop in ranges:
        window = items[start:stop]
        frequency = math.fsum(item.frequency for item in window)
        size = math.fsum(item.size for item in window)
        if not close(sums.frequency(start, stop), frequency):
            violations.append(
                _violation(
                    name,
                    f"prefix frequency({start}, {stop}) = "
                    f"{sums.frequency(start, stop)} != fsum {frequency}",
                    start=start,
                    stop=stop,
                )
            )
        if not close(sums.size(start, stop), size):
            violations.append(
                _violation(
                    name,
                    f"prefix size({start}, {stop}) = "
                    f"{sums.size(start, stop)} != fsum {size}",
                    start=start,
                    stop=stop,
                )
            )
        if not close(sums.cost(start, stop), frequency * size):
            violations.append(
                _violation(
                    name,
                    f"prefix cost({start}, {stop}) = "
                    f"{sums.cost(start, stop)} != F·Z {frequency * size}",
                    start=start,
                    stop=stop,
                )
            )
        if len(violations) >= 8:
            break
    return violations


# ---------------------------------------------------------------------------
# Lower / upper bound chain
# ---------------------------------------------------------------------------

def _bounded_above(lower: float, upper: float) -> bool:
    """``lower ≤ upper`` with the layer's tolerance slack."""
    return lower <= upper + REL_TOL * max(1.0, abs(upper)) + ABS_TOL


def check_lower_bounds(
    database: BroadcastDatabase,
    num_channels: int,
) -> List[Violation]:
    """The provable ordering between the algorithms must hold.

    * the contiguous DP optimum (exact on the benefit-ratio ordering)
      never exceeds DRP's cost — DRP outputs *a* contiguous partition
      of the same ordering;
    * DRP never exceeds the flat single-group cost it starts from
      (splitting only ever removes cross terms ``F_p Z_q + F_q Z_p ≥ 0``);
    * CDS never worsens its DRP seed (descent only accepts improving
      moves);
    * a warm start never exceeds ``DEFAULT_REGRESSION_GUARD ×`` the
      rough DRP cost — the documented fallback guard of
      :func:`repro.core.incremental.warm_start_refine`.
    """
    name = "invariants.lower-bounds"
    violations: List[Violation] = []
    if num_channels > len(database.items):
        return violations

    flat_frequency = database.total_frequency
    flat_size = database.total_size
    flat_cost = flat_frequency * flat_size

    drp = drp_allocate(database, num_channels)
    ordered = database.sorted_by_benefit_ratio()
    _, dp_cost = contiguous_optimal(ordered, num_channels)
    cds = cds_refine(drp.allocation)
    warm = warm_start_refine(database, num_channels, drp.allocation)

    if not _bounded_above(dp_cost, drp.cost):
        violations.append(
            _violation(
                name,
                f"contiguous DP optimum {dp_cost} exceeds DRP cost {drp.cost}",
                dp=dp_cost,
                drp=drp.cost,
            )
        )
    if not _bounded_above(drp.cost, flat_cost):
        violations.append(
            _violation(
                name,
                f"DRP cost {drp.cost} exceeds flat single-group cost {flat_cost}",
                drp=drp.cost,
                flat=flat_cost,
            )
        )
    if not _bounded_above(cds.cost, drp.cost):
        violations.append(
            _violation(
                name,
                f"CDS cost {cds.cost} exceeds its DRP seed {drp.cost}",
                cds=cds.cost,
                drp=drp.cost,
            )
        )
    guard_bound = DEFAULT_REGRESSION_GUARD * drp.cost
    if not _bounded_above(warm.cost, guard_bound):
        violations.append(
            _violation(
                name,
                f"warm-start cost {warm.cost} exceeds guard bound "
                f"{guard_bound} ({DEFAULT_REGRESSION_GUARD} × DRP {drp.cost})",
                warm=warm.cost,
                bound=guard_bound,
                mode=warm.mode,
            )
        )
    return violations
