"""Mechanism CDS — Cost-Diminishing Selection (paper, Section 3.2).

CDS refines a given grouping to a *local optimum*: in each iteration it
evaluates the cost reduction ``Δc`` of every possible single-item move
between groups using the closed form of Eq. (4) — no move is actually
performed during evaluation — then executes the best strictly-improving
move.  It terminates when no move reduces the cost.

Per-iteration complexity is ``O(K²·N)`` pair evaluations in the paper's
formulation (each of the N items against each of the K−1 other groups,
with the scan repeated per origin group); this implementation visits each
(item, destination) pair exactly once per iteration, i.e. ``O(K·N)``
evaluations, each O(1) thanks to maintained ``(F_i, Z_i)`` aggregates.

A useful consequence of Eq. (4): moving the *last* item out of a group is
never selected, because with ``F_p = f_x`` and ``Z_p = z_x`` the delta
collapses to ``−f_x Z_q − z_x F_q < 0``.  The "keep all K channels
non-empty" invariant therefore holds automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import kernels
from repro.core.allocation import ChannelAllocation
from repro.core.cost import allocation_cost

__all__ = ["CDSMove", "CDSResult", "cds_refine"]

#: Moves whose cost reduction is below this threshold are treated as
#: zero.  Floating-point noise in the Δc formula could otherwise make the
#: loop chase meaningless 1e-17 "improvements" forever.
_IMPROVEMENT_EPSILON = 1e-12


@dataclass(frozen=True)
class CDSMove:
    """One executed move: ``item_id`` went ``origin → destination``."""

    item_id: str
    origin: int
    destination: int
    delta: float
    cost_after: float


@dataclass
class CDSResult:
    """Outcome of :func:`cds_refine`.

    Attributes
    ----------
    allocation:
        The locally optimal allocation.
    cost:
        Its total cost :math:`\\sum F_i Z_i`.
    initial_cost:
        Cost of the allocation CDS started from.
    moves:
        The executed moves in order.  ``len(moves)`` is the iteration
        count; the sequence of ``delta`` values is non-increasing in
        total cost by construction.
    converged:
        True when CDS stopped because no improving move exists; False
        only if ``max_iterations`` cut the search short.
    delta_evaluations:
        *Measured* number of ``Δc`` (item, destination) pair
        evaluations performed over the whole refinement, counted where
        the evaluations happen.  Under ``scan="full"`` every best-move
        scan costs ``N·(K−1)`` evaluations; under
        ``scan="incremental"`` only the cold index build does — each
        move afterwards re-evaluates just the dirtied cells (~``O(N +
        K²)``), so this is far below the full-scan figure.  The old
        arithmetically-derived value survives as
        :attr:`full_scan_equivalent`.
    scan_mode:
        The resolved scan mode that produced this result (``"full"``
        or ``"incremental"``).
    """

    allocation: ChannelAllocation
    cost: float
    initial_cost: float
    moves: List[CDSMove] = field(default_factory=list)
    converged: bool = True
    delta_evaluations: int = 0
    scan_mode: str = "full"

    @property
    def iterations(self) -> int:
        return len(self.moves)

    @property
    def full_scan_equivalent(self) -> int:
        """Δc evaluations a pure full-scan refinement would have paid.

        One ``N·(K−1)`` scan per executed move plus the final scan that
        proves convergence — the pre-incremental accounting, kept for
        trend continuity in benches and traces.  For ``scan="full"``
        this equals :attr:`delta_evaluations`.
        """
        scans = self.iterations + (1 if self.converged else 0)
        return scans * len(self.allocation.database) * (
            self.allocation.num_channels - 1
        )

    @property
    def improvement(self) -> float:
        """Total cost reduction achieved over the initial allocation."""
        return self.initial_cost - self.cost

    @property
    def cost_trajectory(self) -> Tuple[float, ...]:
        """Total cost before any move and after each executed move.

        Strictly decreasing by construction (every executed move has
        ``delta > ε``), which makes convergence toward the paper's
        Table 4 value directly inspectable — the golden-trace test
        asserts the paper example's trajectory ends at ``22.29``.
        """
        return (self.initial_cost,) + tuple(
            move.cost_after for move in self.moves
        )


def cds_refine(
    allocation: ChannelAllocation,
    *,
    initial: "ChannelAllocation | Sequence[Sequence[str]] | None" = None,
    max_iterations: Optional[int] = None,
    scan: str = "auto",
    scan_workers: Optional[int] = None,
) -> CDSResult:
    """Refine ``allocation`` to a local optimum with mechanism CDS.

    Parameters
    ----------
    allocation:
        Any valid channel allocation (typically the output of DRP, but
        CDS accepts arbitrary starting points — e.g. a random allocation
        for the "CDS from scratch" ablation).
    initial:
        Optional warm-start seed: an allocation (or plain per-channel
        item-id lists) whose *grouping* — not its item objects — should
        be the starting point.  It may come
        from an earlier profile of the same catalogue — the grouping is
        rebased onto ``allocation.database`` before the search, so the
        drifted frequencies apply.  ``allocation`` then only supplies
        the target database; its own grouping is ignored.  The rebase
        happens once, before the scan starts, so every scan mode sees
        the identical seeded state.
    max_iterations:
        Optional hard cap on the number of moves.  ``None`` (default)
        runs to convergence, which Eq. (4) guarantees is finite: the
        total cost strictly decreases with every move and the number of
        distinct groupings is finite.
    scan:
        ``"full"`` — re-scan every ``N·(K−1)`` (item, destination)
        pair per iteration as one broadcasted Δc matrix (the paper's
        loop); ``"incremental"`` — maintain the dirty-pair
        :class:`~repro.core.kernels.CDSPairIndex` so a move only
        re-evaluates the ~``O(N + K²)`` pairs it dirtied; ``"auto"``
        (default) — switch to incremental past
        :data:`~repro.core.kernels.CDS_INCREMENTAL_SCAN_CROSSOVER`
        full-scan evaluations.  Every mode executes the bitwise-
        identical move sequence — same floats, same (origin, position,
        destination) tie-break — gated by the ``oracle.cds-scan-modes``
        triple-parity check in :mod:`repro.verify`.
    scan_workers:
        Thread count for the incremental index's chunked cold scan
        (``None`` = one per core, capped).  Purely a throughput knob:
        the merged scan is deterministic for any worker count.

    Returns
    -------
    CDSResult

    Notes
    -----
    When observability is enabled (see :mod:`repro.obs`) the call emits
    a ``cds.refine`` span with the move count, Δc-evaluation count and
    the full cost trajectory, and bumps the ``cds.*`` metrics counters.
    The instrumentation reads bookkeeping CDS keeps anyway, so enabling
    it cannot change the refinement.
    """
    if initial is not None:
        allocation = ChannelAllocation.rebase(allocation.database, initial)
    num_items = len(allocation.database)
    resolved_scan = kernels.resolve_scan(
        scan, num_items, allocation.num_channels
    )
    with obs.span(
        "cds.refine",
        items=num_items,
        channels=allocation.num_channels,
        scan=resolved_scan,
        warm_start=initial is not None,
    ) as span:
        if max_iterations is not None and max_iterations <= 0:
            # Zero move budget: no best-move scan is ever consulted, so
            # return the (rebased) input outright — no Δc evaluations,
            # no group materialisation, O(K) aggregate cost only.
            cost = allocation_cost(allocation)
            result = CDSResult(
                allocation=allocation,
                cost=cost,
                initial_cost=cost,
                moves=[],
                converged=False,
                scan_mode=resolved_scan,
            )
        elif resolved_scan == "incremental":
            result = _cds_refine_incremental(
                allocation,
                max_iterations=max_iterations,
                scan_workers=scan_workers,
            )
        else:
            result = _cds_refine_full(allocation, max_iterations=max_iterations)
        result.scan_mode = resolved_scan
        span.update(
            moves=result.iterations,
            delta_evaluations=result.delta_evaluations,
            full_scan_equivalent=result.full_scan_equivalent,
            converged=result.converged,
            cost_initial=result.initial_cost,
            cost_final=result.cost,
            improvement=result.improvement,
            cost_trajectory=list(result.cost_trajectory),
        )
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("cds.runs").inc()
            registry.counter("cds.moves").inc(result.iterations)
            registry.counter("cds.delta_evaluations").inc(result.delta_evaluations)
            registry.counter("cds.full_scan_equivalent").inc(
                result.full_scan_equivalent
            )
            if result.converged:
                registry.counter("cds.converged_runs").inc()
    return result


def _cds_refine_full(
    allocation: ChannelAllocation,
    *,
    max_iterations: Optional[int] = None,
) -> CDSResult:
    """The full-rescan loop of :func:`cds_refine`.

    Structure-of-arrays bookkeeping, end to end: the database's feature
    arrays are read in place (catalogue order), the working state is a
    channel index per item plus per-channel ``(F_i, Z_i)`` aggregate
    arrays, and the per-channel index lists mirror the scalar
    reference's mutable group lists (pop at position / append at end), so the scan
    order — and therefore the tie-break — stays identical move for
    move.  No :class:`DataItem` is ever materialised: the Δc scan, the
    aggregate updates and the final rebuild all run on catalogue
    indices (the only per-move object is the executed move's id
    string).
    """
    database = allocation.database
    freq = database.frequencies
    size = database.sizes
    num_items = len(database)
    groups: List[List[int]] = [
        [int(i) for i in group] for group in allocation.channel_index_groups
    ]
    group_of = np.empty(num_items, dtype=np.intp)
    for channel, members in enumerate(groups):
        group_of[members] = channel
    agg_f = np.array(
        [stat.frequency for stat in allocation.channel_stats], dtype=np.float64
    )
    agg_z = np.array(
        [stat.size for stat in allocation.channel_stats], dtype=np.float64
    )
    offsets = [0] * len(groups)
    initial_cost = allocation_cost(allocation)
    current_cost = initial_cost
    num_channels = len(groups)
    evaluations = 0
    moves: List[CDSMove] = []
    converged = True
    order = np.empty(num_items, dtype=np.intp)
    hb = obs.heartbeat("cds", rates=("delta_evaluations",))

    while True:
        if max_iterations is not None and len(moves) >= max_iterations:
            converged = False
            break
        position = 0
        for channel, members in enumerate(groups):
            offsets[channel] = position
            order[position: position + len(members)] = members
            position += len(members)
        best = kernels.cds_best_move(
            freq, size, order, group_of, agg_f, agg_z, _IMPROVEMENT_EPSILON
        )
        # One full matrix per scan; the masked own-channel column is
        # not an Eq. (4) evaluation, matching the scalar count.
        evaluations += num_items * (num_channels - 1)
        if hb is not None:
            hb.beat(
                moves=len(moves),
                cost=current_cost,
                delta_evaluations=evaluations,
            )
        if best is None:
            break
        delta, rank, destination = best
        index = int(order[rank])
        origin = int(group_of[index])
        groups[origin].pop(rank - offsets[origin])
        groups[destination].append(index)
        group_of[index] = destination
        item_frequency = float(freq[index])
        item_size = float(size[index])
        agg_f[origin] -= item_frequency
        agg_z[origin] -= item_size
        agg_f[destination] += item_frequency
        agg_z[destination] += item_size
        current_cost -= delta
        moves.append(
            CDSMove(
                item_id=database.item_id_at(index),
                origin=origin,
                destination=destination,
                delta=delta,
                cost_after=current_cost,
            )
        )

    if hb is not None:
        hb.flush(
            moves=len(moves), cost=current_cost, delta_evaluations=evaluations
        )
    refined = allocation.replace_index_groups(groups)
    # Recompute from scratch to shed accumulated floating-point drift.
    final_cost = allocation_cost(refined)
    return CDSResult(
        allocation=refined,
        cost=final_cost,
        initial_cost=initial_cost,
        moves=moves,
        converged=converged,
        delta_evaluations=evaluations,
    )


def _cds_refine_incremental(
    allocation: ChannelAllocation,
    *,
    max_iterations: Optional[int] = None,
    scan_workers: Optional[int] = None,
) -> CDSResult:
    """The dirty-pair incremental scan of :func:`cds_refine`.

    Identical working state to :func:`_cds_refine_full` — catalogue
    feature arrays, per-channel index lists mutated pop-at-position /
    append-at-end, incrementally maintained ``(F_i, Z_i)`` aggregate
    arrays — but the per-iteration best-move search reads the
    :class:`~repro.core.kernels.CDSPairIndex` instead of rescanning
    all ``N·(K−1)`` pairs.  After a move ``o → d`` only cells with
    origin or destination in ``{o, d}`` are recomputed (the move
    changed no other cell's inputs), and the stale-cell refresh is
    deferred to the next iteration's selection so a capped run never
    pays for an update it will not read.

    Bitwise parity with the full scans holds because (a) the aggregate
    arrays receive the identical update sequence, (b) every cell
    evaluation applies the identical elementwise Δc expression to
    identical inputs, and (c) cached cells hold exactly the floats a
    fresh scan would recompute.  See docs/verification.md.
    """
    database = allocation.database
    freq = database.frequencies
    size = database.sizes
    groups: List[List[int]] = [
        [int(i) for i in group] for group in allocation.channel_index_groups
    ]
    agg_f = np.array(
        [stat.frequency for stat in allocation.channel_stats], dtype=np.float64
    )
    agg_z = np.array(
        [stat.size for stat in allocation.channel_stats], dtype=np.float64
    )
    initial_cost = allocation_cost(allocation)
    current_cost = initial_cost
    moves: List[CDSMove] = []
    converged = True
    index = kernels.CDSPairIndex(
        freq, size, groups, agg_f, agg_z, workers=scan_workers
    )
    dirty: Optional[Tuple[int, int]] = None
    hb = obs.heartbeat("cds", rates=("delta_evaluations",))

    while True:
        if max_iterations is not None and len(moves) >= max_iterations:
            converged = False
            break
        if dirty is not None:
            index.apply_move(*dirty)
            dirty = None
        best = index.best_move(_IMPROVEMENT_EPSILON)
        if hb is not None:
            hb.beat(
                moves=len(moves),
                cost=current_cost,
                delta_evaluations=index.evaluations,
            )
        if best is None:
            break
        delta, origin, position, destination = best
        item_index = groups[origin].pop(position)
        groups[destination].append(item_index)
        item_frequency = float(freq[item_index])
        item_size = float(size[item_index])
        agg_f[origin] -= item_frequency
        agg_z[origin] -= item_size
        agg_f[destination] += item_frequency
        agg_z[destination] += item_size
        dirty = (origin, destination)
        current_cost -= delta
        moves.append(
            CDSMove(
                item_id=database.item_id_at(item_index),
                origin=origin,
                destination=destination,
                delta=delta,
                cost_after=current_cost,
            )
        )

    if hb is not None:
        hb.flush(
            moves=len(moves),
            cost=current_cost,
            delta_evaluations=index.evaluations,
        )
    refined = allocation.replace_index_groups(groups)
    # Recompute from scratch to shed accumulated floating-point drift.
    final_cost = allocation_cost(refined)
    return CDSResult(
        allocation=refined,
        cost=final_cost,
        initial_cost=initial_cost,
        moves=moves,
        converged=converged,
        delta_evaluations=index.evaluations,
        scan_mode="incremental",
    )
