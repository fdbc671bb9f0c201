"""Vectorized hot-path kernels backing the core algorithms.

CDS's per-(item, destination) Δc scan and Procedure ``Partition``'s
split scan run here as numpy array expressions.  Every value a kernel
selects or reports is IEEE-754-identical to the scalar reference
implementations kept in :mod:`repro.verify.reference`: the elementwise
kernels apply the scalar loop's operation sequence, and the CDS full
scan, which ranks cells by a re-associated BLAS product, re-scores its
near-optimal cells in that sequence before choosing.

Production path
---------------
numpy is a required dependency and these kernels are the only
production implementation: ``cds_refine``, ``drp_allocate`` and
``best_split_in`` take no implementation selector.  The scalar loops
survive only as verification references; the ``oracle.cds-backends``
and ``oracle.drp-backends`` checks in :mod:`repro.verify.oracles` hold
these kernels to them bit for bit.  The one remaining choice is CDS's
``scan=`` mode (full rescan or the dirty-pair index), which
``scan="auto"`` makes from the input size.

CDS keeps its item state in :class:`CDSBlockState`: feature, ``c``
and index rows in channel-block (scan) order beside the per-channel
aggregates, so a move is one slice shift.  The full scan
(:class:`CDSFullScan`) forms the approximate Δc of every (destination,
rank) cell as one ``(K × 3)·(3 × items)`` matmul; the dirty-pair
index (:class:`CDSPairIndex`) evaluates Eq. (4) exactly through
:func:`cds_delta_into`, one block at a time.  Both are
destination-major (``K × items``, the long axis innermost) into
buffers bounded by :data:`CDS_DELTA_CHUNK_ELEMENTS`.

Exact summation
---------------
:func:`exact_sum` returns ``math.fsum``'s float for values held in
numpy batches, by error-free extraction instead of one Python float
per value; every waiting-time summary sums through it.

Tie-break contract
------------------
All kernels preserve the scalar code's "first maximum / first minimum
wins" determinism.  The split scan's ``np.argmin`` returns the first
minimum, exactly what the scalar strict ``<`` loop selects.  The CDS
scans select in two stages: the best exact Δc per destination (per
(origin, destination) cell in the index), then, among the
destinations tying for the maximum, the minimum rank and then the
minimum destination — the scalar loop's first strict ``>`` maximum in
(origin, position, destination) order.  The full scan reaches it by
re-scoring every cell within a rounding margin of its approximate
optimum; the index's blocks and chunks merge left to right under
strict ``>``, so the leftmost tie survives any budget.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "SCAN_MODES",
    "CDS_INCREMENTAL_SCAN_CROSSOVER",
    "resolve_scan",
    "CDS_DELTA_CHUNK_ELEMENTS",
    "cds_delta_into",
    "CDSBlockState",
    "CDSFullScan",
    "CDSPairIndex",
    "best_split_range_numpy",
    "exact_sum",
]

#: Recognised CDS Δc scan modes.
SCAN_MODES = ("auto", "full", "incremental")

#: ``scan="auto"`` switches to the dirty-pair incremental scan once one
#: full best-move scan costs at least this many Δc pair evaluations
#: (``N·(K−1)``).  Below it the index's per-block bookkeeping costs
#: more than the rescans it saves; above it every executed move drops
#: from O(N·K) to O(N + K²) evaluations.  Measured as µs per move over
#: 200 moves from a contiguous seed, both modes on the same inputs in
#: one process, best of 3 (2-core Xeon, numpy 2.4 with OpenBLAS,
#: CPython 3.11), full vs incremental: N=5000/K=8 (35k) 62 vs 247;
#: N=2000/K=64 (126k) 121 vs 948; N=1000/K=128 (127k) 119 vs 1022;
#: N=20000/K=8 (140k) 407 vs 840; N=20000/K=32 (620k) 1005 vs 1169;
#: N=5000/K=128 (635k) 924 vs 1627; N=50000/K=16 (750k) 1604 vs
#: 1705; N=150000/K=8 (1.05M) 4704 vs 6250; N=40000/K=32 (1.24M) 2252
#: vs 1762; N=10000/K=128 (1.27M) 1698 vs 1991; N=100000/K=16 (1.5M)
#: 3964 vs 3962; N=300000/K=8 (2.1M) 8863 vs 10787; N=20000/K=128
#: (2.5M) 2674 vs 1391; N=50000/K=64 (3.2M) 3728 vs 1909.  The full
#: scan wins everywhere below 750k evaluations.  Parity falls between
#: about 0.9M (K=32) and 1.6M (K=128) and past 2.1M at K=8, so 2²⁰
#: sits inside that band, not on an exact break-even.  No perfbench
#: workload reaches it; the incremental side is exercised by the
#: tests, the oracles, the large-N smoke and the N=10⁶/K=128 bench.
CDS_INCREMENTAL_SCAN_CROSSOVER = 1 << 20

#: Thread cap for the chunked cold Δc scan (numpy releases the GIL in
#: the blocked elementwise work, so threads scale on real cores and
#: degrade to the serial path on one).
CDS_SCAN_MAX_WORKERS = 8


def resolve_scan(scan: str, num_items: int, num_channels: int) -> str:
    """Map a CDS ``scan`` keyword to a concrete scan mode.

    Returns ``"full"`` or ``"incremental"``.  ``"auto"`` picks the
    incremental scan once a single full best-move scan costs at least
    :data:`CDS_INCREMENTAL_SCAN_CROSSOVER` pair evaluations — both
    modes execute the bitwise-identical move sequence, so the choice is
    purely a cost trade.

    Raises
    ------
    ReproError
        If ``scan`` is unknown.
    """
    if scan not in SCAN_MODES:
        raise ReproError(
            f"unknown scan mode {scan!r}; choose from {SCAN_MODES}"
        )
    if scan == "auto":
        if (
            num_channels >= 3
            and num_items * (num_channels - 1)
            >= CDS_INCREMENTAL_SCAN_CROSSOVER
        ):
            return "incremental"
        return "full"
    return scan


# ----------------------------------------------------------------------
# CDS — the one Δc expression
# ----------------------------------------------------------------------
#: Element budget for one Δc buffer (float64 block ≈ 32 MiB).  Every
#: scan evaluates Eq. (4) into buffers of at most this many entries, so
#: peak RSS stays bounded at any N·K (the full matrix would be 1 GiB at
#: N=10⁶, K=128); larger scans walk the rank axis in blocks.
CDS_DELTA_CHUNK_ELEMENTS = 1 << 22


def cds_delta_into(
    f, z, two_fz, origin_z, origin_f, dest_z, dest_f, out, tmp
):
    """Eq. (4) for every (destination, item) pair, destination-major.

    Writes ``out[q, r] = f[r]·(Z_o − Z_q) + z[r]·(F_o − F_q) −
    2f[r]z[r]`` where ``f``, ``z`` and ``two_fz`` run along the item
    axis, ``origin_z`` / ``origin_f`` are the aggregates ``Z_o`` /
    ``F_o`` of the one block the items lie in, and ``dest_z`` /
    ``dest_f`` are ``(destinations, 1)`` columns.  Each element sees
    exactly the ufunc sequence of the scalar ``move_delta``, so the
    floats are bitwise those of :mod:`repro.verify.reference`; ``tmp``
    is scratch of ``out``'s shape.
    """
    np.subtract(origin_z, dest_z, out=out)
    np.multiply(f, out, out=out)
    np.subtract(origin_f, dest_f, out=tmp)
    np.multiply(z, tmp, out=tmp)
    np.add(out, tmp, out=out)
    np.subtract(out, two_fz, out=out)
    return out


# ----------------------------------------------------------------------
# CDS — block-contiguous, scan-ordered item state
# ----------------------------------------------------------------------
class CDSBlockState:
    """The refine loop's item state, one column per item in scan order.

    Column ``r`` of :attr:`rows` is the item at scan rank ``r`` — the
    reference's origin-major, position-minor order — and channel ``c``
    owns ranks ``starts[c]:starts[c + 1]``.  The rows are the item's
    ``2fz`` (``(2·f)·z``, the reference's association), ``f``, ``z``,
    ``c = f·Z_o + z·F_o − 2fz`` (its channel's share of the full
    scan's product, so the negated approximate Δc to ``q`` is ``Z_q·f
    + F_q·z − c``) and its catalogue index.  The item's own channel
    aggregates ``Z_o`` and ``F_o`` are not rows: they are its block's
    column of :attr:`agg`, read through :meth:`origin_of`.
    :attr:`agg` stacks the per-channel ``Z`` and ``F`` aggregates
    between two constant ``−1`` rows: column ``o``'s first three
    entries weight ``c`` over the ``(2fz, f, z)`` rows, and the last
    three rows weight the scan's ``(f, z, c)`` rows.  ``agg_z`` /
    ``agg_f`` are views of its middle rows.

    :meth:`move` is the reference's pop-at-position / append-at-end as
    one slice shift of the columns between the item and the end of the
    destination block, so scan order — and with it the tie-break —
    matches the reference move for move.
    """

    TWO_FZ, F, Z, C, INDEX = range(5)

    def __init__(self, freq, size, groups, agg_f, agg_z) -> None:
        lengths = [len(group) for group in groups]
        order = np.concatenate(
            [np.asarray(group, dtype=np.intp) for group in groups]
        )
        self.num_channels = len(groups)
        self.starts = [0]
        for length in lengths:
            self.starts.append(self.starts[-1] + length)
        minus_one = [-1.0] * self.num_channels
        self.agg = np.array(
            [minus_one, agg_z, agg_f, minus_one], dtype=np.float64
        )
        self.agg_z, self.agg_f = self.agg[1:3]
        owner = np.repeat(np.arange(self.num_channels), lengths)
        rows = np.empty((5, len(order)), dtype=np.float64)
        rows[self.F] = freq[order]
        rows[self.Z] = size[order]
        rows[self.TWO_FZ] = 2.0 * rows[self.F] * rows[self.Z]
        rows[self.C] = (
            rows[self.F] * self.agg_z[owner]
            + rows[self.Z] * self.agg_f[owner]
            - rows[self.TWO_FZ]
        )
        rows[self.INDEX] = order
        self.rows = rows

    def __len__(self) -> int:
        return self.rows.shape[1]

    def origin_of(self, rank: int) -> int:
        """The channel whose block holds scan rank ``rank``."""
        return bisect_right(self.starts, rank) - 1

    def _refresh(self, channel: int) -> None:
        """Rewrite ``channel``'s ``c`` row from its aggregates (one
        matvec)."""
        start = self.starts[channel]
        stop = self.starts[channel + 1]
        rows = self.rows
        np.dot(
            self.agg[:3, channel],
            rows[self.TWO_FZ: self.Z + 1, start:stop],
            out=rows[self.C, start:stop],
        )

    def move(self, rank: int, destination: int) -> Tuple[int, int]:
        """Move the item at ``rank`` to the end of ``destination``'s block.

        Updates the aggregates in the reference's order and refreshes
        the ``c`` rows of both dirtied blocks.  Returns the item's
        ``(catalogue index, origin)``.
        """
        starts = self.starts
        rows = self.rows
        origin = self.origin_of(rank)
        item = rows[:, rank].tolist()
        end = starts[destination + 1]
        if origin < destination:
            rows[:, rank: end - 1] = rows[:, rank + 1: end]
            rows[:, end - 1] = item
            for channel in range(origin + 1, destination + 1):
                starts[channel] -= 1
        else:
            rows[:, end + 1: rank + 1] = rows[:, end:rank]
            rows[:, end] = item
            for channel in range(destination + 1, origin + 1):
                starts[channel] += 1
        frequency = item[self.F]
        size = item[self.Z]
        self.agg_f[origin] -= frequency
        self.agg_z[origin] -= size
        self.agg_f[destination] += frequency
        self.agg_z[destination] += size
        self._refresh(origin)
        self._refresh(destination)
        return int(item[self.INDEX]), origin

    def block_columns(self, start: int, stop: int):
        """The five :func:`cds_delta_into` operands of ranks
        ``start:stop``, which lie in one block: the ``f``, ``z`` and
        ``2fz`` rows and the block's ``Z_o`` and ``F_o`` as floats."""
        rows = self.rows
        origin = self.origin_of(start)
        return (
            rows[self.F, start:stop],
            rows[self.Z, start:stop],
            rows[self.TWO_FZ, start:stop],
            self.agg_z.item(origin),
            self.agg_f.item(origin),
        )

    def exact_delta(self, rank: int, destination: int) -> float:
        """Eq. (4) for one (rank, destination) cell in the scalar
        ``move_delta`` operation order — bitwise the reference's float."""
        two_fz, f, z = self.rows[: self.Z + 1, rank].tolist()
        origin = self.origin_of(rank)
        agg_z = self.agg_z
        agg_f = self.agg_f
        return (
            f * (agg_z.item(origin) - agg_z.item(destination))
            + z * (agg_f.item(origin) - agg_f.item(destination))
            - two_fz
        )

    def index_groups(self) -> List[np.ndarray]:
        """Per-channel catalogue-index arrays in position order."""
        index = self.rows[self.INDEX]
        starts = self.starts
        return [
            index[starts[c]: starts[c + 1]].astype(np.intp)
            for c in range(self.num_channels)
        ]


# ----------------------------------------------------------------------
# CDS — one-product full scan with exact re-scoring
# ----------------------------------------------------------------------
#: Width of :attr:`CDSFullScan.margin` in machine epsilons of the Δc
#: magnitude scale: 6.4× the worst-case rounding error of the product
#: and of Eq. (4) together (see docs/verification.md).
_SCAN_MARGIN_EPS = 32


class CDSFullScan:
    """Best single CDS move by a full scan over a :class:`CDSBlockState`.

    Each call forms the negated approximate Δc of every (destination,
    rank) cell as one BLAS product, ``[Z_q, F_q, −1] · [f; z; c]`` —
    a ``(K × 3)·(3 × ranks)`` matmul into a buffer allocated once at
    construction and never larger than ``chunk_elements`` entries; past
    that budget the rank axis is walked in blocks (one block is the
    one-shot matrix).  The own channel needs no mask: its exact Δc is
    ``−2fz ≤ 0`` and never beats ``epsilon``.

    The product re-associates Eq. (4), so its floats differ from the
    reference's by up to :attr:`margin`.  Selection therefore takes the
    per-destination argmin, and every cell whose approximate value lies
    within ``2·margin`` of the approximate optimum — in practice the
    optimum alone, confirmed by a second-minimum check on its row — is
    re-scored with :meth:`CDSBlockState.exact_delta`.  Any cell outside
    that band is exactly worse than the optimum cell, so the exact
    maximum and all its ties are among the re-scored cells; among them
    the minimum rank, then the minimum destination wins — the
    reference's first strict maximum in (origin, position, destination)
    order, since rank order is scan order.
    """

    def __init__(
        self,
        state: CDSBlockState,
        *,
        chunk_elements: int = CDS_DELTA_CHUNK_ELEMENTS,
    ) -> None:
        k = state.num_channels
        n = len(state)
        width = max(1, min(n, chunk_elements // max(1, k)))
        out = np.empty((k, width), dtype=np.float64)
        operands = state.rows[state.F: state.C + 1]
        self._blocks = [
            (start, operands[:, start: start + width],
             out[:, : min(width, n - start)])
            for start in range(0, n, width)
        ]
        self._state = state
        self._weights = state.agg[1:].T
        self._channels = np.arange(k)
        f_max = float(np.abs(state.rows[state.F]).max(initial=0.0))
        z_max = float(np.abs(state.rows[state.Z]).max(initial=0.0))
        scale = 2.0 * (
            f_max * float(np.abs(state.agg_z).sum())
            + z_max * float(np.abs(state.agg_f).sum())
            + f_max * z_max
        )
        eps = float(np.finfo(np.float64).eps)
        #: Bound on |approximate − exact| Δc for any cell.
        self.margin = _SCAN_MARGIN_EPS * eps * scale

    def best_move(self, epsilon: float) -> Optional[Tuple[float, int, int]]:
        """``(delta, rank, destination)`` of the best move, or ``None``
        when no move beats ``epsilon``."""
        band = 2.0 * self.margin
        low = math.inf
        candidates: List[Tuple[float, int, int]] = []
        for start, operands, out in self._blocks:
            np.matmul(self._weights, operands, out=out)
            pos = out.argmin(axis=1)
            values = out[self._channels, pos].tolist()
            low = min(low, min(values))
            bar = low + band
            for q, value in enumerate(values):
                if value > bar:
                    continue
                # Second-minimum check: only a near-tie on this row
                # needs the full candidate list.
                row = out[q]
                p = pos.item(q)
                candidates.append((value, start + p, q))
                row[p] = math.inf
                if row.item(row.argmin()) <= bar:
                    for i in np.flatnonzero(row <= bar).tolist():
                        candidates.append((row.item(i), start + i, q))
        if not self.margin - low > epsilon:
            return None
        exact_delta = self._state.exact_delta
        best = None
        for value, rank, q in candidates:
            if value <= bar:
                key = (-exact_delta(rank, q), rank, q)
                if best is None or key < best:
                    best = key
        delta = -best[0]
        if not delta > epsilon:
            return None
        return delta, best[1], best[2]


# ----------------------------------------------------------------------
# CDS — dirty-pair incremental best-move index
# ----------------------------------------------------------------------
def _rank_chunks(start: int, stop: int, rows: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` rank slices of at most ``rows`` items."""
    return [(lo, min(stop, lo + rows)) for lo in range(start, stop, rows)]


class CDSPairIndex:
    """K×K best-move index over ordered channel pairs, dirty-pair updated.

    Cell ``(p, q)`` caches the best Eq. (4) delta among items of channel
    ``p`` moving to channel ``q``, together with the winning item's
    *position* in ``p``'s block (the tie-break coordinate of the scalar
    scan).  A move ``o → d`` only changes the ``(F, Z)`` aggregates of
    ``o`` and ``d``, so exactly the cells with origin or destination in
    ``{o, d}`` go stale: :meth:`apply_move` recomputes rows ``o`` and
    ``d`` (one ``K×|block|`` pass each) and columns ``o`` and ``d`` of
    every other block (one ``2×|block|`` pass), leaving the remaining
    ``(K−2)²`` cells untouched — their cached deltas are the floats a
    fresh full scan would recompute, because every input to the
    elementwise Δc expression (item features and both aggregates) is
    unchanged.  Per-move work drops from ``O(N·K)`` pair evaluations to
    ``O(N + K²)``.

    The index shares — does not copy — the refine loop's
    :class:`CDSBlockState`: execute a move with ``state.move``, then
    call :meth:`apply_move`.

    Tie-break contract: :meth:`best_move` returns the same winner as
    the full scan's first strict maximum in (origin, position,
    destination) scan order.  Per cell, ``argmax`` over the block's
    position-ordered deltas keeps the lowest position; across cells
    the selection minimises ``(origin, position, destination)``
    lexicographically among delta ties.

    The cold scan (:meth:`rebuild`) is chunked over item ranges — the
    same ``chunk_elements`` budget as the full scan — and optionally
    fans the read-only chunk evaluations out over a thread pool; chunks
    merge left to right under strict ``>``, so the leftmost tie
    survives no matter the thread schedule.
    """

    def __init__(
        self,
        state: CDSBlockState,
        *,
        workers: Optional[int] = None,
        chunk_elements: int = CDS_DELTA_CHUNK_ELEMENTS,
    ) -> None:
        self.state = state
        self.num_channels = state.num_channels
        self.chunk_elements = int(chunk_elements)
        if workers is None:
            workers = min(os.cpu_count() or 1, CDS_SCAN_MAX_WORKERS)
        self.workers = max(1, int(workers))
        k = self.num_channels
        self.best_delta = np.full((k, k), -np.inf, dtype=np.float64)
        self.best_pos = np.full((k, k), -1, dtype=np.intp)
        self._channels = np.arange(k)
        #: Measured Δc pair evaluations (the masked own-channel cells
        #: are never counted, matching the scalar reference's loop).
        self.evaluations = 0
        self.rebuild()

    # -- cell evaluation -------------------------------------------------
    def _scan_chunk(self, origin: int, start: int, stop: int):
        """Per-destination best ``(Δc, rank − start)`` over ranks
        ``start:stop`` of ``origin``'s block."""
        state = self.state
        k = self.num_channels
        out = np.empty((k, stop - start), dtype=np.float64)
        cds_delta_into(
            *state.block_columns(start, stop),
            state.agg_z[:, None],
            state.agg_f[:, None],
            out,
            np.empty_like(out),
        )
        # A move to the item's own channel is not a move; mask it out.
        out[origin] = -np.inf
        pos = out.argmax(axis=1)
        return out[self._channels, pos], pos

    def _row_chunks(self, origin: int):
        """Rank slices of one block under the element budget."""
        starts = self.state.starts
        rows = max(1, self.chunk_elements // max(1, self.num_channels))
        return _rank_chunks(starts[origin], starts[origin + 1], rows)

    def _merge_row(self, origin: int, chunks, outcomes) -> None:
        """Fold chunk bests into row ``origin``, leftmost tie winning.

        ``chunks`` are in ascending rank order and the fold keeps the
        incumbent on exact ties (strict ``>``), so the merged winner
        per cell is the lowest-position maximum — deterministic for any
        chunking and any thread completion order.
        """
        k = self.num_channels
        first = self.state.starts[origin]
        row_vals = np.full(k, -np.inf, dtype=np.float64)
        row_pos = np.full(k, -1, dtype=np.intp)
        for (start, stop), (vals, pos) in zip(chunks, outcomes):
            better = vals > row_vals
            row_vals[better] = vals[better]
            row_pos[better] = start - first + pos[better]
            self.evaluations += (stop - start) * (k - 1)
        self.best_delta[origin] = row_vals
        self.best_pos[origin] = row_pos

    # -- maintenance -----------------------------------------------------
    def rebuild(self) -> None:
        """Cold scan: recompute every cell from the current state."""
        tasks = [
            (origin, chunk)
            for origin in range(self.num_channels)
            for chunk in self._row_chunks(origin)
        ]
        if self.workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                outcomes = list(
                    pool.map(
                        lambda task: self._scan_chunk(task[0], *task[1]),
                        tasks,
                    )
                )
        else:
            outcomes = [
                self._scan_chunk(origin, *chunk) for origin, chunk in tasks
            ]
        by_origin: List[List] = [[] for _ in range(self.num_channels)]
        results: List[List] = [[] for _ in range(self.num_channels)]
        for (origin, chunk), outcome in zip(tasks, outcomes):
            by_origin[origin].append(chunk)
            results[origin].append(outcome)
        for origin in range(self.num_channels):
            self._merge_row(origin, by_origin[origin], results[origin])

    def _refresh_row(self, origin: int) -> None:
        chunks = self._row_chunks(origin)
        outcomes = [self._scan_chunk(origin, *chunk) for chunk in chunks]
        self._merge_row(origin, chunks, outcomes)

    def apply_move(self, origin: int, destination: int) -> None:
        """Recompute every cell a move ``origin → destination`` dirtied.

        Rows ``origin`` and ``destination`` (their block and aggregates
        changed) and columns ``origin`` and ``destination`` of every
        other block (their destination aggregates changed).  The column
        pass evaluates both destinations over each other block in
        budget-sized chunks and keeps the block's leftmost argmax.  All
        other cells keep bitwise-valid cached deltas.
        """
        dests = [origin, destination]
        self.best_delta[:, dests] = -np.inf
        self._refresh_row(origin)
        self._refresh_row(destination)
        state = self.state
        starts = state.starts
        dest_z = state.agg_z[dests][:, None]
        dest_f = state.agg_f[dests][:, None]
        rows = max(1, self.chunk_elements // 2)
        for channel in range(self.num_channels):
            if channel in dests:
                continue
            first = starts[channel]
            for start, stop in _rank_chunks(first, starts[channel + 1], rows):
                out = np.empty((2, stop - start), dtype=np.float64)
                cds_delta_into(
                    *state.block_columns(start, stop),
                    dest_z,
                    dest_f,
                    out,
                    np.empty_like(out),
                )
                self.evaluations += 2 * (stop - start)
                # Chunks ascend and ties keep the incumbent, so the
                # leftmost maximum wins.
                pos = out.argmax(axis=1)
                vals = out[(0, 1), pos]
                for j, dest in enumerate(dests):
                    if vals[j] > self.best_delta[channel, dest]:
                        self.best_delta[channel, dest] = vals[j]
                        self.best_pos[channel, dest] = start - first + pos[j]

    # -- selection -------------------------------------------------------
    def best_move(
        self, epsilon: float
    ) -> Optional[Tuple[float, int, int, int]]:
        """Global argmax over the index, full-scan tie-break preserved.

        Returns ``(delta, origin, position_in_origin, destination)`` —
        the same tuple shape as the scalar reference scan — or ``None``
        when no cell beats ``epsilon``.  The first row achieving the
        maximum wins (lowest origin); within it the cell with the
        lowest cached position wins, and among equal positions (the
        same item) the lowest destination — ``(origin, position,
        destination)`` lexicographic, exactly the full scan's order.
        """
        row_best = self.best_delta.max(axis=1)
        origin = int(np.argmax(row_best))
        best = float(row_best[origin])
        if not best > epsilon:
            return None
        row = self.best_delta[origin]
        ties = np.flatnonzero(row == best)
        destination = int(ties[np.argmin(self.best_pos[origin, ties])])
        position = int(self.best_pos[origin, destination])
        return best, origin, position, destination


# ----------------------------------------------------------------------
# Partition — range-based split scan over shared prefix sums
# ----------------------------------------------------------------------
def best_split_range_numpy(pf, pz, start: int, stop: int) -> Tuple[int, float]:
    """Vectorized split scan over the half-open range ``[start, stop)``.

    ``pf`` / ``pz`` are the shared prefix-sum arrays (length N+1).
    Returns ``(offset, cost)`` with ``1 <= offset < stop - start``; the
    first minimum wins, matching the scalar strict-``<`` scan.
    """
    cut = np.arange(start + 1, stop)
    left = (pf[cut] - pf[start]) * (pz[cut] - pz[start])
    right = (pf[stop] - pf[cut]) * (pz[stop] - pz[cut])
    total = left + right
    index = int(np.argmin(total))
    return index + 1, float(total[index])


# ----------------------------------------------------------------------
# Exact summation — math.fsum over numpy batches
# ----------------------------------------------------------------------
#: A batch shorter than this goes to :func:`exact_sum`'s final
#: ``math.fsum`` as raw values: below it the extraction's fixed numpy
#: call cost outweighs the per-value cost of ``fsum``.  Measured as µs
#: per sum of uniform waits, ``fsum`` vs extraction (2-core Xeon,
#: CPython 3.11, numpy 2.4): n=512 15.9 vs 19.7; 640 20.3 vs 19.7;
#: 768 27.6 vs 22.5; 1024 33.6 vs 21.1; 4096 159 vs 52.
EXACT_SUM_MIN_BATCH = 1024

#: Largest total of the extraction units ``σ`` (a bound on every
#: partial sum) under which :func:`exact_sum` extracts.  It keeps each
#: partial sum far below the overflow threshold, so ``fsum``'s own
#: overflow check fires where it would on the raw values.
_EXACT_SUM_LIMIT_EXPONENT = 1000
_EXACT_SUM_LIMIT = 2.0 ** _EXACT_SUM_LIMIT_EXPONENT


def exact_sum(batches: Iterable[np.ndarray]) -> float:
    """``math.fsum`` of every value of ``batches``, bit for bit.

    Each batch ``x`` (a 1-D float64 array) of ``n`` values is split by
    error-free extraction (Rump, Ogita & Oishi, *Accurate
    floating-point summation, part I*, SIAM J. Sci. Comput. 31(1),
    2008): for a power of two ``σ ≥ 2^M · max|x|`` with ``2^M ≥ n +
    2``, ``q = (σ + x) − σ`` and ``x − q`` are exact, and so is numpy's
    ``q.sum()`` in any order.  The extraction repeats on ``x − q``
    until it is all zero, so the batch's exact sum is the sum of a few
    floats.  A final ``math.fsum`` rounds the exact partial sums once:
    a correctly rounded sum of the same real number, hence the float
    ``math.fsum`` returns on the raw values.

    Some values go to that final ``fsum`` raw, never as a rounded
    sub-sum: a batch of zeros, and every batch from the first one that
    is shorter than :data:`EXACT_SUM_MIN_BATCH` (its magnitude is never
    measured), holds a non-finite value or takes the running total of
    ``σ``s past ``2^1000``.  Every partial sum before that point stays
    far below overflow, so infinities, NaN and ``OverflowError`` come
    out of ``fsum`` exactly as they would from the raw values.
    """
    parts: List[float] = []
    # Bound on |Σ| over every prefix of the values so far; once past
    # 2^1000 (infinite after an unmeasured or non-finite batch) it
    # never comes back, and every later batch goes raw.
    spent = 0.0
    for x in batches:
        n = len(x)
        if n >= EXACT_SUM_MIN_BATCH:
            top = max(x.max(), -x.min())
            if 0.0 < top < math.inf:
                spread = (n + 1).bit_length()
                exponent = spread + math.frexp(top)[1]
                spent += math.ldexp(
                    1.0, min(exponent, _EXACT_SUM_LIMIT_EXPONENT + 1)
                )
                if spent <= _EXACT_SUM_LIMIT:
                    parts.extend(_extracted_sums(x, exponent, spread))
                    continue
            elif top != 0.0:
                spent = math.inf
        elif n:
            spent = math.inf
        parts.extend(x.tolist())
    return math.fsum(parts)


def _extracted_sums(x: np.ndarray, exponent: int, spread: int) -> List[float]:
    """Exact floats summing to ``x``'s exact sum, one per extraction.

    ``2^exponent`` is the first ``σ``; each later one is ``2^spread``
    times the residual's largest magnitude, rounded up to a power of
    two.
    """
    sums = []
    while True:
        sigma = math.ldexp(1.0, exponent)
        q = x + sigma
        q -= sigma
        sums.append(q.sum().item())
        x = x - q
        top = max(x.max(), -x.min())
        if top == 0.0:
            return sums
        exponent = spread + math.frexp(top)[1]
