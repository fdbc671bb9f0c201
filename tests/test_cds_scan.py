"""Tests for the CDS scan modes against the scalar reference.

The incremental scan (``scan="incremental"``) maintains a K×K best-move
candidate matrix and, after each executed move, recomputes only the
cells whose origin or destination aggregates changed.  The full scan
ranks every cell with one BLAS product and re-scores the near-optimal
ones exactly.  The contract of both is *bitwise* equality with the
scalar reference loop: the same move sequence, the same deltas, the
same final allocation — only the number of Δc evaluations differs.
Every test here is a facet of that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.allocation import ChannelAllocation
from repro.core.cds import _IMPROVEMENT_EPSILON, cds_refine
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.exceptions import ReproError
from repro.core.item import DataItem
from repro.core.kernels import (
    CDS_INCREMENTAL_SCAN_CROSSOVER,
    CDSBlockState,
    CDSFullScan,
    CDSPairIndex,
    resolve_scan,
)
from repro.verify.reference import cds_refine_reference
from repro.workloads.generator import WorkloadSpec, generate_database

from .test_cds import worst_case_seed


def move_tuples(result):
    """The full move trajectory as comparable tuples (bitwise floats)."""
    return [
        (m.item_id, m.origin, m.destination, m.delta, m.cost_after)
        for m in result.moves
    ]


def assert_identical_runs(full, incremental):
    """Bitwise move-sequence + allocation parity between two results."""
    assert move_tuples(incremental) == move_tuples(full)
    assert incremental.cost == full.cost  # bitwise, not approx
    assert (
        incremental.allocation.as_id_lists() == full.allocation.as_id_lists()
    )
    assert incremental.converged == full.converged


def block_state(alloc):
    stats = alloc.channel_stats
    return CDSBlockState(
        alloc.database.frequencies,
        alloc.database.sizes,
        alloc.channel_index_groups,
        [s.frequency for s in stats],
        [s.size for s in stats],
    )


def full_scan_moves(alloc, chunk, limit):
    """Drive :class:`CDSFullScan` at a ``chunk``-element block budget
    for at most ``limit`` moves; returns the ``(id, origin,
    destination, delta)`` moves and the final state."""
    state = block_state(alloc)
    scan = CDSFullScan(state, chunk_elements=chunk)
    moves = []
    while len(moves) < limit and (
        best := scan.best_move(_IMPROVEMENT_EPSILON)
    ) is not None:
        delta, rank, destination = best
        index, origin = state.move(rank, destination)
        moves.append(
            (alloc.database.item_id_at(index), origin, destination, delta)
        )
    return moves, state


def pair_index_moves(alloc, chunk, limit):
    """The same loop through :class:`CDSPairIndex`'s dirty-pair updates."""
    state = block_state(alloc)
    index = CDSPairIndex(state, workers=1, chunk_elements=chunk)
    moves = []
    while len(moves) < limit and (
        best := index.best_move(_IMPROVEMENT_EPSILON)
    ) is not None:
        delta, origin, position, destination = best
        item, _ = state.move(state.starts[origin] + position, destination)
        index.apply_move(origin, destination)
        moves.append(
            (alloc.database.item_id_at(item), origin, destination, delta)
        )
    return moves, state


def assert_reference_moves(alloc, run_kernel, chunk):
    """A kernel-driven move list and final state against the reference
    (capped one move past it, so a wrong pick cannot loop forever)."""
    reference = cds_refine_reference(alloc)
    moves, state = run_kernel(alloc, chunk, len(reference.moves) + 1)
    assert moves == [
        (m.item_id, m.origin, m.destination, m.delta) for m in reference.moves
    ]
    final = alloc.replace_index_groups(state.index_groups())
    assert final.as_id_lists() == reference.allocation.as_id_lists()


# ----------------------------------------------------------------------
# Move-sequence parity vs the full scan and the scalar reference
# ----------------------------------------------------------------------


class TestMoveSequenceParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_eight_seed_parity_vs_both_backends(self, seed):
        """8-seed sweep: scalar reference == full scan == incremental."""
        db = generate_database(
            WorkloadSpec(
                num_items=48,
                skewness=0.4 + 0.15 * seed,
                diversity=0.5 + 0.25 * seed,
                seed=9000 + seed,
            )
        )
        k = 3 + seed % 5
        alloc = worst_case_seed(db, k)
        python = cds_refine_reference(alloc)
        vector = cds_refine(alloc, scan="full")
        incr = cds_refine(alloc, scan="incremental")
        assert_identical_runs(python, vector)
        assert_identical_runs(python, incr)

    def test_tie_heavy_uniform_database(self):
        """Equal f·z everywhere makes every candidate tie; the index
        must still pick the same (origin, position, destination) as the
        full scan."""
        n = 24
        db = BroadcastDatabase(
            [DataItem(f"u{i}", 1.0 / n, 3.0) for i in range(n)]
        )
        for k in (3, 4, 6):
            alloc = worst_case_seed(db, k)
            full = cds_refine(alloc, scan="full")
            incr = cds_refine(alloc, scan="incremental")
            assert_identical_runs(full, incr)

    def test_paper_golden_trajectory(self, paper_db, paper_goldens):
        """The Table-2 worked example (22.29 optimum) move for move."""
        rough = drp_allocate(
            paper_db,
            paper_goldens["num_channels"],
            split_policy="max-reduction",
        )
        full = cds_refine(rough.allocation, scan="full")
        incr = cds_refine(
            rough.allocation, scan="incremental"
        )
        assert_identical_runs(full, incr)
        assert incr.cost == pytest.approx(paper_goldens["cds_cost"], abs=0.01)
        got = [
            {"item": m.item_id, "delta": m.delta, "cost_after": m.cost_after}
            for m in incr.moves
        ]
        for want, move in zip(paper_goldens["cds_moves"], got):
            assert move["item"] == want["item"]
            assert move["delta"] == pytest.approx(want["delta"], abs=0.01)
            assert move["cost_after"] == pytest.approx(
                want["cost_after"], abs=0.01
            )

    def test_long_move_chain_staleness(self):
        """Hundreds of moves from a pathological seed: every cached cell
        the index *didn't* refresh must still be exact, or the sequences
        diverge somewhere down the chain."""
        db = generate_database(
            WorkloadSpec(
                num_items=400, skewness=1.2, diversity=2.5, seed=77
            )
        )
        alloc = worst_case_seed(db, 12)
        full = cds_refine(alloc, scan="full")
        incr = cds_refine(alloc, scan="incremental")
        assert len(full.moves) > 100  # genuinely long chain
        assert_identical_runs(full, incr)

    def test_capped_runs_agree(self, medium_db):
        seed = worst_case_seed(medium_db, 5)
        for budget in (1, 2, 3):
            full = cds_refine(
                seed, scan="full", max_iterations=budget
            )
            incr = cds_refine(
                seed,
                scan="incremental",
                max_iterations=budget,
            )
            assert_identical_runs(full, incr)


class TestTieLattice:
    """Integer features from a 3×3 lattice make Eq. (4) exact and tie
    everywhere — across ranks, across destinations, and between the
    two at once — so every selection stage and every block merge is
    exercised against the reference move by move."""

    @staticmethod
    def allocation(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        k = int(rng.integers(2, 7))
        db = BroadcastDatabase.from_soa(
            rng.integers(1, 4, n).astype(float),
            rng.integers(1, 4, n).astype(float),
            require_normalized=False,
        )
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        groups = [np.flatnonzero(labels == c) for c in range(k)]
        return ChannelAllocation(db, [[db.items[i] for i in g] for g in groups])

    @pytest.mark.parametrize("seed", range(24))
    def test_all_modes_match_reference(self, seed):
        alloc = self.allocation(seed)
        reference = cds_refine_reference(alloc)
        assert_identical_runs(reference, cds_refine(alloc, scan="full"))
        assert_identical_runs(reference, cds_refine(alloc, scan="incremental"))

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("chunk", (1, 7))
    def test_small_block_budgets_match_reference(self, seed, chunk):
        alloc = self.allocation(seed)
        assert_reference_moves(alloc, full_scan_moves, chunk)
        assert_reference_moves(alloc, pair_index_moves, chunk)


# ----------------------------------------------------------------------
# Exact re-scoring of the full scan's near-optimal cells
# ----------------------------------------------------------------------


@pytest.fixture
def rescored(monkeypatch):
    """Per-scan counts of the cells :class:`CDSFullScan` re-scored with
    the exact Eq. (4) order (one entry per ``best_move`` call)."""
    counts = []
    exact_delta = CDSBlockState.exact_delta
    best_move = CDSFullScan.best_move

    def counting_exact(self, rank, destination):
        counts[-1] += 1
        return exact_delta(self, rank, destination)

    def counting_best_move(self, epsilon):
        counts.append(0)
        return best_move(self, epsilon)

    monkeypatch.setattr(CDSBlockState, "exact_delta", counting_exact)
    monkeypatch.setattr(CDSFullScan, "best_move", counting_best_move)
    return counts


def soa_allocation(freq, size, groups):
    """An allocation over an unnormalised catalogue, grouped by index."""
    db = BroadcastDatabase.from_soa(freq, size, require_normalized=False)
    return ChannelAllocation(db, [[db.items[i] for i in g] for g in groups])


def exact_deltas(state):
    """Every (destination, rank) cell through :func:`cds_delta_into` —
    bitwise the scalar reference's floats."""
    out = np.empty((state.num_channels, len(state)))
    for start, stop in zip(state.starts, state.starts[1:]):
        block = out[:, start:stop]
        kernels.cds_delta_into(
            *state.block_columns(start, stop),
            state.agg_z[:, None],
            state.agg_f[:, None],
            block,
            np.empty_like(block),
        )
    return out


class TestExactRescore:
    """The full scan ranks cells by a re-associated BLAS product and
    re-scores the near-optimal ones exactly.  Natural catalogues almost
    never put two cells inside the margin, so these build the cases
    that do: exact Δc ties from duplicated items and cells 1 ulp
    apart, against the scalar reference move by move."""

    #: Non-dyadic feature values, so the product and Eq. (4) round
    #: differently.
    HEAVY = (0.2, 3.1)
    LIGHT = (0.013, 0.7)
    FILLER = ((0.07, 1.3), (0.029, 2.9))

    @classmethod
    def duplicated(cls, copies_per_block, heavy_blocks, light_blocks):
        """``heavy_blocks`` identical channels, each holding
        ``copies_per_block`` copies of one heavy item between fillers,
        then ``light_blocks`` identical one-item channels: the best
        move ties across ranks of one block, across origins and across
        destinations at once."""
        block = [cls.FILLER[0]] + [cls.HEAVY] * copies_per_block + [
            cls.FILLER[1]
        ]
        features = block * heavy_blocks + [cls.LIGHT] * light_blocks
        groups, start = [], 0
        for length in [len(block)] * heavy_blocks + [1] * light_blocks:
            groups.append(list(range(start, start + length)))
            start += length
        freq, size = zip(*features)
        return soa_allocation(freq, size, groups)

    @pytest.mark.parametrize(
        "shape",
        [(3, 1, 2), (1, 2, 2), (2, 3, 3), (4, 2, 1)],
        ids=["one-block", "across-blocks", "both", "one-destination"],
    )
    def test_duplicated_items_match_reference(self, shape, rescored):
        alloc = self.duplicated(*shape)
        reference = cds_refine_reference(alloc)
        rescored.clear()
        assert_identical_runs(reference, cds_refine(alloc, scan="full"))
        assert max(rescored) >= 2  # the tie went through the re-score
        for chunk in (1, 3, 7):
            assert_reference_moves(alloc, full_scan_moves, chunk)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("chunk", (None, 5))
    def test_quantized_catalogues_match_reference(self, seed, chunk):
        """Features from three values each: duplicated (f, z) items in
        random groupings, inside and across channel blocks."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 48))
        k = int(rng.integers(2, 7))
        freq = rng.choice([0.013, 0.029, 0.071], n)
        size = rng.choice([1.3, 2.9, 7.1], n)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        alloc = soa_allocation(
            freq, size, [np.flatnonzero(labels == c) for c in range(k)]
        )
        if chunk is None:
            assert_identical_runs(
                cds_refine_reference(alloc), cds_refine(alloc, scan="full")
            )
        else:
            assert_reference_moves(alloc, full_scan_moves, chunk)

    @staticmethod
    def ulp_pairs():
        """Catalogues whose two best cells — items A and B, both to
        channel 1 — are exactly 1 ulp apart, in either order.  B is A
        with its frequency nudged by ``j`` ulps."""
        found = []
        for j in range(-60, 61):
            alloc = soa_allocation(
                [0.2, 0.2 + j * np.spacing(0.2), 0.1, 0.01, 0.02],
                [3.0, 3.0, 0.5, 0.1, 0.2],
                [[0, 1, 2], [3], [4]],
            )
            deltas = exact_deltas(block_state(alloc))
            a, b = deltas[1, 0], deltas[1, 1]
            rest = np.delete(deltas.ravel(), [5, 6])
            if abs(a - b) == np.spacing(min(a, b)) and rest.max() < min(a, b):
                found.append((alloc, a > b))
        return found

    def test_one_ulp_pairs_match_reference(self):
        pairs = self.ulp_pairs()
        # Both orders occur, so a scan that trusted the product's
        # ranking would be wrong on one side or the other.
        assert sum(a_wins for _, a_wins in pairs) >= 5
        assert sum(not a_wins for _, a_wins in pairs) >= 5
        for alloc, _ in pairs:
            reference = cds_refine_reference(alloc)
            assert_identical_runs(reference, cds_refine(alloc, scan="full"))
            assert_reference_moves(alloc, full_scan_moves, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_margin_bounds_every_cell(self, seed):
        """|approximate − exact| ≤ margin on every cell, own-channel
        cells included, across feature scales and after moves."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        k = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-4, 4)
        freq = rng.pareto(1.0, n) + 1e-3
        size = scale * 10.0 ** rng.uniform(0, 3, n)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        alloc = soa_allocation(
            freq, size, [np.flatnonzero(labels == c) for c in range(k)]
        )
        state = block_state(alloc)
        scan = CDSFullScan(state)
        for _ in range(5):
            approx = -np.matmul(
                state.agg[1:].T, state.rows[state.F: state.C + 1]
            )
            error = np.abs(approx - exact_deltas(state))
            assert error.max() <= scan.margin
            rank = int(rng.integers(0, n))
            destination = int(rng.integers(0, k))
            if destination != state.origin_of(rank):
                state.move(rank, destination)


# ----------------------------------------------------------------------
# Warm-start composition
# ----------------------------------------------------------------------


class TestWarmStartComposition:
    def test_initial_plus_incremental_scan(self, medium_db):
        """``initial=`` warm starts compose with ``scan="incremental"``:
        both scans resume from the same seeded allocation and agree."""
        rough = drp_allocate(medium_db, 5)
        seeded = cds_refine(rough.allocation, max_iterations=1)
        full = cds_refine(
            rough.allocation,
            initial=seeded.allocation,
            scan="full",
        )
        incr = cds_refine(
            rough.allocation,
            initial=seeded.allocation,
            scan="incremental",
        )
        assert_identical_runs(full, incr)
        assert incr.initial_cost == full.initial_cost

    @pytest.mark.parametrize("k", (2, 4, 7))
    def test_warm_start_matches_reference(self, k):
        """A drifted-profile warm start, move by move against the
        reference loop on the rebased seed."""
        before, after = (
            generate_database(
                WorkloadSpec(num_items=160, skewness=1.1, diversity=2.0, seed=s)
            )
            for s in (31, 32)
        )
        seeded = cds_refine(drp_allocate(before, k).allocation).allocation
        rough = drp_allocate(after, k).allocation
        reference = cds_refine_reference(ChannelAllocation.rebase(after, seeded))
        for scan in ("full", "incremental"):
            warm = cds_refine(rough, initial=seeded, scan=scan)
            assert_identical_runs(reference, warm)


# ----------------------------------------------------------------------
# Evaluation accounting
# ----------------------------------------------------------------------


class TestEvaluationAccounting:
    def test_full_scan_measures_equal_derived(self, medium_db):
        """On the full scan, measured == the old derived count."""
        result = cds_refine(
            worst_case_seed(medium_db, 5), scan="full"
        )
        assert result.delta_evaluations == result.full_scan_equivalent

    def test_python_backend_measures_equal_derived(self, medium_db):
        """The scalar reference loop counts the same way."""
        result = cds_refine_reference(worst_case_seed(medium_db, 5))
        assert result.delta_evaluations == result.full_scan_equivalent

    def test_incremental_evaluates_fewer(self, medium_db):
        """Past the cold build, dirty-pair work undercuts full rescans."""
        seed = worst_case_seed(medium_db, 5)
        full = cds_refine(seed, scan="full")
        incr = cds_refine(seed, scan="incremental")
        assert len(incr.moves) > 2  # enough moves to amortise the build
        assert incr.delta_evaluations < full.delta_evaluations
        assert incr.delta_evaluations < incr.full_scan_equivalent

    def test_scan_mode_recorded_on_result(self, medium_db):
        seed = worst_case_seed(medium_db, 5)
        assert cds_refine(seed, scan="full").scan_mode == (
            "full"
        )
        assert cds_refine(
            seed, scan="incremental"
        ).scan_mode == "incremental"
        assert cds_refine_reference(seed).scan_mode == "full"


# ----------------------------------------------------------------------
# Chunked / threaded cold scan determinism
# ----------------------------------------------------------------------


class TestChunkedScanDeterminism:
    def make_index(self, db, k, **kwargs):
        return CDSPairIndex(block_state(worst_case_seed(db, k)), **kwargs)

    def test_worker_count_invariance(self):
        db = generate_database(
            WorkloadSpec(num_items=200, skewness=1.0, diversity=2.0, seed=5)
        )
        base = self.make_index(db, 8, workers=1)
        for workers in (2, 3, 8):
            other = self.make_index(db, 8, workers=workers)
            assert np.array_equal(other.best_delta, base.best_delta)
            assert np.array_equal(other.best_pos, base.best_pos)

    def test_chunk_size_invariance(self):
        """Tiny chunk budgets force many partial merges; the leftmost-tie
        fold must land on the same candidates as one monolithic scan."""
        db = generate_database(
            WorkloadSpec(num_items=150, skewness=0.7, diversity=1.0, seed=6)
        )
        base = self.make_index(db, 6)
        for chunk in (64, 257, 1024):
            other = self.make_index(db, 6, chunk_elements=chunk)
            assert np.array_equal(other.best_delta, base.best_delta)
            assert np.array_equal(other.best_pos, base.best_pos)

    @pytest.mark.parametrize("chunk", (1, 5, 64, 257))
    def test_block_budget_matches_reference(self, chunk):
        """Budgets far below N·K split the rank axis into many blocks
        (one rank per block at the smallest); the cross-block strict-``>``
        merges of the full scan and of the index must keep the
        reference's winner move by move."""
        db = generate_database(
            WorkloadSpec(num_items=150, skewness=0.7, diversity=1.0, seed=6)
        )
        alloc = worst_case_seed(db, 6)
        assert_reference_moves(alloc, full_scan_moves, chunk)
        assert_reference_moves(alloc, pair_index_moves, chunk)

    def test_refine_with_workers_matches_serial(self, medium_db):
        seed = worst_case_seed(medium_db, 5)
        serial = cds_refine(seed, scan="incremental")
        threaded = cds_refine(
            seed, scan="incremental", scan_workers=4
        )
        assert_identical_runs(serial, threaded)


# ----------------------------------------------------------------------
# Scan-mode resolution
# ----------------------------------------------------------------------


class TestResolveScan:
    def test_auto_small_stays_full(self):
        assert resolve_scan("auto", 1000, 8) == "full"

    def test_auto_large_goes_incremental(self):
        n = CDS_INCREMENTAL_SCAN_CROSSOVER  # N·(K−1) ≥ crossover
        assert resolve_scan("auto", n, 8) == "incremental"

    def test_auto_two_channels_stays_full(self):
        """K=2 dirties every cell on each move — nothing to cache."""
        assert resolve_scan("auto", 10**7, 2) == "full"

    def test_explicit_modes_pass_through(self):
        assert resolve_scan("full", 10**7, 128) == "full"
        assert resolve_scan("incremental", 10, 2) == "incremental"

    def test_unknown_scan_rejected(self):
        with pytest.raises(ReproError, match="unknown scan"):
            resolve_scan("sideways", 10, 4)

    def test_cds_refine_rejects_bad_combo(self, medium_db):
        with pytest.raises(ReproError, match="unknown scan"):
            cds_refine(worst_case_seed(medium_db, 4), scan="sideways")

    def test_kernels_export_scan_constants(self):
        assert "incremental" in kernels.SCAN_MODES
        assert kernels.CDS_SCAN_MAX_WORKERS >= 1


# ----------------------------------------------------------------------
# Zero-budget fast path
# ----------------------------------------------------------------------


class TestZeroBudget:
    def test_zero_budget_is_constant_work(self, medium_db):
        from repro.core.item import items_created

        seed = worst_case_seed(medium_db, 5)
        before = items_created()
        result = cds_refine(seed, max_iterations=0)
        assert items_created() == before  # no DataItem churn at all
        assert result.iterations == 0
        assert result.delta_evaluations == 0
        assert not result.converged
        assert result.allocation is seed
        assert result.cost == pytest.approx(allocation_cost(seed))

    def test_zero_budget_all_scan_modes(self, medium_db):
        seed = worst_case_seed(medium_db, 5)
        for scan in ("full", "incremental"):
            result = cds_refine(seed, max_iterations=0, scan=scan)
            assert result.iterations == 0
            assert result.delta_evaluations == 0
