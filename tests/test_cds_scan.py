"""Tests for the dirty-pair incremental CDS scan (``scan="incremental"``).

The incremental scan maintains a K×K best-move candidate matrix and,
after each executed move, recomputes only the cells whose origin or
destination aggregates changed.  Its contract is *bitwise* equality
with the full scan and the scalar reference loop: the same move
sequence, the same deltas,
the same final allocation — only the number of Δc evaluations differs.
Every test here is a facet of that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.exceptions import ReproError
from repro.core.item import DataItem
from repro.core.kernels import (
    CDS_INCREMENTAL_SCAN_CROSSOVER,
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

    def test_warm_start_refine_forwards_scan(self, medium_db):
        from repro.core.incremental import warm_start_refine

        rough = drp_allocate(medium_db, 5)
        base = cds_refine(rough.allocation)
        shifted = generate_database(
            WorkloadSpec(num_items=30, skewness=0.9, diversity=1.5, seed=1234)
        )
        full = warm_start_refine(
            shifted, 5, base.allocation, scan="full"
        )
        incr = warm_start_refine(
            shifted, 5, base.allocation, scan="incremental"
        )
        assert incr.mode == full.mode
        assert incr.cost == full.cost  # bitwise
        assert incr.allocation.as_id_lists() == full.allocation.as_id_lists()


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
        alloc = worst_case_seed(db, k)
        groups = [
            [int(i) for i in group] for group in alloc.channel_index_groups
        ]
        stats = alloc.channel_stats
        agg_f = np.array([s.frequency for s in stats], dtype=np.float64)
        agg_z = np.array([s.size for s in stats], dtype=np.float64)
        return CDSPairIndex(
            db.frequencies, db.sizes, groups, agg_f, agg_z, **kwargs
        )

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
