"""Reference-parity and kernel tests (repro.core.kernels).

The production numpy kernels must be *indistinguishable* from the
scalar reference implementations in :mod:`repro.verify.reference`:
same split indices, same move sequences, same tie-breaks, same costs.
These tests pin that contract over seeded-random workloads, adversarial
tie-heavy inputs and the paper's worked example, and check the SMAWK DP
against the quadratic reference DP exactly.
"""

from __future__ import annotations

import pytest

import repro.core.drp as drp_module
from repro.core.cds import cds_refine
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.incremental import IncrementalAllocator, warm_start_refine
from repro.core.item import DataItem
from repro.core.partition import (
    PrefixSums,
    best_split,
    best_split_in,
    contiguous_optimal,
)
from repro.verify.oracles import oracle_drp_backends
from repro.verify.reference import (
    best_split_reference,
    cds_refine_reference,
    contiguous_quadratic,
)
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.paper_profile import (
    PAPER_CDS_COST,
    PAPER_DRP_COST,
    PAPER_INITIAL_COST,
    PAPER_NUM_CHANNELS,
    paper_database,
)

#: The seeded grid the parity tests sweep (K is clamped to N).
PARITY_SIZES = (2, 3, 17, 257)
PARITY_CHANNELS = tuple(range(1, 9))

#: DRP-only sizes around 512 items, inside the fuzzer's N = 506–518 band.
DRP_EXTRA_SIZES = (511, 512, 513)


def _database(n: int, seed: int) -> BroadcastDatabase:
    return generate_database(
        WorkloadSpec(num_items=n, skewness=0.8, diversity=1.5, seed=seed)
    )


def _bad_seed_allocation(database: BroadcastDatabase, k: int):
    """Catalogue-order chunking: far from optimal, many CDS moves."""
    from repro.core.allocation import ChannelAllocation

    items = database.items
    size = max(1, len(items) // k)
    groups = [list(items[i * size: (i + 1) * size]) for i in range(k - 1)]
    groups.append(list(items[(k - 1) * size:]))
    return ChannelAllocation(database, groups)


def _tie_database(features) -> BroadcastDatabase:
    """Items ``t0..`` with the given dyadic ``(frequency, size)`` pairs."""
    return BroadcastDatabase(
        [DataItem(f"t{i}", f, z) for i, (f, z) in enumerate(features)]
    )


def _index_allocation(database: BroadcastDatabase, groups):
    from repro.core.allocation import ChannelAllocation

    return ChannelAllocation(
        database, [[database.items[i] for i in group] for group in groups]
    )


def _tied_maxima(allocation):
    """Every ``(origin, position, destination)`` at the maximum Eq. (4)
    delta of the first scan — the candidates a tie-break must order."""
    from repro.core.cost import move_delta

    stats = allocation.channel_stats
    deltas = {}
    for origin, group in enumerate(allocation.channels):
        for position, item in enumerate(group):
            for destination, dest in enumerate(stats):
                if destination != origin:
                    deltas[origin, position, destination] = move_delta(
                        item,
                        origin_frequency=stats[origin].frequency,
                        origin_size=stats[origin].size,
                        dest_frequency=dest.frequency,
                        dest_size=dest.size,
                    )
    top = max(deltas.values())
    assert top > 0.0
    return [cell for cell, delta in deltas.items() if delta == top]


class TestNoImplementationSelector:
    """The core entry points run one implementation and take no
    ``backend=`` / ``method=`` keyword."""

    def test_backend_keyword_rejected(self, tiny_db):
        with pytest.raises(TypeError):
            drp_allocate(tiny_db, 2, backend="python")
        with pytest.raises(TypeError):
            cds_refine(drp_allocate(tiny_db, 2).allocation, backend="numpy")
        with pytest.raises(TypeError):
            best_split(tiny_db.items, backend="python")
        with pytest.raises(TypeError):
            warm_start_refine(tiny_db, 2, None, backend="python")
        with pytest.raises(TypeError):
            IncrementalAllocator(2, backend="python")


class TestSplitParity:
    @pytest.mark.parametrize("n", PARITY_SIZES)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_best_split_same_index_and_cost(self, n, seed):
        if n < 2:
            pytest.skip("nothing to split")
        items = _database(n, seed).sorted_by_benefit_ratio()
        scalar = best_split_reference(PrefixSums(items), 0, n)
        vector = best_split(items)
        assert scalar[0] == vector[0]
        assert scalar[1] == vector[1]  # bitwise-identical floats

    @pytest.mark.parametrize("seed", range(5))
    def test_range_scan_same_on_subranges(self, seed):
        items = _database(57, seed).sorted_by_benefit_ratio()
        sums = PrefixSums(items)
        for start, stop in [(0, 57), (3, 41), (10, 12), (30, 57)]:
            scalar = best_split_reference(sums, start, stop)
            vector = best_split_in(sums, start, stop)
            assert scalar == vector

    def test_tie_break_first_minimum_wins(self):
        # Three identical items with dyadic features: splits 1|2 and
        # 2|1 tie exactly in floating point; the kernel and the
        # reference must both return the smallest offset.
        items = [DataItem(f"t{i}", 0.25, 2.0) for i in range(3)]
        assert best_split_reference(PrefixSums(items), 0, 3)[0] == 1
        assert best_split(items)[0] == 1


class TestDRPParity:
    @pytest.mark.parametrize("n", PARITY_SIZES + DRP_EXTRA_SIZES)
    @pytest.mark.parametrize("k", PARITY_CHANNELS)
    @pytest.mark.parametrize("policy", ("max-cost", "max-reduction"))
    def test_same_allocation_and_cost(self, n, k, policy):
        """Every split DRP takes is the reference scan's split (offset
        and cost bitwise), and the final cost is the reference cost."""
        if k > n:
            pytest.skip("K exceeds N")
        database = _database(n, seed=11)
        assert oracle_drp_backends(database, k, split_policy=policy) == []

    def test_traces_identical(self):
        """The array-resident order and an explicit item order trace the
        identical run."""
        database = _database(40, seed=3)
        arrays = drp_allocate(
            database, 6, split_policy="max-reduction", trace=True
        )
        items = drp_allocate(
            database, 6, split_policy="max-reduction", trace=True,
            presorted_items=database.sorted_by_benefit_ratio(),
        )
        assert arrays.snapshots == items.snapshots


class TestCDSParity:
    @pytest.mark.parametrize("n", PARITY_SIZES)
    @pytest.mark.parametrize("k", PARITY_CHANNELS)
    def test_same_move_sequence_and_cost(self, n, k):
        if k > n:
            pytest.skip("K exceeds N")
        database = _database(n, seed=29)
        seed_allocation = _bad_seed_allocation(database, k)
        scalar = cds_refine_reference(seed_allocation)
        for scan in ("full", "incremental"):
            vector = cds_refine(seed_allocation, scan=scan)
            # CDSMove equality is exact float equality — production and
            # the reference must produce bitwise-identical deltas.
            assert scalar.moves == vector.moves
            assert scalar.cost == pytest.approx(vector.cost, abs=1e-9)
            assert (
                scalar.allocation.as_id_lists()
                == vector.allocation.as_id_lists()
            )

    def test_tie_break_first_maximum_wins(self):
        # Exact Eq. (4) ties — across ranks and across destinations —
        # must resolve to the reference's first maximum (origin, then
        # position, then destination) in both scan modes.
        items = [DataItem(f"t{i}", 1.0 / 9.0, 2.0) for i in range(9)]
        # Identical items: every improving move ties.
        lopsided = _index_allocation(
            BroadcastDatabase(items), [range(7), [7], [8]]
        )
        # Channels 1 and 2 hold different items with identical (F, Z),
        # so every move into either ties across destinations.
        destination_ties = _index_allocation(
            _tie_database(
                [(0.25, 3.0), (0.125, 5.0), (0.125, 1.0), (0.0625, 4.0),
                 (0.0625, 2.0), (0.125, 2.0), (0.125, 2.0), (0.125, 7.0)]
            ),
            [[0, 1, 2, 3, 4], [5], [6], [7]],
        )
        assert {d for _, _, d in _tied_maxima(destination_ties)} >= {1, 2}
        # Duplicate items at several positions, and in two origins, tie
        # across ranks.
        rank_ties = _index_allocation(
            _tie_database(
                [(0.125, 4.0), (0.0625, 1.0), (0.125, 4.0), (0.125, 4.0),
                 (0.125, 4.0), (0.125, 4.0), (0.25, 1.0), (0.0625, 1.0)]
            ),
            [[1, 0, 2, 3], [4, 5], [6, 7]],
        )
        assert len({(o, p) for o, p, _ in _tied_maxima(rank_ties)}) > 1
        for allocation in (lopsided, destination_ties, rank_ties):
            scalar = cds_refine_reference(allocation)
            for scan in ("full", "incremental"):
                vector = cds_refine(allocation, scan=scan)
                assert scalar.moves == vector.moves
                assert scalar.cost == pytest.approx(vector.cost, abs=1e-9)
                assert (
                    scalar.allocation.as_id_lists()
                    == vector.allocation.as_id_lists()
                )
        assert cds_refine_reference(destination_ties).moves[0].destination == 1

    def test_max_iterations_respected_on_numpy_backend(self, medium_db):
        seed_allocation = _bad_seed_allocation(medium_db, 5)
        capped = cds_refine(seed_allocation, max_iterations=2)
        assert capped.iterations == 2
        assert not capped.converged


class TestPaperGoldenOnBothBackends:
    """Tables 2–4 of the paper must hold with the production CDS
    (``numpy``) and with the scalar reference loop (``python``)."""

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_pipeline_golden_values(self, backend):
        database = paper_database()
        from repro.core.cost import group_cost

        assert group_cost(database.items) == pytest.approx(
            PAPER_INITIAL_COST, abs=0.01
        )
        rough = drp_allocate(
            database,
            PAPER_NUM_CHANNELS,
            split_policy="max-reduction",
        )
        assert rough.cost == pytest.approx(PAPER_DRP_COST, abs=0.02)
        refine = cds_refine_reference if backend == "python" else cds_refine
        refined = refine(rough.allocation)
        assert refined.cost == pytest.approx(PAPER_CDS_COST, abs=0.02)


class TestContiguousDPMethods:
    def test_oracle_match_on_twenty_seeded_instances(self):
        """The SMAWK DP must reproduce the quadratic reference's cost
        exactly."""
        checked = 0
        for seed in range(10):
            for n, k in ((23, 4), (60, 7)):
                items = _database(n, seed).sorted_by_benefit_ratio()
                _, quadratic = contiguous_quadratic(PrefixSums(items), k)
                boundaries, fast = contiguous_optimal(items, k)
                assert fast == quadratic, (seed, n, k)
                # The returned boundaries must themselves realise the cost.
                sums = PrefixSums(items)
                realised = sum(sums.cost(a, b) for a, b in boundaries)
                assert realised == pytest.approx(fast, rel=1e-9)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("method", ("smawk", "quadratic"))
    def test_degenerate_group_counts(self, method, tiny_db):
        sums = PrefixSums(tiny_db.items)
        if method == "quadratic":
            solve = contiguous_quadratic
        else:
            def solve(sums, k):
                return contiguous_optimal(None, k, sums=sums)
        boundaries, cost = solve(sums, 1)
        assert boundaries == [(0, 4)]
        boundaries, cost = solve(sums, 4)
        assert boundaries == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_unknown_method_rejected(self, tiny_db):
        # SMAWK is the only production DP: no method keyword exists.
        with pytest.raises(TypeError):
            contiguous_optimal(tiny_db.items, 2, method="quadratic")


class TestSplitEvaluationCount:
    @pytest.mark.parametrize("policy", ("max-cost", "max-reduction"))
    def test_one_best_split_evaluation_per_group(self, monkeypatch, policy):
        """Each group is split-evaluated exactly once in its lifetime."""
        calls = []
        real = drp_module.best_split_in

        def counting(sums, start, stop, **kwargs):
            calls.append((start, stop))
            return real(sums, start, stop, **kwargs)

        monkeypatch.setattr(drp_module, "best_split_in", counting)
        database = _database(64, seed=5)
        drp_allocate(database, 8, split_policy=policy)
        assert len(calls) == len(set(calls)), (
            f"groups evaluated more than once: "
            f"{sorted(c for c in calls if calls.count(c) > 1)}"
        )
