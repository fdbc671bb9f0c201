"""Warm-start correctness: incremental engine, sweep seeding, reuse.

The incremental allocation engine (PR: warm-start CDS + allocation
cache) promises two things this module pins down:

* **quality** — a guarded warm start is never worse than the documented
  regression guard, relative both to the cold DRP estimate (structural:
  holds for any input) and to the cold DRP+CDS pipeline on drifted Zipf
  profiles (derandomized hypothesis examples, so the assertion set is
  fixed);
* **determinism** — warm sweeps produce identical rows for any worker
  count, an unchanged profile reproduces the previous allocation
  exactly, and the zero-drift epoch boundary reuses the program
  verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.cost import allocation_cost
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.incremental import (
    DEFAULT_REGRESSION_GUARD,
    AllocationCache,
    CompactAllocation,
    IncrementalAllocator,
    database_fingerprint,
    warm_start_refine,
    workload_fingerprint,
)
from repro.core.item import DataItem
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import InvalidDatabaseError
from repro.simulation.adaptive import run_adaptive_simulation
from repro.verify.reference import cds_refine_reference
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.paper_profile import (
    PAPER_CDS_COST,
    PAPER_NUM_CHANNELS,
    paper_database,
)

warm_settings = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _drift(database: BroadcastDatabase, seed: int, magnitude: float):
    """Perturb every frequency by up to ±magnitude and renormalize."""
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.uniform(-magnitude, magnitude, size=len(database))
    raw = [
        item.frequency * factor
        for item, factor in zip(database.items, factors)
    ]
    total = sum(raw)
    return BroadcastDatabase(
        [
            DataItem(item.item_id, freq / total, item.size)
            for item, freq in zip(database.items, raw)
        ]
    )


def _cold_cost(database: BroadcastDatabase, num_channels: int) -> float:
    rough = drp_allocate(database, num_channels)
    return cds_refine(rough.allocation).cost


class TestWarmStartParity:
    """Satellite 3: warm-start quality and exactness guarantees."""

    @warm_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        skewness=st.floats(min_value=0.2, max_value=1.4),
        magnitude=st.floats(min_value=0.0, max_value=0.05),
    )
    def test_warm_matches_cold_on_drifted_zipf(
        self, seed, skewness, magnitude
    ):
        base = generate_database(
            WorkloadSpec(num_items=40, skewness=skewness, seed=seed)
        )
        previous = DRPCDSAllocator().allocate(base, 4).allocation
        drifted = _drift(base, seed + 1, magnitude)
        result = warm_start_refine(drifted, 4, previous)
        cold = _cold_cost(drifted, 4)
        # Warm never worse than cold beyond the documented guard: CDS is
        # a local search, so a warm seed can legitimately land on a
        # different (at most guard-factor worse, often better) optimum.
        assert result.cost <= cold * DEFAULT_REGRESSION_GUARD + 1e-9
        # Structural guarantee (holds for ANY input): never worse than
        # the documented guard over the cold DRP estimate.
        rough = drp_allocate(drifted, 4)
        assert result.cost <= rough.cost * DEFAULT_REGRESSION_GUARD + 1e-9
        # The warm refinement can also never be worse than its seed.
        seeded = ChannelAllocation.rebase(drifted, previous)
        assert result.cost <= allocation_cost(seeded) + 1e-9

    def test_unchanged_profile_reproduces_allocation_exactly(self):
        database = generate_database(WorkloadSpec(num_items=60, seed=3))
        previous = DRPCDSAllocator().allocate(database, 5).allocation
        result = warm_start_refine(database, 5, previous)
        assert result.mode == "warm"
        assert result.warm_moves == 0  # CDS is already converged
        assert result.allocation.as_id_lists() == previous.as_id_lists()
        assert result.cost == pytest.approx(allocation_cost(previous))

    def test_paper_workload_warm_start_hits_golden_cost(self):
        """Table 2 fixture: warm start preserves the paper's 22.29."""
        database = paper_database()
        rough = drp_allocate(
            database, PAPER_NUM_CHANNELS, split_policy="max-reduction"
        )
        cold = cds_refine(rough.allocation)
        assert cold.cost == pytest.approx(PAPER_CDS_COST, abs=0.02)
        warm = warm_start_refine(
            database, PAPER_NUM_CHANNELS, cold.allocation
        )
        assert warm.cost == pytest.approx(PAPER_CDS_COST, abs=0.02)
        assert warm.cost <= cold.cost + 1e-9
        assert warm.allocation.as_id_lists() == cold.allocation.as_id_lists()

    def test_initial_seed_backend_parity(self):
        """cds_refine(initial=...) is bitwise-identical to the scalar
        reference loop run from the rebased seed."""
        database = generate_database(WorkloadSpec(num_items=50, seed=9))
        previous = drp_allocate(database, 4).allocation
        drifted = _drift(database, 10, 0.04)
        seed_lists = previous.as_id_lists()
        start = drp_allocate(drifted, 4).allocation
        py = cds_refine_reference(
            ChannelAllocation.rebase(drifted, seed_lists)
        )
        np_ = cds_refine(start, initial=seed_lists)
        assert py.cost == np_.cost
        assert py.iterations == np_.iterations
        assert (
            py.allocation.as_id_lists() == np_.allocation.as_id_lists()
        )

    def test_incompatible_seed_falls_back_cold(self):
        database = generate_database(WorkloadSpec(num_items=30, seed=1))
        other = generate_database(WorkloadSpec(num_items=20, seed=2))
        previous = DRPCDSAllocator().allocate(other, 4).allocation
        result = warm_start_refine(database, 4, previous)
        assert result.mode == "cold"
        assert result.cost == pytest.approx(_cold_cost(database, 4))


class _ConstantEstimator:
    """Stub estimator: always reports the same profile (zero drift)."""

    def __init__(self, profile):
        self._profile = dict(profile)

    def estimate(self, trace, catalogue):
        return dict(self._profile)


class TestZeroDriftReuse:
    """Satellite 2: unchanged profile reuses the program verbatim."""

    def test_zero_drift_epochs_reuse_program(self):
        database = generate_database(WorkloadSpec(num_items=24, seed=5))
        profile = {item.item_id: item.frequency for item in database.items}
        reports = run_adaptive_simulation(
            database,
            DRPCDSAllocator(),
            4,
            epochs=4,
            requests_per_epoch=200,
            estimator=_ConstantEstimator(profile),
            seed=5,
        )
        # Epoch 0 is the initial build; every later epoch sees zero L1
        # drift against the believed profile and must skip the rebuild.
        for report in reports[1:]:
            assert report.cache_hit
            assert not report.reallocated
            assert report.allocation_mode == "reused"

    def test_real_estimator_still_reallocates(self):
        database = generate_database(WorkloadSpec(num_items=24, seed=5))
        reports = run_adaptive_simulation(
            database,
            DRPCDSAllocator(),
            4,
            epochs=3,
            requests_per_epoch=400,
            seed=5,
        )
        assert any(r.reallocated for r in reports[1:])


class TestWarmSweep:
    """Warm sweeps: worker-count independence and cold fallback."""

    @pytest.fixture
    def config(self):
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig(
            name="warm-sweep-test",
            description="warm sweep identity",
            sweep_parameter="skewness",
            sweep_values=(0.4, 1.0),
            algorithms=("drp-cds",),
            num_items=40,
            num_channels=4,
            replications=2,
            base_seed=11,
        )

    def test_warm_sweep_identical_across_worker_counts(self, config):
        from repro.experiments.runner import run_experiment

        serial = run_experiment(config, warm_start=True)
        fanned = run_experiment(config, warm_start=True, workers=2)
        rows = lambda result: [  # noqa: E731
            (row.sweep_value, row.algorithm, row.mean_cost, row.replications)
            for row in result.rows
        ]
        assert rows(serial) == rows(fanned)

    def test_warm_sweep_within_guard_of_cold(self, config):
        from repro.experiments.runner import run_experiment

        cold = run_experiment(config)
        warm = run_experiment(config, warm_start=True)
        for cold_row, warm_row in zip(cold.rows, warm.rows):
            assert warm_row.mean_cost <= (
                cold_row.mean_cost * DEFAULT_REGRESSION_GUARD + 1e-9
            )

    def test_shape_changing_sweep_runs_cold(self):
        """A num_channels sweep has no compatible neighbours."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            name="warm-k-sweep",
            description="K sweep cannot warm across values",
            sweep_parameter="num_channels",
            sweep_values=(3, 5),
            algorithms=("drp-cds",),
            num_items=30,
            replications=1,
            base_seed=2,
        )
        cold = run_experiment(config)
        warm = run_experiment(config, warm_start=True)
        for cold_row, warm_row in zip(cold.rows, warm.rows):
            assert warm_row.mean_cost == pytest.approx(cold_row.mean_cost)


class TestIncrementalAllocator:
    """Unit tests for the stateful engine and its cache."""

    def test_cold_then_cache_then_warm(self):
        database = generate_database(WorkloadSpec(num_items=30, seed=7))
        engine = IncrementalAllocator(4, cache=AllocationCache())
        first = engine.reallocate(database)
        assert first.mode == "cold"
        again = engine.reallocate(database)
        assert again.mode == "cache"
        # The compact cache encoding preserves group membership (and
        # therefore cost), not the within-group listing order.
        assert [sorted(g) for g in again.allocation.as_id_lists()] == [
            sorted(g) for g in first.allocation.as_id_lists()
        ]
        assert again.cost == pytest.approx(first.cost)
        drifted = _drift(database, 8, 0.03)
        moved = engine.reallocate(drifted)
        assert moved.mode in ("warm", "fallback")
        assert engine.stats.cache_hits == 1

    def test_channel_count_change_runs_cold(self):
        database = generate_database(WorkloadSpec(num_items=30, seed=7))
        engine = IncrementalAllocator(4)
        engine.reallocate(database)
        result = engine.reallocate(database, num_channels=5)
        assert result.mode == "cold"
        assert result.allocation.num_channels == 5

    def test_update_frequencies_maintains_aggregates(self):
        database = generate_database(WorkloadSpec(num_items=30, seed=7))
        engine = IncrementalAllocator(4)
        engine.reallocate(database)
        target = database.items[0].item_id
        engine.update_frequencies(
            {target: database.items[0].frequency * 2.0}, refine=False
        )
        # The delta-maintained cost must equal a from-scratch recompute.
        assert engine.cost == pytest.approx(
            allocation_cost(engine.allocation), abs=1e-9
        )
        aggregates = engine.channel_aggregates
        for (agg_f, agg_z), stats in zip(
            aggregates, engine.allocation.channel_stats
        ):
            assert agg_f == pytest.approx(stats.frequency, abs=1e-12)
            assert agg_z == pytest.approx(stats.size, abs=1e-12)

    def test_update_frequencies_rejects_unknown_and_nonpositive(self):
        database = generate_database(WorkloadSpec(num_items=10, seed=7))
        engine = IncrementalAllocator(3)
        engine.reallocate(database)
        with pytest.raises(InvalidDatabaseError):
            engine.update_frequencies({"nope": 0.1})
        with pytest.raises(InvalidDatabaseError):
            engine.update_frequencies({database.items[0].item_id: 0.0})

    def test_shared_cache_across_engines(self):
        database = generate_database(WorkloadSpec(num_items=20, seed=4))
        cache = AllocationCache()
        IncrementalAllocator(3, cache=cache).reallocate(database)
        second = IncrementalAllocator(3, cache=cache).reallocate(database)
        assert second.mode == "cache"
        assert cache.stats()["hits"] == 1

    def test_cache_lru_eviction(self):
        cache = AllocationCache(max_entries=2)
        database = generate_database(WorkloadSpec(num_items=6, seed=0))
        allocation = drp_allocate(database, 2).allocation
        for key in ("a", "b", "c"):
            cache.put(key, allocation)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert len(cache) == 2

    def test_compact_allocation_roundtrip(self):
        database = generate_database(WorkloadSpec(num_items=12, seed=1))
        allocation = drp_allocate(database, 3).allocation
        compact = CompactAllocation.from_allocation(allocation)
        assert compact.compatible_with(database, 3)
        restored = compact.to_allocation(database)
        assert [sorted(g) for g in restored.as_id_lists()] == [
            sorted(g) for g in allocation.as_id_lists()
        ]
        assert allocation_cost(restored) == pytest.approx(
            allocation_cost(allocation)
        )

    def test_fingerprints_distinguish_inputs(self):
        database = generate_database(WorkloadSpec(num_items=10, seed=0))
        assert database_fingerprint(database, 3) != database_fingerprint(
            database, 4
        )
        base = workload_fingerprint(num_items=10, num_channels=3, seed=0)
        assert base == workload_fingerprint(
            num_items=10, num_channels=3, seed=0
        )
        assert base != workload_fingerprint(
            num_items=10, num_channels=3, seed=1
        )
        assert base != workload_fingerprint(
            num_items=10, num_channels=3, seed=0, algorithm="drp-cds"
        )


class TestAdaptiveWarmStart:
    """Warm-started adaptive loop: modes, guard, and cache wiring."""

    def test_warm_loop_reports_warm_modes(self):
        database = generate_database(WorkloadSpec(num_items=30, seed=2))
        reports = run_adaptive_simulation(
            database,
            DRPCDSAllocator(),
            4,
            epochs=4,
            requests_per_epoch=500,
            seed=2,
            warm_start=True,
        )
        assert reports[0].allocation_mode == "cold"
        later = {r.allocation_mode for r in reports[1:]}
        assert later <= {"warm", "fallback", "cache", "reused"}

    def test_warm_and_cold_loops_measure_same_truth(self):
        """Warm start changes the search, not the simulated workload."""
        database = generate_database(WorkloadSpec(num_items=30, seed=2))
        kwargs = dict(
            epochs=3, requests_per_epoch=400, seed=2
        )
        cold = run_adaptive_simulation(
            database, DRPCDSAllocator(), 4, **kwargs
        )
        warm = run_adaptive_simulation(
            database, DRPCDSAllocator(), 4, warm_start=True, **kwargs
        )
        # Epoch 0 programs are built from the same initial profile by
        # the same DRP+CDS pipeline — identical measurements.
        assert warm[0].measured.mean == pytest.approx(cold[0].measured.mean)
        assert warm[0].profile_error == pytest.approx(cold[0].profile_error)
