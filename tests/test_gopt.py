"""Unit tests for the GOPT genetic algorithm (repro.baselines.gopt)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baselines.gopt import (
    HEURISTIC_SEEDS,
    GAParameters,
    GOPTAllocator,
    _Fitness,
    _tournament,
)
from repro.core.cost import allocation_cost
from repro.core.scheduler import DRPCDSAllocator
from repro.exceptions import InfeasibleProblemError, InvalidDatabaseError
from repro.workloads.generator import WorkloadSpec, generate_database


def quick_params(**overrides):
    defaults = dict(
        population_size=40,
        generations=60,
        stagnation_limit=None,
    )
    defaults.update(overrides)
    return GAParameters(**defaults)


class TestParameters:
    def test_resolved_population_scales_with_n(self):
        params = GAParameters()
        assert params.resolved_population(10) == 60
        assert params.resolved_population(100) == 200

    def test_resolved_generations_scales_with_n(self):
        params = GAParameters()
        assert params.resolved_generations(100) == 350

    def test_explicit_values_win(self):
        params = GAParameters(population_size=7, generations=9)
        assert params.resolved_population(1000) == 7
        assert params.resolved_generations(1000) == 9

    @pytest.mark.parametrize(
        "field, value",
        [
            ("population_size", 0),
            ("population_size", -3),
            ("generations", -5),
            ("tournament_size", 0),
            ("elite_count", -1),
            ("stagnation_limit", 0),
            ("crossover_rate", -0.1),
            ("crossover_rate", 1.5),
            ("mutation_rate", -1.0),
            ("mutation_rate", 2.0),
            ("mutation_rate", float("nan")),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidDatabaseError, match=field):
            GAParameters(**{field: value})

    def test_edge_values_accepted(self):
        GAParameters(
            population_size=1,
            generations=0,
            tournament_size=1,
            crossover_rate=0.0,
            mutation_rate=1.0,
            elite_count=0,
            stagnation_limit=1,
        )


class TestGOPTAllocator:
    def test_valid_partition(self, medium_db):
        outcome = GOPTAllocator(quick_params()).allocate(medium_db, 5)
        ids = sorted(
            i for group in outcome.allocation.as_id_lists() for i in group
        )
        assert ids == sorted(medium_db.item_ids)
        assert all(s.count >= 1 for s in outcome.allocation.channel_stats)

    def test_deterministic_for_fixed_seed(self, medium_db):
        a = GOPTAllocator(quick_params(), seed=5).allocate(medium_db, 5)
        b = GOPTAllocator(quick_params(), seed=5).allocate(medium_db, 5)
        assert a.allocation.as_id_lists() == b.allocation.as_id_lists()

    def test_never_worse_than_drp_cds_when_seeded(self, medium_db):
        gopt = GOPTAllocator(quick_params()).allocate(medium_db, 6)
        drpcds = DRPCDSAllocator().allocate(medium_db, 6)
        assert gopt.cost <= drpcds.cost + 1e-9

    def test_unseeded_still_valid(self, medium_db):
        outcome = GOPTAllocator(
            quick_params(), seed_with_heuristics=False
        ).allocate(medium_db, 5)
        assert outcome.cost == pytest.approx(
            allocation_cost(outcome.allocation)
        )

    def test_finds_exact_optimum_on_small_instance(self, tiny_db):
        from repro.baselines.exact import brute_force_optimal

        _, optimal = brute_force_optimal(tiny_db, 2)
        outcome = GOPTAllocator(quick_params()).allocate(tiny_db, 2)
        assert outcome.cost == pytest.approx(optimal)

    def test_metadata(self, medium_db):
        outcome = GOPTAllocator(quick_params()).allocate(medium_db, 5)
        assert outcome.metadata["generations"] == 60
        assert outcome.metadata["population_size"] == 40
        assert outcome.metadata["ga_best_cost"] >= outcome.cost - 1e-9

    def test_stagnation_stops_early(self, medium_db):
        outcome = GOPTAllocator(
            quick_params(generations=500, stagnation_limit=5)
        ).allocate(medium_db, 5)
        assert outcome.metadata["generations"] < 500

    def test_polish_disabled_keeps_ga_result(self, medium_db):
        outcome = GOPTAllocator(
            quick_params(), polish=False
        ).allocate(medium_db, 5)
        assert outcome.metadata["polish_moves"] == 0
        assert outcome.cost == pytest.approx(outcome.metadata["ga_best_cost"])

    def test_infeasible_rejected(self, tiny_db):
        with pytest.raises(InfeasibleProblemError):
            GOPTAllocator(quick_params()).allocate(tiny_db, 5)

    @pytest.mark.parametrize("population_size", [1, 2, HEURISTIC_SEEDS - 1])
    def test_population_must_hold_the_heuristic_seeds(
        self, medium_db, population_size
    ):
        allocator = GOPTAllocator(quick_params(population_size=population_size))
        with pytest.raises(InvalidDatabaseError, match="population_size"):
            allocator.allocate(medium_db, 5)

    @pytest.mark.parametrize("population_size", [1, 2])
    def test_unseeded_small_population_runs(self, medium_db, population_size):
        outcome = GOPTAllocator(
            quick_params(population_size=population_size, generations=5),
            seed_with_heuristics=False,
        ).allocate(medium_db, 5)
        assert all(s.count >= 1 for s in outcome.allocation.channel_stats)

    def test_smallest_seeded_population_runs(self, medium_db):
        outcome = GOPTAllocator(
            quick_params(population_size=HEURISTIC_SEEDS)
        ).allocate(medium_db, 5)
        drpcds = DRPCDSAllocator().allocate(medium_db, 5)
        assert outcome.cost <= drpcds.cost + 1e-9


def _digest(id_lists) -> str:
    return hashlib.sha256(json.dumps(id_lists).encode()).hexdigest()[:16]


#: Unseeded, unpolished: the GA alone decides the result.
_GA_ONLY = dict(seed_with_heuristics=False, polish=False)

#: name -> (N, K, database seed, GAParameters overrides, allocator
#: keywords, frozen (id-list digest, cost, generations, ga_best_cost,
#: polish_moves)).  Produced by the earlier generation loop (int64
#: genes, boolean-mask crossover and mutation, repair before costing);
#: the random-stream contract in the module docstring keeps every value
#: bit-identical.  In each case the GA itself, not a heuristic seed,
#: sets the result: the seeded runs' GA best beats DRP-CDS.
FROZEN_RUNS = {
    "paper-default": (
        120, 7, 11, None, {},
        ("acb7318326fcab3a", 79.58666151273214, 80, 79.58666151273214, 0),
    ),
    "past-int8": (
        200, 150, 12,
        dict(population_size=80, generations=40, stagnation_limit=None),
        _GA_ONLY,
        ("7887259bec74b2da", 10.432531554472432, 40, 10.432531554472432, 0),
    ),
    "repair-heavy": (
        40, 37, 13,
        dict(
            population_size=60,
            generations=50,
            mutation_rate=0.3,
            stagnation_limit=None,
        ),
        _GA_ONLY,
        ("b5b6128076cf6d50", 11.966234639102884, 50, 11.966234639102883, 0),
    ),
    "no-crossover": (
        90, 5, 14,
        dict(
            population_size=50,
            generations=60,
            crossover_rate=0.0,
            stagnation_limit=None,
        ),
        dict(seed_with_heuristics=False),
        ("8460189d880507c5", 112.94508189927771, 60, 124.78135150854175, 47),
    ),
    "always-crossover": (
        90, 5, 14,
        dict(
            population_size=50,
            generations=60,
            crossover_rate=1.0,
            stagnation_limit=None,
        ),
        dict(seed_with_heuristics=False),
        ("fd4e9290b9067c95", 113.11126022488264, 60, 116.68140978957143, 30),
    ),
    "unseeded": (
        100, 8, 15,
        dict(population_size=60, generations=80),
        dict(seed_with_heuristics=False, seed=3),
        ("61e24fc49dd69ac0", 74.93305557287056, 80, 77.61389447689206, 31),
    ),
    "no-polish": (
        100, 8, 16,
        dict(population_size=60, generations=80, stagnation_limit=None),
        dict(polish=False, seed=4),
        ("3d41b21b611c56bf", 77.909691469118, 80, 77.909691469118, 0),
    ),
}


class TestFrozenRuns:
    """Exact outputs of fixed runs: any change to the random stream,
    the repair order or the cost arithmetic shows up here."""

    @pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
    def test_bit_identical(self, name):
        num_items, channels, db_seed, overrides, keywords, expected = (
            FROZEN_RUNS[name]
        )
        database = generate_database(
            WorkloadSpec(
                num_items=num_items, skewness=0.8, diversity=1.5, seed=db_seed
            )
        )
        parameters = GAParameters(**overrides) if overrides else None
        outcome = GOPTAllocator(parameters, **keywords).allocate(
            database, channels
        )
        metadata = outcome.metadata
        assert (
            _digest(outcome.allocation.as_id_lists()),
            outcome.cost,
            metadata["generations"],
            metadata["ga_best_cost"],
            metadata["polish_moves"],
        ) == expected

    def test_gene_dtype_follows_channel_count(self):
        ones = np.ones(3)
        assert _Fitness(ones, ones, 2, 128).genes is np.int8
        assert _Fitness(ones, ones, 2, 129).genes is np.intp


class TestGAPrimitives:
    def test_population_costs_match_scalar(self, tiny_db):
        fitness = _Fitness(tiny_db.frequencies, tiny_db.sizes, 2, 2)
        population = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=fitness.genes)
        costs = fitness.repaired_costs(population, np.random.default_rng(0))
        # Row 0: {a,b} and {c,d}
        expected0 = (0.7 * 3.0) + (0.3 * 7.0)
        # Row 1: {a,c} and {b,d}
        expected1 = (0.6 * 4.0) + (0.4 * 6.0)
        assert costs[0] == pytest.approx(expected0)
        assert costs[1] == pytest.approx(expected1)

    def test_repair_fills_empty_channels(self):
        rng = np.random.default_rng(0)
        frequencies = np.full(6, 1.0 / 6.0)
        fitness = _Fitness(frequencies, np.arange(1.0, 7.0), 3, 2)
        population = np.zeros((3, 6), dtype=fitness.genes)  # channel 1 empty
        costs = fitness.repaired_costs(population, rng)
        for row in population:
            assert set(row.tolist()) == {0, 1}
        # The costs are those of the repaired individuals.
        repaired = _Fitness(frequencies, np.arange(1.0, 7.0), 3, 2)
        again = repaired.repaired_costs(population.copy(), rng)
        assert costs.tolist() == again.tolist()

    def test_repair_noop_for_feasible(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        fitness = _Fitness(np.full(4, 0.25), np.ones(4), 1, 2)
        population = np.array([[0, 1, 0, 1]], dtype=fitness.genes)
        before = population.copy()
        fitness.repaired_costs(population, rng)
        assert (population == before).all()
        assert rng.bit_generator.state == state

    def test_tournament_prefers_lower_cost(self):
        rng = np.random.default_rng(0)
        costs = np.array([10.0, 1.0, 5.0])
        winners = _tournament(
            costs, tournament_size=3, num_parents=3000, rng=rng
        )
        # Entrants are drawn with replacement: the best individual wins
        # whenever it is sampled at least once, P = 1 - (2/3)^3 ≈ 0.70.
        fractions = np.bincount(winners, minlength=3) / len(winners)
        assert fractions[1] == pytest.approx(1 - (2 / 3) ** 3, abs=0.05)
        assert fractions[1] > fractions[2] > fractions[0]
