"""Algorithm GOPT — the genetic-algorithm comparator (paper, Section 4).

The paper obtains (near-)global-optimal allocations with a Genetic
Algorithm and calls the result GOPT; its own footnote concedes the value
is "still viewed as a suboptimum".  The paper omits the GA details "for
interest of space", so this implementation follows the standard
generational GA of Goldberg/Holland that the paper cites:

* **chromosome** — a length-N vector of channel ids (the assignment
  vector of an allocation);
* **fitness** — the negated Eq. (3) cost;
* **selection** — tournament selection;
* **crossover** — uniform crossover;
* **mutation** — per-gene reset to a random channel;
* **repair** — individuals with empty channels get random genes
  reassigned until every channel is populated (keeps the population
  inside the feasible region);
* **elitism** — the best individuals survive unchanged.

All population-level work is vectorised with numpy, so GOPT's runtime
scales as ``O(generations × population × N)`` — matching the paper's
observation that GOPT's execution time is more sensitive to ``N``
(chromosome length) than to ``K`` (gene alphabet size).

Two memetic refinements (both on by default, both documented in
DESIGN.md) make GOPT a *tight* proxy for the global optimum, which is
the role the paper assigns it:

* **heuristic seeding** — the initial population includes the DRP,
  DRP-CDS, contiguous-DP and greedy solutions, so GOPT never reports a
  cost above the best known heuristic;
* **polish** — mechanism CDS runs on the final best individual.

Neither changes the complexity picture: runtime stays dominated by the
GA generations.

Random-stream contract: the draws keep a fixed order, shape and dtype.
First comes the ``int64`` initial population; then, per generation, the
tournament entrants, the crossover gene mask and skip vector, the
mutation mask and the full-shape ``int64`` replacements.  After the
initial draw and after each generation's replacements, the repair draws
one ``choice`` per gene it moves (rows, then empty channels, in
ascending order).  A result is thus a function of seed and instance,
and the numpy work around the draws may change freely.  Genes are
``int8`` for ``K ≤ 128`` (every paper shape), else ``intp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.database import BroadcastDatabase
from repro.core.scheduler import Allocator
from repro.exceptions import InfeasibleProblemError, InvalidDatabaseError

__all__ = ["GAParameters", "GOPTAllocator"]

#: Rows of :func:`_heuristic_seeds`: DRP, DRP-CDS, contiguous DP, greedy.
HEURISTIC_SEEDS = 4

#: ``(field, low, high)``: the closed range each set value must lie in.
_PARAMETER_RANGES = (
    ("population_size", 1, math.inf),
    ("generations", 0, math.inf),
    ("tournament_size", 1, math.inf),
    ("crossover_rate", 0.0, 1.0),
    ("mutation_rate", 0.0, 1.0),
    ("elite_count", 0, math.inf),
    ("stagnation_limit", 1, math.inf),
)


@dataclass(frozen=True)
class GAParameters:
    """Tuning knobs of the GOPT genetic algorithm.

    The defaults scale the population with the instance so solution
    quality stays roughly constant over the paper's parameter ranges
    (N = 60–180, K = 4–10).

    Attributes
    ----------
    population_size:
        Individuals per generation; ``None`` → ``max(60, 2N)``.
    generations:
        Generations to evolve; ``None`` → ``150 + 2N``.
    tournament_size:
        Individuals sampled per tournament (winner reproduces).
    crossover_rate:
        Probability that a child is produced by uniform crossover
        (otherwise it clones the first parent).
    mutation_rate:
        Per-gene probability of resetting to a random channel.
    elite_count:
        Individuals copied unchanged into the next generation.
    stagnation_limit:
        Stop early after this many generations without improvement;
        ``None`` disables early stopping (deterministic runtime, the
        setting used by the execution-time figures).

    An out-of-range value raises :class:`InvalidDatabaseError` naming
    the field.
    """

    population_size: Optional[int] = None
    generations: Optional[int] = None
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elite_count: int = 2
    stagnation_limit: Optional[int] = 80

    def __post_init__(self) -> None:
        for name, low, high in _PARAMETER_RANGES:
            value = getattr(self, name)
            if value is not None and not low <= value <= high:
                raise InvalidDatabaseError(
                    f"{name} must lie in [{low}, {high}], got {value}"
                )

    def resolved_population(self, num_items: int) -> int:
        if self.population_size is not None:
            return self.population_size
        return max(60, 2 * num_items)

    def resolved_generations(self, num_items: int) -> int:
        if self.generations is not None:
            return self.generations
        return 150 + 2 * num_items


class GOPTAllocator(Allocator):
    """GOPT: genetic-algorithm channel allocation.

    Parameters
    ----------
    parameters:
        GA tuning knobs; defaults follow :class:`GAParameters`.
    seed:
        RNG seed; same seed + same instance ⇒ identical result.
    polish:
        Run mechanism CDS on the final best individual (default true).
    seed_with_heuristics:
        Inject the DRP, DRP-CDS, contiguous-DP and greedy solutions into
        the initial population (default true).  Guarantees GOPT is never
        worse than the best known heuristic, as befits an optimum proxy.
        Needs a population of at least :data:`HEURISTIC_SEEDS`.
    """

    name = "gopt"

    def __init__(
        self,
        parameters: Optional[GAParameters] = None,
        *,
        seed: int = 0,
        polish: bool = True,
        seed_with_heuristics: bool = True,
    ) -> None:
        self._parameters = parameters or GAParameters()
        self._seed = seed
        self._polish = polish
        self._seed_with_heuristics = seed_with_heuristics

    def _allocate(
        self, database: BroadcastDatabase, num_channels: int
    ) -> ChannelAllocation:
        n = len(database)
        if not 1 <= num_channels <= n:
            raise InfeasibleProblemError(
                f"cannot allocate {n} item(s) to {num_channels} non-empty channels"
            )
        params = self._parameters
        pop_size = params.resolved_population(n)
        generations = params.resolved_generations(n)
        if self._seed_with_heuristics and pop_size < HEURISTIC_SEEDS:
            raise InvalidDatabaseError(
                f"population_size must be >= {HEURISTIC_SEEDS} with "
                f"heuristic seeding, got {pop_size}"
            )
        rng = np.random.default_rng(self._seed)
        fitness = _Fitness(database.frequencies, database.sizes, pop_size, num_channels)
        population = rng.integers(0, num_channels, size=(pop_size, n))
        population = population.astype(fitness.genes)
        if self._seed_with_heuristics:
            population[:HEURISTIC_SEEDS] = _heuristic_seeds(database, num_channels)
        costs = fitness.repaired_costs(population, rng)
        previous = np.arange(pop_size) - 1  # second parent: the one before

        best_index = int(np.argmin(costs))
        best_chromosome = population[best_index].copy()
        best_cost = float(costs[best_index])
        stagnant = 0
        generations_run = 0

        for _generation in range(generations):
            generations_run += 1
            parents = _tournament(costs, params.tournament_size, pop_size, rng)
            # Uniform crossover with the previous parent; a skipped row
            # clones its first parent (all-True mask).
            first = population.take(parents, axis=0)
            second = population.take(parents[previous], axis=0)
            mask = rng.random(size=(pop_size, n)) < 0.5
            mask[rng.random(size=pop_size) >= params.crossover_rate] = True
            children = second + (first - second) * mask
            # Mutation: reset genes to random channels.  The full-shape
            # draw is a temporary, so it is freed before the costing.
            mutated = np.flatnonzero(
                rng.random(size=children.shape) < params.mutation_rate
            )
            children.ravel()[mutated] = rng.integers(
                0, num_channels, size=children.shape
            ).ravel()[mutated]
            child_costs = fitness.repaired_costs(children, rng)
            # Elitism: the elite of the current generation overwrite the
            # worst children.
            elite_order = np.argsort(costs)[: params.elite_count]
            worst_children = np.argsort(child_costs)[::-1][: params.elite_count]
            children[worst_children] = population[elite_order]
            child_costs[worst_children] = costs[elite_order]
            population, costs = children, child_costs

            generation_best = int(np.argmin(costs))
            if costs[generation_best] < best_cost - 1e-15:
                best_cost = float(costs[generation_best])
                best_chromosome = population[generation_best].copy()
                stagnant = 0
            else:
                stagnant += 1
                if (
                    params.stagnation_limit is not None
                    and stagnant >= params.stagnation_limit
                ):
                    break

        allocation = ChannelAllocation.from_assignment_vector(
            database, best_chromosome.tolist(), num_channels
        )
        cds_moves = 0
        if self._polish:
            refined = cds_refine(allocation)
            allocation = refined.allocation
            cds_moves = refined.iterations
        self._note(
            generations=generations_run,
            population_size=pop_size,
            ga_best_cost=best_cost,
            polish_moves=cds_moves,
        )
        return allocation


def _heuristic_seeds(
    database: BroadcastDatabase, num_channels: int
) -> np.ndarray:
    """Assignment vectors of the cheap heuristics, as GA seed rows."""
    # Imported here to avoid an import cycle: the baselines package
    # imports this module at load time.
    from repro.baselines.exact import ContiguousDPAllocator
    from repro.baselines.flat import GreedyCostAllocator
    from repro.core.drp import drp_allocate

    rough = drp_allocate(database, num_channels).allocation
    allocations = [rough, cds_refine(rough).allocation] + [
        allocator.allocate(database, num_channels).allocation
        for allocator in (ContiguousDPAllocator(), GreedyCostAllocator())
    ]
    return np.array([a.assignment_vector() for a in allocations])


# ----------------------------------------------------------------------
# Vectorised GA primitives
# ----------------------------------------------------------------------
class _Fitness:
    """Eq.-(3) cost of a fixed-size population, with feasibility repair.

    Tiled weights and per-row bin offsets are built once per run; each
    ``bincount`` bin then sums its items in item order.
    """

    def __init__(self, frequencies, sizes, pop_size: int, num_channels: int) -> None:
        self.num_channels = num_channels
        self.genes = np.int8 if num_channels <= 128 else np.intp
        self._tiled_f = np.tile(frequencies, pop_size)
        self._tiled_z = np.tile(sizes, pop_size)
        self._offsets = np.arange(pop_size)[:, None] * num_channels
        self._bins = pop_size * num_channels

    def _aggregate(self, flat: np.ndarray, weights: np.ndarray) -> np.ndarray:
        totals = np.bincount(flat, weights=weights, minlength=self._bins)
        return totals.reshape(-1, self.num_channels)

    def repaired_costs(
        self, population: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Repair every individual with an empty channel (in place), then
        return the cost of every individual.

        Sizes are > 0, so a channel's size aggregate is exactly 0.0 iff
        the channel is empty: the size pass doubles as the feasibility
        test, and only the offending rows are repaired before the
        population is recounted.
        """
        flat = (population + self._offsets).ravel()
        agg_z = self._aggregate(flat, self._tiled_z)
        if not agg_z.all():
            for row in np.flatnonzero(~agg_z.all(axis=1)):
                _repair(population[row], self.num_channels, rng)
            flat = (population + self._offsets).ravel()
            agg_z = self._aggregate(flat, self._tiled_z)
        return (self._aggregate(flat, self._tiled_f) * agg_z).sum(axis=1)


def _tournament(
    costs: np.ndarray,
    tournament_size: int,
    num_parents: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of ``num_parents`` tournament winners (with replacement)."""
    entrants = rng.integers(0, len(costs), size=(num_parents, tournament_size))
    winner_slots = np.argmin(costs[entrants], axis=1)
    return entrants[np.arange(num_parents), winner_slots]


def _repair(
    chromosome: np.ndarray, num_channels: int, rng: np.random.Generator
) -> None:
    """Give every empty channel of one individual a gene, in place.

    Channels are filled in ascending order; each takes a random gene
    from a channel that currently holds more than one.
    """
    channel_counts = np.bincount(chromosome, minlength=num_channels)
    for channel in np.flatnonzero(channel_counts == 0):
        donors = np.flatnonzero(channel_counts[chromosome] > 1)
        gene = int(rng.choice(donors))
        channel_counts[chromosome[gene]] -= 1
        chromosome[gene] = channel
        channel_counts[channel] += 1
