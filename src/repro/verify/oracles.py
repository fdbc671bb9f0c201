"""Differential oracles: run implementation pairs, diff the answers.

The repo deliberately keeps redundant implementations of each layer —
the production numpy kernels vs the scalar references in
:mod:`repro.verify.reference`, serial vs process-pool sweeps,
closed-form vs event-driven simulation, cold vs warm-started
refinement.  Each pair is documented as producing identical results
(bitwise, except where a tolerance is declared below), which turns every
pair into a free test oracle: run both halves on the same seeded input
and diff.

Every oracle returns ``List[Violation]`` (empty = the pair agrees), the
same contract as :mod:`repro.verify.invariants`, so the fuzzer and the
pytest suite consume all checkers uniformly.

The four oracle pairs (named ``oracle.<slug>``):

``drp-backends``
    Every split DRP took (read off its ``trace=True`` snapshots) vs the
    scalar reference split scan on the same range — bitwise.
``cds-backends`` / ``dp-methods``
    Production CDS vs the scalar reference loop, and the SMAWK DP vs
    the O(K·N²) quadratic reference DP — all bitwise.
``cds-scan-modes``
    Triple parity of the CDS Δc scans: scalar reference vs vectorized
    full scan vs the dirty-pair incremental index — identical move
    sequences (every float), costs and groupings, cold and seeded.
``simulators``
    The closed-form production simulation vs the event-driven reference
    (:func:`~repro.verify.eventsim.simulate_reference`) — measured
    statistics bitwise identical, and the reference executed exactly
    two events per request.
``exact-sum``
    The batched exact sums behind every waiting-time summary
    (:func:`~repro.core.kernels.exact_sum`) vs plain ``math.fsum`` and
    :func:`~repro.simulation.metrics.summarize` vs the scalar
    :func:`~repro.verify.reference.summarize_reference`, on closed-form
    waits and on wide-exponent values — bitwise, errors included.
``serial-parallel``
    ``run_experiment`` in-process (``workers=1``) vs over a process
    pool (``workers=2``) — rows bitwise identical except wall-clock
    ``elapsed`` aggregates.
``shard-layouts``
    The sharded fabric (:mod:`repro.experiments.shards`) vs the serial
    runner — identical rows for any shard count, worker count and
    resume history, including a mid-shard interruption with a torn
    trailing record and a stale done-set entry.
``warm-cold``
    Warm-started refinement on a drifted profile must respect the
    documented regression guard against a fresh DRP estimate, and must
    be a no-op on an unchanged profile.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

from repro.core.allocation import ChannelAllocation
from repro.core.cds import cds_refine
from repro.core.database import BroadcastDatabase
from repro.core.drp import drp_allocate
from repro.core.incremental import DEFAULT_REGRESSION_GUARD, warm_start_refine
from repro.core.item import DataItem
from repro.core.kernels import exact_sum
from repro.core.partition import PrefixSums, contiguous_optimal
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import summarize, summarize_blocks
from repro.simulation.server import BroadcastProgram
from repro.simulation.simulator import run_broadcast_simulation
from repro.verify.eventsim import simulate_reference
from repro.verify.invariants import REL_TOL, Violation, close
from repro.verify.reference import (
    best_split_reference,
    cds_refine_reference,
    contiguous_quadratic,
    summarize_reference,
)

__all__ = [
    "oracle_drp_backends",
    "oracle_cds_backends",
    "oracle_cds_scan_modes",
    "oracle_dp_methods",
    "oracle_database_construction",
    "oracle_simulators",
    "oracle_exact_sum",
    "oracle_serial_parallel",
    "oracle_shard_layouts",
    "oracle_warm_cold",
]


def _violation(check: str, message: str, **context: object) -> Violation:
    return Violation(check=check, message=message, context=context)


# ---------------------------------------------------------------------------
# Production kernels vs the scalar references
# ---------------------------------------------------------------------------

def _move_key(result) -> list:
    return [
        (m.item_id, m.origin, m.destination, m.delta, m.cost_after)
        for m in result.moves
    ]


def oracle_drp_backends(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    split_policy: str = "max-cost",
) -> List[Violation]:
    """Every split DRP takes matches the scalar reference split scan.

    DRP runs with ``trace=True``; each pair of consecutive snapshots
    names the range it split (``split_group`` of the earlier one) and
    the two halves it produced.  The reference scan over the same range
    of scalar prefix sums must pick the identical cut, and the halves'
    cost must be its minimised cost — bitwise.  The final groups must be
    the allocation's channels and their reference cost DRP's cost.
    """
    name = "oracle.drp-backends"
    violations: List[Violation] = []
    if num_channels > len(database.items):
        return violations
    result = drp_allocate(
        database, num_channels, split_policy=split_policy, trace=True
    )
    ordered = database.sorted_by_benefit_ratio()
    sums = PrefixSums(ordered)
    snapshots = result.snapshots
    if snapshots[0].groups != (tuple(item.item_id for item in ordered),):
        violations.append(
            _violation(name, "DRP did not start from the benefit-ratio order")
        )
        return violations
    for before, after in zip(snapshots, snapshots[1:]):
        index = before.split_group
        start = sum(len(group) for group in before.groups[:index])
        stop = start + len(before.groups[index])
        offset = len(after.groups[index])
        cost = after.costs[index] + after.costs[index + 1]
        ref_offset, ref_cost = best_split_reference(sums, start, stop)
        if (offset, cost) != (ref_offset, ref_cost):
            violations.append(
                _violation(
                    name,
                    f"DRP split of [{start}, {stop}) at offset {offset} "
                    f"(cost {cost!r}) != reference offset {ref_offset} "
                    f"(cost {ref_cost!r}) (policy={split_policy!r})",
                    policy=split_policy,
                    iteration=after.iteration,
                    offset=offset,
                    reference=ref_offset,
                )
            )
    final = [list(group) for group in snapshots[-1].groups]
    if result.allocation.as_id_lists() != final:
        violations.append(
            _violation(name, "DRP allocation differs from its final snapshot")
        )
    bounds = []
    start = 0
    for group in final:
        bounds.append((start, start + len(group)))
        start += len(group)
    reference_cost = sum(sums.cost(a, b) for a, b in bounds)
    if result.cost != reference_cost:
        violations.append(
            _violation(
                name,
                f"DRP cost {result.cost!r} != reference {reference_cost!r}",
                production=result.cost,
                reference=reference_cost,
            )
        )
    if result.iterations != len(snapshots) - 1:
        violations.append(
            _violation(
                name,
                f"DRP reports {result.iterations} iterations but traced "
                f"{len(snapshots) - 1} splits",
            )
        )
    return violations


def oracle_cds_backends(
    database: BroadcastDatabase, num_channels: int
) -> List[Violation]:
    """CDS takes the reference loop's move sequence, bit for bit."""
    name = "oracle.cds-backends"
    violations: List[Violation] = []
    if num_channels > len(database.items):
        return violations
    seed = drp_allocate(database, num_channels).allocation
    reference = cds_refine_reference(seed)
    production = cds_refine(seed)
    reference_moves = _move_key(reference)
    production_moves = _move_key(production)
    if reference_moves != production_moves:
        violations.append(
            _violation(
                name,
                f"CDS move sequences diverge: reference made "
                f"{len(reference_moves)} move(s), production "
                f"{len(production_moves)}",
                reference_moves=len(reference_moves),
                production_moves=len(production_moves),
            )
        )
    if reference.cost != production.cost:
        violations.append(
            _violation(
                name,
                f"CDS cost reference {reference.cost!r} != production "
                f"{production.cost!r}",
                reference=reference.cost,
                production=production.cost,
            )
        )
    if (
        reference.allocation.as_id_lists()
        != production.allocation.as_id_lists()
    ):
        violations.append(
            _violation(
                name, "CDS final groupings diverge from the reference"
            )
        )
    return violations


def oracle_cds_scan_modes(
    database: BroadcastDatabase, num_channels: int
) -> List[Violation]:
    """Triple parity across CDS scan implementations — all bitwise.

    The scalar reference, the vectorized full scan and the dirty-pair
    incremental scan must execute the identical move sequence (item,
    origin, destination, delta, cost after — every float), land on the
    identical cost and grouping, and the incremental scan must never
    evaluate *more* Δc pairs than the full scan it replaces.  Warm
    composition is covered too: a seeded (``initial=``) incremental
    refinement must match the seeded full scan move for move.
    """
    name = "oracle.cds-scan-modes"
    violations: List[Violation] = []
    if num_channels > len(database.items):
        return violations
    seed = drp_allocate(database, num_channels).allocation
    runs = {
        "reference": cds_refine_reference(seed),
        "full": cds_refine(seed, scan="full"),
        "incremental": cds_refine(seed, scan="incremental"),
    }
    reference_label = "reference"
    reference = runs[reference_label]
    for label, result in runs.items():
        if label == reference_label:
            continue
        if _move_key(result) != _move_key(reference):
            violations.append(
                _violation(
                    name,
                    f"CDS move sequences diverge: {reference_label} made "
                    f"{len(reference.moves)} move(s), {label} "
                    f"{len(result.moves)}",
                    reference=len(reference.moves),
                    candidate=len(result.moves),
                    mode=label,
                )
            )
        if result.cost != reference.cost:
            violations.append(
                _violation(
                    name,
                    f"CDS cost diverges: {reference_label} "
                    f"{reference.cost!r} vs {label} {result.cost!r}",
                    mode=label,
                )
            )
        if (
            result.allocation.as_id_lists()
            != reference.allocation.as_id_lists()
        ):
            violations.append(
                _violation(
                    name,
                    f"CDS final groupings diverge: {reference_label} vs "
                    f"{label}",
                    mode=label,
                )
            )
    full = runs["full"]
    incremental = runs["incremental"]
    if incremental.delta_evaluations > full.delta_evaluations:
        violations.append(
            _violation(
                name,
                f"incremental scan evaluated more Δc pairs "
                f"({incremental.delta_evaluations}) than the full scan "
                f"({full.delta_evaluations})",
            )
        )
    warm_full = cds_refine(seed, initial=full.allocation, scan="full")
    warm_incremental = cds_refine(
        seed, initial=full.allocation, scan="incremental"
    )
    if _move_key(warm_full) != _move_key(warm_incremental) or (
        warm_full.cost != warm_incremental.cost
    ):
        violations.append(
            _violation(
                name,
                "seeded (warm-start) refinement diverges between the "
                "full and incremental scans",
            )
        )
    return violations


def oracle_dp_methods(
    database: BroadcastDatabase, num_channels: int
) -> List[Violation]:
    """The SMAWK DP and the quadratic reference DP agree exactly.

    The ``smawk-vs-quadratic`` pair parity: both must return the same
    optimal cost (bitwise — the recurrences evaluate the same ``F·Z``
    products and SMAWK's restricted search provably contains the
    optimum), and each side's boundaries must themselves realise the
    cost they claim.  Boundary *positions* are compared by realised
    cost, not index: among exact ties SMAWK may pick a different
    (equally optimal) predecessor than the leftmost-``j`` reference.
    """
    name = "oracle.dp-methods"
    violations: List[Violation] = []
    items = database.sorted_by_benefit_ratio()
    if num_channels > len(items):
        return violations
    sums = PrefixSums(items)
    quad_bounds, quad_cost = contiguous_quadratic(sums, num_channels)
    smawk_bounds, smawk_cost = contiguous_optimal(
        None, num_channels, sums=sums
    )
    if quad_cost != smawk_cost:
        violations.append(
            _violation(
                name,
                f"DP cost diverges: quadratic {quad_cost!r}, "
                f"smawk {smawk_cost!r}",
                quadratic=quad_cost,
                smawk=smawk_cost,
            )
        )
    for method, bounds, cost in (
        ("quadratic", quad_bounds, quad_cost),
        ("smawk", smawk_bounds, smawk_cost),
    ):
        realised = sum(sums.cost(a, b) for a, b in bounds)
        if not close(realised, cost):
            violations.append(
                _violation(
                    name,
                    f"{method} boundaries realise {realised}, claimed "
                    f"{cost}",
                    method=method,
                    realised=realised,
                    claimed=cost,
                )
            )
    return violations


def oracle_database_construction(
    database: BroadcastDatabase,
) -> List[Violation]:
    """Object-path and array-path database construction agree exactly.

    Rebuilds the catalogue through the item-list constructor and
    through :meth:`BroadcastDatabase.from_soa`, then diffs everything a
    consumer can observe: ids, feature arrays (bitwise), the
    benefit-ratio order, the fixed download cost, equality and hashes.
    """
    name = "oracle.database-construction"
    violations: List[Violation] = []
    items = database.items
    object_db = BroadcastDatabase(list(items), require_normalized=False)
    soa_db = BroadcastDatabase.from_soa(
        [item.frequency for item in items],
        [item.size for item in items],
        ids=[item.item_id for item in items],
        require_normalized=False,
    )
    if object_db.item_ids != soa_db.item_ids:
        violations.append(
            _violation(name, "item id sequences diverge between paths")
        )
    if (
        list(object_db.frequencies) != list(soa_db.frequencies)
        or list(object_db.sizes) != list(soa_db.sizes)
    ):
        violations.append(
            _violation(
                name, "feature arrays diverge between construction paths"
            )
        )
    if object_db.fixed_download_cost != soa_db.fixed_download_cost:
        violations.append(
            _violation(
                name,
                f"fixed download cost diverges: "
                f"object {object_db.fixed_download_cost!r} vs "
                f"soa {soa_db.fixed_download_cost!r}",
            )
        )
    object_order = [
        item.item_id for item in object_db.sorted_by_benefit_ratio()
    ]
    soa_order = [item.item_id for item in soa_db.sorted_by_benefit_ratio()]
    if object_order != soa_order:
        violations.append(
            _violation(name, "benefit-ratio orders diverge between paths")
        )
    if not (object_db == soa_db and soa_db == object_db):
        violations.append(
            _violation(name, "databases compare unequal across paths")
        )
    if hash(object_db) != hash(soa_db):
        violations.append(
            _violation(name, "database hashes diverge between paths")
        )
    return violations


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------

def oracle_simulators(
    allocation: ChannelAllocation,
    *,
    num_requests: int = 400,
    seed: int = 0,
) -> List[Violation]:
    """Production and event-driven simulation agree bitwise on statistics."""
    name = "oracle.simulators"
    violations: List[Violation] = []
    reference, events = simulate_reference(
        allocation, num_requests=num_requests, seed=seed
    )
    production = run_broadcast_simulation(
        allocation, num_requests=num_requests, seed=seed
    )
    if events != 2 * num_requests:
        violations.append(
            _violation(
                name,
                f"reference executed {events} events for {num_requests} "
                "requests, not two per request",
            )
        )
    if reference.measured != production.measured:
        violations.append(
            _violation(
                name,
                f"measured summaries diverge: reference "
                f"{reference.measured} vs production {production.measured}",
            )
        )
    if reference.analytical_waiting_time != production.analytical_waiting_time:
        violations.append(
            _violation(
                name,
                f"analytical W_b diverges: {reference.analytical_waiting_time!r}"
                f" vs {production.analytical_waiting_time!r}",
            )
        )
    if reference.num_requests != production.num_requests:
        violations.append(
            _violation(
                name,
                f"request counts diverge: {reference.num_requests} vs "
                f"{production.num_requests}",
            )
        )
    if reference.per_item != production.per_item:
        ours, theirs = reference.per_item, production.per_item
        mismatched = sorted(
            item_id
            for item_id in set(ours) | set(theirs)
            if ours.get(item_id) != theirs.get(item_id)
        )
        violations.append(
            _violation(
                name,
                f"per-item summaries diverge for {len(mismatched)} item(s)",
                items=mismatched[:8],
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Batched exact sums vs math.fsum
# ---------------------------------------------------------------------------

#: Largest sample the exact-sum oracle draws: several summary batches
#: plus a tail, so extracted batches and raw values meet in one sum.
_EXACT_SUM_MAX_VALUES = 20_000


def _outcome(fn: Callable, *args) -> str:
    """``repr`` of ``fn(*args)``, or the error it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def _random_blocks(values: np.ndarray, rng) -> List[np.ndarray]:
    """``values`` split at a few random cuts, empty blocks included."""
    cuts = rng.integers(0, len(values) + 1, size=int(rng.integers(0, 6)))
    return np.split(values, np.sort(cuts))


def _wide_values(rng) -> np.ndarray:
    """Values over a random window of the float64 exponent range,
    subnormals included: all positive, all negative or mixed."""
    size = int(rng.integers(1, _EXACT_SUM_MAX_VALUES))
    low = int(rng.integers(-1076, 1025))
    high = min(1024, low + int(rng.choice([0, 1, 8, 60, 2100])))
    values = np.ldexp(
        rng.uniform(0.5, 1.0, size), rng.integers(low, high + 1, size)
    )
    signs = rng.integers(3)
    if signs == 1:
        values = -values
    elif signs == 2:
        values *= rng.choice([-1.0, 1.0], size)
    return values


def oracle_exact_sum(
    allocation: ChannelAllocation, *, rng=None
) -> List[Violation]:
    """Batched exact sums are ``math.fsum`` bit for bit.

    Two seeded samples: the closed-form waits of a request stream on
    ``allocation``'s program, and wide-exponent values.  On each,
    :func:`summarize` and :func:`summarize_blocks` over random block
    splits must equal :func:`summarize_reference` by ``repr``, and
    :func:`exact_sum` must equal ``math.fsum`` — the same float, or the
    same ``OverflowError`` / ``ValueError``.  The wide sample's sum also
    runs with zeros of both signs and, now and then, an infinity or a
    NaN mixed in.
    """
    name = "oracle.exact-sum"
    violations: List[Violation] = []
    if rng is None:
        rng = np.random.default_rng(0)
    requests = int(rng.integers(1, _EXACT_SUM_MAX_VALUES))
    arrivals, rows = RequestGenerator(
        allocation.database, seed=int(rng.integers(2 ** 31))
    ).sample_batch(requests)
    waits = BroadcastProgram(allocation).waiting_times(rows, arrivals)
    wide = _wide_values(rng)
    specials = wide.copy()
    picks = rng.integers(0, len(specials), size=3)
    specials[picks[:2]] = [0.0, -0.0]
    if rng.random() < 0.25:
        specials[picks[2]] = rng.choice([math.inf, -math.inf, math.nan])

    def check(label: str, production: str, reference: str) -> None:
        if production != reference:
            violations.append(
                _violation(
                    name,
                    f"{label}: {production} != reference {reference}",
                    label=label,
                )
            )

    # Squares of wide values overflow to inf on purpose.
    with np.errstate(over="ignore"):
        for label, values in (("waits", waits), ("wide", wide)):
            reference = _outcome(summarize_reference, values)
            check(f"{label} summarize", _outcome(summarize, values), reference)
            check(
                f"{label} summarize_blocks",
                _outcome(summarize_blocks, _random_blocks(values, rng)),
                reference,
            )
    for label, values in (("waits", waits), ("wide", specials)):
        expected = _outcome(math.fsum, values.tolist())
        check(f"{label} exact_sum", _outcome(exact_sum, [values]), expected)
        check(
            f"{label} exact_sum over blocks",
            _outcome(exact_sum, _random_blocks(values, rng)),
            expected,
        )
    return violations


# ---------------------------------------------------------------------------
# Serial vs parallel sweeps
# ---------------------------------------------------------------------------

def oracle_serial_parallel(
    *,
    seed: int = 20050608,
    workers: int = 2,
) -> List[Violation]:
    """In-process and fanned-out sweeps must emit identical rows.

    Runs one deliberately small sweep twice — inline in this process
    (``workers=1``) and over a ``workers=N`` process pool — and diffs
    every row field except the wall-clock
    ``elapsed`` aggregates.  Expensive (spawns a process pool), so the
    fuzzer runs it once per session.
    """
    name = "oracle.serial-parallel"
    violations: List[Violation] = []
    config = ExperimentConfig(
        name="verify-serial-parallel",
        description="differential oracle sweep",
        sweep_parameter="num_channels",
        sweep_values=(3, 5),
        algorithms=("drp", "drp-cds"),
        num_items=40,
        replications=2,
        base_seed=seed,
    )
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=workers)
    if serial.errors or parallel.errors:
        violations.append(
            _violation(
                name,
                f"sweep reported cell errors: serial={len(serial.errors)}, "
                f"parallel={len(parallel.errors)}",
            )
        )
    if len(serial.rows) != len(parallel.rows):
        violations.append(
            _violation(
                name,
                f"row counts diverge: serial {len(serial.rows)} vs "
                f"parallel {len(parallel.rows)}",
            )
        )
        return violations
    compared = (
        "sweep_value",
        "algorithm",
        "mean_cost",
        "std_cost",
        "mean_waiting_time",
        "std_waiting_time",
        "replications",
    )
    for serial_row, parallel_row in zip(serial.rows, parallel.rows):
        for field_name in compared:
            left = getattr(serial_row, field_name)
            right = getattr(parallel_row, field_name)
            if left != right:
                violations.append(
                    _violation(
                        name,
                        f"row ({serial_row.sweep_value}, "
                        f"{serial_row.algorithm}) field {field_name!r} "
                        f"diverges: serial {left!r} vs parallel {right!r}",
                        field=field_name,
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# Shard layouts
# ---------------------------------------------------------------------------

def oracle_shard_layouts(
    *,
    seed: int = 20050608,
    workers: int = 2,
) -> List[Violation]:
    """Every shard layout × resume history merges to the serial rows.

    Runs one deliberately small sweep serially, then through the shard
    fabric under increasingly hostile conditions, and diffs every row
    field except the wall-clock ``elapsed`` aggregates:

    * ``M=1`` — the degenerate single-shard layout;
    * ``M=3`` cold, with one shard interrupted mid-run (``max_cells``),
      its store damaged with a torn trailing record *and* a stale
      done-set entry, then resumed, and another shard fanned out over
      ``workers`` processes.

    Expensive (runs the sweep three ways and spawns a pool), so the
    fuzzer runs it once per session.
    """
    import tempfile
    from pathlib import Path

    from repro.experiments.shards import (
        compile_manifest,
        merge_shards,
        run_shard,
    )
    from repro.experiments.store import store_chunk_path, store_done_path

    name = "oracle.shard-layouts"
    violations: List[Violation] = []
    config = ExperimentConfig(
        name="verify-shard-layouts",
        description="differential oracle sweep",
        sweep_parameter="num_channels",
        sweep_values=(3, 5),
        algorithms=("drp", "drp-cds"),
        num_items=40,
        replications=2,
        base_seed=seed,
    )

    def comparable(result):
        return [
            (
                row.sweep_value,
                row.algorithm,
                row.mean_cost,
                row.std_cost,
                row.mean_waiting_time,
                row.std_waiting_time,
                row.replications,
            )
            for row in result.rows
        ]

    def diff(label: str, merged, reference) -> None:
        if merged.errors or reference.errors:
            violations.append(
                _violation(
                    name,
                    f"{label}: sweep reported cell errors "
                    f"(merged={len(merged.errors)}, "
                    f"serial={len(reference.errors)})",
                    layout=label,
                )
            )
        if comparable(merged) != comparable(reference):
            violations.append(
                _violation(
                    name,
                    f"{label}: merged rows diverge from the serial run",
                    layout=label,
                )
            )

    serial = run_experiment(config)
    with tempfile.TemporaryDirectory(prefix="repro-shard-oracle-") as tmp:
        tmp_path = Path(tmp)

        single = compile_manifest(config, num_shards=1)
        run_shard(single, 0, results_dir=tmp_path / "m1")
        diff("M=1", merge_shards(single, results_dir=tmp_path / "m1"), serial)

        cold = compile_manifest(config, num_shards=3)
        cold_dir = tmp_path / "m3"
        # Shard 0: interrupted after one cell, store damaged the way a
        # SIGKILL damages it, then resumed.
        report = run_shard(cold, 0, results_dir=cold_dir, max_cells=1)
        if report.computed != 1:
            violations.append(
                _violation(
                    name,
                    f"max_cells=1 computed {report.computed} cell(s)",
                    layout="M=3",
                )
            )
        with store_chunk_path(cold_dir, 0).open("ab") as handle:
            handle.write(b'{"kind": "cell", "key": "[torn')
        with store_done_path(cold_dir, 0).open("a") as handle:
            handle.write("[stale-done-entry]\n")
        resumed = run_shard(cold, 0, results_dir=cold_dir)
        if resumed.torn_records_dropped != 1:
            violations.append(
                _violation(
                    name,
                    f"resume dropped {resumed.torn_records_dropped} torn "
                    f"record(s), expected 1",
                    layout="M=3",
                )
            )
        if resumed.stale_done_dropped != 1:
            violations.append(
                _violation(
                    name,
                    f"resume dropped {resumed.stale_done_dropped} stale "
                    f"done entr(ies), expected 1",
                    layout="M=3",
                )
            )
        if resumed.already_complete != 1:
            violations.append(
                _violation(
                    name,
                    f"resume skipped {resumed.already_complete} cell(s), "
                    f"expected exactly the 1 completed before the kill",
                    layout="M=3",
                )
            )
        run_shard(cold, 1, results_dir=cold_dir, workers=workers)
        run_shard(cold, 2, results_dir=cold_dir)
        diff(
            "M=3 kill/resume",
            merge_shards(cold, results_dir=cold_dir),
            serial,
        )
    return violations


# ---------------------------------------------------------------------------
# Cold vs warm refinement
# ---------------------------------------------------------------------------

def oracle_warm_cold(
    database: BroadcastDatabase,
    num_channels: int,
    *,
    rng=None,
    drift: float = 0.15,
) -> List[Violation]:
    """Warm starts respect the cold-start regression guard.

    Three assertions: (a) warm-starting from a converged allocation on
    the *unchanged* profile is a no-op (same cost within ``REL_TOL``);
    (b) on a drifted profile the warm result never exceeds
    ``DEFAULT_REGRESSION_GUARD ×`` a fresh DRP estimate; (c) the warm
    result is a well-formed partition of the drifted database.
    """
    name = "oracle.warm-cold"
    violations: List[Violation] = []
    if num_channels > len(database.items):
        return violations

    cold = cds_refine(drp_allocate(database, num_channels).allocation)
    unchanged = warm_start_refine(database, num_channels, cold.allocation)
    if not close(unchanged.cost, cold.cost):
        violations.append(
            _violation(
                name,
                f"warm start on an unchanged profile moved the cost: "
                f"{unchanged.cost!r} != converged {cold.cost!r} "
                f"(mode={unchanged.mode})",
                warm=unchanged.cost,
                cold=cold.cost,
                mode=unchanged.mode,
            )
        )

    if rng is None:
        factors = [1.0 + drift * ((i % 5) - 2) / 2.0 for i in range(len(database))]
    else:
        factors = [
            float(f) for f in rng.uniform(1.0 - drift, 1.0 + drift, len(database))
        ]
    drifted_items = [
        DataItem(
            item.item_id,
            frequency=item.frequency * factor,
            size=item.size,
            label=item.label,
        )
        for item, factor in zip(database.items, factors)
    ]
    drifted = BroadcastDatabase(
        drifted_items, require_normalized=False
    ).normalized()

    warm = warm_start_refine(drifted, num_channels, cold.allocation)
    rough = drp_allocate(drifted, num_channels)
    bound = DEFAULT_REGRESSION_GUARD * rough.cost
    if warm.cost > bound + REL_TOL * max(1.0, bound):
        violations.append(
            _violation(
                name,
                f"warm cost {warm.cost} exceeds the regression guard "
                f"{bound} ({DEFAULT_REGRESSION_GUARD} × DRP {rough.cost}, "
                f"mode={warm.mode})",
                warm=warm.cost,
                bound=bound,
                mode=warm.mode,
            )
        )
    id_lists = warm.allocation.as_id_lists()
    flattened = sorted(item_id for channel in id_lists for item_id in channel)
    if flattened != sorted(drifted.item_ids):
        violations.append(
            _violation(
                name,
                "warm allocation is not a partition of the drifted database",
            )
        )
    return violations

