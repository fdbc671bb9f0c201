"""Deterministic metamorphic fuzzer over the whole verification layer.

``run_fuzz`` drives every checker of :mod:`repro.verify.invariants`,
:mod:`repro.verify.metamorphic` and :mod:`repro.verify.oracles` against
seeded synthetic workloads spanning four size regimes — small (most
cases, where every checker is cheap), medium, an N = 506–518 band
whose uncapped checkers compare the production kernels against the
scalar references at a few hundred items,
and an occasional large-N smoke band (low thousands of items) where
only the uncapped checkers run — enough to catch scaling regressions
in the array-resident pipeline without leaving seconds-scale budgets.
One case in five (chosen by its seed) is *quantized*: its frequencies
and sizes each take one of three values, so duplicated items put exact
Δc ties in front of CDS's tie-break and the full scan's re-scoring.

On a violation the offending case is **shrunk** greedily (drop item
chunks of halving size, then reduce the channel count) while it keeps
failing, then serialized to ``verify_failures/<check>-<seed>.json``.
:func:`replay_failure` re-runs a serialized case — pointing pytest at
the directory turns every past failure into a permanent regression test.

Everything is deterministic in ``--seed``: case generation, checker
sampling (each checker derives its RNG from the case seed and its own
name) and shrinking.  ``--inject-bug delta-sign`` swaps a
sign-flipped Eq. (4) delta into the move-delta checker to prove the
harness catches, shrinks and serializes a real cost-function bug.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.cds import CDSResult, cds_refine
from repro.core.cost import move_delta
from repro.core.database import BroadcastDatabase
from repro.core.drp import DRPResult, drp_allocate
from repro.core.item import DataItem
from repro.exceptions import ReproError, VerificationError
from repro.verify.invariants import (
    DeltaFn,
    Violation,
    check_allocation_wellformed,
    check_cost_identities,
    check_lower_bounds,
    check_move_delta,
    check_prefix_sums,
)
from repro.verify.metamorphic import (
    relation_frequency_renormalization,
    relation_merge_split,
    relation_monotone_channels,
    relation_permutation,
    relation_size_scaling,
)
from repro.verify.oracles import (
    oracle_cds_backends,
    oracle_cds_scan_modes,
    oracle_database_construction,
    oracle_dp_methods,
    oracle_drp_backends,
    oracle_exact_sum,
    oracle_serial_parallel,
    oracle_shard_layouts,
    oracle_simulators,
    oracle_warm_cold,
)
from repro.workloads.generator import WorkloadSpec, generate_database

__all__ = [
    "FAILURE_SCHEMA",
    "DEFAULT_FAILURES_DIR",
    "INJECTABLE_BUGS",
    "CaseContext",
    "CheckSpec",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "available_checks",
    "run_fuzz",
    "shrink_case",
    "serialize_failure",
    "load_failure",
    "replay_failure",
]

#: Schema tag written into every serialized failure file.
FAILURE_SCHEMA = "repro.verify.failure/v1"

#: Where ``repro verify`` drops serialized failures by default.
DEFAULT_FAILURES_DIR = "verify_failures"

#: Maximum predicate evaluations one shrink is allowed to spend.
_SHRINK_BUDGET = 400


def _broken_delta_sign(item, **kwargs) -> float:
    """Eq. (4) with the sign flipped — the canonical injected bug."""
    return -move_delta(item, **kwargs)


#: Deliberately broken implementations the fuzzer can swap in to prove
#: the harness detects them (``repro verify --inject-bug <name>``).
INJECTABLE_BUGS: Dict[str, DeltaFn] = {
    "delta-sign": _broken_delta_sign,
}


# ---------------------------------------------------------------------------
# Case plumbing
# ---------------------------------------------------------------------------

class CaseContext:
    """One fuzz case: a seeded database plus lazily shared pipeline runs.

    Checkers pull the DRP / CDS results through the context so a case
    runs each pipeline stage at most once regardless of how many
    checkers look at it.  Each checker derives its RNG from the case
    seed *and its own name*, so adding or reordering checkers never
    perturbs another checker's sampling.
    """

    def __init__(
        self,
        database: BroadcastDatabase,
        num_channels: int,
        case_seed: int,
        *,
        delta_fn: DeltaFn = move_delta,
    ) -> None:
        self.database = database
        self.num_channels = num_channels
        self.case_seed = case_seed
        self.delta_fn = delta_fn
        self._drp: Optional[DRPResult] = None
        self._cds: Optional[CDSResult] = None

    @property
    def num_items(self) -> int:
        return len(self.database.items)

    def rng_for(self, check_name: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.case_seed, zlib.crc32(check_name.encode("utf-8"))]
        )

    def drp(self) -> DRPResult:
        if self._drp is None:
            self._drp = drp_allocate(self.database, self.num_channels)
        return self._drp

    def cds(self) -> CDSResult:
        if self._cds is None:
            self._cds = cds_refine(self.drp().allocation)
        return self._cds


@dataclass(frozen=True)
class CheckSpec:
    """One registered checker with its size gate.

    ``max_items`` bounds the database size the checker is willing to
    process per case (``None`` = no bound — these are the checkers that
    also run in the N = 506–518 and large-N bands).  ``once`` marks
    session-level checkers (currently the process-pool oracle) that run
    a single time per fuzz run.
    """

    name: str
    run: Callable[[CaseContext], List[Violation]]
    max_items: Optional[int] = None
    once: bool = False

    def eligible(self, num_items: int) -> bool:
        return self.max_items is None or num_items <= self.max_items


def _all_checks() -> List[CheckSpec]:
    return [
        CheckSpec(
            "invariants.wellformed",
            lambda ctx: check_allocation_wellformed(ctx.drp().allocation),
        ),
        CheckSpec(
            "invariants.cost-identities",
            lambda ctx: check_cost_identities(ctx.cds().allocation),
            max_items=200,
        ),
        CheckSpec(
            "invariants.move-delta",
            lambda ctx: check_move_delta(
                ctx.drp().allocation,
                delta_fn=ctx.delta_fn,
                rng=ctx.rng_for("invariants.move-delta"),
            ),
            max_items=600,
        ),
        CheckSpec(
            "invariants.prefix-sums",
            lambda ctx: check_prefix_sums(
                ctx.database.sorted_by_benefit_ratio(),
                rng=ctx.rng_for("invariants.prefix-sums"),
            ),
        ),
        CheckSpec(
            "invariants.lower-bounds",
            lambda ctx: check_lower_bounds(
                ctx.database, ctx.num_channels
            ),
            max_items=200,
        ),
        CheckSpec(
            "metamorphic.permutation",
            lambda ctx: relation_permutation(
                ctx.cds().allocation, ctx.rng_for("metamorphic.permutation")
            ),
        ),
        CheckSpec(
            "metamorphic.size-scaling",
            lambda ctx: relation_size_scaling(
                ctx.database, ctx.num_channels
            ),
            max_items=600,
        ),
        CheckSpec(
            "metamorphic.frequency-renormalization",
            lambda ctx: relation_frequency_renormalization(
                ctx.database, ctx.num_channels
            ),
            max_items=600,
        ),
        CheckSpec(
            "metamorphic.monotone-channels",
            lambda ctx: relation_monotone_channels(ctx.database),
            max_items=200,
        ),
        CheckSpec(
            "metamorphic.merge-split",
            lambda ctx: relation_merge_split(
                ctx.cds().allocation, ctx.rng_for("metamorphic.merge-split")
            ),
        ),
        CheckSpec(
            "oracle.drp-backends",
            lambda ctx: oracle_drp_backends(ctx.database, ctx.num_channels),
        ),
        CheckSpec(
            "oracle.cds-backends",
            lambda ctx: oracle_cds_backends(ctx.database, ctx.num_channels),
            max_items=120,
        ),
        CheckSpec(
            "oracle.cds-scan-modes",
            lambda ctx: oracle_cds_scan_modes(
                ctx.database, ctx.num_channels
            ),
            max_items=120,
        ),
        CheckSpec(
            "oracle.dp-methods",
            lambda ctx: oracle_dp_methods(ctx.database, ctx.num_channels),
            max_items=120,
        ),
        CheckSpec(
            "oracle.database-construction",
            lambda ctx: oracle_database_construction(ctx.database),
        ),
        CheckSpec(
            "oracle.simulators",
            lambda ctx: oracle_simulators(
                ctx.cds().allocation,
                num_requests=300,
                seed=ctx.case_seed % (2 ** 31),
            ),
            max_items=48,
        ),
        CheckSpec(
            "oracle.exact-sum",
            lambda ctx: oracle_exact_sum(
                ctx.cds().allocation, rng=ctx.rng_for("oracle.exact-sum")
            ),
        ),
        CheckSpec(
            "oracle.serial-parallel",
            lambda ctx: oracle_serial_parallel(),
            once=True,
        ),
        CheckSpec(
            "oracle.shard-layouts",
            lambda ctx: oracle_shard_layouts(),
            once=True,
        ),
        CheckSpec(
            "oracle.warm-cold",
            lambda ctx: oracle_warm_cold(
                ctx.database,
                ctx.num_channels,
                rng=ctx.rng_for("oracle.warm-cold"),
            ),
            max_items=160,
        ),
    ]


def available_checks() -> List[CheckSpec]:
    """The full checker registry, in execution order."""
    return _all_checks()


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    """Parameters of one generated case (before database synthesis)."""

    index: int
    num_items: int
    num_channels: int
    skewness: float
    diversity: float
    case_seed: int

    @property
    def quantized(self) -> bool:
        """Whether the catalogue comes from :func:`_quantized_database`
        instead of the Zipf/diversity model.  Chosen from the case seed,
        so the other cases' parameters are unchanged."""
        return self.case_seed % _QUANTIZED_EVERY == 0


#: One case in this many has a quantized catalogue.
_QUANTIZED_EVERY = 5

#: Distinct frequency and size values of a quantized catalogue.
_QUANTIZED_LEVELS = 3


def _generate_case(rng: np.random.Generator, index: int) -> FuzzCase:
    regime = rng.random()
    if regime < 0.68:
        num_items = int(rng.integers(4, 25))
    elif regime < 0.90:
        num_items = int(rng.integers(30, 161))
    elif regime < 0.96:
        num_items = int(rng.integers(506, 519))
    else:
        # Large-N smoke: only the uncapped checkers run here, keeping
        # the band seconds-scale while still exercising the SoA paths
        # at sizes where object churn or O(N²) slips would show.
        num_items = int(rng.integers(1200, 3001))
    num_channels = int(rng.integers(2, min(8, num_items) + 1))
    return FuzzCase(
        index=index,
        num_items=num_items,
        num_channels=num_channels,
        skewness=round(float(rng.uniform(0.2, 1.3)), 3),
        diversity=round(float(rng.uniform(0.2, 2.5)), 3),
        case_seed=int(rng.integers(0, 2 ** 31 - 1)),
    )


def _materialize(case: FuzzCase) -> BroadcastDatabase:
    if case.quantized:
        return _quantized_database(case)
    spec = WorkloadSpec(
        num_items=case.num_items,
        skewness=case.skewness,
        diversity=case.diversity,
        seed=case.case_seed,
    )
    return generate_database(spec)


def _quantized_database(case: FuzzCase) -> BroadcastDatabase:
    """A catalogue whose frequencies and sizes each take one of
    :data:`_QUANTIZED_LEVELS` values.  Duplicated ``(f, z)`` items give
    exactly tied Δc cells — across ranks, origins and destinations —
    which natural catalogues almost never do, so CDS's tie-break and
    the full scan's exact re-scoring are exercised against the scalar
    reference."""
    rng = np.random.default_rng(case.case_seed)
    levels = rng.integers(0, _QUANTIZED_LEVELS, size=(2, case.num_items))
    weights = rng.uniform(0.5, 2.0, _QUANTIZED_LEVELS)[levels[0]]
    sizes = 10.0 ** rng.uniform(0.0, case.diversity, _QUANTIZED_LEVELS)
    return BroadcastDatabase.from_arrays(
        (weights / weights.sum()).tolist(), sizes[levels[1]].tolist()
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

Predicate = Callable[[Sequence[DataItem], int], bool]


def shrink_case(
    items: Sequence[DataItem],
    num_channels: int,
    predicate: Predicate,
    *,
    budget: int = _SHRINK_BUDGET,
) -> Tuple[List[DataItem], int]:
    """Greedy ddmin-style minimisation of a failing case.

    Repeatedly drops contiguous chunks of items (chunk size halving
    from ``n/2`` down to 1) and lowers the channel count, keeping each
    reduction only while ``predicate(candidate_items, k)`` still
    reports the failure.  ``predicate`` must be deterministic; the
    shrinker never evaluates it more than ``budget`` times.
    """
    current = list(items)
    channels = num_channels
    evaluations = 0

    def holds(candidate: Sequence[DataItem], k: int) -> bool:
        nonlocal evaluations
        if evaluations >= budget:
            return False
        evaluations += 1
        try:
            return bool(predicate(candidate, k))
        except ReproError:
            return False

    progress = True
    while progress and evaluations < budget:
        progress = False
        chunk = max(1, len(current) // 2)
        while chunk >= 1:
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk:]
                if len(candidate) >= max(2, channels) and holds(
                    candidate, channels
                ):
                    current = candidate
                    progress = True
                else:
                    start += chunk
            chunk //= 2
        while (
            channels > 2
            and len(current) >= channels - 1
            and holds(current, channels - 1)
        ):
            channels -= 1
            progress = True
    return current, channels


# ---------------------------------------------------------------------------
# Failure serialization / replay
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    """A shrunk, serialized invariant violation."""

    check: str
    case: FuzzCase
    items: List[DataItem]
    num_channels: int
    violations: List[Violation]
    injected: Optional[str] = None
    path: Optional[Path] = None

    @property
    def num_items(self) -> int:
        return len(self.items)


def serialize_failure(failure: FuzzFailure, directory: Union[str, Path]) -> Path:
    """Write one failure as JSON; returns the file path.

    The file is self-contained: raw item triples (id, frequency, size —
    deliberately *not* renormalised, so the payload reproduces the
    failing floats bit-for-bit), channel count, seeds, the violations
    observed on the shrunk case, and the injected-bug name if any.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{failure.check.replace('.', '-')}-seed{failure.case.case_seed}"
    path = directory / f"{stem}.json"
    payload = {
        "schema": FAILURE_SCHEMA,
        "check": failure.check,
        "injected": failure.injected,
        "num_channels": failure.num_channels,
        "case": {
            "index": failure.case.index,
            "num_items": failure.case.num_items,
            "num_channels": failure.case.num_channels,
            "skewness": failure.case.skewness,
            "diversity": failure.case.diversity,
            "case_seed": failure.case.case_seed,
            "quantized": failure.case.quantized,
        },
        "items": [
            [item.item_id, item.frequency, item.size]
            for item in failure.items
        ],
        "violations": [violation.to_dict() for violation in failure.violations],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    failure.path = path
    return path


@dataclass(frozen=True)
class LoadedFailure:
    """A deserialized failure file, ready to replay."""

    check: str
    database: BroadcastDatabase
    num_channels: int
    case_seed: int
    injected: Optional[str]
    violations: List[Dict[str, object]]
    path: Path


def load_failure(path: Union[str, Path]) -> LoadedFailure:
    """Parse a ``verify_failures/*.json`` file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise VerificationError(f"cannot read failure file {path}: {error}")
    if payload.get("schema") != FAILURE_SCHEMA:
        raise VerificationError(
            f"{path} has schema {payload.get('schema')!r}, "
            f"expected {FAILURE_SCHEMA!r}"
        )
    items = [
        DataItem(item_id, frequency=frequency, size=size)
        for item_id, frequency, size in payload["items"]
    ]
    database = BroadcastDatabase(items, require_normalized=False)
    return LoadedFailure(
        check=payload["check"],
        database=database,
        num_channels=int(payload["num_channels"]),
        case_seed=int(payload["case"]["case_seed"]),
        injected=payload.get("injected"),
        violations=list(payload.get("violations", [])),
        path=path,
    )


def replay_failure(path: Union[str, Path]) -> List[Violation]:
    """Re-run a serialized failure's checker; returns fresh violations.

    A failure recorded with an injected bug re-applies the same
    injection, so the replay reproduces the historical defect; a failure
    recorded against production code replays the production checker —
    once the underlying bug is fixed the replay returns ``[]`` and the
    file serves as a permanent regression test.
    """
    loaded = load_failure(path)
    spec = _find_check(loaded.check)
    delta_fn = move_delta
    if loaded.injected is not None:
        try:
            delta_fn = INJECTABLE_BUGS[loaded.injected]
        except KeyError:
            raise VerificationError(
                f"{loaded.path} references unknown injected bug "
                f"{loaded.injected!r}"
            )
    context = CaseContext(
        loaded.database,
        loaded.num_channels,
        loaded.case_seed,
        delta_fn=delta_fn,
    )
    return spec.run(context)


def _find_check(name: str) -> CheckSpec:
    for spec in _all_checks():
        if spec.name == name:
            return spec
    known = ", ".join(sorted(spec.name for spec in _all_checks()))
    raise VerificationError(f"unknown check {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` session."""

    seed: int
    budget: int
    cases: int = 0
    checks_run: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    injected: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "cases": self.cases,
            "injected": self.injected,
            "clean": self.clean,
            "checks_run": dict(sorted(self.checks_run.items())),
            "failures": [
                {
                    "check": failure.check,
                    "num_items": failure.num_items,
                    "num_channels": failure.num_channels,
                    "case_seed": failure.case.case_seed,
                    "path": str(failure.path) if failure.path else None,
                    "violations": len(failure.violations),
                }
                for failure in self.failures
            ],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _select_checks(names: Optional[Sequence[str]]) -> List[CheckSpec]:
    specs = _all_checks()
    if not names:
        return specs
    by_name = {spec.name: spec for spec in specs}
    selected = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise VerificationError(f"unknown check {name!r} (known: {known})")
        selected.append(by_name[name])
    return selected


def run_fuzz(
    *,
    seed: int = 0,
    budget: int = 200,
    failures_dir: Union[str, Path] = DEFAULT_FAILURES_DIR,
    checks: Optional[Sequence[str]] = None,
    inject: Optional[str] = None,
    serialize: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``budget`` seeded cases through every (selected) checker.

    A checker that fails is shrunk and (with ``serialize=True``)
    written to ``failures_dir``, then retired for the rest of the
    session — one minimal repro per defect beats two hundred copies.
    Metrics counters bumped when enabled: ``verify.cases``,
    ``verify.checks`` (labelled by check), ``verify.violations`` and
    ``verify.failures``.
    """
    if budget < 1:
        raise VerificationError(f"budget must be >= 1, got {budget}")
    delta_fn = move_delta
    if inject is not None:
        try:
            delta_fn = INJECTABLE_BUGS[inject]
        except KeyError:
            known = ", ".join(sorted(INJECTABLE_BUGS))
            raise VerificationError(
                f"unknown injectable bug {inject!r} (known: {known})"
            )
    specs = _select_checks(checks)

    report = FuzzReport(seed=seed, budget=budget, injected=inject)
    rng = np.random.default_rng(seed)
    registry = obs.get_metrics()
    started = time.perf_counter()
    ran_once: set = set()
    failed_checks: set = set()

    with obs.span("verify.fuzz", seed=seed, budget=budget, injected=inject):
        for index in range(budget):
            case = _generate_case(rng, index)
            database = _materialize(case)
            context = CaseContext(
                database,
                case.num_channels,
                case.case_seed,
                delta_fn=delta_fn,
            )
            report.cases += 1
            if registry.enabled:
                registry.counter("verify.cases").inc()
            with obs.span(
                "verify.case",
                index=index,
                items=case.num_items,
                channels=case.num_channels,
                case_seed=case.case_seed,
            ):
                for spec in specs:
                    if spec.name in failed_checks:
                        continue
                    if spec.once and spec.name in ran_once:
                        continue
                    if not spec.eligible(case.num_items):
                        continue
                    ran_once.add(spec.name)
                    violations = spec.run(context)
                    report.checks_run[spec.name] = (
                        report.checks_run.get(spec.name, 0) + 1
                    )
                    if registry.enabled:
                        registry.counter(
                            "verify.checks", check=spec.name
                        ).inc()
                    if not violations:
                        continue
                    failed_checks.add(spec.name)
                    if registry.enabled:
                        registry.counter("verify.violations").inc(
                            len(violations)
                        )
                        registry.counter("verify.failures").inc()
                    failure = _shrink_and_record(
                        spec, case, context, violations, inject
                    )
                    if serialize:
                        serialize_failure(failure, failures_dir)
                    report.failures.append(failure)
                    if progress is not None:
                        progress(
                            f"[verify] {spec.name} FAILED on case "
                            f"{index} (seed {case.case_seed}); shrunk to "
                            f"{failure.num_items} item(s)"
                        )
            if progress is not None and (index + 1) % 50 == 0:
                progress(
                    f"[verify] {index + 1}/{budget} cases, "
                    f"{len(report.failures)} failure(s)"
                )
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _shrink_and_record(
    spec: CheckSpec,
    case: FuzzCase,
    context: CaseContext,
    violations: List[Violation],
    inject: Optional[str],
) -> FuzzFailure:
    """Shrink a failing case and package it as a :class:`FuzzFailure`."""

    def predicate(items: Sequence[DataItem], num_channels: int) -> bool:
        if num_channels > len(items):
            return False
        database = BroadcastDatabase(list(items), require_normalized=False)
        candidate = CaseContext(
            database,
            num_channels,
            case.case_seed,
            delta_fn=context.delta_fn,
        )
        return bool(spec.run(candidate))

    with obs.span(
        "verify.shrink", check=spec.name, items=case.num_items
    ):
        shrunk_items, shrunk_channels = shrink_case(
            list(context.database.items), context.num_channels, predicate
        )
    final_database = BroadcastDatabase(
        list(shrunk_items), require_normalized=False
    )
    final_context = CaseContext(
        final_database,
        shrunk_channels,
        case.case_seed,
        delta_fn=context.delta_fn,
    )
    try:
        final_violations = spec.run(final_context) or violations
    except ReproError:
        final_violations = violations
    return FuzzFailure(
        check=spec.name,
        case=case,
        items=list(shrunk_items),
        num_channels=shrunk_channels,
        violations=final_violations,
        injected=inject,
    )
