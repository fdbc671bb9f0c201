"""Differential verification: invariants, oracles, metamorphic fuzzing.

The public surface re-exports the three checker families plus the fuzz
driver; ``repro verify`` (see :mod:`repro.cli`) and the pytest suite are
thin consumers of exactly these names.  See ``docs/verification.md``
for the checker catalogue and tolerance policy.
"""

from repro.verify.fuzz import (
    DEFAULT_FAILURES_DIR,
    FAILURE_SCHEMA,
    INJECTABLE_BUGS,
    CaseContext,
    CheckSpec,
    FuzzFailure,
    FuzzReport,
    available_checks,
    load_failure,
    replay_failure,
    run_fuzz,
    serialize_failure,
    shrink_case,
)
from repro.verify.invariants import (
    ABS_TOL,
    REL_TOL,
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
    oracle_simulators,
    oracle_warm_cold,
)

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "Violation",
    "check_allocation_wellformed",
    "check_cost_identities",
    "check_lower_bounds",
    "check_move_delta",
    "check_prefix_sums",
    "relation_frequency_renormalization",
    "relation_merge_split",
    "relation_monotone_channels",
    "relation_permutation",
    "relation_size_scaling",
    "oracle_cds_backends",
    "oracle_cds_scan_modes",
    "oracle_database_construction",
    "oracle_dp_methods",
    "oracle_drp_backends",
    "oracle_exact_sum",
    "oracle_serial_parallel",
    "oracle_simulators",
    "oracle_warm_cold",
    "DEFAULT_FAILURES_DIR",
    "FAILURE_SCHEMA",
    "INJECTABLE_BUGS",
    "CaseContext",
    "CheckSpec",
    "FuzzFailure",
    "FuzzReport",
    "available_checks",
    "load_failure",
    "replay_failure",
    "run_fuzz",
    "serialize_failure",
    "shrink_case",
]
