"""Synthetic workload generation for the simulation study (paper §4.1)."""

from repro.workloads.catalog import (
    ContentClass,
    MULTIMEDIA_CLASSES,
    build_catalogue,
    class_of,
    per_class_summary,
)
from repro.workloads.estimator import DecayedCounts, profile_l1_error
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.trace import (
    RequestTrace,
    TraceRecord,
    iter_trace_jsonl,
    load_trace_jsonl,
    save_trace_jsonl,
    synthesize_trace,
)
from repro.workloads.paper_profile import (
    PAPER_CDS_COST,
    PAPER_CDS_GROUPS,
    PAPER_DRP_COST,
    PAPER_DRP_GROUPS,
    PAPER_INITIAL_COST,
    PAPER_NUM_CHANNELS,
    PAPER_PROFILE,
    paper_database,
)
from repro.workloads.sizes import (
    DEFAULT_DIVERSITY,
    diverse_sizes,
    fixed_sizes,
    lognormal_sizes,
)
from repro.workloads.zipf import (
    DEFAULT_SKEWNESS,
    zipf_frequencies,
    zipf_skewness_of,
)

__all__ = [
    "WorkloadSpec",
    "generate_database",
    "RequestTrace",
    "TraceRecord",
    "synthesize_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "iter_trace_jsonl",
    "DecayedCounts",
    "profile_l1_error",
    "ContentClass",
    "MULTIMEDIA_CLASSES",
    "build_catalogue",
    "class_of",
    "per_class_summary",
    "zipf_frequencies",
    "zipf_skewness_of",
    "DEFAULT_SKEWNESS",
    "diverse_sizes",
    "fixed_sizes",
    "lognormal_sizes",
    "DEFAULT_DIVERSITY",
    "paper_database",
    "PAPER_PROFILE",
    "PAPER_NUM_CHANNELS",
    "PAPER_INITIAL_COST",
    "PAPER_DRP_COST",
    "PAPER_CDS_COST",
    "PAPER_DRP_GROUPS",
    "PAPER_CDS_GROUPS",
]
