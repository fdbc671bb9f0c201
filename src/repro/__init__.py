"""repro — diverse data broadcasting channel allocation.

A from-scratch reproduction of *"On Exploring Channel Allocation in the
Diverse Data Broadcasting Environment"* (Hung & Chen, ICDCS 2005):

* the analytical waiting-time / cost model of diverse data broadcasting,
* Algorithm **DRP** (Dimension Reduction Partitioning) and mechanism
  **CDS** (Cost-Diminishing Selection),
* the paper's comparators — **VF^K** and the genetic-algorithm **GOPT** —
  plus exact solvers and simple baselines,
* Zipf/diversity workload generation,
* a broadcast simulator that validates the analytical model, and
* an experiment harness regenerating every figure of the paper.

Quickstart
----------
>>> from repro import WorkloadSpec, generate_database, DRPCDSAllocator
>>> database = generate_database(WorkloadSpec(num_items=60, seed=7))
>>> outcome = DRPCDSAllocator().allocate(database, num_channels=5)
>>> outcome.allocation.num_channels
5
"""

from repro.core import (
    AllocationOutcome,
    Allocator,
    BroadcastDatabase,
    CDSOnlyAllocator,
    CDSResult,
    ChannelAllocation,
    DataItem,
    DEFAULT_BANDWIDTH,
    DRPAllocator,
    DRPCDSAllocator,
    DRPResult,
    allocation_cost,
    available_allocators,
    average_waiting_time,
    best_split,
    best_split_in,
    cds_refine,
    channel_waiting_time,
    contiguous_optimal,
    drp_allocate,
    group_cost,
    item_waiting_time,
    make_allocator,
    move_delta,
    register_allocator,
    waiting_time_from_cost,
)
from repro.io import (
    load_allocation,
    load_database,
    load_database_csv,
    save_allocation,
    save_database,
    save_database_csv,
)
from repro.exceptions import (
    InfeasibleProblemError,
    InvalidAllocationError,
    InvalidDatabaseError,
    InvalidItemError,
    ReproError,
    SimulationError,
    SolverLimitError,
)
from repro.workloads import (
    WorkloadSpec,
    generate_database,
    paper_database,
    zipf_frequencies,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "DataItem",
    "BroadcastDatabase",
    "ChannelAllocation",
    # cost model
    "DEFAULT_BANDWIDTH",
    "group_cost",
    "allocation_cost",
    "average_waiting_time",
    "channel_waiting_time",
    "item_waiting_time",
    "waiting_time_from_cost",
    "move_delta",
    # algorithms
    "drp_allocate",
    "DRPResult",
    "cds_refine",
    "CDSResult",
    "best_split",
    "best_split_in",
    "contiguous_optimal",
    "Allocator",
    "AllocationOutcome",
    "DRPAllocator",
    "DRPCDSAllocator",
    "CDSOnlyAllocator",
    "register_allocator",
    "make_allocator",
    "available_allocators",
    # workloads
    "WorkloadSpec",
    "generate_database",
    "paper_database",
    "zipf_frequencies",
    # persistence
    "save_database",
    "load_database",
    "save_allocation",
    "load_allocation",
    "save_database_csv",
    "load_database_csv",
    # exceptions
    "ReproError",
    "InvalidItemError",
    "InvalidDatabaseError",
    "InvalidAllocationError",
    "InfeasibleProblemError",
    "SolverLimitError",
    "SimulationError",
]
