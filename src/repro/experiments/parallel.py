"""Parallel experiment execution: deterministic fan-out over processes.

The sweep grid of an :class:`~repro.experiments.config.ExperimentConfig`
is embarrassingly parallel — every (sweep value, replication, algorithm)
cell is independent, and the workload of a cell is fully determined by
``config.seed_for(value_index, replication)``.  This module exploits
that: cells are described by tiny :class:`CellSpec` descriptors, fanned
out over a :class:`concurrent.futures.ProcessPoolExecutor`, executed by
workers that *re-derive* the workload from the config (so only the
config, the descriptors and small :class:`CellOutcome` result records
ever cross the pipe), and merged back **in grid order** — which makes
the aggregated rows bitwise-identical to a serial run for any worker
count.

Three design points worth knowing about:

* **Workload memo** — workers keep a small per-process cache of
  generated databases keyed by :class:`WorkloadSpec`, so the cells of
  one (sweep value, replication) pair that land on the same worker
  synthesise their shared database once instead of once per algorithm.
* **Error capture** — a cell whose allocator raises returns a
  :class:`CellOutcome` carrying the error message instead of poisoning
  the pool; the merge layer records it as a
  :class:`~repro.experiments.records.CellError` and aggregates the
  surviving replications.
* **Timeouts** — ``cell_timeout`` bounds how long the merge loop waits
  for any single cell result (measured from the moment the cell's
  result is awaited).  A timed-out cell degrades to a recorded error;
  the worker executing it is not interrupted, so treat the timeout as a
  liveness guard for the sweep, not a hard kill.

:func:`~repro.experiments.runner.run_experiment` is the intended entry
point; it routes through :func:`execute_cells` whenever ``workers`` (or
the ``REPRO_WORKERS`` environment variable) asks for the fan-out layer.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import repro.baselines  # noqa: F401  (registers baseline allocators)
from repro import obs
from repro.core.cost import average_waiting_time
from repro.core.database import BroadcastDatabase
from repro.core.scheduler import make_allocator
from repro.experiments.config import ExperimentConfig
from repro.workloads.generator import WorkloadSpec, generate_database

__all__ = [
    "CellSpec",
    "CellOutcome",
    "WorkloadMemo",
    "WORKERS_ENV_VAR",
    "auto_workers",
    "resolve_workers",
    "build_cell_grid",
    "run_cell",
    "iter_outcomes",
    "execute_cells",
    "map_ordered",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class CellSpec:
    """Descriptor of one (sweep value, replication, algorithm) cell.

    Deliberately tiny — this is all that crosses the pipe to a worker;
    the workload itself is re-derived from the config's seed scheme.
    """

    value_index: int
    replication: int
    algorithm: str


@dataclass(frozen=True)
class CellOutcome:
    """Result of one cell: measurements on success, a message on failure.

    Exactly one of the two shapes occurs: ``error is None`` with all
    three measurements set, or ``error`` set with the measurements None.

    The observability fields ride the same pipe: ``worker_pid`` and the
    wall-clock ``started_unix``/``finished_unix`` pair let the parent
    compute queue-wait vs compute time per cell, and — when tracing /
    metrics are enabled — ``spans`` / ``metrics`` carry the worker's
    finished span payloads and counter snapshot for deterministic
    grid-order merging (all ``None`` when observability is off, so the
    descriptor stays tiny).
    """

    value_index: int
    replication: int
    algorithm: str
    cost: Optional[float] = None
    waiting_time: Optional[float] = None
    elapsed_seconds: Optional[float] = None
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    spans: Optional[Tuple[Dict[str, Any], ...]] = None
    metrics: Optional[Dict[str, Any]] = None


class WorkloadMemo:
    """Small FIFO cache of generated databases, keyed by workload spec.

    One lives in every worker process (and one serves the inline
    ``workers=1`` path) so that the per-algorithm cells of one
    (sweep value, replication) pair generate their shared database once.
    The capacity only needs to cover the few specs a worker interleaves
    at a time; FIFO eviction keeps the memory footprint bounded for
    arbitrarily long sweeps.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._cache: Dict[WorkloadSpec, BroadcastDatabase] = {}
        self.hits = 0
        self.misses = 0

    def get(self, spec: WorkloadSpec) -> BroadcastDatabase:
        """The database for ``spec``, generated on first request."""
        database = self._cache.get(spec)
        if database is not None:
            self.hits += 1
            return database
        self.misses += 1
        database = generate_database(spec)
        if len(self._cache) >= self._max_entries:
            # FIFO eviction: drop the oldest insertion.
            self._cache.pop(next(iter(self._cache)))
        self._cache[spec] = database
        return database

    def __len__(self) -> int:
        return len(self._cache)


def auto_workers() -> int:
    """The worker count ``"auto"`` resolves to: one per *usable* CPU.

    Clamped to ``os.cpu_count()`` and, where the platform reports it,
    the process's CPU affinity mask — inside a container pinned to one
    core, ``os.cpu_count()`` reports the host's cores, and fanning a
    sweep out that wide just pays pickling overhead for a 0.9×
    "speedup".  Never below 1.
    """
    count = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # platform without affinity masks
        affinity = count
    return max(1, min(count, affinity))


def resolve_workers(
    workers: Union[int, str, None] = None,
) -> Optional[int]:
    """Normalise a worker request to ``None`` (serial) or a count >= 1.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable; when
    that is unset too, the answer is ``None`` — the caller should take
    the plain serial path.  ``"auto"`` (or any count < 1) means "one
    worker per usable CPU" — see :func:`auto_workers` for the clamp.
    An explicit integer is honoured as given (oversubscription stays
    possible when deliberately requested).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not raw:
            return None
        workers = raw
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return auto_workers()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"worker count must be an integer or 'auto', got {workers!r}"
            ) from None
    if workers < 1:
        return auto_workers()
    return int(workers)


def build_cell_grid(config: ExperimentConfig) -> List[CellSpec]:
    """Every cell of the sweep, in canonical (value, replication,
    algorithm) order — the order the serial runner visits them, and the
    order results are merged back in."""
    return [
        CellSpec(value_index=value_index, replication=replication, algorithm=algorithm)
        for value_index in range(len(config.sweep_values))
        for replication in range(config.replications)
        for algorithm in config.algorithms
    ]


def run_cell(
    config: ExperimentConfig,
    spec: CellSpec,
    memo: Optional[WorkloadMemo] = None,
) -> CellOutcome:
    """Execute one cell, capturing any failure as a recorded error.

    Emits an ``experiment.cell`` span (worker pid, sweep coordinates,
    outcome or error tag) on whatever tracer is active in the executing
    process — the parent's for serial runs, the worker's own for pooled
    runs, whose spans the parent later adopts.
    """
    started = time.time()
    with obs.span(
        "experiment.cell",
        value_index=spec.value_index,
        replication=spec.replication,
        algorithm=spec.algorithm,
        worker_pid=os.getpid(),
    ) as span:
        try:
            value = config.sweep_values[spec.value_index]
            point = config.point_parameters(value)
            workload = WorkloadSpec(
                num_items=point.num_items,
                skewness=point.skewness,
                diversity=point.diversity,
                seed=config.seed_for(spec.value_index, spec.replication),
            )
            database = (
                memo.get(workload) if memo is not None else generate_database(workload)
            )
            allocator = make_allocator(spec.algorithm)
            outcome = allocator.allocate(database, point.num_channels)
            span.update(cost=outcome.cost, compute_seconds=outcome.elapsed_seconds)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("experiment.cells").inc()
                registry.counter(
                    "experiment.cells_by_algorithm", algorithm=spec.algorithm
                ).inc()
                registry.histogram("experiment.cell_seconds").observe(
                    outcome.elapsed_seconds
                )
            return CellOutcome(
                value_index=spec.value_index,
                replication=spec.replication,
                algorithm=spec.algorithm,
                cost=outcome.cost,
                waiting_time=average_waiting_time(
                    outcome.allocation, bandwidth=config.bandwidth
                ),
                elapsed_seconds=outcome.elapsed_seconds,
                worker_pid=os.getpid(),
                started_unix=started,
                finished_unix=time.time(),
            )
        except Exception as exc:  # noqa: BLE001 — degrade to a recorded error
            message = f"{type(exc).__name__}: {exc}"
            span.set("error", message)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("experiment.cell_errors").inc()
            return CellOutcome(
                value_index=spec.value_index,
                replication=spec.replication,
                algorithm=spec.algorithm,
                error=message,
                worker_pid=os.getpid(),
                started_unix=started,
                finished_unix=time.time(),
            )


# ----------------------------------------------------------------------
# Worker-process side.  Globals are installed once per worker by the
# pool initializer; tasks then carry only a CellSpec.
# ----------------------------------------------------------------------
_WORKER_CONFIG: Optional[ExperimentConfig] = None
_WORKER_MEMO: Optional[WorkloadMemo] = None

#: How often a live worker ships its in-progress metrics snapshot.
LIVE_SHIP_INTERVAL = 0.25


def _live_shipper(channel: Any, interval: float) -> None:
    """Worker-side daemon: periodically ship the in-progress snapshot.

    The shipped snapshot is *cumulative since the worker's last cell
    drain* — a plain ``snapshot()``, never a drain — so the
    authoritative per-cell payloads are untouched and the parent can
    overlay it on the merged registry for the live view.  Any channel
    failure (the parent went away) silently ends shipping; live
    telemetry must never take a worker down.
    """
    pid = os.getpid()
    while True:
        time.sleep(interval)
        try:
            registry = obs.get_metrics()
            if registry.enabled:
                channel.put((pid, registry.snapshot()))
        except Exception:  # noqa: BLE001 — parent gone / manager shut down
            return


def _initialize_worker(
    config: ExperimentConfig,
    obs_options: Optional[Dict[str, bool]] = None,
    live_channel: Any = None,
    live_interval: float = LIVE_SHIP_INTERVAL,
) -> None:
    global _WORKER_CONFIG, _WORKER_MEMO
    import repro.baselines  # noqa: F401  (register allocators in the child)

    _WORKER_CONFIG = config
    _WORKER_MEMO = WorkloadMemo()
    # Install *fresh* observability instances matching the parent's
    # switches.  Crucial under fork: a child must not inherit (and later
    # re-ship) spans the parent already recorded.
    obs.configure(**(obs_options or {}))
    if live_channel is not None and obs.get_metrics().enabled:
        threading.Thread(
            target=_live_shipper,
            args=(live_channel, live_interval),
            name="repro-live-shipper",
            daemon=True,
        ).start()


def _run_cell_in_worker(spec: CellSpec) -> CellOutcome:
    if _WORKER_CONFIG is None:  # pragma: no cover — initializer always ran
        raise RuntimeError("worker used before initialization")
    outcome = run_cell(_WORKER_CONFIG, spec, _WORKER_MEMO)
    # Attach this cell's observability payload to the outcome so it can
    # ride the existing result pipe; draining keeps worker memory flat.
    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    if tracer.enabled or registry.enabled:
        outcome = replace(
            outcome,
            spans=tuple(tracer.drain_payload()) if tracer.enabled else None,
            metrics=registry.drain_snapshot() if registry.enabled else None,
        )
    return outcome


class _LiveCollector:
    """Parent-side drain of worker live snapshots into obs overlays.

    Active only when ``enabled``, a live consumer (``/metrics`` server
    or JSONL stream) is running *and* metrics are enabled; otherwise
    ``queue`` stays ``None`` and the pool runs exactly as before — zero
    extra processes, threads or pickling.  When active, a
    ``multiprocessing.Manager`` queue (picklable through the pool
    initializer, unlike a raw ``mp.Queue``) carries ``(pid, snapshot)``
    pairs from the worker shippers to a parent daemon thread that folds
    them into :func:`repro.obs.update_live_overlay`.  Overlays feed
    only the live view; the authoritative grid-order merge is
    untouched, so final metrics stay bitwise-identical to serial.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self.queue: Any = None
        self._manager: Any = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def __enter__(self) -> "_LiveCollector":
        if not (
            self._enabled
            and obs.live_telemetry_active()
            and obs.get_metrics().enabled
        ):
            return self
        import multiprocessing

        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-live-drain", daemon=True
        )
        self._thread.start()
        return self

    def _drain(self) -> None:
        while not self._stop.is_set():
            try:
                pid, snapshot = self.queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except Exception:  # noqa: BLE001 — manager torn down mid-get
                return
            obs.update_live_overlay(pid, snapshot)

    def __exit__(self, *exc_info: Any) -> bool:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=2.0)
        if self._manager is not None:
            self._manager.shutdown()
        # The grid-order merge already holds everything the workers
        # produced; lingering overlays would double-count it.
        obs.clear_live_overlays()
        return False


def _collect_outcome(
    spec: CellSpec,
    future: "Any",
    *,
    cell_timeout: Optional[float],
    tracer: "Any",
    registry: "Any",
    submitted_unix: float,
) -> CellOutcome:
    """Await one worker future, degrading failures to recorded errors
    and adopting the worker's observability payload (see
    :func:`execute_cells`)."""
    try:
        outcome = future.result(timeout=cell_timeout)
    except _FutureTimeout:
        future.cancel()
        outcome = CellOutcome(
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=(
                f"cell timed out after {cell_timeout}s "
                "(worker not interrupted)"
            ),
        )
        tracer.instant(
            "experiment.cell_timeout",
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            timeout_seconds=cell_timeout,
        )
        registry.counter("experiment.cell_timeouts").inc()
    except Exception as exc:  # noqa: BLE001 — e.g. BrokenProcessPool
        outcome = CellOutcome(
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=f"{type(exc).__name__}: {exc}",
        )
        tracer.instant(
            "experiment.cell_failure",
            value_index=spec.value_index,
            replication=spec.replication,
            algorithm=spec.algorithm,
            error=outcome.error,
        )
        registry.counter("experiment.cell_errors").inc()
    else:
        # Merge the worker's observability payload, in grid
        # order (this loop), so merged traces and metrics are
        # deterministic for any completion order.  Queue wait is
        # measured by the parent: time from fan-out submission
        # until the worker actually started the cell.
        queue_wait = (
            max(0.0, outcome.started_unix - submitted_unix)
            if outcome.started_unix is not None
            else None
        )
        if queue_wait is not None:
            registry.histogram("experiment.queue_wait_seconds").observe(
                queue_wait
            )
        if outcome.spans and tracer.enabled:
            root_attributes: Dict[str, Any] = {}
            if queue_wait is not None:
                root_attributes["queue_wait_seconds"] = queue_wait
            tracer.adopt(outcome.spans, root_attributes=root_attributes)
        if outcome.metrics and registry.enabled:
            registry.merge(outcome.metrics)
            if outcome.worker_pid is not None:
                # The authoritative drain superseded whatever live
                # overlay this worker last shipped; the next periodic
                # ship (covering its next cell) restores the overlay.
                obs.clear_live_overlay(outcome.worker_pid)
        if outcome.spans is not None or outcome.metrics is not None:
            outcome = replace(outcome, spans=None, metrics=None)
    return outcome


def iter_outcomes(
    config: ExperimentConfig,
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    live: bool = True,
) -> Iterator[CellOutcome]:
    """Run ``cells``, yielding each outcome in the given order.

    ``workers=1`` executes inline (same code path, no processes, no
    timeout enforcement); ``workers>1`` fans out over a process pool
    and yields each outcome as soon as it and every earlier cell are
    collected — the ordered merge that makes parallel runs reproduce
    serial results exactly, and that lets a shard record each cell the
    moment it lands.  ``live=False`` keeps the pool's workers from
    shipping live metrics snapshots (see :class:`_LiveCollector`).
    """
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        memo = WorkloadMemo()
        for spec in cells:
            yield run_cell(config, spec, memo)
        return
    tracer = obs.get_tracer()
    registry = obs.get_metrics()
    with _LiveCollector(enabled=live) as collector, ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        initializer=_initialize_worker,
        initargs=(config, obs.worker_options(), collector.queue),
    ) as pool:
        submitted_unix = time.time()
        futures = [pool.submit(_run_cell_in_worker, spec) for spec in cells]
        for spec, future in zip(cells, futures):
            yield _collect_outcome(
                spec,
                future,
                cell_timeout=cell_timeout,
                tracer=tracer,
                registry=registry,
                submitted_unix=submitted_unix,
            )


def execute_cells(
    config: ExperimentConfig,
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
) -> List[CellOutcome]:
    """Run ``cells`` and return their outcomes in the given order.

    The list form of :func:`iter_outcomes`: the returned list is always
    ordered like ``cells`` regardless of completion order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return list(
        iter_outcomes(config, cells, workers=workers, cell_timeout=cell_timeout)
    )


def map_ordered(
    function: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: Optional[int] = 1,
) -> List[_R]:
    """``[function(x) for x in items]``, optionally over a process pool.

    Results come back in input order, so a parallel map is a drop-in
    replacement for the serial comprehension wherever ``function`` is
    deterministic.  ``function`` must be picklable (module-level) and
    is responsible for its own error handling — an exception propagates,
    matching the serial semantics.  Used by the optimality-gap
    experiment; the figure sweeps use the richer :func:`execute_cells`.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [function(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        futures = [pool.submit(function, item) for item in items]
        return [future.result() for future in futures]
