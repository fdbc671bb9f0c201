"""The live broadcast service: ingest, estimate, re-allocate, hand over.

This is ROADMAP item 1 — the long-running server the paper's Figure 1
implies but never builds.  It composes three existing subsystems:

* **streaming estimation** — exact exponentially decayed counts
  (:class:`~repro.workloads.estimator.DecayedCounts`) absorb every
  request in O(1) time with one float per catalogue item; the
  allocator needs a dense length-N profile at every epoch, so O(N)
  state is the floor for any estimator feeding it;
* **epoch re-allocation** — at each epoch boundary the decayed profile
  is re-estimated over the catalogue and routed through the
  :class:`~repro.core.incremental.IncrementalAllocator` (warm-start +
  LRU cache + 1.02× regression guard, PR 4);
* **drain/handover** — a freshly built allocation is *staged*, not
  installed: the old :class:`~repro.simulation.server.BroadcastProgram`
  keeps serving until the next **major-cycle boundary** of the current
  program, so no request ever observes a torn schedule
  (:class:`LiveProgram`).

Time has two axes here.  *Stream time* (record timestamps) drives
everything semantically: epochs, count decay, handover boundaries.
The injectable :class:`~repro.service.clock.Clock` drives only pacing
and heartbeat throttling — with the test suite's fake clock the whole
loop runs wall-clock-free (ISSUE 10 satellite 1).

See ``docs/serving.md`` for the architecture walk-through, the epoch /
drain protocol, and the choice of half-life.
"""

from __future__ import annotations

import math
import socket
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, cost_under_profile
from repro.core.database import BroadcastDatabase
from repro.core.incremental import (
    DEFAULT_REGRESSION_GUARD,
    AllocationCache,
    IncrementalAllocator,
)
from repro.exceptions import SimulationError
from repro.service.clock import Clock, SystemClock
from repro.simulation.adaptive import RotatingDrift
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.server import BroadcastProgram
from repro.workloads.estimator import DecayedCounts, profile_l1_error
from repro.workloads.trace import (
    TraceRecord,
    iter_trace_jsonl,
    parse_trace_lines,
)

__all__ = [
    "HandoverRecord",
    "LiveProgram",
    "ServeEpochReport",
    "BroadcastService",
    "drifting_stream",
    "replay_source",
    "SocketSource",
]


# ----------------------------------------------------------------------
# Drain / handover
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HandoverRecord:
    """One completed allocation handover, for auditing drain correctness.

    ``switch_at - old_activated_at`` is always an integer multiple of
    ``old_major_cycle`` (the cycle-boundary invariant the torn-schedule
    test asserts), and ``promoted_at`` — the stream time of the first
    request served by the new program — is never before ``switch_at``.
    """

    requested_at: float
    switch_at: float
    old_activated_at: float
    old_major_cycle: float
    old_generation: int
    new_generation: int
    promoted_at: float


class LiveProgram:
    """The currently-broadcast program plus an optional staged successor.

    The drain/handover protocol in one place:

    1. :meth:`stage` accepts a new allocation at stream time
       ``requested_at`` and computes ``switch_at`` — the first
       major-cycle boundary of the *current* program at or after
       ``requested_at`` (major cycle = the longest per-channel cycle,
       so every channel is at a cycle start).
    2. :meth:`program_for` serves every request with
       ``t < switch_at`` from the old program — the drain.  The first
       request with ``t >= switch_at`` promotes the staged program
       (its ``activated_at`` is ``switch_at``, not the request time, so
       subsequent boundaries stay aligned) and is served by it.

    Re-staging before the switch replaces the pending program (latest
    allocation wins — the earlier one was never observable).
    """

    def __init__(
        self,
        allocation: ChannelAllocation,
        *,
        bandwidth: float = DEFAULT_BANDWIDTH,
        activated_at: float = 0.0,
    ) -> None:
        self._bandwidth = float(bandwidth)
        self._program = BroadcastProgram(allocation, bandwidth=self._bandwidth)
        self._activated_at = float(activated_at)
        self._generation = 0
        self._pending: Optional[Tuple[float, float, BroadcastProgram]] = None
        self._handovers: List[HandoverRecord] = []

    @property
    def program(self) -> BroadcastProgram:
        """The program currently on air (ignores any pending stage)."""
        return self._program

    @property
    def allocation(self) -> ChannelAllocation:
        return self._program.allocation

    @property
    def generation(self) -> int:
        """Number of completed handovers since construction."""
        return self._generation

    @property
    def activated_at(self) -> float:
        """Stream time the current program went on air."""
        return self._activated_at

    @property
    def major_cycle(self) -> float:
        """The longest per-channel cycle of the current program.

        Every ``major_cycle`` seconds after ``activated_at``, all
        channels are simultaneously at a cycle start — the only instants
        a handover is allowed to occur.
        """
        return max(channel.cycle_length for channel in self._program.channels)

    @property
    def pending_switch_at(self) -> Optional[float]:
        """Stream time of the staged handover (``None`` when idle)."""
        return None if self._pending is None else self._pending[1]

    @property
    def handovers(self) -> List[HandoverRecord]:
        """Completed handovers, oldest first (audit log)."""
        return list(self._handovers)

    def stage(
        self, allocation: ChannelAllocation, *, requested_at: float
    ) -> float:
        """Stage ``allocation`` for the next cycle boundary; returns it.

        The switch time is ``activated_at + k · major_cycle`` with the
        smallest integer ``k`` making it ``>= requested_at``; requests
        before that instant keep draining against the old program.
        """
        if not math.isfinite(requested_at):
            raise SimulationError(
                f"requested_at must be finite, got {requested_at!r}"
            )
        cycle = self.major_cycle
        elapsed = max(0.0, requested_at - self._activated_at)
        boundaries = math.ceil(elapsed / cycle)
        switch_at = self._activated_at + boundaries * cycle
        if switch_at < requested_at:  # float round-down guard
            switch_at += cycle
        self._pending = (
            float(requested_at),
            switch_at,
            BroadcastProgram(allocation, bandwidth=self._bandwidth),
        )
        return switch_at

    def program_for(self, timestamp: float) -> BroadcastProgram:
        """The program serving a request at stream time ``timestamp``.

        Promotes the staged program when ``timestamp`` has reached its
        switch time; otherwise the old program keeps serving (drain).
        """
        pending = self._pending
        if pending is not None and timestamp >= pending[1]:
            requested_at, switch_at, program = pending
            self._handovers.append(
                HandoverRecord(
                    requested_at=requested_at,
                    switch_at=switch_at,
                    old_activated_at=self._activated_at,
                    old_major_cycle=self.major_cycle,
                    old_generation=self._generation,
                    new_generation=self._generation + 1,
                    promoted_at=timestamp,
                )
            )
            self._program = program
            self._activated_at = switch_at
            self._generation += 1
            self._pending = None
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("serve.handovers").inc()
        return self._program


# ----------------------------------------------------------------------
# Epoch reports
# ----------------------------------------------------------------------
@dataclass
class ServeEpochReport:
    """Measurements of one served epoch.

    The allocation-provenance fields (``allocation_mode`` /
    ``warm_moves`` / ``cache_hit`` / ``reallocated``) describe how the
    program *serving* this epoch was obtained — the same semantics as
    :class:`~repro.simulation.adaptive.EpochReport`, so an offline
    adaptive oracle run on the same batches lines up report-for-report.
    """

    epoch: int
    start: float
    end: float
    requests: int
    measured: SummaryStatistics
    allocation_cost: float
    engine_cost: float
    profile_drift: float
    allocation_mode: str
    warm_moves: int
    cache_hit: bool
    reallocated: bool
    generation: int
    estimator_state: int
    switch_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready row (the ``--json`` CLI output)."""
        return {
            "epoch": self.epoch,
            "start": self.start,
            "end": self.end,
            "requests": self.requests,
            "wait_mean": self.measured.mean,
            "allocation_cost": self.allocation_cost,
            "engine_cost": self.engine_cost,
            "profile_drift": self.profile_drift,
            "allocation_mode": self.allocation_mode,
            "warm_moves": self.warm_moves,
            "cache_hit": self.cache_hit,
            "reallocated": self.reallocated,
            "generation": self.generation,
            "estimator_state": self.estimator_state,
            "switch_at": self.switch_at,
        }


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class BroadcastService:
    """A long-running broadcaster over a request stream.

    Parameters
    ----------
    sizes:
        The catalogue: every broadcastable item id with its size.
        Catalogue order is the canonical item order for believed
        databases (estimation is deterministic given the stream).
    num_channels:
        Channel count K for every allocation.
    bandwidth:
        Channel bandwidth ``b``.
    epoch_seconds:
        Epoch length in *stream time*; each boundary re-estimates and
        (when the profile drifted) re-allocates.
    half_life:
        Decay half-life of the request counts in stream time; default
        ``2 × epoch_seconds``.  ``math.inf`` counts plain occurrences.
    smoothing:
        Laplace pseudo-count per catalogue item when normalising the
        decayed profile — keeps never-requested items allocatable (see
        the zero-frequency notes in :mod:`repro.workloads.estimator`).
    initial_database:
        Bootstrap profile for the first allocation; default uniform
        over the catalogue (the honest prior before any data).
    clock:
        Pacing/heartbeat time source; default :class:`SystemClock`.
        Tests inject a fake clock — no real sleeps anywhere.
    pace:
        Replay in real time: sleep until each record's stream time
        (offset to the clock) before serving it.  Off by default —
        ingest as fast as the stream yields.
    regression_guard / cache:
        Forwarded to the :class:`IncrementalAllocator`.
    record_generations:
        Keep a ``(timestamp, generation)`` log of every served request
        (test instrumentation for the torn-schedule assertion; off by
        default — it is O(requests) memory).
    """

    def __init__(
        self,
        sizes: Mapping[str, float],
        num_channels: int,
        *,
        bandwidth: float = DEFAULT_BANDWIDTH,
        epoch_seconds: float = 60.0,
        half_life: Optional[float] = None,
        smoothing: float = 1.0,
        initial_database: Optional[BroadcastDatabase] = None,
        clock: Optional[Clock] = None,
        pace: bool = False,
        regression_guard: Optional[float] = DEFAULT_REGRESSION_GUARD,
        cache: Optional[AllocationCache] = None,
        record_generations: bool = False,
    ) -> None:
        if not sizes:
            raise SimulationError("the catalogue of sizes cannot be empty")
        if epoch_seconds <= 0 or not math.isfinite(epoch_seconds):
            raise SimulationError(
                f"epoch_seconds must be positive and finite, got {epoch_seconds}"
            )
        if smoothing < 0:
            raise SimulationError(f"smoothing must be >= 0, got {smoothing}")
        self._sizes: Dict[str, float] = dict(sizes)
        self._catalogue: List[str] = list(self._sizes)
        self._num_channels = int(num_channels)
        self._bandwidth = float(bandwidth)
        self.epoch_seconds = float(epoch_seconds)
        self._smoothing = float(smoothing)
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._pace = bool(pace)
        if half_life is None:
            half_life = 2.0 * self.epoch_seconds
        self._estimator = DecayedCounts(self._catalogue, half_life=half_life)
        self._engine = IncrementalAllocator(
            self._num_channels,
            regression_guard=regression_guard,
            cache=cache if cache is not None else AllocationCache(),
        )
        self._size_array = np.array(
            [self._sizes[item_id] for item_id in self._catalogue],
            dtype=np.float64,
        )
        if initial_database is None:
            initial_database = BroadcastDatabase.from_soa(
                np.full(len(self._catalogue), 1.0 / len(self._catalogue)),
                self._size_array,
                ids=self._catalogue,
            )
        self._believed = initial_database
        result = self._engine.reallocate(self._believed)
        self.live = LiveProgram(result.allocation, bandwidth=self._bandwidth)
        self._allocation_cost = result.cost
        # Provenance of the program serving the *next* epoch.
        self._mode = "cold"
        self._warm_moves = result.warm_moves
        self._cache_hit = False
        self._reallocated = True
        self._pending_switch: Optional[float] = None
        self.reports: List[ServeEpochReport] = []
        self.generation_log: Optional[List[Tuple[float, int]]] = (
            [] if record_generations else None
        )
        self._total_requests = 0
        self._last_drift = 0.0

    @property
    def catalogue(self) -> List[str]:
        return list(self._catalogue)

    @property
    def estimator(self) -> DecayedCounts:
        """The decayed request counts the epoch profiles come from."""
        return self._estimator

    # Read-only alias under the old name: perfbench/pipeline.py passes
    # ``service.sketch`` to ``layers.wrap_estimator``, which times
    # ``add`` and ``estimate_profile`` on its class.
    sketch = estimator

    @property
    def believed(self) -> BroadcastDatabase:
        """The profile the current allocation was built from."""
        return self._believed

    @property
    def engine(self) -> IncrementalAllocator:
        return self._engine

    @property
    def total_requests(self) -> int:
        return self._total_requests

    # -- the ingestion loop ---------------------------------------------
    def run(
        self,
        source: Iterable[TraceRecord],
        *,
        max_epochs: Optional[int] = None,
    ) -> List[ServeEpochReport]:
        """Consume ``source`` until exhaustion or ``max_epochs`` epochs.

        Returns the epoch reports accumulated *by this call* (the
        service object also keeps the full history in ``reports``).
        The source must yield time-ordered :class:`TraceRecord`s;
        epochs are windows of ``epoch_seconds`` stream time anchored at
        the first record.
        """
        if max_epochs is not None and max_epochs < 1:
            raise SimulationError(
                f"max_epochs must be >= 1, got {max_epochs}"
            )
        clock = self._clock
        heartbeat = obs.heartbeat(
            "serve", rates=("requests",), now=clock.now
        )
        first_report = len(self.reports)
        epoch_start: Optional[float] = None
        epoch_end = 0.0
        waits: List[float] = []
        stream_origin = 0.0
        wall_origin = clock.now()
        last_timestamp: Optional[float] = None
        with obs.span(
            "serve.run",
            channels=self._num_channels,
            items=len(self._catalogue),
            epoch_seconds=self.epoch_seconds,
        ):
            for record in source:
                if (
                    last_timestamp is not None
                    and record.timestamp < last_timestamp
                ):
                    raise SimulationError(
                        f"out-of-order request at t={record.timestamp} "
                        f"(last was t={last_timestamp})"
                    )
                last_timestamp = record.timestamp
                if epoch_start is None:
                    epoch_start = record.timestamp
                    epoch_end = epoch_start + self.epoch_seconds
                    stream_origin = record.timestamp
                    wall_origin = clock.now()
                while record.timestamp >= epoch_end:
                    self._close_epoch(epoch_start, epoch_end, waits)
                    waits = []
                    epoch_start = epoch_end
                    epoch_end = epoch_start + self.epoch_seconds
                    if (
                        max_epochs is not None
                        and len(self.reports) - first_report >= max_epochs
                    ):
                        if heartbeat is not None:
                            heartbeat.flush(
                                requests=self._total_requests,
                                epoch=len(self.reports),
                                generation=self.live.generation,
                            )
                        return self.reports[first_report:]
                if self._pace:
                    lag = (record.timestamp - stream_origin) - (
                        clock.now() - wall_origin
                    )
                    if lag > 0:
                        clock.sleep(lag)
                program = self.live.program_for(record.timestamp)
                waits.append(
                    program.waiting_time(record.item_id, record.timestamp)
                )
                if self.generation_log is not None:
                    self.generation_log.append(
                        (record.timestamp, self.live.generation)
                    )
                self._estimator.add(record.item_id, timestamp=record.timestamp)
                self._total_requests += 1
                registry = obs.get_metrics()
                if registry.enabled:
                    registry.counter("serve.requests").inc()
                if heartbeat is not None:
                    heartbeat.beat(
                        requests=self._total_requests,
                        epoch=len(self.reports),
                        generation=self.live.generation,
                    )
            if waits and epoch_start is not None:
                # Stream exhausted mid-epoch: close the partial epoch.
                self._close_epoch(
                    epoch_start, epoch_end, waits, final=True
                )
        if heartbeat is not None:
            heartbeat.flush(
                requests=self._total_requests,
                epoch=len(self.reports),
                generation=self.live.generation,
            )
        return self.reports[first_report:]

    # -- epoch boundary --------------------------------------------------
    def profile(self, *, timestamp: Optional[float] = None) -> Dict[str, float]:
        """The current smoothed, decayed profile over the catalogue."""
        return self._estimator.estimate_profile(
            self._catalogue, smoothing=self._smoothing, timestamp=timestamp
        )

    def _close_epoch(
        self,
        start: float,
        end: float,
        waits: List[float],
        *,
        final: bool = False,
    ) -> None:
        epoch = len(self.reports)
        with obs.span("serve.epoch", epoch=epoch, requests=len(waits)):
            believed = self._believed
            cost = cost_under_profile(
                self.live.allocation, believed.item_ids, believed.frequencies
            )
            report = ServeEpochReport(
                epoch=epoch,
                start=start,
                end=end,
                requests=len(waits),
                measured=summarize(waits) if waits else summarize([0.0]),
                allocation_cost=cost,
                engine_cost=self._allocation_cost,
                profile_drift=self._last_drift,
                allocation_mode=self._mode if waits else "idle",
                warm_moves=self._warm_moves,
                cache_hit=self._cache_hit,
                reallocated=self._reallocated,
                generation=self.live.generation,
                estimator_state=self._estimator.state_size,
                switch_at=self._pending_switch,
            )
            self.reports.append(report)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("serve.epochs").inc()
                registry.counter("serve.mode", mode=report.allocation_mode).inc()
                if report.reallocated:
                    registry.counter("serve.reallocations").inc()
                if report.cache_hit:
                    registry.counter("serve.cache_hits").inc()
                registry.gauge("serve.epoch").set(epoch)
                registry.gauge("serve.allocation_cost").set(cost)
                registry.gauge("serve.profile_drift").set(self._last_drift)
                registry.gauge("serve.measured_wait_mean").set(
                    report.measured.mean
                )
                registry.gauge("serve.generation").set(self.live.generation)
                registry.gauge("serve.estimator_state").set(
                    self._estimator.state_size
                )
            self._reallocated = False
            self._cache_hit = False
            self._warm_moves = 0
            self._pending_switch = None
            if final or not waits:
                # No further requests (or an idle gap): nothing to
                # rebuild for — the provenance fields stay cleared.
                self._last_drift = 0.0
                return
            estimated_profile = self.profile(timestamp=end)
            drift = profile_l1_error(
                dict(zip(believed.item_ids, believed.frequencies.tolist())),
                estimated_profile,
            )
            self._last_drift = drift
            if drift == 0.0:
                # Zero drift: the deterministic engine would reproduce
                # the current program — reuse it (adaptive.py semantics).
                self._mode = "reused"
                self._cache_hit = True
                if registry.enabled:
                    registry.counter("incremental.cache_hits").inc()
                self._engine.stats.cache_hits += 1
                return
            self._believed = BroadcastDatabase.from_soa(
                [estimated_profile[item_id] for item_id in self._catalogue],
                self._size_array,
                ids=self._catalogue,
            )
            result = self._engine.reallocate(self._believed)
            self._mode = result.mode
            self._warm_moves = result.warm_moves
            self._cache_hit = result.mode == "cache"
            self._reallocated = True
            self._allocation_cost = result.cost
            self._pending_switch = self.live.stage(
                result.allocation, requested_at=end
            )


# ----------------------------------------------------------------------
# Request sources
# ----------------------------------------------------------------------
def replay_source(path: Any) -> Iterator[TraceRecord]:
    """Stream a JSONL trace from disk (``repro serve --replay``)."""
    return iter_trace_jsonl(path)


def drifting_stream(
    database: BroadcastDatabase,
    *,
    epochs: int,
    requests_per_epoch: int,
    epoch_seconds: float = 60.0,
    drift: Optional[RotatingDrift] = None,
    seed: int = 0,
) -> Iterator[TraceRecord]:
    """A deterministic drifting request stream, epoch-aligned by design.

    Epoch ``e`` occupies stream time ``[e·S, (e+1)·S)`` and contains
    exactly ``requests_per_epoch`` requests at evenly spaced instants,
    with item picks drawn from the epoch's drifted distribution (same
    :class:`RotatingDrift` model and per-epoch seeds as
    :func:`~repro.simulation.adaptive.run_adaptive_simulation`).  The
    even spacing keeps each request inside its intended epoch — which
    is what lets the end-to-end test line the service up against an
    offline oracle batch-for-batch.
    """
    if epochs < 1:
        raise SimulationError(f"epochs must be >= 1, got {epochs}")
    if requests_per_epoch < 1:
        raise SimulationError(
            f"requests_per_epoch must be >= 1, got {requests_per_epoch}"
        )
    if drift is None:
        drift = RotatingDrift(
            [item.frequency for item in database.items], shift_per_epoch=1
        )
    ids = list(database.item_ids)
    step = epoch_seconds / (requests_per_epoch + 1)
    for epoch in range(epochs):
        truth = drift.probabilities(epoch)
        weights = np.asarray(truth, dtype=np.float64)
        weights = weights / weights.sum()
        rng = np.random.default_rng(seed + epoch)
        picks = rng.choice(len(ids), size=requests_per_epoch, p=weights)
        base = epoch * epoch_seconds
        for k, pick in enumerate(picks):
            yield TraceRecord(
                timestamp=base + (k + 1) * step, item_id=ids[int(pick)]
            )


class SocketSource:
    """A single-connection TCP request source (newline-delimited JSON).

    Binds on construction (``port=0`` picks an ephemeral port, exposed
    via :attr:`port`); iterating accepts one client and yields a
    :class:`TraceRecord` per ``{"t": ..., "id": ...}`` line until the
    peer closes.  Out-of-order timestamps are rejected, same as the
    JSONL replay reader.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        self._listener = socket.create_server((host, port))
        if timeout is not None:
            self._listener.settimeout(timeout)
        self._closed = False

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._listener.close()

    def __enter__(self) -> "SocketSource":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[TraceRecord]:
        conn, _ = self._listener.accept()
        try:
            with conn, conn.makefile("r", encoding="utf-8") as stream:
                yield from parse_trace_lines(stream, "socket")
        finally:
            self.close()
