"""The live broadcast service: ingest, estimate, re-allocate, hand over.

This is ROADMAP item 1 — the long-running server the paper's Figure 1
implies but never builds.  It composes three existing subsystems:

* **streaming estimation** — exact exponentially decayed counts
  (:class:`~repro.workloads.estimator.DecayedCounts`) absorb the
  requests a chunk at a time into one float per catalogue item; the
  allocator needs a dense length-N profile at every epoch, so O(N)
  state is the floor for any estimator feeding it;
* **epoch re-allocation** — at each epoch boundary the decayed profile
  is re-estimated over the catalogue and routed through the
  :class:`~repro.core.incremental.IncrementalAllocator` (warm start +
  1.02× regression guard);
* **drain/handover** — a freshly built allocation is *staged*, not
  installed: the old :class:`~repro.simulation.server.BroadcastProgram`
  keeps serving until the next **major-cycle boundary** of the current
  program, so no request ever observes a torn schedule
  (:class:`LiveProgram`).

This is the repo's one epoch loop:
:func:`~repro.simulation.adaptive.run_adaptive_simulation` runs it over
a synthetic drifting stream and scores each epoch against the true
popularity.

Ingest is chunked: :meth:`BroadcastService.run` buffers up to
``CHUNK_RECORDS`` requests and serves them together — one id-to-row
mapping, one vectorised wait computation
(:meth:`~repro.simulation.server.BroadcastProgram.waiting_times`) and
one :meth:`~repro.workloads.estimator.DecayedCounts.add` per chunk —
with results identical to serving them one at a time.

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
from itertools import repeat
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
from repro.core.incremental import IncrementalAllocator
from repro.core.kernels import exact_sum
from repro.exceptions import SimulationError
from repro.service.clock import Clock, SystemClock
from repro.simulation.adaptive import RotatingDrift
from repro.simulation.metrics import (
    SummaryStatistics,
    summarize,
    summarize_blocks,
)
from repro.simulation.server import BroadcastProgram
from repro.workloads.estimator import DecayedCounts
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

#: Records :meth:`BroadcastService.run` buffers before serving them as
#: one chunk.  Big enough to amortise the per-chunk numpy calls, small
#: enough that a chunk's arrays stay a few pages.
CHUNK_RECORDS = 1024


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
        return float(self._program.cycle_lengths.max())

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
    ``warm_moves`` / ``reallocated``) describe how the
    program *serving* this epoch was obtained, so an offline adaptive
    oracle run on the same batches lines up report-for-report.
    ``allocation`` is the allocation on air at the epoch's close — the
    one ``allocation_cost`` prices — held as is: a program is arrays
    over its index groups and builds no item views on it, so the report
    history keeps no item objects.  Its ``database`` is the profile it
    was built from.
    :func:`~repro.simulation.adaptive.run_adaptive_simulation` re-prices
    it under the true popularity.  It is left out of :meth:`to_dict` and
    of equality.
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
    reallocated: bool
    generation: int
    estimator_state: int
    allocation: ChannelAllocation = field(compare=False, repr=False)
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
        self._engine = IncrementalAllocator(self._num_channels)
        ids: Tuple[str, ...] = tuple(self._catalogue)
        if initial_database is not None:
            if set(initial_database.item_ids) != set(ids):
                raise SimulationError(
                    "initial_database must hold exactly the catalogue's items"
                )
            if initial_database.item_ids == ids:
                # Share its id tuple, so the first warm start already
                # seeds by index groups.
                ids = initial_database.item_ids
        # The uniform prior in catalogue order; every believed database
        # is a clone of it, sharing one copy of the ids, sizes and id
        # index.
        self._catalogue_db = BroadcastDatabase.from_soa(
            np.full(len(ids), 1.0 / len(ids)),
            [self._sizes[item_id] for item_id in ids],
            ids=ids,
        )
        if initial_database is None:
            initial_database = self._catalogue_db
        self._believed = initial_database
        # The believed profile in catalogue order: the drift baseline.
        self._believed_profile = (
            initial_database.frequencies
            if initial_database.shares_ids_with(self._catalogue_db)
            else initial_database.frequencies[
                [initial_database.index_of(i) for i in ids]
            ]
        )
        # The program _program_rows last mapped catalogue rows for, and
        # the map (None: its database is in catalogue order).
        self._rows_program: Optional[BroadcastProgram] = None
        self._rows_map: Optional[np.ndarray] = None
        result = self._engine.reallocate(self._believed)
        self.live = LiveProgram(result.allocation, bandwidth=self._bandwidth)
        self._allocation_cost = result.cost
        # Provenance of the program serving the *next* epoch.
        self._mode = "cold"
        self._warm_moves = result.warm_moves
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

        Records are buffered and served a chunk at a time
        (:meth:`_serve`); every result is the one serving them one by
        one would give.  A chunk is flushed when it holds
        ``CHUNK_RECORDS`` records, before each epoch close, at the end
        of the stream and before raising on a bad record — so
        everything before the bad record is served.  A paced run, and a
        run over a :class:`SocketSource`, serves each record as soon as
        it comes: a chunk of one, so a live peer's requests are counted
        as they arrive.
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
        epoch_end = -math.inf  # the first record opens the first epoch
        times: List[float] = []
        ids: List[str] = []
        push_time, push_id = times.append, ids.append
        waits: List[np.ndarray] = []
        stream_origin = 0.0
        wall_origin = clock.now()
        last_timestamp = -math.inf
        pace = self._pace
        one_at_a_time = pace or isinstance(source, SocketSource)
        with obs.span(
            "serve.run",
            channels=self._num_channels,
            items=len(self._catalogue),
            epoch_seconds=self.epoch_seconds,
        ):
            for record in source:
                timestamp = record.timestamp
                if not last_timestamp <= timestamp < epoch_end:
                    self._serve(times, ids, waits, heartbeat)
                    if timestamp < last_timestamp:
                        raise SimulationError(
                            f"out-of-order request at t={timestamp} "
                            f"(last was t={last_timestamp})"
                        )
                    if epoch_start is None:
                        epoch_start = timestamp
                        epoch_end = epoch_start + self.epoch_seconds
                        stream_origin = timestamp
                        wall_origin = clock.now()
                    while timestamp >= epoch_end:
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
                last_timestamp = timestamp
                if pace:
                    lag = (timestamp - stream_origin) - (
                        clock.now() - wall_origin
                    )
                    if lag > 0:
                        clock.sleep(lag)
                push_time(timestamp)
                push_id(record.item_id)
                if one_at_a_time or len(times) == CHUNK_RECORDS:
                    self._serve(times, ids, waits, heartbeat)
            self._serve(times, ids, waits, heartbeat)
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

    def _serve(
        self,
        times: List[float],
        ids: List[str],
        waits: List[np.ndarray],
        heartbeat: Optional[obs.Heartbeat],
    ) -> None:
        """Serve one buffered chunk of time-ordered requests, then empty it.

        Maps the ids to catalogue rows once, appends the chunk's waits
        to ``waits`` as arrays, logs generations and absorbs the chunk into
        the decayed counts.  The chunk lies inside one epoch, so at most
        one staged handover falls in it: requests before the pending
        ``switch_at`` drain on the old program, and the first one at or
        after it promotes the new program through
        :meth:`LiveProgram.program_for`, as it would one by one.  An
        unknown id serves the requests before it, then raises.
        """
        if not times:
            return
        try:
            rows = self._estimator.rows(ids)
        except SimulationError:
            sizes = self._sizes
            bad = next(k for k, item_id in enumerate(ids) if item_id not in sizes)
            unknown = ids[bad]
            del times[bad:], ids[bad:]
            self._serve(times, ids, waits, heartbeat)
            raise SimulationError(
                f"no channel carries item {unknown!r}"
            ) from None
        tune_ins = np.array(times, dtype=np.float64)
        live = self.live
        switch_at = live.pending_switch_at
        size = len(times)
        split = size if switch_at is None else int(
            np.searchsorted(tune_ins, switch_at)
        )
        for lo, hi in ((0, split), (split, size)):
            if lo == hi:
                continue
            program = live.program_for(times[lo])
            waits.append(
                program.waiting_times(
                    self._program_rows(program, rows[lo:hi]), tune_ins[lo:hi]
                )
            )
            if self.generation_log is not None:
                self.generation_log.extend(
                    zip(times[lo:hi], repeat(live.generation))
                )
        times.clear()
        ids.clear()
        self._estimator.add(rows, tune_ins)
        self._total_requests += size
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("serve.requests").inc(size)
        if heartbeat is not None:
            heartbeat.beat(
                requests=self._total_requests,
                epoch=len(self.reports),
                generation=self.live.generation,
            )

    def _program_rows(
        self, program: BroadcastProgram, rows: np.ndarray
    ) -> np.ndarray:
        """Catalogue rows as positions in ``program``'s database."""
        if program is not self._rows_program:
            database = program.allocation.database
            self._rows_program = program
            self._rows_map = (
                None
                if list(database.item_ids) == self._catalogue
                else np.array(
                    [database.index_of(item_id) for item_id in self._catalogue],
                    dtype=np.intp,
                )
            )
        return rows if self._rows_map is None else self._rows_map[rows]

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
        waits: List[np.ndarray],
        *,
        final: bool = False,
    ) -> None:
        epoch = len(self.reports)
        requests = sum(map(len, waits))
        with obs.span("serve.epoch", epoch=epoch, requests=requests):
            with obs.span("serve.summary", epoch=epoch, requests=requests):
                measured = (
                    summarize_blocks(waits) if waits else summarize([0.0])
                )
            believed = self._believed
            on_air = self.live.allocation
            cost = cost_under_profile(
                on_air, believed.item_ids, believed.frequencies
            )
            report = ServeEpochReport(
                epoch=epoch,
                start=start,
                end=end,
                requests=requests,
                measured=measured,
                allocation_cost=cost,
                engine_cost=self._allocation_cost,
                profile_drift=self._last_drift,
                allocation_mode=self._mode if waits else "idle",
                warm_moves=self._warm_moves,
                reallocated=self._reallocated,
                generation=self.live.generation,
                estimator_state=self._estimator.state_size,
                allocation=on_air,
                switch_at=self._pending_switch,
            )
            self.reports.append(report)
            registry = obs.get_metrics()
            if registry.enabled:
                registry.counter("serve.epochs").inc()
                registry.counter("serve.mode", mode=report.allocation_mode).inc()
                if report.reallocated:
                    registry.counter("serve.reallocations").inc()
                registry.gauge("serve.epoch").set(epoch)
                registry.gauge("serve.allocation_cost").set(cost)
                registry.gauge("serve.profile_drift").set(self._last_drift)
                if report.requests:
                    # An idle epoch's mean is a 0.0 placeholder, not a
                    # measured wait: keep the last busy epoch's value.
                    registry.gauge("serve.measured_wait_mean").set(
                        report.measured.mean
                    )
                registry.gauge("serve.generation").set(self.live.generation)
                registry.gauge("serve.estimator_state").set(
                    self._estimator.state_size
                )
            self._reallocated = False
            self._warm_moves = 0
            self._pending_switch = None
            if final or not waits:
                # No further requests (or an idle gap): nothing to
                # rebuild for — the provenance fields stay cleared.
                self._last_drift = 0.0
                return
            estimated = self._estimator.profile(
                smoothing=self._smoothing, timestamp=end
            )
            drift = exact_sum([np.abs(estimated - self._believed_profile)])
            self._last_drift = drift
            if drift == 0.0:
                # Zero drift: the deterministic engine would reproduce
                # the current program — reuse it.
                self._mode = "reused"
                return
            unobserved = np.flatnonzero(estimated <= 0.0)
            if len(unobserved):
                # Fail here, with the fix, rather than in the database
                # constructor's generic check on item features.
                raise SimulationError(
                    f"{len(unobserved)} catalogue item(s) were never "
                    f"requested and estimate to frequency 0 (first: "
                    f"{[self._catalogue[row] for row in unobserved[:3]]}); "
                    "the analytical model needs every item's frequency "
                    "positive — use smoothing > 0"
                )
            self._believed = self._catalogue_db.with_frequencies(estimated)
            self._believed_profile = self._believed.frequencies
            result = self._engine.reallocate(self._believed)
            self._mode = result.mode
            self._warm_moves = result.warm_moves
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
    with item picks drawn from the epoch's drifted distribution
    (:class:`RotatingDrift`, seeded ``seed + e``).  The even spacing
    keeps each request inside its intended epoch — which is what lets
    the end-to-end test line the service up against an offline oracle
    batch-for-batch.
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
