"""The event-driven broadcast simulation: the reference run of the
closed-form :func:`~repro.simulation.simulator.run_broadcast_simulation`.

Four pieces, all scalar and one request at a time:

* :class:`SimulationEngine` — a deterministic event heap.  Events pop in
  (time, priority, sequence) order, so the clock never moves backwards
  and a fixed schedule always runs in the same order; callbacks may
  schedule further events at or after the current time.
* :class:`BroadcastChannel` — one cyclic channel of :class:`DataItem`
  slots.  A client tuning in at ``t`` waits for the *start* of the next
  full transmission of its item and downloads it, so a uniform tune-in
  waits ``cycle/2 + z/b`` on average (Eq. 1).
* :class:`WaitingTimeCollector` — the per-request and per-item waits.
* :func:`simulate_reference` — two heap events per request (an ARRIVAL
  that asks the carrying channel for its completion, a DELIVERY that
  records the wait) over the stream of :func:`generate_requests`.

The ``oracle.simulators`` check holds the production run and its
array-based :class:`~repro.simulation.server.BroadcastProgram` to this
module bit for bit.  No production module imports it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.allocation import ChannelAllocation
from repro.core.cost import DEFAULT_BANDWIDTH, average_waiting_time
from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.simulation.metrics import SummaryStatistics, summarize
from repro.simulation.simulator import SimulationReport

__all__ = [
    "BroadcastChannel",
    "Event",
    "EventPriority",
    "Request",
    "SimulationEngine",
    "WaitingTimeCollector",
    "generate_requests",
    "simulate_reference",
]


# ----------------------------------------------------------------------
# Event kernel
# ----------------------------------------------------------------------
class EventPriority(IntEnum):
    """Coarse same-instant ordering classes.

    Smaller values fire first.  ``DELIVERY`` precedes ``ARRIVAL`` so a
    client whose download finishes exactly when another request arrives
    observes a consistent "completed" state.
    """

    DELIVERY = 0
    ARRIVAL = 1
    CONTROL = 2


@dataclass(order=True)
class Event:
    """A scheduled zero-argument callback, ordered by (time, priority,
    sequence); the engine assigns the sequence, so equal events fire
    first in, first out."""

    time: float
    priority: int
    sequence: int
    callback: Callable[[], Any] = field(compare=False)


class SimulationEngine:
    """Event-driven simulation clock and scheduler.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> engine.schedule_at(2.0, lambda: fired.append(engine.now))
    >>> engine.schedule_at(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    2
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.CONTROL,
    ) -> None:
        """Schedule ``callback`` at absolute simulated ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies in the past or is not finite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        heapq.heappush(
            self._heap,
            Event(float(time), int(priority), next(self._sequence), callback),
        )

    def run(self) -> int:
        """Execute events until none is left; returns how many ran."""
        start = self._processed
        while self._heap:
            event = heapq.heappop(self._heap)
            self._now = event.time
            self._processed += 1
            event.callback()
        return self._processed - start


# ----------------------------------------------------------------------
# Channel and measurements
# ----------------------------------------------------------------------
class BroadcastChannel:
    """Deterministic cyclic transmission schedule for one channel.

    The channel started cycle 0 at time 0 and repeats forever; item
    ``j`` occupies the slot ``[offset_j, offset_j + z_j / b)`` of every
    cycle, and a cycle lasts ``Z_i / b`` seconds.

    Parameters
    ----------
    channel_id:
        Index of the channel within the program (0-based).
    items:
        Transmission order within a cycle.  Any order is valid; the
        expected waiting time is order-independent under uniform
        tune-in, but concrete per-request waits do depend on it.
    bandwidth:
        Channel bandwidth ``b`` in size units per second.
    """

    __slots__ = ("channel_id", "_items", "_bandwidth", "_offsets", "_cycle")

    def __init__(
        self,
        channel_id: int,
        items: Sequence[DataItem],
        bandwidth: float,
    ) -> None:
        if not items:
            raise SimulationError(
                f"channel {channel_id} has no items to broadcast"
            )
        if not (
            isinstance(bandwidth, (int, float))
            and bandwidth > 0
            and math.isfinite(bandwidth)
        ):
            raise SimulationError(
                f"bandwidth must be positive and finite, got {bandwidth!r}"
            )
        self.channel_id = channel_id
        self._items: Tuple[DataItem, ...] = tuple(items)
        self._bandwidth = float(bandwidth)
        offsets: Dict[str, float] = {}
        elapsed = 0.0
        for item in self._items:
            if item.item_id in offsets:
                raise SimulationError(
                    f"item {item.item_id!r} appears twice on channel "
                    f"{channel_id}"
                )
            offsets[item.item_id] = elapsed
            elapsed += item.size / self._bandwidth
        self._offsets = offsets
        self._cycle = elapsed

    @property
    def items(self) -> Tuple[DataItem, ...]:
        return self._items

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @property
    def cycle_length(self) -> float:
        """Duration of one broadcast cycle in seconds (``Z_i / b``)."""
        return self._cycle

    def carries(self, item_id: str) -> bool:
        return item_id in self._offsets

    def transmission_time(self, item_id: str) -> float:
        """Download duration ``z / b`` of one item."""
        return self._item(item_id).size / self._bandwidth

    def slot_offset(self, item_id: str) -> float:
        """Start offset of the item's slot within a cycle (seconds)."""
        if item_id not in self._offsets:
            raise SimulationError(
                f"channel {self.channel_id} does not carry {item_id!r}"
            )
        return self._offsets[item_id]

    def next_transmission_start(self, item_id: str, tune_in: float) -> float:
        """Earliest start ≥ ``tune_in`` of a full transmission of the item.

        Starts occur at ``offset + n · cycle`` for integer ``n ≥ 0``.
        """
        if tune_in < 0 or not math.isfinite(tune_in):
            raise SimulationError(
                f"tune_in must be finite and >= 0, got {tune_in!r}"
            )
        offset = self.slot_offset(item_id)
        if tune_in <= offset:
            return offset
        cycles_elapsed = math.ceil((tune_in - offset) / self._cycle)
        start = offset + cycles_elapsed * self._cycle
        # Guard against float round-down placing the start before tune_in.
        if start < tune_in:
            start += self._cycle
        return start

    def delivery_completion(self, item_id: str, tune_in: float) -> float:
        """Completion time of the request: next full transmission end."""
        start = self.next_transmission_start(item_id, tune_in)
        return start + self.transmission_time(item_id)

    def waiting_time(self, item_id: str, tune_in: float) -> float:
        """Waiting time (probe + download) for a tune-in at ``tune_in``."""
        return self.delivery_completion(item_id, tune_in) - tune_in

    def expected_waiting_time(self, item_id: str) -> float:
        """Analytical expectation of :meth:`waiting_time` — Eq. (1).

        Uniform tune-in over a cycle waits ``cycle/2`` on average for the
        slot start, plus the download time.
        """
        return self._cycle / 2.0 + self.transmission_time(item_id)

    def _item(self, item_id: str) -> DataItem:
        for item in self._items:
            if item.item_id == item_id:
                return item
        raise SimulationError(
            f"channel {self.channel_id} does not carry {item_id!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastChannel(id={self.channel_id}, items={len(self._items)}, "
            f"cycle={self._cycle:.6g}s)"
        )


class WaitingTimeCollector:
    """Accumulates waiting-time observations from a simulation run."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._by_item: Dict[str, List[float]] = {}

    def record(self, item_id: str, waiting_time: float) -> None:
        """Record one completed request."""
        if not math.isfinite(waiting_time):
            raise ValueError(
                f"waiting time must be finite, got {waiting_time!r}"
            )
        if waiting_time < 0:
            raise ValueError(
                f"waiting time cannot be negative, got {waiting_time}"
            )
        self._samples.append(waiting_time)
        self._by_item.setdefault(item_id, []).append(waiting_time)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def item_ids(self) -> Tuple[str, ...]:
        return tuple(self._by_item)

    def overall(self, *, z_value: float = 1.96) -> SummaryStatistics:
        """Summary over all requests — the empirical :math:`W_b`."""
        return summarize(self._samples, z_value=z_value)

    def for_item(
        self, item_id: str, *, z_value: float = 1.96
    ) -> Optional[SummaryStatistics]:
        """Summary for one item, or ``None`` if it was never requested."""
        samples = self._by_item.get(item_id)
        if not samples:
            return None
        return summarize(samples, z_value=z_value)


# ----------------------------------------------------------------------
# The reference run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One client request: which item, and when the client tuned in."""

    request_id: int
    item_id: str
    arrival_time: float


def generate_requests(
    generator: RequestGenerator, num_requests: int
) -> Iterator[Request]:
    """``generator.sample_batch(num_requests)`` as :class:`Request`
    objects with increasing arrival times."""
    arrivals, picks = generator.sample_batch(num_requests)
    item_ids = generator.item_ids
    for request_id in range(num_requests):
        yield Request(
            request_id=request_id,
            item_id=item_ids[int(picks[request_id])],
            arrival_time=float(arrivals[request_id]),
        )


def simulate_reference(
    allocation: ChannelAllocation,
    *,
    bandwidth: float = DEFAULT_BANDWIDTH,
    bandwidths: Optional[Sequence[float]] = None,
    num_requests: int = 10_000,
    arrival_rate: float = 1.0,
    seed: int = 0,
    request_probabilities: Optional[Sequence[float]] = None,
) -> Tuple[SimulationReport, int]:
    """The event-driven run of
    :func:`~repro.simulation.simulator.run_broadcast_simulation`.

    Each request becomes an ARRIVAL event; its handler asks the carrying
    channel for the completion of the next full transmission and
    schedules a DELIVERY event there, whose handler records the wait.
    Returns the report and the number of events the kernel executed
    (``2 · num_requests``).
    """
    if num_requests < 1:
        raise SimulationError(f"num_requests must be >= 1, got {num_requests}")
    channels = [
        BroadcastChannel(
            index,
            group,
            bandwidths[index] if bandwidths is not None else bandwidth,
        )
        for index, group in enumerate(allocation.channels)
    ]
    channel_of = {
        item.item_id: channel for channel in channels for item in channel.items
    }
    generator = RequestGenerator(
        allocation.database,
        arrival_rate=arrival_rate,
        seed=seed,
        request_probabilities=request_probabilities,
    )
    engine = SimulationEngine()
    collector = WaitingTimeCollector()

    def make_arrival_handler(request: Request):
        def on_arrival() -> None:
            completion = channel_of[request.item_id].delivery_completion(
                request.item_id, engine.now
            )

            def on_delivery() -> None:
                collector.record(
                    request.item_id, engine.now - request.arrival_time
                )

            engine.schedule_at(
                completion, on_delivery, priority=EventPriority.DELIVERY
            )

        return on_arrival

    for request in generate_requests(generator, num_requests):
        engine.schedule_at(
            request.arrival_time,
            make_arrival_handler(request),
            priority=EventPriority.ARRIVAL,
        )
    engine.run()
    report = SimulationReport(
        measured=collector.overall(),
        analytical_waiting_time=average_waiting_time(
            allocation, bandwidth=bandwidth
        ),
        num_requests=collector.count,
        per_item={
            item_id: collector.for_item(item_id)
            for item_id in collector.item_ids
        },
    )
    return report, engine.processed_events
