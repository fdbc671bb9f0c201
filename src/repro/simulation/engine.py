"""A minimal, deterministic discrete-event simulation kernel.

Classic event-heap design: a priority queue of :class:`Event` objects,
popped in (time, priority, sequence) order, each invoking its callback.
Callbacks may schedule further events (at or after the current time).

The kernel enforces the two invariants everything downstream relies on:

* the clock never moves backwards, and
* event execution order is fully deterministic for a fixed schedule
  (stable tie-breaking via the sequence counter).

The production simulation is closed-form; this kernel drives the
event-driven reference run of :mod:`repro.verify.reference`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventPriority

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Event-driven simulation clock and scheduler.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(2.0, lambda: fired.append(engine.now))
    >>> _ = engine.schedule_at(1.0, lambda: fired.append(engine.now))
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
        self._pending = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events still queued.

        O(1): a live counter updated on schedule, cancel and pop, rather
        than a scan over the heap's lazy-deletion flags.
        """
        return self._pending

    def _note_cancel(self, _event: Event) -> None:
        """Hook installed on every scheduled event's ``cancel``."""
        self._pending -= 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.CONTROL,
    ) -> Event:
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
        event = Event(
            time=float(time),
            priority=int(priority),
            sequence=next(self._sequence),
            callback=callback,
            on_cancel=self._note_cancel,
        )
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.CONTROL,
    ) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay!r}"
            )
        return self.schedule_at(self._now + delay, callback, priority=priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns false when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                # Already uncounted when cancel() fired.
                continue
            # Executed events can no longer be meaningfully cancelled;
            # detach the hook so a late cancel() can't skew the counter.
            event.on_cancel = None
            self._pending -= 1
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until exhaustion, a time horizon, or an event cap.

        Parameters
        ----------
        until:
            Stop before executing any event scheduled after this time;
            the clock is then advanced to ``until`` exactly.
        max_events:
            Execute at most this many events (guards against runaway
            self-scheduling loops in tests).

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    break
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    break
                if not self.step():
                    break
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed
