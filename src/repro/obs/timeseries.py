"""Streaming metric windows: live views over a run that is still going.

PR 3's observability layer is post-hoc — counters and spans surface
when a run *ends*.  This module adds the bounded-memory streaming
primitives that make a registry observable *during* a run:

* :class:`SlidingWindow` — a fixed-capacity ring buffer of
  ``(timestamp, value)`` samples restricted to a time horizon, with
  O(window) mean/min/max/last aggregates;
* :class:`EwmaRate` — an exponentially weighted events-per-second
  estimator (configurable half-life), the "current throughput" number
  behind the heartbeat ``*_per_second`` gauges;
* :class:`P2Quantile` — the Jain & Chlamtac P² streaming quantile
  estimator: five markers, O(1) per observation, no sample retention;
* :class:`Heartbeat` — a throttled emitter the solver hot loops call
  once per move/layer/epoch; it updates ``<name>.heartbeat.*`` gauges
  on the live registry at most every ``interval`` seconds;
* :class:`MetricWindows` — sliding-window aggregation over successive
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots (counter rates
  via deltas, gauge distributions via P²), the summary the periodic
  JSONL metrics stream appends per tick.

Everything is standard library and allocation-light; none of it runs
unless live telemetry was explicitly enabled.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SlidingWindow",
    "EwmaRate",
    "P2Quantile",
    "Heartbeat",
    "MetricWindows",
]


class SlidingWindow:
    """Ring buffer of ``(timestamp, value)`` pairs over a time horizon.

    Holds at most ``max_samples`` samples and, on read, ignores samples
    older than ``duration`` seconds — so memory stays bounded no matter
    how long the run is or how fast it emits.
    """

    __slots__ = ("duration", "max_samples", "_times", "_values", "_head", "_size")

    def __init__(self, duration: float = 60.0, max_samples: int = 256) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.duration = float(duration)
        self.max_samples = int(max_samples)
        self._times: List[float] = [0.0] * self.max_samples
        self._values: List[float] = [0.0] * self.max_samples
        self._head = 0  # next write position
        self._size = 0

    def observe(self, value: float, now: Optional[float] = None) -> None:
        """Append one sample (oldest sample evicted when full)."""
        if now is None:
            now = time.monotonic()
        self._times[self._head] = now
        self._values[self._head] = float(value)
        self._head = (self._head + 1) % self.max_samples
        if self._size < self.max_samples:
            self._size += 1

    def __len__(self) -> int:
        return self._size

    def samples(self, now: Optional[float] = None) -> List[Tuple[float, float]]:
        """The in-horizon samples, oldest first."""
        if now is None:
            now = time.monotonic()
        horizon = now - self.duration
        out: List[Tuple[float, float]] = []
        start = (self._head - self._size) % self.max_samples
        for offset in range(self._size):
            index = (start + offset) % self.max_samples
            if self._times[index] >= horizon:
                out.append((self._times[index], self._values[index]))
        return out

    def stats(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Aggregates over the in-horizon samples.

        Returns ``count``/``mean``/``min``/``max``/``last`` plus
        ``rate`` — samples per second over the observed span (0 when
        fewer than two samples are in the window).
        """
        samples = self.samples(now)
        if not samples:
            return {
                "count": 0,
                "mean": None,
                "min": None,
                "max": None,
                "last": None,
                "rate": 0.0,
            }
        values = [value for _, value in samples]
        span = samples[-1][0] - samples[0][0]
        return {
            "count": len(values),
            "mean": math.fsum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "last": values[-1],
            "rate": (len(values) - 1) / span if span > 0 else 0.0,
        }


class EwmaRate:
    """Exponentially weighted moving average of an event rate.

    ``update(count, now)`` feeds the number of events since the last
    update; the estimator blends the instantaneous rate ``count / dt``
    into the running average with a weight derived from the configured
    half-life, so a 5-second half-life forgets half of what it knew
    every 5 seconds regardless of the update cadence.
    """

    __slots__ = ("halflife", "_rate", "_last")

    def __init__(self, halflife: float = 5.0) -> None:
        if halflife <= 0:
            raise ValueError(f"halflife must be > 0, got {halflife}")
        self.halflife = float(halflife)
        self._rate: Optional[float] = None
        self._last: Optional[float] = None

    def update(self, count: float, now: Optional[float] = None) -> float:
        """Fold in ``count`` events observed since the previous update."""
        if now is None:
            now = time.monotonic()
        if self._last is None:
            # First update has no time base yet; remember the anchor.
            self._last = now
            self._rate = None
            return 0.0
        dt = now - self._last
        if dt <= 0:
            return self._rate or 0.0
        instantaneous = count / dt
        if self._rate is None:
            self._rate = instantaneous
        else:
            alpha = 1.0 - 2.0 ** (-dt / self.halflife)
            self._rate += alpha * (instantaneous - self._rate)
        self._last = now
        return self._rate

    @property
    def rate(self) -> float:
        """The current events-per-second estimate (0 before warm-up)."""
        return self._rate if self._rate is not None else 0.0


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Five markers track the running quantile without retaining samples:
    O(1) time and memory per observation.  Estimates converge on the
    true quantile for stationary streams (validated against numpy
    percentiles in ``tests/test_timeseries.py``).
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float = 0.5) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: List[float] = []
        self._positions = [0.0, 1.0, 2.0, 3.0, 4.0]
        self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights = self._heights
        positions = self._positions
        # Locate the cell, pinning the extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if value < heights[i]:
                    cell = i - 1
                    break
            else:
                cell = 3
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired spots.
        for i in range(1, 4):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h = self._heights
        n = self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h = self._heights
        n = self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> Optional[float]:
        """The current quantile estimate (``None`` before any sample)."""
        if not self._heights:
            return None
        if len(self._heights) < 5:
            # Exact small-sample quantile until the markers are seeded.
            rank = self.q * (len(self._heights) - 1)
            lower = int(rank)
            upper = min(lower + 1, len(self._heights) - 1)
            fraction = rank - lower
            return (
                self._heights[lower] * (1.0 - fraction)
                + self._heights[upper] * fraction
            )
        return self._heights[2]


class Heartbeat:
    """Throttled live-progress gauges for long-running solver loops.

    A hot loop calls :meth:`beat` every iteration; at most once per
    ``interval`` seconds the heartbeat writes each keyword as a
    ``<name>.heartbeat.<key>`` gauge on the registry, bumps the
    ``<name>.heartbeat.beats`` counter, and — for keys listed in
    ``rates`` — publishes an EWMA ``<key>_per_second`` gauge derived
    from the key's increments (the "measured Δ-evaluations/s" number).
    A final unthrottled :meth:`flush` publishes the loop's last state.

    Construct via :func:`repro.obs.heartbeat`, which returns ``None``
    when metrics are disabled so the per-iteration cost of a dormant
    call site is a single ``is not None`` test.
    """

    __slots__ = ("name", "interval", "_registry", "_rates", "_ewma", "_last_value", "_last_emit", "_beats", "_now")

    def __init__(
        self,
        name: str,
        registry: Any,
        *,
        interval: float = 0.25,
        rates: Sequence[str] = (),
        halflife: float = 2.0,
        now: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.interval = float(interval)
        self._registry = registry
        self._rates = tuple(rates)
        self._ewma = {key: EwmaRate(halflife=halflife) for key in self._rates}
        self._last_value: Dict[str, float] = {}
        # None until the first emit, so the first beat always clears the
        # throttle whatever the time source's epoch.
        self._last_emit: Optional[float] = None
        self._beats = 0
        # Injectable monotonic time source (a zero-arg callable) so the
        # serve loop's fake clock drives throttling deterministically.
        self._now = now if now is not None else time.monotonic

    def beat(self, **values: float) -> bool:
        """Record one loop iteration; emits only when the throttle opens."""
        now = self._now()
        if self._last_emit is not None and now - self._last_emit < self.interval:
            return False
        self._emit(now, values)
        return True

    def flush(self, **values: float) -> None:
        """Unthrottled final emit (loop finished or converged)."""
        self._emit(self._now(), values)

    def _emit(self, now: float, values: Dict[str, float]) -> None:
        self._last_emit = now
        self._beats += 1
        prefix = f"{self.name}.heartbeat"
        registry = self._registry
        for key, value in values.items():
            registry.gauge(f"{prefix}.{key}").set(value)
            ewma = self._ewma.get(key)
            if ewma is not None:
                delta = value - self._last_value.get(key, 0.0)
                self._last_value[key] = value
                rate = ewma.update(delta, now)
                registry.gauge(f"{prefix}.{key}_per_second").set(rate)
        registry.counter(f"{prefix}.beats").inc()

    @property
    def beats(self) -> int:
        """Number of emits that cleared the throttle."""
        return self._beats


class MetricWindows:
    """Sliding-window aggregation over successive registry snapshots.

    Call :meth:`sample` periodically (the JSONL metrics stream does,
    once per tick): counters turn into EWMA rates plus a window of
    per-tick deltas; gauges feed a window of values and a P² median.
    :meth:`summary` renders the whole thing as one JSON-ready dict —
    the bounded-memory live view of an arbitrarily long run.
    """

    def __init__(
        self,
        *,
        window: float = 60.0,
        max_samples: int = 256,
        halflife: float = 5.0,
        quantile: float = 0.5,
    ) -> None:
        self.window = float(window)
        self.max_samples = int(max_samples)
        self.halflife = float(halflife)
        self.quantile = float(quantile)
        self._counter_last: Dict[str, float] = {}
        self._counter_rate: Dict[str, EwmaRate] = {}
        self._counter_window: Dict[str, SlidingWindow] = {}
        self._gauge_window: Dict[str, SlidingWindow] = {}
        self._gauge_p2: Dict[str, P2Quantile] = {}

    def sample(self, snapshot: Dict[str, Any], now: Optional[float] = None) -> None:
        """Fold one registry snapshot into the windows."""
        if now is None:
            now = time.monotonic()
        for key, value in snapshot.get("counters", {}).items():
            delta = value - self._counter_last.get(key, 0.0)
            self._counter_last[key] = value
            rate = self._counter_rate.get(key)
            if rate is None:
                rate = self._counter_rate[key] = EwmaRate(halflife=self.halflife)
            rate.update(delta, now)
            window = self._counter_window.get(key)
            if window is None:
                window = self._counter_window[key] = SlidingWindow(
                    self.window, self.max_samples
                )
            window.observe(delta, now)
        for key, value in snapshot.get("gauges", {}).items():
            if value is None:
                continue
            window = self._gauge_window.get(key)
            if window is None:
                window = self._gauge_window[key] = SlidingWindow(
                    self.window, self.max_samples
                )
                self._gauge_p2[key] = P2Quantile(self.quantile)
            window.observe(value, now)
            self._gauge_p2[key].observe(value)

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The JSON-ready windowed view of every tracked metric."""
        if now is None:
            now = time.monotonic()
        counters = {}
        for key in sorted(self._counter_last):
            stats = self._counter_window[key].stats(now)
            counters[key] = {
                "total": self._counter_last[key],
                "rate_per_second": self._counter_rate[key].rate,
                "window_delta_mean": stats["mean"],
                "window_delta_max": stats["max"],
            }
        gauges = {}
        for key in sorted(self._gauge_window):
            stats = self._gauge_window[key].stats(now)
            gauges[key] = {
                "last": stats["last"],
                "window_mean": stats["mean"],
                "window_min": stats["min"],
                "window_max": stats["max"],
                f"p{int(self.quantile * 100)}": self._gauge_p2[key].value,
            }
        return {
            "window_seconds": self.window,
            "counters": counters,
            "gauges": gauges,
        }
