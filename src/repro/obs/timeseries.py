"""Live progress primitives: heartbeat gauges and their EWMA rates.

The registry is read live by the ``/metrics`` endpoint; these two
pieces keep its progress gauges current while a solver loop runs:

* :class:`EwmaRate` — an exponentially weighted events-per-second
  estimator (configurable half-life), the "current throughput" number
  behind the heartbeat ``*_per_second`` gauges;
* :class:`Heartbeat` — a throttled emitter the solver hot loops call
  once per move/layer/epoch; it updates ``<name>.heartbeat.*`` gauges
  on the live registry at most every ``interval`` seconds.

Everything is standard library and allocation-light; none of it runs
unless metrics were explicitly enabled.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "EwmaRate",
    "Heartbeat",
]


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

