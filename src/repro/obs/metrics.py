"""Metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` names instruments with a dotted string plus
optional labels (``registry.gauge("sim.channel_utilization",
channel=3)``).  Snapshots are plain JSON-ready dicts
(:meth:`MetricsRegistry.snapshot`), and two registries can be combined
with :meth:`MetricsRegistry.merge` — the parent-process half of
cross-process collection (workers ship
:meth:`MetricsRegistry.drain_snapshot` over the result pipe).

Like tracing, metrics are off by default: the module-level registry is
:data:`NULL_METRICS`, whose instruments are shared no-op singletons, so
an ``obs.metrics().counter("x").inc(n)`` in disabled mode costs two
trivial method calls at span granularity (never per item / per event).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA_VERSION",
]

#: Version stamp written into every metrics snapshot.  Version 2 added
#: ``min``/``max`` to histogram payloads; :meth:`MetricsRegistry.merge`
#: still accepts version-1 snapshots (their min/max is unknown and
#: merges as "no observations beyond the counts").
METRICS_SCHEMA_VERSION = 2

#: Default histogram buckets: log-ish spread from sub-millisecond to
#: minutes, suitable for the timing distributions this repo records.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
)

_LabelKey = Tuple[Tuple[str, Any], ...]


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``buckets`` are upper bounds; an implicit ``+inf`` bucket catches
    the tail.  Bucket counts are cumulative-free (one count per bucket),
    which keeps merging a plain element-wise add.  ``low``/``high``
    track the observed extremes so a snapshot can report mean/min/max
    without a parallel counter (and so the OpenMetrics exposition can
    emit ``_sum``/``_count`` plus min/max gauges).
    """

    __slots__ = ("buckets", "counts", "count", "total", "low", "high")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled registry."""

    __slots__ = ()
    value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def drain_snapshot(self) -> Dict[str, Any]:
        return self.snapshot()

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass


#: The process-wide disabled registry (a singleton; also the default).
NULL_METRICS = NullMetricsRegistry()


class MetricsRegistry:
    """Collecting registry of named counters, gauges and histograms.

    A small structure lock protects the instrument dictionaries so a
    background reader (the ``/metrics`` exposition thread) can iterate
    them while the owning thread keeps creating instruments.  Instrument *updates* stay
    lock-free: the recording thread is the only writer, and readers
    tolerate the transiently torn histogram a concurrent ``observe``
    can produce — the authoritative end-of-run snapshot is taken by the
    recording thread itself.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _render_key(name, tuple(sorted(labels.items())))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _render_key(name, tuple(sorted(labels.items())))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = _render_key(name, tuple(sorted(labels.items())))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(buckets)
                )
        return instrument

    # ------------------------------------------------------------------
    # Snapshots / merging
    # ------------------------------------------------------------------
    def _snapshot_locked(self) -> Dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {
                key: counter.value for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: {
                    "buckets": list(histogram.buckets),
                    "counts": list(histogram.counts),
                    "count": histogram.count,
                    "sum": histogram.total,
                    "min": histogram.low,
                    "max": histogram.high,
                }
                for key, histogram in sorted(self._histograms.items())
            },
        }

    def snapshot(self) -> Dict[str, Any]:
        """The current state as a JSON-ready dict (schema 2)."""
        with self._lock:
            return self._snapshot_locked()

    def drain_snapshot(self) -> Dict[str, Any]:
        """Snapshot and reset — the worker-side half of merging."""
        with self._lock:
            snapshot = self._snapshot_locked()
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return snapshot

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram counts/sums/extremes add; gauges take
        the snapshot's value (callers merge in deterministic order, so
        "last write wins" is reproducible).  Accepts both schema-2 and
        the pre-min/max schema-1 payloads — a v1 histogram merges its
        counts and sum, leaving the extremes untouched.
        """
        for key, value in snapshot.get("counters", {}).items():
            self._counter_by_key(key).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self._gauge_by_key(key).set(value)
        for key, payload in snapshot.get("histograms", {}).items():
            histogram = self._histogram_by_key(key, payload["buckets"])
            if list(histogram.buckets) != [float(b) for b in payload["buckets"]]:
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket bounds differ"
                )
            for index, count in enumerate(payload["counts"]):
                histogram.counts[index] += count
            histogram.count += payload["count"]
            histogram.total += payload["sum"]
            low = payload.get("min")
            if low is not None and (histogram.low is None or low < histogram.low):
                histogram.low = low
            high = payload.get("max")
            if high is not None and (
                histogram.high is None or high > histogram.high
            ):
                histogram.high = high

    # Keyed lookups used by merge(): the rendered key already includes
    # labels, so it is used verbatim.
    def _counter_by_key(self, key: str) -> Counter:
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def _gauge_by_key(self, key: str) -> Gauge:
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def _histogram_by_key(self, key: str, buckets: List[float]) -> Histogram:
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(buckets)
                )
        return instrument

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True))
