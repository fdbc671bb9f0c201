"""Nested tracing spans with JSONL and Chrome ``trace_event`` export.

A :class:`Tracer` records :class:`SpanRecord` entries — name, wall-clock
start, duration, key/value attributes, optional ``tracemalloc`` peak —
organised as a tree via ``parent_id``.  Two exporters are provided:

* **JSONL** (:meth:`Tracer.export_jsonl`) — one JSON object per line,
  the stable machine-readable format (schema in
  ``docs/observability.md``, checker in ``tests/trace_schema.py``);
* **Chrome trace_event** (:meth:`Tracer.export_chrome`) — the
  ``chrome://tracing`` / `Perfetto <https://ui.perfetto.dev>`_ JSON
  format, for visual inspection of sweeps and allocator phases.

The module is dependency-free and built for a *disabled-by-default*
regime: production code talks to the module-level tracer through
:func:`repro.obs.span`, which normally resolves to :data:`NULL_TRACER` —
a no-op whose spans cost one attribute lookup and an empty context
manager (the overhead budget is enforced by
``benchmarks/bench_obs_overhead.py`` and ``tests/test_obs_integration``).

Cross-process use: worker processes run their own :class:`Tracer`,
serialise finished spans with :meth:`Tracer.drain_payload`, ship them
over the existing result pipe, and the parent re-homes them with
:meth:`Tracer.adopt` — span ids are reassigned so merged traces stay
consistent, and merge order is the caller's (deterministic, grid-order
in the experiment runner).
"""

from __future__ import annotations

import itertools
import json
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "chrome_trace_events",
    "jsonl_to_chrome",
    "JSONL_SCHEMA_VERSION",
]

#: Version stamp written into every JSONL trace line.
JSONL_SCHEMA_VERSION = 1


@dataclass
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted span name (``"drp.allocate"``, ``"experiment.cell"``...;
        naming scheme in ``docs/observability.md``).
    span_id / parent_id:
        Tree structure; ``parent_id`` is ``None`` for roots.
    pid:
        Process id the span was recorded in (worker spans keep theirs).
    start_unix:
        Wall-clock start (``time.time()`` seconds) — the shared timebase
        that lets spans from different processes interleave correctly.
    duration:
        Span length in seconds (``time.perf_counter`` delta).
    attributes:
        Key/value payload; values must be JSON-serialisable.
    peak_memory:
        ``tracemalloc`` peak traced bytes observed during the span, or
        ``None`` when memory tracking was off.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    pid: int
    start_unix: float
    duration: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    peak_memory: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL representation of this span."""
        return {
            "type": "span",
            "schema": JSONL_SCHEMA_VERSION,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "ts": self.start_unix,
            "dur": self.duration,
            "attrs": self.attributes,
            "peak_mem": self.peak_memory,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            pid=payload.get("pid", 0),
            start_unix=payload["ts"],
            duration=payload["dur"],
            attributes=dict(payload.get("attrs", {})),
            peak_memory=payload.get("peak_mem"),
        )


class _NullSpan:
    """The span of a disabled tracer: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def update(self, **attributes: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: hands out the shared no-op span.

    ``span()`` does no allocation beyond the caller's keyword dict, and
    the returned context manager's enter/exit are empty methods — the
    cheapest "off" a ``with obs.span(...)`` call site can get without
    an explicit enabled-flag branch at every site.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attributes: Any) -> None:
        pass

    @property
    def records(self) -> List[SpanRecord]:
        return []

    @property
    def active_span_names(self) -> List[str]:
        return []

    def adopt(
        self,
        payload: Sequence[Dict[str, Any]],
        *,
        root_attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        pass

    def drain_payload(self) -> List[Dict[str, Any]]:
        return []

    def close(self) -> None:
        pass


#: The process-wide disabled tracer (a singleton; also the default).
NULL_TRACER = NullTracer()


class _Span:
    """Context manager recording one span on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "_start_unix",
        "_t0",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attributes = attributes

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.span_id = next(tracer._ids)
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        tracer._name_stack.append(self.name)
        if tracer.track_memory:
            tracer._memory_enter()
        self._start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the (still open) span."""
        self.attributes[key] = value

    def update(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        tracer._stack.pop()
        tracer._name_stack.pop()
        peak = tracer._memory_exit() if tracer.track_memory else None
        if exc_type is not None:
            self.attributes["error"] = f"{exc_type.__name__}: {exc}"
        tracer._records.append(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                pid=tracer.pid,
                start_unix=self._start_unix,
                duration=duration,
                attributes=self.attributes,
                peak_memory=peak,
            )
        )
        return False


class Tracer:
    """Collecting tracer: nested spans, instants, export, merging.

    Parameters
    ----------
    track_memory:
        When true, every span also records the ``tracemalloc`` peak
        observed while it was open (starts ``tracemalloc`` on first
        use if it is off; :meth:`close` stops it again).  Costs roughly
        an order of magnitude in allocator-heavy code — strictly opt-in.
    """

    enabled = True

    def __init__(self, *, track_memory: bool = False) -> None:
        self._records: List[SpanRecord] = []
        self._stack: List[int] = []
        self._name_stack: List[str] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        self.track_memory = track_memory
        self._memory_started = False
        # Running peak of each open span, outermost first.  The global
        # tracemalloc peak is reset at every span entry, so an open
        # span folds in what it saw before a child reset it.
        self._memory_peaks: List[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _Span:
        """Open a span; use as ``with tracer.span("x", k=v) as sp:``."""
        return _Span(self, name, attributes)

    def instant(self, name: str, **attributes: Any) -> None:
        """Record a zero-duration marker (e.g. a timeout decision)."""
        self._records.append(
            SpanRecord(
                name=name,
                span_id=next(self._ids),
                parent_id=self._stack[-1] if self._stack else None,
                pid=self.pid,
                start_unix=time.time(),
                duration=0.0,
                attributes=dict(attributes),
            )
        )

    def _memory_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._memory_started = True
        peaks = self._memory_peaks
        if peaks:
            peaks[-1] = max(peaks[-1], tracemalloc.get_traced_memory()[1])
        if hasattr(tracemalloc, "reset_peak"):
            tracemalloc.reset_peak()
        peaks.append(0)

    def close(self) -> None:
        """Stop ``tracemalloc`` if this tracer started it.

        Tracing that was already on when the tracer first needed it is
        left on.  The records stay readable after the call.
        """
        if self._memory_started:
            self._memory_started = False
            tracemalloc.stop()

    def _memory_exit(self) -> Optional[int]:
        peaks = self._memory_peaks
        seen = peaks.pop()
        if not tracemalloc.is_tracing():  # pragma: no cover - defensive
            return None
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if peaks:
            # The enclosing span was open for all of this one.
            peaks[-1] = max(peaks[-1], peak)
        return peak

    # ------------------------------------------------------------------
    # Access / merging
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[SpanRecord]:
        """The finished spans, in completion order (children first)."""
        return list(self._records)

    @property
    def active_span_names(self) -> List[str]:
        """Names of the currently open spans, outermost first.

        Read by the sampling profiler (from its own thread) to
        attribute each sample to the innermost open span; a torn read
        during a push/pop merely shifts that sample by one span.
        """
        return self._name_stack

    def find(self, name: str) -> List[SpanRecord]:
        """All finished spans with the given name."""
        return [record for record in self._records if record.name == name]

    def drain_payload(self) -> List[Dict[str, Any]]:
        """Remove and return all finished spans as plain dicts.

        The worker-side half of cross-process merging: the payload is
        small, picklable and JSON-ready, and draining keeps a worker's
        memory bounded over arbitrarily long sweeps.
        """
        payload = [record.to_dict() for record in self._records]
        self._records.clear()
        return payload

    def adopt(
        self,
        payload: Sequence[Dict[str, Any]],
        *,
        root_attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Merge spans exported by another tracer (typically a worker).

        Span ids are reassigned from this tracer's counter (preserving
        the payload's internal parent/child links), so merged traces
        never collide with local ids.  Roots of the payload become
        children of the currently open span, and ``root_attributes``
        (e.g. the queue-wait measured by the parent) are folded into
        them.
        """
        local_parent = self._stack[-1] if self._stack else None
        records = [SpanRecord.from_dict(item) for item in payload]
        # Two passes: spans are recorded on *exit*, so a child appears
        # before its parent in the payload — all ids must be remapped
        # before any parent link can be resolved.
        id_map: Dict[int, int] = {
            record.span_id: next(self._ids) for record in records
        }
        for record in records:
            record.span_id = id_map[record.span_id]
            if record.parent_id is not None and record.parent_id in id_map:
                record.parent_id = id_map[record.parent_id]
            else:
                record.parent_id = local_parent
                if root_attributes:
                    record.attributes.update(root_attributes)
            self._records.append(record)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: Union[str, Path]) -> None:
        """Write one JSON object per line (schema 1; see docs)."""
        with Path(path).open("w") as handle:
            for record in self._records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")

    def export_chrome(self, path: Union[str, Path]) -> None:
        """Write the Chrome ``trace_event`` JSON for chrome://tracing."""
        events = chrome_trace_events(self._records)
        Path(path).write_text(json.dumps(events, indent=1))


def chrome_trace_events(
    records: Sequence[SpanRecord],
) -> Dict[str, Any]:
    """Convert span records to a Chrome ``trace_event`` document.

    Spans become ``"X"`` (complete) events; zero-duration records become
    ``"i"`` (instant) events; every distinct pid gets a process-name
    metadata event.  Timestamps are microseconds relative to the
    earliest span, which keeps the viewer's time axis readable.
    """
    if records:
        epoch = min(record.start_unix for record in records)
    else:
        epoch = 0.0
    events: List[Dict[str, Any]] = []
    seen_pids: Dict[int, None] = {}
    for record in records:
        if record.pid not in seen_pids:
            seen_pids[record.pid] = None
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": record.pid,
                    "tid": 0,
                    "args": {"name": f"repro pid {record.pid}"},
                }
            )
        args = dict(record.attributes)
        if record.peak_memory is not None:
            args["peak_memory_bytes"] = record.peak_memory
        event: Dict[str, Any] = {
            "name": record.name,
            "pid": record.pid,
            "tid": 0,
            "ts": (record.start_unix - epoch) * 1e6,
            "args": args,
        }
        if record.duration > 0.0:
            event["ph"] = "X"
            event["dur"] = record.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "p"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def jsonl_to_chrome(
    jsonl_path: Union[str, Path], chrome_path: Union[str, Path]
) -> int:
    """Convert an exported JSONL trace to Chrome ``trace_event`` JSON.

    Returns the number of spans converted.  This is what makes the
    JSONL format "Chrome-trace-convertible": every line carries the
    name/ts/dur/pid/attrs the viewer needs.
    """
    records: List[SpanRecord] = []
    with Path(jsonl_path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("type") == "span":
                records.append(SpanRecord.from_dict(payload))
    document = chrome_trace_events(records)
    Path(chrome_path).write_text(json.dumps(document, indent=1))
    return len(records)
