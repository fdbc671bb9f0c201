"""Observability: tracing spans, metrics, manifests and live telemetry.

The package is dependency-free and **off by default**: the module-level
tracer and metrics registry start as no-op singletons, so instrumented
hot paths (``drp_allocate``, ``cds_refine``, ``contiguous_optimal``,
the experiment runner, the simulators) pay only a handful of trivial
calls per *run* — never per item, move or event.  The no-op budget is
enforced by ``benchmarks/bench_obs_overhead.py`` and the regression
test in ``tests/test_obs_integration.py``.

Enabling
--------
* CLI: ``repro ... --trace out.jsonl --metrics metrics.json`` — flags
  available on every subcommand; a manifest is written alongside.
* Environment: ``REPRO_TRACE=out.jsonl`` / ``REPRO_METRICS=m.json``.
* Programmatic::

      from repro import obs
      tracer, registry = obs.configure(trace=True, metrics=True)
      ...  # run instrumented code
      tracer.export_jsonl("t.jsonl")       # or .export_chrome("t.json")
      registry.export_json("m.json")
      obs.reset()

Live telemetry (all opt-in, see ``docs/observability.md``):

* :func:`start_metrics_server` — background ``/metrics`` endpoint
  (``--metrics-port`` / ``REPRO_METRICS_PORT``) serving the OpenMetrics
  rendering of ``get_metrics().snapshot()``, taken at scrape time;
* :func:`start_profiler` — statistical sampling profiler with
  folded-stack export (``--profile`` / ``REPRO_PROFILE``);
* :func:`heartbeat` — throttled progress gauges for solver hot loops
  (returns ``None`` when metrics are disabled, so a dormant call site
  costs one ``is not None`` test per iteration).

Instrumented code talks to the active instances through
:func:`span` / :func:`get_metrics`; worker processes install their own via
:func:`configure` and ship finished spans / counter snapshots back over
the experiment result pipe (see :mod:`repro.experiments.parallel`), so a
worker's counters reach the registry — and ``/metrics`` — when its
cell's drain merges.  The module-level singletons are guarded by a lock
so the background exposition thread can never observe a half-swapped
pair.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.obs import log  # noqa: F401  (re-exported submodule)
from repro.obs.exposition import MetricsServer, render_openmetrics
from repro.obs.manifest import build_manifest, config_digest, write_manifest
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.timeseries import EwmaRate, Heartbeat
from repro.obs.tracing import (
    JSONL_SCHEMA_VERSION,
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    chrome_trace_events,
    jsonl_to_chrome,
)

__all__ = [
    "TRACE_ENV_VAR",
    "METRICS_ENV_VAR",
    "METRICS_PORT_ENV_VAR",
    "PROFILE_ENV_VAR",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "JSONL_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MetricsServer",
    "SamplingProfiler",
    "EwmaRate",
    "Heartbeat",
    "render_openmetrics",
    "chrome_trace_events",
    "jsonl_to_chrome",
    "build_manifest",
    "config_digest",
    "write_manifest",
    "get_tracer",
    "get_metrics",
    "span",
    "instant",
    "tracing_enabled",
    "configure",
    "configure_from_env",
    "reset",
    "worker_options",
    "heartbeat",
    "start_metrics_server",
    "start_profiler",
    "get_profiler",
    "stop_live",
    "log",
]

#: ``REPRO_TRACE=<path.jsonl>`` enables tracing for CLI runs.
TRACE_ENV_VAR = "REPRO_TRACE"

#: ``REPRO_METRICS=<path.json>`` enables the metrics registry.
METRICS_ENV_VAR = "REPRO_METRICS"

#: ``REPRO_METRICS_PORT=<port>`` serves live ``/metrics`` during a run.
METRICS_PORT_ENV_VAR = "REPRO_METRICS_PORT"

#: ``REPRO_PROFILE=<path.folded>`` attaches the sampling profiler.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Guards every read-modify-write of the module-level singletons below,
#: so a configure/reset racing a background exposition thread can never
#: expose a half-swapped tracer/registry pair.
_state_lock = threading.RLock()

_tracer: Union[Tracer, NullTracer] = NULL_TRACER
_metrics: Union[MetricsRegistry, NullMetricsRegistry] = NULL_METRICS

# Live facilities (all None unless explicitly started).
_metrics_server: Optional[MetricsServer] = None
_profiler: Optional[SamplingProfiler] = None


# ----------------------------------------------------------------------
# Active-instance access (the only API instrumented code should use)
# ----------------------------------------------------------------------
def get_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the no-op singleton unless configured)."""
    return _tracer


def get_metrics() -> Union[MetricsRegistry, NullMetricsRegistry]:
    """The active metrics registry (no-op unless configured)."""
    return _metrics


def span(name: str, **attributes: Any):
    """Open a span on the active tracer (no-op when disabled)."""
    return _tracer.span(name, **attributes)


def instant(name: str, **attributes: Any) -> None:
    """Record an instant marker on the active tracer."""
    _tracer.instant(name, **attributes)


def tracing_enabled() -> bool:
    """True when a collecting tracer is installed."""
    return _tracer.enabled


def heartbeat(
    name: str,
    *,
    interval: float = 0.25,
    rates: Tuple[str, ...] = (),
    now: Optional[Callable[[], float]] = None,
) -> Optional[Heartbeat]:
    """A throttled live-progress emitter, or ``None`` when disabled.

    Long-running loops create one before entering the hot path::

        hb = obs.heartbeat("cds", rates=("delta_evaluations",))
        while improving:
            ...
            if hb is not None:
                hb.beat(moves=moves, cost=cost, delta_evaluations=evals)

    The ``None`` return in disabled mode keeps the per-iteration cost
    to a single identity test — no throttle check, no clock read.
    ``now`` injects a monotonic time source (the serve loop passes its
    :class:`~repro.service.clock.Clock` so fake-clock tests control the
    throttle).
    """
    registry = _metrics
    if not registry.enabled:
        return None
    return Heartbeat(name, registry, interval=interval, rates=rates, now=now)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def configure(
    *,
    trace: bool = False,
    metrics: bool = False,
    track_memory: bool = False,
) -> Tuple[Union[Tracer, NullTracer], Union[MetricsRegistry, NullMetricsRegistry]]:
    """Install fresh tracer/registry instances (or the no-ops).

    Always replaces the current instances — worker processes call this
    in their initializer so a forked child never inherits (and later
    re-ships) spans already recorded by its parent.  The replaced
    tracer is closed, which stops any ``tracemalloc`` it started.
    """
    global _tracer, _metrics
    with _state_lock:
        _tracer.close()
        _tracer = Tracer(track_memory=track_memory) if trace else NULL_TRACER
        _metrics = MetricsRegistry() if metrics else NULL_METRICS
        return _tracer, _metrics


def configure_from_env() -> Tuple[Optional[str], Optional[str]]:
    """Enable tracing/metrics per ``REPRO_TRACE`` / ``REPRO_METRICS``.

    Returns the ``(trace_path, metrics_path)`` the environment asked
    for (either may be ``None``).  Does nothing — and preserves any
    programmatic configuration — when neither variable is set.
    """
    trace_path = os.environ.get(TRACE_ENV_VAR, "").strip() or None
    metrics_path = os.environ.get(METRICS_ENV_VAR, "").strip() or None
    if trace_path or metrics_path:
        configure(trace=trace_path is not None, metrics=metrics_path is not None)
    return trace_path, metrics_path


def reset() -> None:
    """Restore the disabled (no-op) tracer and registry.

    Also closes the tracer (stopping any ``tracemalloc`` it started)
    and tears down any live facilities (server, profiler), so tests
    and sequential CLI invocations always start from a clean slate.
    """
    global _tracer, _metrics
    stop_live()
    with _state_lock:
        _tracer.close()
        _tracer = NULL_TRACER
        _metrics = NULL_METRICS


def worker_options() -> dict:
    """The observability switches to replicate in a worker process.

    Reads the tracer/registry pair under the state lock so a
    concurrent :func:`configure` can never yield a mixed view (e.g.
    the old tracer with the new registry).
    """
    with _state_lock:
        tracer, metrics = _tracer, _metrics
    return {
        "trace": tracer.enabled,
        "metrics": metrics.enabled,
        "track_memory": getattr(tracer, "track_memory", False),
    }


# ----------------------------------------------------------------------
# Live telemetry
# ----------------------------------------------------------------------
def start_metrics_server(
    port: int, *, host: str = "127.0.0.1"
) -> MetricsServer:
    """Start (or return) the background ``/metrics`` endpoint.

    Each scrape renders the registry installed at that moment, so a
    later :func:`configure` is picked up without a restart.
    """
    global _metrics_server
    with _state_lock:
        if _metrics_server is None:
            _metrics_server = MetricsServer(
                lambda: get_metrics().snapshot(), host=host, port=port
            ).start()
        return _metrics_server


def start_profiler(*, interval: float = 0.005) -> SamplingProfiler:
    """Attach (or return) the sampling profiler for the calling thread."""
    global _profiler
    with _state_lock:
        if _profiler is None:
            _profiler = SamplingProfiler(
                interval=interval, tracer=_tracer
            ).start()
        return _profiler


def get_profiler() -> Optional[SamplingProfiler]:
    return _profiler


def stop_live() -> Dict[str, Any]:
    """Stop all live facilities; returns what ran (for final export).

    The profiler instance is returned still holding its samples so the
    caller can ``export_folded`` after stopping.
    """
    global _metrics_server, _profiler
    with _state_lock:
        server, profiler = _metrics_server, _profiler
        _metrics_server = None
        _profiler = None
    stopped: Dict[str, Any] = {}
    if server is not None:
        server.stop()
        stopped["server"] = server
    if profiler is not None:
        profiler.stop()
        stopped["profiler"] = profiler
    return stopped
