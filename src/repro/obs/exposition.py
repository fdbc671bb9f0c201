"""Metrics exposition: OpenMetrics text rendering and the live endpoint.

The one way to look at a :class:`~repro.obs.metrics.MetricsRegistry`
while the run that feeds it is still going:

* :func:`render_openmetrics` turns a registry snapshot into the
  Prometheus / OpenMetrics text format — counters become ``*_total``,
  histograms get cumulative ``le`` buckets plus ``_sum``/``_count``
  (and ``_min``/``_max`` gauges from the schema-2 extremes);
* :class:`MetricsServer` serves that text from a background
  ``http.server`` thread at ``/metrics`` (plus a ``/health`` probe),
  enabled by ``--metrics-port`` / ``REPRO_METRICS_PORT``.

The server reads the registry through a snapshot callable at scrape
time, never touching instrument internals — the registry's structure
lock makes concurrent snapshotting safe against the recording thread.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "render_openmetrics",
    "sanitize_metric_name",
    "MetricsServer",
]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_PATTERN = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name to a legal Prometheus metric name."""
    sanitized = _NAME_SANITIZER.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _split_key(key: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split a rendered registry key into (name, [(label, value), ...])."""
    match = _KEY_PATTERN.match(key)
    if match is None:  # pragma: no cover - registry keys always match
        return key, []
    name = match.group("name")
    labels_text = match.group("labels")
    labels: List[Tuple[str, str]] = []
    if labels_text:
        for part in labels_text.split(","):
            label, _, value = part.partition("=")
            labels.append((label, value))
    return name, labels


def _render_labels(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            sanitize_metric_name(label),
            str(value).replace("\\", "\\\\").replace('"', '\\"'),
        )
        for label, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # pragma: no cover - registries never store bools
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_openmetrics(
    snapshot: Dict[str, Any],
    *,
    prefix: str = "repro_",
    extra_gauges: Optional[Dict[str, float]] = None,
) -> str:
    """Render a metrics snapshot as OpenMetrics text.

    ``snapshot`` is the dict produced by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (schema 1 or 2).
    Counters are exposed as ``<prefix><name>_total``, gauges verbatim,
    histograms as cumulative ``le`` bucket series plus ``_sum`` and
    ``_count`` (and, when the snapshot carries them, ``_min``/``_max``
    gauges).  Registry labels (``name{label=value}``) become Prometheus
    labels.  ``extra_gauges`` injects process-level values (uptime,
    heartbeat ages) without touching the registry.  The output ends
    with the OpenMetrics ``# EOF`` terminator.
    """
    lines: List[str] = []

    def emit_meta(name: str, metric_type: str) -> None:
        lines.append(f"# TYPE {name} {metric_type}")

    # Group rendered keys by sanitized metric name so each TYPE header
    # appears once ahead of all its labelled series.
    def grouped(section: Dict[str, Any]) -> Dict[str, List[Tuple[str, Any]]]:
        groups: Dict[str, List[Tuple[str, Any]]] = {}
        for key in sorted(section):
            raw_name, labels = _split_key(key)
            name = prefix + sanitize_metric_name(raw_name)
            groups.setdefault(name, []).append((_render_labels(labels), section[key]))
        return groups

    for name, series in grouped(snapshot.get("counters", {})).items():
        emit_meta(f"{name}_total", "counter")
        for labels, value in series:
            lines.append(f"{name}_total{labels} {_format_value(value)}")

    for name, series in grouped(snapshot.get("gauges", {})).items():
        emit_meta(name, "gauge")
        for labels, value in series:
            if value is None:
                continue
            lines.append(f"{name}{labels} {_format_value(value)}")

    for name, series in grouped(snapshot.get("histograms", {})).items():
        emit_meta(name, "histogram")
        extremes: List[Tuple[str, Optional[float], Optional[float]]] = []
        for labels, payload in series:
            cumulative = 0
            label_body = labels[1:-1] if labels else ""
            for bound, count in zip(payload["buckets"], payload["counts"]):
                cumulative += count
                le = _format_value(float(bound))
                inner = f'{label_body},le="{le}"' if label_body else f'le="{le}"'
                lines.append(
                    f"{name}_bucket{{{inner}}} {_format_value(cumulative)}"
                )
            cumulative += payload["counts"][-1]
            inner = f'{label_body},le="+Inf"' if label_body else 'le="+Inf"'
            lines.append(f"{name}_bucket{{{inner}}} {_format_value(cumulative)}")
            lines.append(f"{name}_sum{labels} {_format_value(payload['sum'])}")
            lines.append(f"{name}_count{labels} {_format_value(payload['count'])}")
            extremes.append((labels, payload.get("min"), payload.get("max")))
        # min/max ride along as gauges (schema 2 snapshots only).
        minima = [(labels, low) for labels, low, _ in extremes if low is not None]
        maxima = [(labels, high) for labels, _, high in extremes if high is not None]
        if minima:
            emit_meta(f"{name}_min", "gauge")
            for labels, low in minima:
                lines.append(f"{name}_min{labels} {_format_value(low)}")
        if maxima:
            emit_meta(f"{name}_max", "gauge")
            for labels, high in maxima:
                lines.append(f"{name}_max{labels} {_format_value(high)}")

    if extra_gauges:
        for raw_name in sorted(extra_gauges):
            name = prefix + sanitize_metric_name(raw_name)
            emit_meta(name, "gauge")
            lines.append(f"{name} {_format_value(extra_gauges[raw_name])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (OpenMetrics text) and ``/health`` (JSON)."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = self.server.render().encode("utf-8")  # type: ignore[attr-defined]
            self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/health":
            payload = self.server.health()  # type: ignore[attr-defined]
            self._reply(
                200, json.dumps(payload).encode("utf-8"), "application/json"
            )
        else:
            self._reply(404, b"not found\n", "text/plain")

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes must not spam the run's stderr.
        pass


class _MetricsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    render: Callable[[], str]
    health: Callable[[], Dict[str, Any]]


class MetricsServer:
    """Background ``/metrics`` endpoint over a snapshot callable.

    Binds ``host:port`` (port 0 picks an ephemeral port — read
    :attr:`port` after :meth:`start`), serves scrapes from daemon
    threads, and never touches the registry beyond calling the
    ``snapshot_fn`` the caller provided.  ``stop()`` shuts the listener
    down; it is also safe to just let the daemon threads die with the
    process.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Dict[str, Any]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
    ) -> None:
        self._snapshot_fn = snapshot_fn
        self.host = host
        self.requested_port = int(port)
        self.prefix = prefix
        self._httpd: Optional[_MetricsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = time.time()
        self._scrapes = 0
        self._scrape_lock = threading.Lock()

    @property
    def port(self) -> int:
        """The bound port (differs from requested when that was 0)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def scrapes(self) -> int:
        return self._scrapes

    def _render(self) -> str:
        with self._scrape_lock:
            self._scrapes += 1
            scrapes = self._scrapes
        return render_openmetrics(
            self._snapshot_fn(),
            prefix=self.prefix,
            extra_gauges={
                "exposition.uptime_seconds": time.time() - self._started_at,
                "exposition.scrapes": scrapes,
            },
        )

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
            "scrapes": self._scrapes,
        }

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        httpd = _MetricsHTTPServer(
            (self.host, self.requested_port), _MetricsHandler
        )
        httpd.render = self._render
        httpd.health = self._health
        self._httpd = httpd
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._httpd = None
        self._thread = None

