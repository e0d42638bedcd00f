"""HTTP operability sidecar: ``/metrics`` and ``/health`` for a service.

The framed TCP protocol of :mod:`repro.service.server` is for clients;
operators want scrapeable endpoints.  :class:`MetricsServer` attaches a
tiny threaded HTTP server to a running
:class:`~repro.service.service.RetrievalService` and serves:

* ``GET /metrics`` — the full ``repro stats`` counter set (sessions,
  store reads/writes, cache hit rate, per-tier hits when tiered, the
  WAL durability counters, and the resilience surface: admitted / shed /
  degraded request counts, and the backing store's
  retry/breaker counters including the numeric
  ``repro_resilience_breaker_is_open``) in Prometheus text exposition
  format, every sample prefixed ``repro_``;
* ``GET /health`` — a small JSON liveness document (``status``,
  variable count, active sessions, durability counters) suitable for a
  load-balancer or Kubernetes probe.

Started alongside the retrieval server by ``repro serve
--metrics-port``; both endpoints read a consistent
:class:`~repro.service.service.ServiceStats` snapshot per request and
never block retrievals or ingests.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.service import RetrievalService, ServiceStats


def _flatten(prefix: str, obj, out: list) -> None:
    """Flatten nested dicts of numbers into ``(name, value)`` samples."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}_{key}", value, out)
    elif isinstance(obj, bool):
        out.append((prefix, int(obj)))
    elif isinstance(obj, (int, float)) and obj == obj:  # drop NaN
        out.append((prefix, obj))


def render_metrics(stats: ServiceStats) -> str:
    """Render a stats snapshot as Prometheus text exposition format.

    Every counter of the ``repro stats`` surface becomes one
    ``repro_<path>`` sample (nested dataclasses flatten with ``_``
    separators, e.g. ``repro_durability_dead_bytes``); the derived cache
    hit rate is added as ``repro_cache_hit_rate`` and the planner's as
    ``repro_planner_plan_cache_hit_rate``.
    """
    samples: list = []
    _flatten("repro", stats.payload(), samples)
    lines = []
    for name, value in samples:
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


def health_payload(service: RetrievalService) -> dict:
    """The ``/health`` JSON document (shared with the ``health`` op).

    ``status`` is ``"ok"`` whenever the snapshot can be taken — the
    probe's real signal is that the service answered at all — and the
    body carries enough (variables, active sessions, WAL durability
    counters) for an operator to see state at a glance.
    """
    stats = service.stats()
    return {
        "status": "ok",
        "variables": len(service.variables()),
        "sessions_active": stats.sessions_active,
        "sessions_opened": stats.sessions_opened,
        "durability": asdict(stats.durability) if stats.durability else {},
    }


class _MetricsHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = render_metrics(self.server.service.stats()).encode()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/health":
                body = (
                    json.dumps(health_payload(self.server.service)) + "\n"
                ).encode()
                ctype = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics or /health)")
                return
        except Exception as exc:  # a probe must see failures, not silence
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        """Silence per-request logging (probes hit /health constantly)."""


class MetricsServer(ThreadingHTTPServer):
    """Threaded ``/metrics`` + ``/health`` HTTP server over one service.

    Pass ``port=0`` for an ephemeral port (tests); the bound address is
    :attr:`address`.  :meth:`start` serves on a daemon thread;
    :meth:`stop` shuts it down.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: RetrievalService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _MetricsHandler)
        self.service = service
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self.server_address[:2]

    def start(self) -> "MetricsServer":
        """Serve on a background daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
