"""A tiny stdlib metrics endpoint: ``/metrics`` + ``/healthz``.

``repro check|campaign --metrics-port N`` starts one
:class:`MetricsServer` in a daemon thread for the duration of the
command.  It serves:

* ``GET /metrics`` — the live registry rendered by
  :func:`~repro.telemetry.export.render_prometheus` (plus the bus's
  ``events_dropped`` counter), scrape-ready for Prometheus;
* ``GET /healthz`` — a JSON liveness document: uptime, events
  published/dropped, and per-worker heartbeat staleness (``ok`` flips
  to ``"stalled"`` while any worker is past the stall threshold).

Port 0 binds an ephemeral port (the chosen one is in
:attr:`MetricsServer.port` and printed by the CLI).  The server reads
shared state — it never writes — so it cannot perturb a verdict; the
registry snapshot it renders is the same data ``repro stats`` reports
after the run.

:func:`write_prometheus_snapshot` is the serverless variant: one
text-format snapshot written to a file, for scrapes via node-exporter's
textfile collector or plain artifact upload.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core import failpoints
from repro.telemetry.export import render_prometheus

#: Staleness (seconds) past which /healthz reports a worker as stalled.
#: Mirrors the engine's default in repro.core.engine.heartbeat.
DEFAULT_STALL_S = 5.0


def _extra_counters(telemetry) -> dict:
    """Counters living outside the registry (bus drop accounting)."""
    dropped = getattr(telemetry.sink, "events_dropped", 0)
    return {"events_dropped": dropped} if dropped else {}


def render_metrics(telemetry) -> str:
    """The live Prometheus payload for one telemetry session."""
    if failpoints.ENABLED:
        failpoints.fire("telemetry.metrics.render")
    return render_prometheus(telemetry.registry.snapshot(),
                             extra_counters=_extra_counters(telemetry))


def health_document(telemetry, started_monotonic: float,
                    stall_after_s: float = DEFAULT_STALL_S) -> dict:
    """The /healthz JSON document: liveness + per-worker staleness."""
    snapshot = telemetry.registry.snapshot()
    workers = {}
    stalled = []
    for key, value in (snapshot.get("gauges") or {}).items():
        if key.startswith("worker_staleness_seconds{") and value is not None:
            pid = key[len("worker_staleness_seconds{worker="):].rstrip("}")
            workers[pid] = {"staleness_s": value}
            if value >= stall_after_s:
                stalled.append(pid)
    counters = snapshot.get("counters") or {}
    return {
        "status": "stalled" if stalled else "ok",
        "uptime_s": time.monotonic() - started_monotonic,
        "runs_completed": counters.get("runs_completed", 0),
        "events_dropped": _extra_counters(telemetry).get("events_dropped", 0),
        "workers": workers,
        "stalled_workers": stalled,
    }


def write_prometheus_snapshot(telemetry, path: str) -> None:
    """Write one scrape-format snapshot to *path* (atomic rename-free:
    a single buffered write, the textfile-collector convention)."""
    with open(path, "w") as handle:
        handle.write(render_metrics(telemetry))


class MetricsServer:
    """Serve ``/metrics`` and ``/healthz`` for one telemetry session."""

    def __init__(self, telemetry, port: int = 0, host: str = "127.0.0.1",
                 stall_after_s: float = DEFAULT_STALL_S):
        self.telemetry = telemetry
        self.host = host
        self.port = port  # rebound to the actual port by start()
        self.stall_after_s = stall_after_s
        self._started = time.monotonic()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # noqa: A002 - BaseHTTP API
                pass  # scrape traffic must not spam the checker's stderr

            def _respond(self, status: int, content_type: str,
                         body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):  # noqa: N802 - BaseHTTP API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._respond(200, "text/plain; version=0.0.4",
                                      render_metrics(server.telemetry))
                    elif path == "/healthz":
                        doc = health_document(server.telemetry,
                                              server._started,
                                              server.stall_after_s)
                        self._respond(200 if doc["status"] == "ok" else 503,
                                      "application/json",
                                      json.dumps(doc, sort_keys=True))
                    else:
                        self._respond(404, "text/plain",
                                      "repro metrics endpoint: try /metrics "
                                      "or /healthz\n")
                except Exception:
                    # A scrape racing session teardown (registry mid-
                    # mutation, render failure) gets an explicit 503,
                    # never a handler traceback on the checker's stderr.
                    try:
                        self._respond(503, "text/plain", "scrape failed\n")
                    except OSError:
                        pass  # client side already gone too

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._started = time.monotonic()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-http",
                                        kwargs={"poll_interval": 0.1},
                                        daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
