"""Serve telemetry over HTTP: a scrape endpoint for live deployments.

``repro serve`` runs a scenario and leaves a small stdlib HTTP server
up so a Prometheus scraper (or a human with curl) can read the
deployment's metrics:

- ``GET /metrics``  -- Prometheus text exposition
  (:func:`~repro.telemetry.export.prometheus_text`)
- ``GET /healthz``  -- liveness: 200 and a one-line status; with a
  :class:`~repro.telemetry.health.HealthWatchdog` attached, a JSON
  document with the health score, status, rolling percentiles, and
  the recent anomaly list
- ``GET /trace.json`` -- the full trace document
  (:func:`~repro.telemetry.export.trace_json`), including the causal
  critical-path attribution when tracing is enabled

The server runs on a daemon thread and renders each response at
request time, so repeated scrapes observe the telemetry as it stands
-- useful when the simulation is advanced between scrapes (tests do
exactly that).  Only the stdlib is used; nothing to install.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.telemetry.export import prometheus_text, trace_json


class MetricsServer:
    """A threaded HTTP server exposing one Telemetry object.

    ``port=0`` (the default) binds an ephemeral port; read ``port``
    after :meth:`start` for the actual one.  ``health`` is an optional
    zero-arg callable returning a status line for ``/healthz``; a
    ``watchdog`` (:class:`~repro.telemetry.health.HealthWatchdog`)
    upgrades ``/healthz`` to the full JSON health document instead.
    """

    def __init__(self, telemetry, host: str = "127.0.0.1", port: int = 0,
                 health: Optional[Callable[[], str]] = None,
                 watchdog=None,
                 tickets: Optional[Callable[[], list]] = None):
        self.telemetry = telemetry
        self.host = host
        self.port = port
        self.health = health or (lambda: "ok")
        self.watchdog = watchdog
        #: Optional zero-arg callable returning the deployment's
        #: problem tickets (:meth:`~repro.core.crashpad.ticket.
        #: TicketStore.all`); serves ``/tickets.json`` with each
        #: ticket's full document, minimized repros included.
        self.tickets = tickets
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                try:
                    if self.path in ("/metrics", "/"):
                        body = prometheus_text(server.telemetry.metrics)
                        ctype = "text/plain; version=0.0.4"
                    elif self.path == "/healthz":
                        if server.watchdog is not None:
                            payload = server.watchdog.healthz_payload()
                            # The liveness line keeps its place as a
                            # human-readable field inside the document.
                            payload["detail"] = server.health()
                            body = json.dumps(payload, indent=2)
                            ctype = "application/json"
                        else:
                            body = server.health() + "\n"
                            ctype = "text/plain"
                    elif self.path == "/trace.json":
                        body = trace_json(server.telemetry)
                        ctype = "application/json"
                    elif self.path == "/tickets.json":
                        rows = (server.tickets()
                                if server.tickets is not None else [])
                        body = json.dumps(
                            {"tickets": [t.to_dict() for t in rows]},
                            indent=2)
                        ctype = "application/json"
                    else:
                        self.send_error(404, "unknown path")
                        return
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    self.send_error(500, str(exc))
                    return
                payload = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # quiet: no per-request noise
                pass

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-metrics-server",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
