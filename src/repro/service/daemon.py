"""The scord-serve HTTP layer: routing, drain choreography, signals.

A :class:`ServiceDaemon` wraps one :class:`~repro.service.jobs.JobManager`
behind a stdlib ``ThreadingHTTPServer``.  The handler is deliberately
thin: parse the route, hand the body to the manager, serialize the
answer — every policy decision (validation, preflight, quota, fairness)
lives in :mod:`repro.service.jobs` where the contract tests can reach
it without a socket.

Routes::

    POST /v1/jobs                    submit            202 / 4xx / 503
    GET  /v1/jobs/{id}               status            200 / 404
    GET  /v1/jobs/{id}/report        full report       200 / 404
    GET  /v1/jobs/{id}/report?stream=1   NDJSON stream 200 / 404
    GET  /healthz                    liveness + drain state
    GET  /metrics                    Prometheus 0.0.4 text

Draining: ``SIGTERM`` (or :meth:`ServiceDaemon.drain`) flips the daemon
to *draining* — ``POST /v1/jobs`` answers 503 ``draining``, ``/healthz``
reports ``"state": "draining"``, in-flight jobs run to completion, the
run store is flushed (every append already fsyncs), the worker pool
shuts down, and the listener closes.  Status and report endpoints stay
up until the listener closes so clients can collect results.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobManager, ServiceConfig
from repro.service.schemas import ServiceError

#: request bodies above this are refused outright (64 MiB)
MAX_BODY_BYTES = 64 * 1024 * 1024

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.daemon`` (a ServiceDaemon)."""

    # Close-delimited streaming bodies need HTTP/1.0 semantics; every
    # non-streaming response carries an explicit Content-Length anyway.
    protocol_version = "HTTP/1.0"

    # -- plumbing ------------------------------------------------------
    @property
    def daemon(self) -> "ServiceDaemon":
        return self.server.daemon  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002
        if self.daemon.manager.config.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, error: ServiceError) -> None:
        payload = error.to_dict()
        retry = payload["error"].get("retry_after_seconds")
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(error.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry is not None:
            self.send_header("Retry-After", str(max(1, int(retry + 0.5))))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                "bad-request", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ServiceError(
                "malformed-json", f"body is not valid JSON: {err}"
            ) from None

    # -- verbs ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def _dispatch(self, method: str) -> None:
        daemon = self.daemon
        url = urlparse(self.path)
        route = url.path.rstrip("/") or "/"
        started = time.monotonic()
        telemetry = daemon.manager.telemetry
        status = 500
        try:
            with telemetry.tracer.span(
                "service.request", cat="service", method=method, path=route
            ):
                status = self._route(method, route, url)
        except ServiceError as err:
            status = err.status
            self._send_error(err)
        except BrokenPipeError:
            status = 499  # client went away mid-response
        except Exception as err:  # pragma: no cover - last resort
            status = 500
            try:
                self._send_error(
                    ServiceError(
                        "internal", f"{type(err).__name__}: {err}"
                    )
                )
            except OSError:
                pass
        finally:
            telemetry.metrics.counter(
                "service.requests", method=method, status=str(status)
            ).inc()
            telemetry.metrics.histogram("service.request.seconds").observe(
                time.monotonic() - started
            )

    # -- routing -------------------------------------------------------
    def _route(self, method: str, route: str, url) -> int:
        manager = self.daemon.manager
        if route == "/healthz":
            if method != "GET":
                raise ServiceError(
                    "method-not-allowed", f"{method} not allowed here"
                )
            return self._healthz()
        if route == "/metrics":
            if method != "GET":
                raise ServiceError(
                    "method-not-allowed", f"{method} not allowed here"
                )
            return self._metrics()
        if route == "/v1/jobs":
            if method != "POST":
                raise ServiceError(
                    "method-not-allowed", "use POST /v1/jobs to submit"
                )
            return self._submit()
        if route.startswith("/v1/jobs/"):
            if method != "GET":
                raise ServiceError(
                    "method-not-allowed", f"{method} not allowed here"
                )
            rest = route[len("/v1/jobs/"):]
            if rest.endswith("/report"):
                job = manager.job(rest[: -len("/report")])
                query = parse_qs(url.query)
                if query.get("stream", ["0"])[0] in ("1", "true"):
                    return self._stream_report(job)
                self._send_json(200, manager.report_dict(job))
                return 200
            job = manager.job(rest)
            self._send_json(200, job.status_dict())
            return 200
        raise ServiceError("not-found", f"no route {method} {route}")

    def _submit(self) -> int:
        from repro.service.schemas import client_name

        payload = self._read_body()
        client = client_name(self.headers.get("X-Scord-Client"), payload)
        job = self.daemon.manager.submit(client, payload)
        self._send_json(202, job.status_dict())
        return 202

    def _healthz(self) -> int:
        manager = self.daemon.manager
        stats = manager.stats()
        self._send_json(
            200,
            {
                "ok": True,
                "state": "draining" if manager.draining else "serving",
                "uptime_seconds": round(self.daemon.uptime(), 3),
                **stats,
            },
        )
        return 200

    def _metrics(self) -> int:
        text = self.daemon.manager.telemetry.metrics.to_prometheus()
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return 200

    def _stream_report(self, job) -> int:
        """NDJSON: status line, one line per unit as it lands, summary."""
        manager = self.daemon.manager
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

        def line(doc: dict) -> None:
            self.wfile.write((json.dumps(doc) + "\n").encode())
            self.wfile.flush()

        line(job.status_dict())
        for unit in manager.iter_unit_results(job):
            line(unit)
        line({"done": True, **job.status_dict()})
        return 200


class ServiceDaemon:
    """One listener + one JobManager + the drain choreography."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        telemetry=None,
        manager: Optional[JobManager] = None,
    ):
        self.config = config or ServiceConfig()
        self.manager = manager or JobManager(
            self.config, telemetry=telemetry
        )
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._server.daemon_threads = True
        self._server.daemon = self  # type: ignore[attr-defined]
        self._started = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self._drained = threading.Event()

    # -- addresses -----------------------------------------------------
    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def uptime(self) -> float:
        return time.monotonic() - self._started

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServiceDaemon":
        """Serve in a background thread (tests and embedding)."""
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="scord-serve-listener",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self, install_signals: bool = True) -> None:
        """Serve on the calling thread until SIGTERM/SIGINT drains us."""
        if install_signals:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        try:
            self._server.serve_forever()
        finally:
            self._drained.wait(timeout=1)

    def _on_signal(self, signum, frame) -> None:
        # Handlers must return fast: drain on a helper thread, which
        # stops the serve_forever loop once the backend is quiet.
        threading.Thread(
            target=self.drain, name="scord-serve-drain", daemon=True
        ).start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: 503 new work, finish in-flight, stop."""
        drained = self.manager.drain(timeout=timeout)
        self._server.shutdown()
        self._server.server_close()
        self._drained.set()
        return drained

    def close(self) -> None:
        """Hard stop (tests): cancel queued units, let running ones end."""
        self.manager.close()
        self._server.shutdown()
        self._server.server_close()
        self._drained.set()
