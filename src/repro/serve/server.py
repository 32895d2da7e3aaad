"""Threaded stdlib HTTP server for prediction-as-a-service.

``repro serve`` in front of :mod:`repro.serve.protocol`: a
:class:`~http.server.ThreadingHTTPServer` answering

* ``POST /predict`` — single or batched prediction queries (JSON);
* ``GET  /healthz`` — liveness plus the registry snapshot (loaded and
  failed artifacts, audit summaries);
* ``GET  /metrics`` — monotonic work counters (JSON by default,
  Prometheus text exposition with ``Accept: text/plain``).

Counters ride on the trace subsystem's :class:`~repro.trace.Tracer` — the
same ``name -> float`` counter shape campaigns persist to store manifests
— guarded by one lock so concurrent request threads never lose updates
and ``/metrics`` reads are consistent snapshots.  Simulated prediction
math stays deterministic; only observability (latency in the bench
driver) ever touches a real clock, via ``time.perf_counter``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.caching import CacheStats
from repro.serve.protocol import (
    DEFAULT_FEATURE_CACHE,
    PROTOCOL_VERSION,
    FeatureCache,
    PredictRequest,
    ProtocolError,
    answer_request,
)
from repro.serve.registry import (
    ModelRegistry,
    RegistryError,
    UnknownArtifactError,
)
from repro.trace import Tracer

#: Largest request body the server will read, bytes (64 MiB of JSON is
#: far beyond any sane query batch; the cap bounds memory per request).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Per-connection write buffer, bytes.  Status line, headers and body
#: collect here and leave in the single flush that ends each request, so
#: a response up to this size is one send.  Written in two, the small
#: body segment waits under Nagle's algorithm for the client's delayed
#: ACK of the headers: ~40 ms per request for ~0.1 ms of work.
WRITE_BUFFER_BYTES = 64 * 1024

#: Socket timeout, seconds, for every read and write of a connection: a
#: client that stalls mid-request (or idles on a keep-alive connection)
#: frees its handler thread after this long instead of pinning it.
REQUEST_TIMEOUT_S = 30.0


class PredictionServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ModelRegistry`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        registry: ModelRegistry,
        *,
        default_transform: str = "",
        domain_factor: float | None = 10.0,
        feature_cache_size: int = DEFAULT_FEATURE_CACHE,
    ) -> None:
        super().__init__(address, PredictionHandler)
        self.registry = registry
        self.default_transform = default_transform
        self.domain_factor = domain_factor
        self.features = FeatureCache(maxsize=feature_cache_size)
        self.tracer = Tracer()
        self._counter_lock = threading.Lock()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Thread-safe monotonic counter increment."""
        with self._counter_lock:
            self.tracer.count(name, value)

    def metrics(self) -> dict[str, Any]:
        """The /metrics payload: counters + cache + registry state."""
        with self._counter_lock:
            counters = self.tracer.counters
        stats: CacheStats = self.features.stats()
        return {
            "counters": counters,
            "feature_cache": {**stats.to_dict(), "size": len(self.features)},
            "registry": {"reloads": self.registry.reloads},
        }

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, bench mode)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class PredictionHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests; all state lives on the server."""

    server_version = f"repro-serve/{PROTOCOL_VERSION}"
    protocol_version = "HTTP/1.1"
    wbufsize = WRITE_BUFFER_BYTES
    timeout = REQUEST_TIMEOUT_S

    server: PredictionServer  # narrowed for type checkers

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging; /metrics is the signal."""

    def handle_expect_100(self) -> bool:
        """Send the interim ``100 Continue`` now: the client waits for it
        before sending the body, so it cannot sit in the write buffer."""
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def _send_json(
        self, status: int, payload: dict[str, Any], close: bool = False
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send_body(status, body, "application/json", close)

    def _send_body(
        self, status: int, body: bytes, content_type: str, close: bool = False
    ) -> None:
        """Buffer one response; ``handle_one_request`` flushes it."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: the server hangs up after this.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.server.count(f"http_{status}_total")

    def _error(self, status: int, message: str, close: bool = False) -> None:
        self.server.count("errors_total")
        self._send_json(status, {"error": message, "status": status}, close)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.count("http_requests_total")
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._healthz()
        elif path == "/metrics":
            self._metrics()
        elif path == "/predict":
            self._error(405, "use POST /predict")
        else:
            self._error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Every answer given before the body is read closes the
        # connection: the unread bytes would otherwise be parsed as the
        # next request on this keep-alive socket.
        self.server.count("http_requests_total")
        path = self.path.split("?", 1)[0]
        if path != "/predict":
            self._error(
                405 if path in ("/healthz", "/metrics") else 404,
                f"cannot POST to {path!r}",
                close=True,
            )
            return
        self.server.count("predict_requests_total")
        try:
            body = self._read_body()
        except ProtocolError as exc:
            self._error(exc.status, str(exc), close=True)
            return
        try:
            self._predict(body)
        except ProtocolError as exc:
            self._error(exc.status, str(exc))
        except UnknownArtifactError as exc:
            self._error(404, f"unknown model artifact {exc.args[0]!r}")
        except RegistryError as exc:
            # The artifact exists but refuses to serve (v1 document,
            # unreadable file): the request conflicts with registry state.
            self._error(409, str(exc))
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._error(500, f"internal error: {exc}")

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        try:
            n = int(length)
        except (TypeError, ValueError):
            raise ProtocolError("Content-Length header is required", 411)
        if n < 0 or n > MAX_BODY_BYTES:
            raise ProtocolError(f"request body of {n} bytes refused", 413)
        try:
            return self.rfile.read(n)
        except TimeoutError:
            raise ProtocolError(
                f"request body not received within {self.timeout:g} s", 408
            )

    def _predict(self, body: bytes) -> None:
        server = self.server
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}")
        request = PredictRequest.parse(parsed)
        name = (
            request.model
            if request.model is not None
            else server.registry.default_name()
        )
        entry = server.registry.get(name)
        response = answer_request(
            request,
            entry,
            server.features,
            default_transform=server.default_transform,
            default_domain_factor=server.domain_factor,
        )
        server.count("predictions_total", float(len(request.queries)))
        n_warn = (
            sum(
                len(p.get("warnings", ()))
                for p in response.get("predictions", ())
            )
            + len(response.get("prediction", {}).get("warnings", ()))
        )
        if n_warn:
            server.count("prediction_warnings_total", float(n_warn))
        self._send_json(200, response)

    def _healthz(self) -> None:
        snapshot = self.server.registry.snapshot()
        self._send_json(
            200,
            {
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "registry": snapshot.root,
                "models": snapshot.models,
                "failed": snapshot.failed,
            },
        )

    def _metrics(self) -> None:
        payload = self.server.metrics()
        accept = self.headers.get("Accept", "")
        if "text/plain" in accept:
            from repro.trace.export import render_prometheus

            flat = dict(payload["counters"])
            for key, value in payload["feature_cache"].items():
                flat[f"feature_cache_{key}"] = float(value)
            flat["registry_reloads"] = float(payload["registry"]["reloads"])
            self._send_body(
                200,
                render_prometheus(flat).encode(),
                "text/plain; version=0.0.4",
            )
        else:
            self._send_json(200, payload)


def make_server(
    registry: ModelRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    fuse: bool = False,
    domain_factor: float | None = 10.0,
    feature_cache_size: int = DEFAULT_FEATURE_CACHE,
) -> PredictionServer:
    """Construct (but do not start) a server; ``port=0`` picks a free one."""
    return PredictionServer(
        (host, port),
        registry,
        default_transform="inference" if fuse else "",
        domain_factor=domain_factor,
        feature_cache_size=feature_cache_size,
    )
