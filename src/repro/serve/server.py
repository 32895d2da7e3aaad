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
and ``/metrics`` reads are consistent snapshots; a ``/predict`` takes that
lock once, for all of its counters.  Simulated prediction math stays
deterministic and the server reads no real clock (the ``Date`` header is
``http.server``'s); request latency is measured by the client
(perfbench's ``serve`` workload).

The HTTP/1.1 edge is lean and fails closed.  :meth:`PredictionHandler.
parse_request` keeps ``http.server``'s request-line checks (400, 505) and
its line and header-count limits (431), but reads the header block with
:func:`read_headers` instead of ``http.client.parse_headers`` and its
``email`` parser: a folded or colon-less line, a field name that is not a
token, conflicting ``Content-Length`` values or an unterminated block is
a 400 that closes the connection.  A response (status line, headers and
body) is one buffered write, flushed once per request.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO

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

#: How often, seconds, a background server checks for ``shutdown()``.
#: ``socketserver``'s default of 0.5 s makes every stop wait up to that.
BACKGROUND_POLL_S = 0.05

#: ``http.client``'s header limits, kept: bytes of one header line
#: (line ending included) and lines of one header block, counting the
#: blank line that ends it.  Past either the answer is 431.
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

#: Encodes every response body.  ``json.dumps(..., sort_keys=True)``
#: would build a new encoder per call; ``encode`` keeps no state between
#: calls, so one instance serves every handler thread.
_ENCODER = json.JSONEncoder(sort_keys=True)

#: A header field name: an RFC 9110 token, so nothing before the colon
#: may be whitespace (which is also how a folded line is caught).
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class RequestHeaders:
    """One request's header fields, looked up case-insensitively.

    ``get`` answers as ``email.message.Message.get`` does on the same
    block: the first of repeated fields, its value without leading
    blanks or the line ending.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: dict[str, str]) -> None:
        self._fields = fields

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._fields.get(name.lower(), default)


def read_headers(rfile: BinaryIO) -> RequestHeaders:
    """Read a header block up to and including its blank line.

    Raises :class:`ProtocolError` with the status to answer: 431 past
    ``MAX_LINE_BYTES`` or ``MAX_HEADER_LINES``, 400 for a line that is
    not ``token: value`` (a folded continuation, a missing colon,
    whitespace before the colon, a bare CR), for ``Content-Length``
    repeated with another value, or for a block cut off before its
    blank line.
    """
    fields: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("Line too long", 431)
        if line == b"\r\n" or line == b"\n":
            return RequestHeaders(fields)
        if not line.endswith(b"\n"):
            raise ProtocolError("request headers end before the blank line")
        text = line[:-2 if line.endswith(b"\r\n") else -1].decode("latin-1")
        name, colon, value = text.partition(":")
        if not colon or "\r" in text or not _FIELD_NAME.fullmatch(name):
            raise ProtocolError(f"malformed header line {text[:64]!r}")
        key = name.lower()
        value = value.lstrip(" \t")
        first = fields.setdefault(key, value)
        if key == "content-length" and first.strip() != value.strip():
            raise ProtocolError("conflicting Content-Length values")
    raise ProtocolError("Too many headers", 431)


def _version_number(version: str) -> tuple[int, int] | None:
    """``(major, minor)`` of an ``HTTP/x.y`` token under ``http.server``'s
    rules (one dot, ASCII digits, at most ten each); None if malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        p.isascii() and p.isdigit() and len(p) <= 10 for p in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


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

    def count(self, *names: str, **values: float) -> None:
        """Thread-safe monotonic increments in one lock acquisition: one
        for each of ``names``, ``value`` for each ``name=value``."""
        with self._counter_lock:
            for name in names:
                self.tracer.count(name, 1.0)
            for name, value in values.items():
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
        """Run ``serve_forever`` on a daemon thread that ``shutdown()``
        stops within ``BACKGROUND_POLL_S``."""
        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": BACKGROUND_POLL_S},
            name="repro-serve",
            daemon=True,
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

    def parse_request(self) -> bool:
        """Parse the request line and header block (``http.server`` hook).

        The request line gets ``http.server``'s checks and keep-alive
        rules; the header block is read by :func:`read_headers`.  Returns
        False after answering an error (or on an empty request line).
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # Not an HTTP/0.9 line, so an error below gets a status line
            # (http.server would send its bare HTML body).
            self.request_version = version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        self.command = command
        # As http.server does: '//host/...' must not read as a URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_headers(self.rfile)
        except ProtocolError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        """Send the interim ``100 Continue`` now: the client waits for it
        before sending the body, so it cannot sit in the write buffer."""
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        close: bool = False,
        **counts: float,
    ) -> None:
        body = (_ENCODER.encode(payload) + "\n").encode()
        self._send_body(status, body, "application/json", close, **counts)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        close: bool = False,
        **counts: float,
    ) -> None:
        """Buffer one response as one write (``handle_one_request``
        flushes it) and count it with the request's other ``counts``."""
        if close:
            self.close_connection = True
        if self.request_version != "HTTP/0.9":
            connection = "Connection: close\r\n" if close else ""
            head = (
                f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n{connection}\r\n"
            )
            body = head.encode("latin-1") + body
        self.wfile.write(body)
        self.server.count(f"http_{status}_total", **counts)

    def _error(
        self,
        status: int,
        message: str,
        close: bool = False,
        **counts: float,
    ) -> None:
        self._send_json(
            status, {"error": message, "status": status}, close,
            errors_total=1.0, **counts,
        )

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # A GET body is never read, so a GET that announces one is
        # answered with the connection closed: its unread bytes would
        # otherwise be parsed as the next request.
        length = self.headers.get("Content-Length")
        close = self.headers.get("Transfer-Encoding") is not None or (
            length is not None and length.strip() != "0"
        )
        self.server.count("http_requests_total")
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._healthz(close)
        elif path == "/metrics":
            self._metrics(close)
        elif path == "/predict":
            self._error(405, "use POST /predict", close)
        else:
            self._error(404, f"unknown path {path!r}", close)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # Every answer given before the body is read closes the
        # connection: the unread bytes would otherwise be parsed as the
        # next request on this keep-alive socket.  The request's counters
        # go up with its response's, under one lock acquisition.
        path = self.path.split("?", 1)[0]
        if path != "/predict":
            self._error(
                405 if path in ("/healthz", "/metrics") else 404,
                f"cannot POST to {path!r}",
                close=True,
                http_requests_total=1.0,
            )
            return
        counts = {"http_requests_total": 1.0, "predict_requests_total": 1.0}
        try:
            body = self._read_body()
        except ProtocolError as exc:
            self._error(exc.status, str(exc), close=True, **counts)
            return
        try:
            self._predict(body, counts)
        except ProtocolError as exc:
            self._error(exc.status, str(exc), **counts)
        except UnknownArtifactError as exc:
            self._error(
                404, f"unknown model artifact {exc.args[0]!r}", **counts
            )
        except RegistryError as exc:
            # The artifact exists but refuses to serve (v1 document,
            # unreadable file): the request conflicts with registry state.
            self._error(409, str(exc), **counts)
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._error(500, f"internal error: {exc}", **counts)

    def _read_body(self) -> bytes:
        if self.headers.get("Transfer-Encoding") is not None:
            # Even beside a Content-Length: the two disagree on where the
            # body ends, so neither may decide it.
            raise ProtocolError(
                "Transfer-Encoding is not supported; send Content-Length",
                411,
            )
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

    def _predict(self, body: bytes, counts: dict[str, float]) -> None:
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
        counts["predictions_total"] = float(len(request.queries))
        n_warn = (
            sum(
                len(p.get("warnings", ()))
                for p in response.get("predictions", ())
            )
            + len(response.get("prediction", {}).get("warnings", ()))
        )
        if n_warn:
            counts["prediction_warnings_total"] = float(n_warn)
        self._send_json(200, response, **counts)

    def _healthz(self, close: bool) -> None:
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
            close,
        )

    def _metrics(self, close: bool) -> None:
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
                close,
            )
        else:
            self._send_json(200, payload, close)


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
