"""Single-threaded stdlib HTTP server for prediction-as-a-service.

``repro serve`` in front of :mod:`repro.serve.protocol`: one
:mod:`selectors` event loop answering

* ``POST /predict`` — single or batched prediction queries (JSON);
* ``GET  /healthz`` — liveness plus the registry snapshot (loaded and
  failed artifacts, audit summaries);
* ``GET  /metrics`` — monotonic work counters (JSON by default,
  Prometheus text exposition with ``Accept: text/plain``).

One thread serves every connection.  The listener and each connection are
non-blocking sockets on one selector; a connection keeps an input
``bytearray``, complete requests are cut off its front and answered in
order, and each response (status line, headers and body) leaves in one
``send``.  Only a send the kernel takes in part leaves a remainder, sent
when the socket turns writable.  There is no handler thread per
connection and no hand-off of the GIL per request.  The price is
head-of-line blocking: a request's CPU work (a cold feature-cache miss
builds a graph, milliseconds; a 1,000-query body) delays every other
connection until it is done.  Under the GIL a thread per connection
serialised that work too, only interleaved at the 5 ms switch interval.

Counters ride on the trace subsystem's :class:`~repro.trace.Tracer` — the
same ``name -> float`` counter shape campaigns persist to store manifests
— guarded by one lock so ``/metrics`` reads from other threads are
consistent snapshots; a ``/predict`` takes that lock once, for all of its
counters.  Simulated prediction math stays deterministic; the server
reads the clock only for the ``Date`` header and connection deadlines.
Request latency is measured by the client (perfbench's ``serve``
workload).

The HTTP/1.1 edge is lean and fails closed.  A request line gets
``http.server``'s checks (400, 414, 505, answered with its HTML error
page); the header block is read by :func:`read_headers` instead of
``http.client.parse_headers`` and its ``email`` parser: a folded or
colon-less line, a field name that is not a token, conflicting
``Content-Length`` values or an unterminated block is a 400 that closes
the connection.  Every connection has a deadline ``REQUEST_TIMEOUT_S``
after the last bytes it moved: a request stalled mid-body is answered
408, a connection stalled mid-head or idle between requests is closed.
Past ``MAX_CONNECTIONS`` open connections a new one is answered 503.
"""

from __future__ import annotations

import html
import io
import json
import re
import selectors
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import DEFAULT_ERROR_CONTENT_TYPE, DEFAULT_ERROR_MESSAGE
from typing import Any, BinaryIO

from repro.caching import CacheStats
from repro.serve.protocol import (
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

#: Deadline, seconds, of every connection after the last bytes it
#: received or sent: a client that stalls mid-request (or idles on a
#: keep-alive connection) is dropped after this long instead of holding
#: its socket and buffers.
REQUEST_TIMEOUT_S = 30.0

#: How often, seconds, a background server checks for ``shutdown()``.
BACKGROUND_POLL_S = 0.05

#: ``http.client``'s header limits, kept: bytes of one header line
#: (line ending included) and lines of one header block, counting the
#: blank line that ends it.  Past either the answer is 431.  A request
#: line past ``MAX_LINE_BYTES`` is a 414, as in ``http.server``.
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

#: Connections served at once.  One more is answered 503 with
#: ``Connection: close`` and closed; open ones are unaffected.  The cap
#: bounds the sockets and buffers one server holds, and stays below the
#: usual limit of 1,024 open files.
MAX_CONNECTIONS = 512

#: Bytes asked of each ``recv``.
_RECV_BYTES = 65536

#: Encodes every response body.  ``json.dumps(..., sort_keys=True)``
#: would build a new encoder per call; ``encode`` keeps no state between
#: calls.
_ENCODER = json.JSONEncoder(sort_keys=True)

#: The ``Server`` header, as ``http.server`` spells it.
_SERVER = f"repro-serve/{PROTOCOL_VERSION} Python/{sys.version.split()[0]}"

_JSON = "application/json"

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


_NO_HEADERS = RequestHeaders({})


class _Incomplete(Exception):
    """The buffered bytes end inside the request head."""


class _HeadReader(io.BytesIO):
    """A connection's buffered input as the ``rfile`` of a request head.

    ``readline`` returns what a socket file's would, except that where
    that one would block for more bytes it raises :class:`_Incomplete`.
    Once the client has sent its last byte (``eof``) it returns the
    partial line, as a socket file does.
    """

    def __init__(self, data: bytearray, eof: bool) -> None:
        super().__init__(data)
        self.eof = eof

    def readline(self, limit: int | None = -1) -> bytes:
        line = super().readline(limit)
        if not (line.endswith(b"\n") or len(line) == limit or self.eof):
            raise _Incomplete
        return line


class _Request:
    """One request head, as the routes read it."""

    __slots__ = ("command", "path", "version", "headers", "close", "length")

    def __init__(self, version: str) -> None:
        self.command = ""
        self.path = ""
        self.version = version
        self.headers = _NO_HEADERS
        #: Close the connection once this request is answered.
        self.close = True
        #: Body bytes a POST /predict waits for.
        self.length = 0


class _Connection:
    """One client socket and the bytes buffered either way."""

    __slots__ = ("sock", "address", "inbuf", "outbuf", "deadline", "eof",
                 "pending", "closing")

    def __init__(self, sock: socket.socket, address: Any,
                 deadline: float) -> None:
        self.sock = sock
        self.address = address
        self.inbuf = bytearray()
        #: The part of a response the socket has not taken yet.
        self.outbuf: bytes | memoryview = b""
        self.deadline = deadline
        #: The client has sent its last byte.
        self.eof = False
        #: A POST /predict whose body has not all arrived.
        self.pending: _Request | None = None
        #: Close once ``outbuf`` is sent.
        self.closing = False


def _json_body(payload: dict[str, Any]) -> bytes:
    return (_ENCODER.encode(payload) + "\n").encode()


class PredictionServer:
    """HTTP server bound to one :class:`ModelRegistry`."""

    #: Connection deadline, seconds; see ``REQUEST_TIMEOUT_S``.
    timeout = REQUEST_TIMEOUT_S

    def __init__(
        self,
        address: tuple[str, int],
        registry: ModelRegistry,
        *,
        default_transform: str = "",
        domain_factor: float | None = 10.0,
    ) -> None:
        self.registry = registry
        self.default_transform = default_transform
        self.domain_factor = domain_factor
        self.features = FeatureCache()
        self.tracer = Tracer()
        self._counter_lock = threading.Lock()
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._connections: set[_Connection] = set()
        self._shutdown_request = False
        self._is_shut_down = threading.Event()

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

    # -- life cycle --------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve every connection until ``shutdown()``, which this loop
        notices within ``poll_interval`` seconds."""
        self._is_shut_down.clear()
        try:
            while not self._shutdown_request:
                timeout = poll_interval
                if self._connections:
                    now = time.monotonic()
                    nearest = min(c.deadline for c in self._connections)
                    if nearest <= now:
                        self._expire(now)
                        continue
                    timeout = min(timeout, nearest - now)
                for key, events in self._selector.select(timeout):
                    if key.data is None:
                        self._accept()
                    else:
                        self._serve(key.data, events)
        finally:
            self._shutdown_request = False
            self._is_shut_down.set()

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

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and wait until it has returned.  Call it
        from another thread; open connections stay open."""
        self._shutdown_request = True
        self._is_shut_down.wait()

    def server_close(self) -> None:
        """Close the listener and every open connection."""
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()

    def handle_error(self, request: socket.socket, address: Any) -> None:
        """Called inside the ``except`` block of an unexpected exception
        while serving connection ``request``, which is closed next.
        Prints one line, not a traceback."""
        print(f"serve: dropped a connection from {address}: "
              f"{sys.exc_info()[1]!r}", file=sys.stderr)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- connections -------------------------------------------------------

    def _accept(self) -> None:
        try:
            sock, address = self.socket.accept()
        except OSError:  # gone before accept, or out of descriptors
            return
        sock.setblocking(False)
        conn = _Connection(sock, address, time.monotonic() + self.timeout)
        if len(self._connections) >= MAX_CONNECTIONS:
            try:
                self._error(
                    conn, _Request("HTTP/1.1"), 503,
                    f"server at its limit of {MAX_CONNECTIONS} "
                    "connections; retry later",
                    close=True,
                )
            except OSError:
                pass
            self._shut(sock)
            return
        # Pipelined requests get their answers in back-to-back sends;
        # under Nagle's algorithm the second would wait for the client's
        # delayed ACK of the first.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connections.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _serve(self, conn: _Connection, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            elif events & selectors.EVENT_READ:
                self._receive(conn)
        except OSError:  # reset or broken pipe: the client is gone
            self._close(conn)
        except Exception:
            self.handle_error(conn.sock, conn.address)
            self._close(conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        inbuf = conn.inbuf
        if data:
            inbuf += data
            conn.deadline = time.monotonic() + self.timeout
        else:
            conn.eof = True
        # A head is parsed again only once one of its lines is complete
        # (or too long to be), so a head that trickles in is not parsed
        # once per byte.
        if (
            conn.pending is not None
            or b"\n" in data
            or conn.eof
            or len(inbuf) - inbuf.rfind(b"\n") > MAX_LINE_BYTES + 1
        ):
            self._handle_requests(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        conn.outbuf = conn.outbuf[sent:]
        conn.deadline = time.monotonic() + self.timeout
        if not conn.outbuf:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            self._handle_requests(conn)

    def _send(self, conn: _Connection, data: bytes) -> None:
        """Send one whole response, or as much as the socket takes and
        the rest when it turns writable."""
        if conn.outbuf:
            conn.outbuf = bytes(conn.outbuf) + data
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data) and conn in self._connections:
            conn.outbuf = memoryview(data)[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _expire(self, now: float) -> None:
        for conn in [c for c in self._connections if c.deadline <= now]:
            request = conn.pending
            if request is not None and not conn.outbuf:
                try:
                    self._error(
                        conn, request, 408,
                        f"request body not received within "
                        f"{self.timeout:g} s",
                        close=True,
                        http_requests_total=1.0,
                        predict_requests_total=1.0,
                    )
                except OSError:
                    pass
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.discard(conn)
            self._selector.unregister(conn.sock)
            self._shut(conn.sock)

    @staticmethod
    def _shut(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        sock.close()

    # -- requests ----------------------------------------------------------

    # repro-perf: hot
    def _handle_requests(self, conn: _Connection) -> None:
        """Answer the complete requests at the front of ``conn``'s input
        in order, until one is incomplete, the connection is to close or
        a response waits for the socket."""
        while not (conn.outbuf or conn.closing):
            request = conn.pending
            if request is None:
                request = self._read_head(conn)
                if request is None:
                    break
                if not self._route(conn, request):
                    continue
            inbuf = conn.inbuf
            if len(inbuf) < request.length and not conn.eof:
                conn.pending = request
                return
            conn.pending = None
            body = inbuf[:request.length]
            del inbuf[:request.length]
            self._predict(conn, request, body)
        if conn.closing and not conn.outbuf:
            self._close(conn)

    def _read_head(self, conn: _Connection) -> _Request | None:
        """Cut the request line and header block off ``conn``'s input.

        The request line gets ``http.server``'s checks and keep-alive
        rules; the header block is read by :func:`read_headers`.  Returns
        None after answering an error or when the connection is to close
        (both set ``conn.closing``), and when the head is incomplete.
        """
        if not (conn.inbuf or conn.eof):
            return None
        rfile = _HeadReader(conn.inbuf, conn.eof)
        try:
            raw = rfile.readline(MAX_LINE_BYTES + 1)
        except _Incomplete:
            return None
        if len(raw) > MAX_LINE_BYTES:
            self._send_error(conn, _Request(""), 414)
            return None
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:  # EOF, or an empty line
            conn.closing = True
            return None
        request = _Request("HTTP/0.9")
        if len(words) >= 3:
            # Not an HTTP/0.9 line, so an error below gets a status line
            # (http.server would send its bare HTML body).
            request.version = version = words[-1]
            number = _version_number(version)
            if number is None:
                self._send_error(
                    conn, request, 400, f"Bad request version ({version!r})"
                )
                return None
            if number >= (1, 1):
                request.close = False
            if number >= (2, 0):
                self._send_error(
                    conn, request, 505,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return None
        if not 2 <= len(words) <= 3:
            self._send_error(
                conn, request, 400, f"Bad request syntax ({requestline!r})"
            )
            return None
        command, path = words[:2]
        request.command = command
        if len(words) == 2:
            request.close = True
            if command != "GET":
                self._send_error(
                    conn, request, 400,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return None
        # As http.server does: '//host/...' must not read as a URL.
        request.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            request.headers = headers = read_headers(rfile)
        except _Incomplete:
            return None
        except ProtocolError as exc:
            self._send_error(conn, request, exc.status, str(exc))
            return None
        del conn.inbuf[:rfile.tell()]
        connection = headers.get("Connection", "").lower()
        if connection == "close":
            request.close = True
        elif connection == "keep-alive":
            request.close = False
        if (
            headers.get("Expect", "").lower() == "100-continue"
            and request.version >= "HTTP/1.1"
        ):
            # The client waits for this before it sends the body, so it
            # leaves now, in a send of its own.
            self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
        return request

    def _send_error(
        self,
        conn: _Connection,
        request: _Request,
        status: int,
        message: str | None = None,
    ) -> None:
        """Answer as ``http.server``'s ``send_error`` does: its HTML page,
        the message as the reason phrase, the connection closed and no
        counter moved."""
        entry = HTTPStatus(status)
        if message is None:
            message = entry.phrase
        body = (DEFAULT_ERROR_MESSAGE % {
            "code": status,
            "message": html.escape(message, quote=False),
            "explain": html.escape(entry.description, quote=False),
        }).encode("UTF-8", "replace")
        head = b""
        if request.version != "HTTP/0.9":
            head = (
                f"HTTP/1.1 {status} {message}\r\n"
                f"Server: {_SERVER}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                f"Connection: close\r\n"
                f"Content-Type: {DEFAULT_ERROR_CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1", "strict")
        conn.closing = True
        self._send(conn, head if request.command == "HEAD" else head + body)

    def _respond(
        self,
        conn: _Connection,
        request: _Request,
        status: int,
        body: bytes,
        content_type: str = _JSON,
        close: bool = False,
        **counts: float,
    ) -> None:
        """Count one response with the request's other ``counts``, then
        send it whole."""
        if close or request.close:
            conn.closing = True
        if request.version != "HTTP/0.9":
            connection = "Connection: close\r\n" if close else ""
            head = (
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Server: {_SERVER}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n{connection}\r\n"
            )
            body = head.encode("latin-1") + body
        self.count(f"http_{status}_total", **counts)
        self._send(conn, body)

    def _error(
        self,
        conn: _Connection,
        request: _Request,
        status: int,
        message: str,
        close: bool = False,
        **counts: float,
    ) -> None:
        self._respond(
            conn, request, status,
            _json_body({"error": message, "status": status}),
            close=close, errors_total=1.0, **counts,
        )

    # -- routes ------------------------------------------------------------

    def _route(self, conn: _Connection, request: _Request) -> bool:
        """Answer ``request`` from its head, or return True for a POST
        /predict, whose body is to be read."""
        if request.command == "GET":
            self._get(conn, request)
            return False
        if request.command != "POST":
            self._send_error(
                conn, request, 501,
                f"Unsupported method ({request.command!r})",
            )
            return False
        # Every answer given before the body is read closes the
        # connection: the unread bytes would otherwise be parsed as the
        # next request on this keep-alive socket.  The request's counters
        # go up with its response's, under one lock acquisition.
        path = request.path.split("?", 1)[0]
        if path != "/predict":
            self._error(
                conn, request,
                405 if path in ("/healthz", "/metrics") else 404,
                f"cannot POST to {path!r}",
                close=True,
                http_requests_total=1.0,
            )
            return False
        try:
            request.length = self._body_length(request.headers)
        except ProtocolError as exc:
            self._error(
                conn, request, exc.status, str(exc), close=True,
                http_requests_total=1.0, predict_requests_total=1.0,
            )
            return False
        return True

    def _get(self, conn: _Connection, request: _Request) -> None:
        # A GET body is never read, so a GET that announces one is
        # answered with the connection closed: its unread bytes would
        # otherwise be parsed as the next request.
        headers = request.headers
        length = headers.get("Content-Length")
        close = headers.get("Transfer-Encoding") is not None or (
            length is not None and length.strip() != "0"
        )
        self.count("http_requests_total")
        path = request.path.split("?", 1)[0]
        if path == "/healthz":
            snapshot = self.registry.snapshot()
            self._respond(conn, request, 200, _json_body({
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "registry": snapshot.root,
                "models": snapshot.models,
                "failed": snapshot.failed,
            }), close=close)
        elif path == "/metrics":
            self._metrics(conn, request, close)
        elif path == "/predict":
            self._error(conn, request, 405, "use POST /predict", close)
        else:
            self._error(conn, request, 404, f"unknown path {path!r}", close)

    @staticmethod
    def _body_length(headers: RequestHeaders) -> int:
        if headers.get("Transfer-Encoding") is not None:
            # Even beside a Content-Length: the two disagree on where the
            # body ends, so neither may decide it.
            raise ProtocolError(
                "Transfer-Encoding is not supported; send Content-Length",
                411,
            )
        length = headers.get("Content-Length")
        try:
            n = int(length)
        except (TypeError, ValueError):
            raise ProtocolError("Content-Length header is required", 411)
        if n < 0 or n > MAX_BODY_BYTES:
            raise ProtocolError(f"request body of {n} bytes refused", 413)
        return n

    def _predict(
        self, conn: _Connection, request: _Request, body: bytearray
    ) -> None:
        counts = {"http_requests_total": 1.0, "predict_requests_total": 1.0}
        try:
            payload = _json_body(self._answer(body, counts))
        except ProtocolError as exc:
            self._error(conn, request, exc.status, str(exc), **counts)
        except UnknownArtifactError as exc:
            self._error(
                conn, request, 404,
                f"unknown model artifact {exc.args[0]!r}", **counts,
            )
        except RegistryError as exc:
            # The artifact exists but refuses to serve (v1 document,
            # unreadable file): the request conflicts with registry state.
            self._error(conn, request, 409, str(exc), **counts)
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._error(
                conn, request, 500, f"internal error: {exc}", **counts
            )
        else:
            self._respond(conn, request, 200, payload, **counts)

    def _answer(self, body: bytearray, counts: dict[str, float]) -> dict:
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}")
        request = PredictRequest.parse(parsed)
        name = (
            request.model
            if request.model is not None
            else self.registry.default_name()
        )
        entry = self.registry.get(name)
        response = answer_request(
            request,
            entry,
            self.features,
            default_transform=self.default_transform,
            default_domain_factor=self.domain_factor,
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
        return response

    def _metrics(
        self, conn: _Connection, request: _Request, close: bool
    ) -> None:
        payload = self.metrics()
        if "text/plain" in request.headers.get("Accept", ""):
            from repro.trace.export import render_prometheus

            flat = dict(payload["counters"])
            for key, value in payload["feature_cache"].items():
                flat[f"feature_cache_{key}"] = float(value)
            flat["registry_reloads"] = float(payload["registry"]["reloads"])
            self._respond(
                conn, request, 200, render_prometheus(flat).encode(),
                "text/plain; version=0.0.4", close,
            )
        else:
            self._respond(conn, request, 200, _json_body(payload),
                          close=close)


def make_server(
    registry: ModelRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    fuse: bool = False,
    domain_factor: float | None = 10.0,
) -> PredictionServer:
    """Construct (but do not start) a server; ``port=0`` picks a free one."""
    return PredictionServer(
        (host, port),
        registry,
        default_transform="inference" if fuse else "",
        domain_factor=domain_factor,
    )
