"""The HTTP transport: a codec in front of :func:`repro.service.ops.dispatch`.

The server's one HTTP/1.1 listener (asyncio, zero dependencies,
keep-alive), feeding the **same** :class:`~repro.service.server.StencilService`
batcher as the JSON-lines TCP endpoint.  It owns six things and no
operation logic: the connection protocol :class:`Connection`, the request
reader :func:`read_request` (bounded header block and body), the route
table :data:`ROUTES` (request line → op; a GET's query becomes the op's
metadata; ``/metrics`` and ``/healthz`` need no auth key), the body
decoder :func:`decode_body`, the ``code`` → status-line map, and one reply
writer (``HEAD`` on a GET route: the GET's status and headers, no body).

Each grid byte is copied once on the way in and at most once on the way
out.  A ``Content-Length`` body is received by the kernel straight into
one ``bytearray`` of that length (:meth:`Connection.readinto`), and an
RPG1 body decodes to views of it (:mod:`repro.service.wire`).  A chunked
body, still accepted from other clients, is appended into one buffer.  A
reply writes its prefix, then slices of each grid's own buffer.

Content negotiation, both directions:

* ``Content-Type: application/json`` — the TCP wire form as an HTTP body.
* ``Content-Type: application/x-repro-grids`` — the binary grid framing of
  :mod:`repro.service.wire`: JSON header (everything except grids) followed
  by raw little-endian buffers.  ``Accept: application/x-repro-grids``
  selects the same framing for the response, written buffer by buffer, so
  a 1024² float64 result never becomes one JSON string.
* ``/metrics`` answers ``text/plain; version=0.0.4`` unless ``Accept``
  names one of the two forms above.

Reply codes map onto status codes: ``DeadlineExceeded`` → 504,
``AdmissionRejected`` → 429 (with a ``Retry-After`` header from
``retry_after_ms``), bad auth → 401, an oversized body or header block →
413 (before authentication), a malformed request or broken framing → 400,
an unknown path or job id → 404, a result requested before the job
completed → 409, a server fault → 500.  The body is the same structured
reply the TCP endpoint writes, so HTTP and TCP clients see identical
in-band information.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import logging
from typing import Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import parse_qsl, urlencode

import numpy as np

from ..telemetry import registry as _telemetry
from .ops import Reply, dispatch, refusal
from .server import DEFAULT_MAX_REQUEST_BYTES, ServedGate
from .requests import (
    ADMISSION_REJECTED,
    BAD_REQUEST,
    CANCELLED,
    DEADLINE_EXCEEDED,
    INTERNAL,
    NOT_FOUND,
    REQUEST_TOO_LARGE,
    UNAUTHORIZED,
)
from .wire import (
    CONTENT_TYPE_GRIDS,
    CONTENT_TYPE_JSON,
    DEFAULT_CHUNK_BYTES,
    decode_grid_payload,
    encode_grid_payload,
    payload_length,
)

log = logging.getLogger("repro.service.http")

_HTTP_REQUESTS_TOTAL = _telemetry.counter(
    "repro_http_requests_total", "HTTP requests answered, by status class.",
    label="status",
)

#: ``(method, path pattern, op, required body field)`` — the whole HTTP
#: surface.  ``{name}`` path segments land in the op's metadata; the
#: client's HTTP transport resolves an op to its route through this same
#: table (first row whose required field the metadata carries).
ROUTES = (
    ("GET", "/healthz", "ping", None),
    ("GET", "/metrics", "metrics", None),
    ("GET", "/trace", "trace", None),
    ("GET", "/v1/stats", "stats", None),
    # An iterate call without a step count is a client bug, not a 1-step
    # run, so the route insists on an explicit ``steps``.
    ("POST", "/v1/iterate", "execute", "steps"),
    ("POST", "/v1/execute", "execute", None),
    ("POST", "/v1/jobs", "job_submit", None),
    ("GET", "/v1/jobs", "job_list", None),
    ("GET", "/v1/jobs/{job_id}", "job_status", None),
    ("DELETE", "/v1/jobs/{job_id}", "job_cancel", None),
    ("GET", "/v1/jobs/{job_id}/result", "job_result", None),
)

#: The ops a scraper or probe reaches without the auth key.  ``trace``
#: and ``stats`` are not: both describe other callers' traffic (the ring
#: holds their digests and errors).
OPEN_OPS = frozenset({"ping", "metrics"})

CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
           404: "Not Found", 405: "Method Not Allowed",
           409: "Conflict", 413: "Payload Too Large",
           429: "Too Many Requests", 500: "Internal Server Error",
           503: "Service Unavailable", 504: "Gateway Timeout"}

#: Reply ``code`` → HTTP status.
CODE_STATUS = {
    DEADLINE_EXCEEDED: 504,
    ADMISSION_REJECTED: 429,
    UNAUTHORIZED: 401,
    REQUEST_TOO_LARGE: 413,
    BAD_REQUEST: 400,
    NOT_FOUND: 404,
    CANCELLED: 409,
    INTERNAL: 500,
}


#: The request line and the header block of one request together: at most
#: this many bytes and this many header lines, whichever comes first.
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADER_LINES = 100


class HTTPError(Exception):
    """An HTTP-level refusal answered before the request reaches an op."""

    def __init__(self, code: str, message: str,
                 status: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code
        self.status = status if status is not None else CODE_STATUS[code]


#: The longest line (request line, header, chunk size) a connection reads.
MAX_LINE_BYTES = 1024 * 1024
#: The receive buffer of a connection's lines and chunked bodies.
RECV_BYTES = 256 * 1024


class Request(NamedTuple):
    """One request as :func:`read_request` read it off a connection."""

    method: str
    target: str
    headers: Dict[str, str]           # names lower-cased
    body: bytearray


class Connection(asyncio.BufferedProtocol):
    """One HTTP connection: lines for the request head, one buffer per body.

    The transport receives into :data:`RECV_BYTES` of scratch, and what the
    request reader has not yet consumed waits in ``_pending``; reading from
    the peer pauses while that holds more than :data:`MAX_LINE_BYTES`
    (pipelined requests behind one that is executing).
    :meth:`readinto` hands the transport the caller's buffer instead, so
    the rest of a ``Content-Length`` body goes from the socket straight
    into it.  ``serve`` is the coroutine that serves the connection; it
    runs as one task from the moment the peer connects.
    """

    def __init__(self, serve) -> None:
        self._serve = serve
        self._recv = bytearray(RECV_BYTES)
        self._pending = bytearray()
        self._sink: Optional[memoryview] = None
        self._data: Optional[asyncio.Future] = None
        self._writable: Optional[asyncio.Future] = None
        self._eof = False
        self._lost = False
        self._paused = False
        self.transport: Optional[asyncio.Transport] = None
        self._task: Optional[asyncio.Task] = None

    # -- the transport's side -------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._task = asyncio.get_running_loop().create_task(self._serve(self))

    def get_buffer(self, sizehint: int):
        if self._sink is not None and len(self._sink):
            return self._sink
        return self._recv

    def buffer_updated(self, nbytes: int) -> None:
        if self._sink is not None:
            self._sink = self._sink[nbytes:]
        else:
            self._pending += memoryview(self._recv)[:nbytes]
            if len(self._pending) > MAX_LINE_BYTES and not self._paused:
                self._paused = True
                self.transport.pause_reading()
        self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the write side open for the reply

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = self._lost = True
        self._wake()
        self.resume_writing()

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._writable is not None and not self._writable.done():
            self._writable.set_result(None)
        self._writable = None

    def _wake(self) -> None:
        if self._data is not None and not self._data.done():
            self._data.set_result(None)

    async def _more(self) -> None:
        """Wait for the next bytes (or the end) from the peer."""
        if self._paused:
            self._paused = False
            self.transport.resume_reading()
        self._data = asyncio.get_running_loop().create_future()
        try:
            await self._data
        finally:
            self._data = None

    # -- the request reader's side -------------------------------------------
    async def readline(self) -> bytes:
        """One line with its ``\\n``; what is left, unterminated, at the end.
        A line longer than :data:`MAX_LINE_BYTES` raises ``ValueError``."""
        searched = 0
        while True:
            end = self._pending.find(b"\n", searched)
            if end >= 0:
                return self._take(end + 1)
            if len(self._pending) > MAX_LINE_BYTES:
                raise ValueError("line exceeds the connection's limit")
            if self._eof:
                return self._take(len(self._pending))
            searched = len(self._pending)
            await self._more()

    async def readexactly(self, count: int) -> bytes:
        while len(self._pending) < count:
            if self._eof:
                raise asyncio.IncompleteReadError(bytes(self._pending), count)
            await self._more()
        return self._take(count)

    def _take(self, count: int) -> bytes:
        data = bytes(self._pending[:count])
        del self._pending[:count]
        return data

    async def readinto(self, buffer: bytearray) -> None:
        """Fill ``buffer``: bytes already received first, then the rest
        straight from the socket."""
        view = memoryview(buffer)
        try:
            held = min(len(self._pending), len(view))
            view[:held] = memoryview(self._pending)[:held]
            del self._pending[:held]
            self._sink = view[held:]
            while len(self._sink):
                if self._eof:  # the peer closed mid-body
                    raise asyncio.IncompleteReadError(b"", len(view))
                await self._more()
        finally:
            self._sink = None
            view.release()

    # -- the reply writer's side ----------------------------------------------
    def write(self, data) -> None:
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high mark."""
        if self._writable is not None:
            await self._writable
        if self._lost:
            raise ConnectionResetError("connection lost")

    def close(self) -> None:
        self.transport.close()


def _route(method: str, path: str) -> Tuple[str, Dict[str, str],
                                            Optional[str]]:
    """Resolve one request line to ``(op, path params, required field)``."""
    parts = path.split("/")
    path_known = False
    for route_method, pattern, op, required in ROUTES:
        wanted = pattern.split("/")
        if len(wanted) != len(parts) or any(
                want != part and not want.startswith("{")
                for want, part in zip(wanted, parts)):
            continue
        if route_method == method:
            return op, {want[1:-1]: part for want, part in zip(wanted, parts)
                        if want.startswith("{")}, required
        path_known = True
    if path_known:
        raise HTTPError(BAD_REQUEST, f"{path} does not support {method}",
                         status=405)
    raise HTTPError(NOT_FOUND, f"unknown path {path!r}")


def route_for(op: str, meta: Dict[str, object]) -> Tuple[str, str]:
    """The table read the other way: ``(method, path)`` a client uses for
    ``op`` — the first row whose required field ``meta`` carries, a GET's
    other fields as its query."""
    for method, pattern, route_op, required in ROUTES:
        if route_op == op and (required is None or required in meta):
            path = pattern.format(**meta)
            query = {name: value for name, value in meta.items()
                     if "{%s}" % name not in pattern}
            if method == "GET" and query:
                path += "?" + urlencode(query)
            return method, path
    raise ValueError(f"op {op!r} has no HTTP route")


def decode_body(content_type: str,
                body: bytearray) -> Tuple[Dict[str, object],
                                      Optional[List[np.ndarray]]]:
    """Decode one HTTP body into ``(metadata, grids)``.

    The binary framing yields its JSON header plus the raw grids (views of
    ``body`` where they lie aligned in it); a JSON body is the TCP wire
    form verbatim (grids, if any, stay nested lists under ``"inputs"``).
    """
    media = content_type.split(";")[0].strip().lower()
    try:
        if media == CONTENT_TYPE_GRIDS:
            return decode_grid_payload(body)
        if media not in (CONTENT_TYPE_JSON, ""):
            raise ValueError(f"unsupported content type {media!r}")
        message = json.loads(body.decode("utf-8"))
    except Exception as error:  # noqa: BLE001 - hostile bytes answer 400
        raise HTTPError(BAD_REQUEST,
                         f"malformed body: {type(error).__name__}: {error}")
    if not isinstance(message, dict):
        raise HTTPError(BAD_REQUEST, "body must be a JSON object")
    return message, None


def encode_reply(reply: Reply,
                 accept: str) -> Tuple[str, bytes, List[memoryview]]:
    """Encode one reply as (content type, prefix bytes, grid buffers).

    The JSON form returns everything in the prefix; the binary form keeps
    the result grid as a raw buffer so the writer can stream it.  The
    ``metrics`` op's text is the whole body, unless ``accept`` asks for
    one of those two forms.
    """
    meta, grid = reply
    accept = accept.lower()
    if CONTENT_TYPE_GRIDS in accept:
        prefix, buffers = encode_grid_payload(
            meta, [] if grid is None else [np.asarray(grid, dtype=np.float64)],
            reuse_verified=True)  # a job result's digest is its file's
        return CONTENT_TYPE_GRIDS, prefix, buffers
    text = meta.get("metrics")
    if isinstance(text, str) and CONTENT_TYPE_JSON not in accept:
        return CONTENT_TYPE_PROMETHEUS, text.encode("utf-8"), []
    return CONTENT_TYPE_JSON, json.dumps(reply.wire()).encode("utf-8"), []


async def _read_body(connection: Connection, headers: Dict[str, str],
                     max_request_bytes: int) -> bytearray:
    """Read one request body (Content-Length or chunked), bounded.

    A ``Content-Length`` body is checked against ``max_request_bytes``
    before its one buffer is allocated.  Every refusal raised here leaves
    unread bytes in the socket, so the caller answers it and closes the
    connection.
    """
    too_large = HTTPError(
        REQUEST_TOO_LARGE, f"request body exceeds {max_request_bytes} bytes")
    body = bytearray()
    encoding = headers.get("transfer-encoding", "").lower()
    if "chunked" in encoding:
        while True:
            size_line = await connection.readline()
            try:
                size = int(size_line.split(b";")[0].strip() or b"0", 16)
            except ValueError:
                size = -1
            if size < 0:
                raise HTTPError(BAD_REQUEST, "malformed chunk size")
            if size == 0:
                while True:  # trailers, then the final blank line
                    trailer = await connection.readline()
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                return body
            if len(body) + size > max_request_bytes:
                raise too_large
            body += await connection.readexactly(size)
            await connection.readexactly(2)  # the chunk's trailing CRLF
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise HTTPError(BAD_REQUEST, "malformed Content-Length")
    if length > max_request_bytes:
        raise too_large
    if length:
        body = bytearray(length)
        await connection.readinto(body)
    return body


async def read_request(connection: Connection,
                       max_request_bytes: int) -> Optional[Request]:
    """Read one HTTP/1.1 request off a connection — the one place that does.

    The listener calls this before it authenticates or routes anything,
    so what it bounds is what an anonymous peer can make the server hold:
    the request line plus header block by :data:`MAX_HEADER_BYTES` /
    :data:`MAX_HEADER_LINES`, the body by ``max_request_bytes``.  ``None``
    means the peer closed (or sent no request line).  A refusal is raised
    as :class:`HTTPError`; it leaves unread bytes in the socket, so the
    caller answers it and closes.
    """
    def too_large() -> HTTPError:
        return HTTPError(
            REQUEST_TOO_LARGE,
            f"request headers exceed {MAX_HEADER_BYTES} bytes or "
            f"{MAX_HEADER_LINES} lines")

    headers: Dict[str, str] = {}
    try:
        request_line = await connection.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        size = len(request_line)
        while True:
            line = await connection.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            size += len(line)
            if size > MAX_HEADER_BYTES or len(headers) >= MAX_HEADER_LINES:
                raise too_large()
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    except ValueError:  # one line longer than MAX_LINE_BYTES
        raise too_large() from None
    body = await _read_body(connection, headers, max_request_bytes)
    return Request(parts[0], parts[1], headers, body)


def _authorized(headers: Dict[str, str], auth_key: Optional[str]) -> bool:
    if auth_key is None:
        return True
    supplied = headers.get("authorization", "")
    if supplied.lower().startswith("bearer "):
        supplied = supplied[7:].strip()
    else:
        supplied = headers.get("x-repro-auth", "")
    return hmac.compare_digest(supplied, auth_key)


async def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 7458,
    auth_key: Optional[str] = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    gate: Optional[ServedGate] = None,
) -> "asyncio.AbstractServer":
    """Expose a started service as the HTTP endpoint (:data:`ROUTES`).

    Connections are keep-alive: one client can pump many requests through
    one socket (the client library's pooling counterpart).  Each is a
    :class:`Connection`.  ``gate`` is the
    :class:`~repro.service.server.ServedGate` ``repro serve`` shares with
    the TCP endpoint: each answered execute/iterate request is marked on
    it, every open connection is in its set for the shutdown drain, and
    once it has resolved every reply says ``Connection: close``.
    """
    if gate is None:
        gate = ServedGate()

    async def write_reply(connection: Connection, reply: Reply,
                          accept: str, close: bool,
                          status: Optional[int] = None,
                          head: bool = False) -> bool:
        """The one reply writer: status line from the reply's ``code``,
        JSON, RPG1 or Prometheus body from ``Accept``, no body for
        ``head``, ``Connection: close`` as asked or once the gate has
        resolved.  A grid goes out as slices of its own buffer, uncopied.
        Returns whether it said ``close``."""
        meta = reply.meta
        if status is None:
            status = (200 if meta.get("ok")
                      else CODE_STATUS.get(str(meta.get("code") or ""), 500))
        # Encoding a grid (sha256 / tolist) stays off the loop; a bare
        # metadata reply is not worth the thread hop.
        content_type, prefix, buffers = (
            encode_reply(reply, accept) if reply.grid is None
            else await loop.run_in_executor(None, encode_reply, reply, accept))
        close = close or gate.done.done()
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {payload_length(prefix, buffers)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if meta.get("retry_after_ms") is not None:
            lines.append("Retry-After: %d" % max(
                1, int(round(float(meta["retry_after_ms"]) / 1e3))))
        if head:
            prefix, buffers = b"", []
        connection.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + prefix)
        for buffer in buffers:
            # Draining after each slice bounds what the transport holds
            # unsent, whatever the grid's size.
            for start in range(0, buffer.nbytes, DEFAULT_CHUNK_BYTES):
                connection.write(buffer[start:start + DEFAULT_CHUNK_BYTES])
                await connection.drain()
        await connection.drain()
        _HTTP_REQUESTS_TOTAL.inc(label=f"{status // 100}xx")
        return close

    async def handle_one(connection: Connection) -> bool:
        """Serve one request; returns False when the connection should close."""
        try:
            request = await read_request(connection, max_request_bytes)
        except HTTPError as error:
            if error.code == REQUEST_TOO_LARGE:
                service.count_reject("too_large")
            # Unread bytes are still in the socket; close to resync.
            await write_reply(connection, refusal(error.code, str(error)), "",
                              close=True)
            return False
        if request is None:
            return False
        method, target, headers, body = request
        accept = headers.get("accept", "")
        keep_alive = headers.get("connection", "").lower() != "close"
        path, _, query = target.partition("?")
        path = path.rstrip("/")
        head = method == "HEAD"
        status = None
        try:
            op, params, required = _route("GET" if head else method, path)
            if op not in OPEN_OPS and not _authorized(headers, auth_key):
                service.count_reject("unauthorized")
                raise HTTPError(UNAUTHORIZED, "missing or invalid auth key")
            # Body decode can be arbitrarily large; keep it off the loop so
            # one fat request does not stall the batch window.
            meta, grids = ({}, None) if not body else (
                await loop.run_in_executor(
                    None, decode_body, headers.get("content-type", ""), body))
            if method in ("GET", "HEAD"):
                meta.update(parse_qsl(query, keep_blank_values=True))
            if required is not None and required not in meta:
                raise HTTPError(BAD_REQUEST,
                                f"{path} requires {required!r} in the body")
        except HTTPError as error:
            reply, status = refusal(error.code, str(error)), error.status
        else:
            reply = await dispatch(service, op, {**meta, **params}, grids)
            if op == "execute":
                gate.mark()
            if op == "ping" and reply.meta.get("status") == "unhealthy":
                status = 503
        return not await write_reply(connection, reply, accept,
                                     close=not keep_alive, status=status,
                                     head=head)

    async def handle(connection: Connection) -> None:
        gate.connections.add(connection)
        try:
            while await handle_one(connection):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while parked on readline (keep-alive idle):
            # close the connection quietly instead of logging a cancel.
            pass
        except Exception:  # noqa: BLE001 - one connection must not leak up
            log.exception("http connection handler failed")
        finally:
            try:
                connection.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
            gate.connections.discard(connection)

    loop = asyncio.get_running_loop()
    return await loop.create_server(lambda: Connection(handle), host, port)


__all__ = ["CODE_STATUS", "Connection", "HTTPError", "MAX_HEADER_BYTES",
           "MAX_HEADER_LINES", "MAX_LINE_BYTES", "REASONS", "ROUTES", "Request",
           "decode_body", "encode_reply", "read_request", "route_for",
           "serve_http"]
