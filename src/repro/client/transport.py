"""Pluggable transports: JSON-lines TCP and HTTP, with pooled connections.

Each transport implements one primitive, :meth:`Transport.call` — send
``(op, metadata, grids)``, get ``(reply metadata, grids)`` — and every op
of :class:`~repro.client.client.StencilClient` is written once in terms
of it.  Both keep a pool of idle connections so sequential and multi-threaded
callers reuse sockets instead of reconnecting per request.

Failure classification is the load-bearing part: :class:`TransportError`
carries ``retryable``, and it is ``True`` **only** for connect failures and
timeouts observed before a single response byte arrived.  Once any byte of
a response has been read the server may have executed the request, so the
error is final — the retry loop in :mod:`repro.client.client` refuses to
replay it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..service.http import route_for
from ..service.wire import (
    CONTENT_TYPE_GRIDS,
    CONTENT_TYPE_JSON,
    DEFAULT_CHUNK_BYTES,
    decode_grid_payload,
    encode_grid_payload,
    payload_length,
)
from .auth import attach_auth, auth_headers
from .config import DEFAULT_BINARY_THRESHOLD_BYTES


class TransportError(Exception):
    """A transport-level failure (vs. an in-band service error).

    ``retryable`` marks failures that are provably safe to replay: the
    connection never opened, or it timed out before one response byte.
    """

    def __init__(self, message: str, retryable: bool = False,
                 code: Optional[str] = None) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.code = code


class _Pool:
    """A tiny LIFO pool of reusable connections (thread-safe)."""

    def __init__(self) -> None:
        self._idle: List[object] = []
        self._lock = threading.Lock()
        self.closed = False

    def acquire(self) -> Optional[object]:
        with self._lock:
            if self.closed:
                raise TransportError("transport is closed")
            return self._idle.pop() if self._idle else None

    def release(self, connection: object) -> None:
        with self._lock:
            if self.closed:
                self._close_one(connection)
            else:
                self._idle.append(connection)

    def close_all(self) -> None:
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            self._close_one(connection)

    @staticmethod
    def _close_one(connection: object) -> None:
        try:
            connection.close()  # type: ignore[attr-defined]
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass


def _with_inputs(meta: Dict[str, object],
                 grids: Optional[Sequence[np.ndarray]]) -> Dict[str, object]:
    """The JSON form of one message: grids become nested ``inputs`` lists."""
    if grids is None:
        return dict(meta)
    return {**meta, "inputs": [grid.tolist() for grid in grids]}


def _split_result(reply: Dict[str, object]):
    """Lift a JSON reply's ``result`` lists out as the reply's one grid."""
    result = reply.pop("result", None)
    return reply, ([] if result is None
                   else [np.asarray(result, dtype=np.float64)])


def _read_payload(response: http.client.HTTPResponse):
    """The response body: with a ``Content-Length``, read straight into
    one ``bytearray`` of that length."""
    if not response.length:
        return response.read()
    payload = bytearray(response.length)
    view = memoryview(payload)
    received = 0
    while received < len(payload):
        count = response.readinto(view[received:])
        if not count:
            raise http.client.IncompleteRead(b"", len(payload) - received)
        received += count
    return payload


class Transport:
    """The transport surface :class:`StencilClient` drives: one exchange
    (:meth:`call`) and :meth:`close`.  Every op is written once, on the
    client, in terms of :meth:`call`."""

    def call(self, op: str, meta: Dict[str, object],
             grids: Optional[Sequence[np.ndarray]], timeout_s: float,
             ) -> Tuple[Dict[str, object], List[np.ndarray]]:
        """One exchange: send ``(op, meta, grids)``, get ``(reply meta,
        reply grids)``.  ``grids=None`` means the op carries no inputs."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _TcpConnection:
    """One JSON-lines socket with its own read buffer + byte accounting."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        try:
            self.sock = socket.create_connection((host, port),
                                                 timeout=timeout_s)
        except OSError as error:
            raise TransportError(f"connect to {host}:{port} failed: {error}",
                                 retryable=True)
        self.buffer = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def roundtrip(self, message: Dict[str, object],
                  timeout_s: float) -> Dict[str, object]:
        self.sock.settimeout(timeout_s)
        line = (json.dumps(message) + "\n").encode("utf-8")
        got_response_byte = bool(self.buffer)
        try:
            for start in range(0, len(line), DEFAULT_CHUNK_BYTES):
                self.sock.sendall(line[start:start + DEFAULT_CHUNK_BYTES])
        except socket.timeout:
            raise TransportError("send timed out", retryable=True)
        except OSError as error:
            # A dead keep-alive socket: nothing was executed, safe to retry
            # on a fresh connection.
            raise TransportError(f"send failed: {error}", retryable=True)
        while b"\n" not in self.buffer:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                raise TransportError(
                    "response timed out", retryable=not got_response_byte
                )
            except OSError as error:
                raise TransportError(f"receive failed: {error}",
                                     retryable=not got_response_byte)
            if not chunk:
                raise TransportError("connection closed by server",
                                     retryable=not got_response_byte)
            got_response_byte = True
            self.buffer += chunk
        raw, _, self.buffer = self.buffer.partition(b"\n")
        try:
            reply = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise TransportError(f"malformed response line: {error}")
        if not isinstance(reply, dict):
            raise TransportError("response line is not a JSON object")
        return reply


class TcpTransport(Transport):
    """The JSON-lines TCP endpoint of ``repro serve``, with pooled sockets."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7457,
                 auth_key: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.auth_key = auth_key
        self._pool = _Pool()

    def call(self, op, meta, grids, timeout_s):
        message = attach_auth({**_with_inputs(meta, grids), "op": op},
                              self.auth_key)
        connection = self._pool.acquire()
        if connection is None:
            connection = _TcpConnection(self.host, self.port, timeout_s)
        try:
            reply = connection.roundtrip(message, timeout_s)
        except TransportError:
            connection.close()
            raise
        self._pool.release(connection)
        return _split_result(reply)

    def close(self) -> None:
        self._pool.close_all()


class HttpTransport(Transport):
    """The ``/v1/*`` HTTP endpoint, with keep-alive connection reuse.

    Small requests travel as JSON; once the grids exceed
    ``binary_threshold_bytes`` the request switches to the binary
    ``application/x-repro-grids`` body: one ``Content-Length``, then the
    framing prefix and each grid's buffer written to the socket as they
    are, uncopied.  A binary reply is read with ``readinto`` into one
    ``bytearray`` and decoded to views of it, so a 1024² float64 grid is
    copied once per side and never exists as one JSON string.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7458,
                 auth_key: Optional[str] = None,
                 binary_threshold_bytes: int =
                 DEFAULT_BINARY_THRESHOLD_BYTES) -> None:
        self.host = host
        self.port = port
        self.auth_key = auth_key
        self.binary_threshold_bytes = binary_threshold_bytes
        self._pool = _Pool()

    def call(self, op, meta, grids, timeout_s):
        method, path = route_for(op, meta)
        headers = {"Accept": CONTENT_TYPE_GRIDS,
                   **auth_headers(self.auth_key)}
        body = None
        if (method == "POST" and grids is not None
                and sum(grid.nbytes for grid in grids)
                >= self.binary_threshold_bytes):
            prefix, buffers = encode_grid_payload(meta, grids)
            headers["Content-Type"] = CONTENT_TYPE_GRIDS
            headers["Content-Length"] = str(payload_length(prefix, buffers))
            body = [prefix, *buffers]  # sent piece by piece, never joined
        elif method == "POST":
            body = json.dumps(_with_inputs(meta, grids)).encode("utf-8")
            headers["Content-Type"] = CONTENT_TYPE_JSON
            headers["Content-Length"] = str(len(body))
        status, content_type, payload = self._roundtrip(
            method, path, headers, body, timeout_s)
        try:
            if content_type.split(";")[0].strip().lower() == CONTENT_TYPE_GRIDS:
                reply, out = decode_grid_payload(payload)
            else:
                reply, out = _split_result(json.loads(payload.decode("utf-8")))
        except Exception as error:  # noqa: BLE001 - malformed server reply
            raise TransportError(f"malformed response body: {error}")
        reply.setdefault("ok", status == 200)
        return reply, out

    # -- the wire ------------------------------------------------------------
    def _roundtrip(self, method: str, path: str, headers: Dict[str, str],
                   body, timeout_s: float):
        """One HTTP exchange; returns (status, content type, body bytes)."""
        connection = self._pool.acquire()
        fresh = connection is None
        if fresh:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
        else:
            connection.timeout = timeout_s
            if connection.sock is not None:
                connection.sock.settimeout(timeout_s)
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
            except (ConnectionError, socket.timeout, socket.gaierror,
                    OSError) as error:
                # Connect failure, or a dead pooled keep-alive socket: the
                # request never reached a live server, safe to retry.
                raise TransportError(f"request failed: {error}",
                                     retryable=True)
            try:
                response = connection.getresponse()
            except socket.timeout:
                raise TransportError("response timed out", retryable=True)
            except (http.client.RemoteDisconnected, ConnectionError) as error:
                raise TransportError(
                    f"server closed the connection: {error}", retryable=True
                )
            try:
                payload = _read_payload(response)
            except (socket.timeout, OSError,
                    http.client.IncompleteRead) as error:
                # Bytes of the response were consumed; never replay.
                raise TransportError(f"response truncated: {error}",
                                     retryable=False)
            content_type = response.headers.get("Content-Type", "")
            keep_alive = not response.will_close
        except TransportError:
            _Pool._close_one(connection)
            raise
        if keep_alive:
            self._pool.release(connection)
        else:
            _Pool._close_one(connection)
        return response.status, content_type, payload

    def close(self) -> None:
        self._pool.close_all()


__all__ = [
    "HttpTransport",
    "TcpTransport",
    "Transport",
    "TransportError",
]
