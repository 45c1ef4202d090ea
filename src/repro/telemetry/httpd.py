"""The asyncio HTTP sidecar: ``/metrics``, ``/healthz`` and ``/trace``.

A deliberately tiny HTTP/1.1 server (asyncio streams, one response per
connection, ``Connection: close``) — enough for Prometheus scrapers, load
balancer health checks and ``curl``, with zero dependencies.  It runs on
the *same* event loop as the serving endpoint, started by ``repro serve
--metrics-port``, and reads requests through the ``/v1`` endpoint's
:func:`~repro.service.http.read_request`, so the header-block bound is the
same on both ports.  Every request is answered: a bad query with the
structured ``400``, an oversized header block with ``413``, a route that
raises with a logged ``500``.

* ``GET /metrics`` — the process registry and the service's own
  (``service.metrics``, where every serving counter lives) rendered as one
  Prometheus text.  On a sharded service the shard processes' registry
  snapshots are fetched over the existing ``stats`` pipe op (off-loop, they
  block) and merged in too, so counters and histogram buckets are fleet
  totals.
* ``GET /healthz`` — JSON liveness: overall status (``503`` when any shard
  process has died), per-shard ``alive`` flags from ``Process.is_alive()``
  (no pipe round-trip — a wedged shard cannot wedge the health check), and
  the event loop's scheduling lag measured by a background drift task.
* ``GET /trace?slow=1&limit=N`` — the service's request-trace ring as JSON
  (same payload the ``repro trace`` CLI verb fetches over TCP).
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..service.http import (MAX_HEADER_BYTES, REASONS, HTTPError,
                            read_request)
from ..service.ops import refusal
from ..service.requests import BAD_REQUEST, REQUEST_TOO_LARGE
from .registry import MetricsRegistry, get_registry

log = logging.getLogger("repro.telemetry.http")

#: How often the lag monitor samples event-loop scheduling drift.
_LAG_INTERVAL_S = 0.25


class TelemetryHTTP:
    """The sidecar server; bind with :meth:`start`, tear down with :meth:`stop`."""

    def __init__(self, service=None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.service = service
        self.registry = registry if registry is not None else get_registry()
        self.loop_lag_s = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._lag_task: Optional[asyncio.Task] = None

    async def start(self, host: str = "127.0.0.1",
                    port: int = 9464) -> "TelemetryHTTP":
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        self._server = await asyncio.start_server(self._handle, host, port)
        self._lag_task = asyncio.get_running_loop().create_task(
            self._lag_monitor()
        )
        log.info("telemetry http listening on %s:%d", host, self.port)
        return self

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._lag_task is not None:
            self._lag_task.cancel()
            try:
                await self._lag_task
            except asyncio.CancelledError:
                pass
            self._lag_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _lag_monitor(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(_LAG_INTERVAL_S)
            self.loop_lag_s = max(0.0, loop.time() - before - _LAG_INTERVAL_S)

    # -- request handling ----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            answer = await self._answer(reader)
            if answer is None:
                return
            status, content_type, body = answer
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1") + payload
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass

    async def _answer(self,
                      reader: asyncio.StreamReader
                      ) -> Optional[Tuple[int, str, str]]:
        """Read one request and route it: a refusal is its structured body,
        any other failure a logged 500 — the handler task never dies of a
        request.  ``None`` when the peer sent nothing."""
        try:
            request = await read_request(reader, MAX_HEADER_BYTES)
            if request is None:
                return None
            return await self._route(request.method, request.target)
        except HTTPError as error:
            count_reject = getattr(self.service, "count_reject", None)
            if error.code == REQUEST_TOO_LARGE and count_reject is not None:
                count_reject("too_large")
            return (error.status, "application/json",
                    json.dumps(refusal(error.code, str(error)).meta) + "\n")
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception:  # noqa: BLE001 - answered, not propagated
            log.exception("telemetry route failed")
            return 500, "text/plain; charset=utf-8", "internal error\n"

    async def _route(self, method: str,
                     target: str) -> Tuple[int, str, str]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        if method not in ("GET", "HEAD"):
            return 405, "text/plain; charset=utf-8", "method not allowed\n"
        if path == "/metrics":
            text = await self._render_metrics()
            return 200, "text/plain; version=0.0.4; charset=utf-8", text
        if path == "/healthz":
            payload, healthy = self._health()
            return (200 if healthy else 503, "application/json",
                    json.dumps(payload, indent=2) + "\n")
        if path == "/trace":
            query = parse_qs(split.query, keep_blank_values=True)
            tracer = getattr(self.service, "tracer", None)
            if tracer is None:
                return 404, "application/json", '{"error": "no tracer"}\n'
            slow_only = query.get("slow", ["0"])[0] not in ("0", "", "false")
            limit = query.get("limit", ["20"])[0]
            if not limit.isdecimal():
                raise HTTPError(
                    BAD_REQUEST,
                    f"limit must be a non-negative integer, not {limit!r}")
            payload = {"traces": tracer.snapshot(slow_only=slow_only,
                                                 limit=int(limit)),
                       "ring": tracer.stats()}
            return 200, "application/json", json.dumps(payload) + "\n"
        return 404, "text/plain; charset=utf-8", "not found\n"

    async def _render_metrics(self) -> str:
        extra = []
        executor = getattr(self.service, "executor", None)
        if executor is not None:
            loop = asyncio.get_running_loop()
            # Shard stats are blocking, locked pipe round-trips — keep them
            # off the loop so a slow shard cannot stall serving.
            rows = await loop.run_in_executor(None, executor.stats)
            for row in rows:
                snapshot = row.get("telemetry")
                if snapshot:
                    extra.append(snapshot)
        # The service's own counter store: no name is in both registries,
        # so the merge counts nothing twice.
        metrics = getattr(self.service, "metrics", None)
        if metrics is not None:
            extra.append(metrics.snapshot())
        return self.registry.render(extra=extra)

    def _health(self) -> Tuple[Dict[str, object], bool]:
        shards = []
        healthy = True
        executor = getattr(self.service, "executor", None)
        if executor is not None:
            for handle in executor.handles:
                alive = bool(handle.process.is_alive())
                shards.append({"shard": handle.index, "alive": alive})
                healthy = healthy and alive
        payload: Dict[str, object] = {
            "status": "ok" if healthy else "unhealthy",
            "shards": shards,
            "shards_alive": sum(1 for shard in shards if shard["alive"]),
            "event_loop_lag_ms": self.loop_lag_s * 1e3,
        }
        if self.service is not None:
            payload["requests_served"] = getattr(
                self.service, "requests_served", None
            )
        return payload, healthy


__all__ = ["TelemetryHTTP"]
