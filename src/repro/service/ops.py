"""The one op table behind both server transports.

``dispatch(service, op, meta, grids)`` is *what the service answers*; the
TCP and HTTP endpoints (:mod:`.server`, :mod:`.http`) are codecs that turn
bytes into ``(op, meta, grids)`` and a :class:`Reply` back into bytes.
Request construction, the off-loop hops (payload conversion, job-manager
calls that hold a lock and touch disk, shard stats pipes) and the
exception → structured ``code`` mapping live here and nowhere else, so the
two transports cannot drift.

``meta`` is the JSON message (TCP line, HTTP JSON body, RPG1 header, or a
GET's query parameters) as sent; ``grids`` are input grids that travelled
beside it as raw buffers.  Handlers read their extra fields (``job_id``,
``job_key``, ``checkpoint_every``, ``limit``, ``wait_ms``) straight from
``meta``.
"""

from __future__ import annotations

import asyncio
import logging
import math
from typing import Awaitable, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..core.serialize import SerializationError
from ..telemetry.registry import get_registry
from .jobs import JobError, JobNotFound
from .requests import (BAD_REQUEST, CANCELLED, INTERNAL, NOT_FOUND,
                       ExecutionRequest, ServiceError)

log = logging.getLogger("repro.service.ops")

#: The longest a ``job_status`` request may wait for its job to end;
#: a larger ``wait_ms`` is clamped to it.
MAX_WAIT_MS = 60_000.0

Meta = Dict[str, object]
Grids = Optional[List[np.ndarray]]

#: What a malformed field of the caller's raises: a ``BadRequest``.
CALLER_ERRORS = (ServiceError, SerializationError, ValueError, TypeError,
                 KeyError)


class Reply(NamedTuple):
    """Reply metadata plus the one result grid a reply may carry."""

    meta: Meta
    grid: Optional[np.ndarray] = None

    def wire(self) -> Meta:
        """The JSON form: the grid rides as nested ``result`` lists."""
        if self.grid is None:
            return self.meta
        return {**self.meta, "result": np.asarray(self.grid).tolist()}


def refusal(code: str, message: str) -> Reply:
    """A structured in-band refusal, the same shape on every transport."""
    return Reply({"ok": False, "code": code, "error": message})


def _off_loop(function, *args):
    return asyncio.get_running_loop().run_in_executor(None, function, *args)


def _caller_fields(read, *args):
    """``read(*args)``, where every field read is the caller's: whatever a
    malformed one raises (``int(1e400)``, a program node that is not a
    mapping) is theirs."""
    try:
        return read(*args)
    except CALLER_ERRORS:
        raise
    except Exception as error:  # noqa: BLE001 - re-raised as the caller's
        raise ServiceError(f"{type(error).__name__}: {error}") from error


async def _request(meta: Meta, grids: Grids) -> ExecutionRequest:
    # Payload conversion (JSON grids → ndarrays, input generation) can be
    # arbitrarily large; keep it off the event loop so one fat request
    # does not stall the batch window or other connections.
    return await _off_loop(_caller_fields, ExecutionRequest.from_wire, meta,
                           grids)


async def _ping(service, meta: Meta, grids: Grids) -> Reply:
    """Liveness, ``"unhealthy"`` once a shard process has died.  Reading
    ``is_alive()`` needs no pipe, so a wedged shard cannot wedge it."""
    shards = ([] if service.executor is None else
              [{"shard": handle.index, "alive": bool(handle.process.is_alive())}
               for handle in service.executor.handles])
    alive = sum(shard["alive"] for shard in shards)
    return Reply({
        "ok": True,
        "pong": True,
        "status": "ok" if alive == len(shards) else "unhealthy",
        "shards": shards,
        "shards_alive": alive,
        "event_loop_lag_ms": service.loop_lag_s * 1e3,
        "requests_served": service.requests_served,
    })


async def _stats(service, meta: Meta, grids: Grids) -> Reply:
    # A sharded service's stats are blocking, locked pipe round-trips, and
    # the report opens the results store: neither may stall the loop.
    return Reply({"ok": True, "stats": await _off_loop(service.stats)})


async def _metrics(service, meta: Meta, grids: Grids) -> Reply:
    """The Prometheus text: the process registry, the service's own
    counter store (no name is in both, so the merge counts nothing twice)
    and, on a sharded service, every shard's registry snapshot."""
    extra = []
    if service.executor is not None:
        # Shard stats are blocking, locked pipe round-trips.
        for row in await _off_loop(service.executor.stats):
            if row.get("telemetry"):
                extra.append(row["telemetry"])
    extra.append(service.metrics.snapshot())
    return Reply({"ok": True, "metrics": get_registry().render(extra=extra)})


def _flag(value: object) -> bool:
    """False for JSON false/0/null and query text ``"0"``, ``""``, ``"false"``."""
    return value is not None and str(value).lower() not in ("0", "", "false")


def _count(meta: Meta, name: str, least: int) -> Optional[int]:
    """Field ``name``: ``None`` when absent, else an integer >= ``least``,
    JSON or decimal text.  A bool, a float or a smaller number is the
    caller's error."""
    value = meta.get(name)
    if value is None:
        return None
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


async def _trace(service, meta: Meta, grids: Grids) -> Reply:
    slow_only, limit = _flag(meta.get("slow")), _count(meta, "limit", 0)
    return Reply({
        "ok": True,
        "traces": service.tracer.snapshot(slow_only=slow_only, limit=limit),
        "ring": service.tracer.stats(),
    })


async def _execute(service, meta: Meta, grids: Grids) -> Reply:
    response = await service.submit(await _request(meta, grids))
    return Reply(response.wire_meta(), response.result)


async def _job_submit(service, meta: Meta, grids: Grids) -> Reply:
    """The execute wire form plus ``job_key`` (the idempotency token) and
    an optional per-job ``checkpoint_every`` (absent: the server's)."""
    every = _count(meta, "checkpoint_every", 1)
    request = await _request(meta, grids)
    job_key = meta.get("job_key")
    job = await _off_loop(
        service.jobs.submit, request, str(job_key) if job_key else None, every)
    return Reply({"ok": True, "job": job})


def _job_id(meta: Meta) -> str:
    return str(meta.get("job_id") or "")


def _wait_s(value: object) -> float:
    """``wait_ms`` (JSON number or query text) as seconds, clamped to
    :data:`MAX_WAIT_MS`; absent is 0.  Not a finite number >= 0 is the
    caller's error."""
    if value is None:
        return 0.0
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"wait_ms must be a number, not {value!r}")
    try:
        wait_ms = float(value)
    except (ValueError, OverflowError):
        raise ValueError(f"wait_ms must be a number, not {value!r}") from None
    if not math.isfinite(wait_ms) or wait_ms < 0:
        raise ValueError(f"wait_ms must be finite and >= 0, not {value!r}")
    return min(wait_ms, MAX_WAIT_MS) / 1e3


async def _job_status(service, meta: Meta, grids: Grids) -> Reply:
    """The job's descriptor; with ``wait_ms``, answered as soon as the job
    ends, or after that long (a future, not a thread, waits)."""
    job_id, wait_s = _job_id(meta), _wait_s(meta.get("wait_ms"))
    job = (await service.jobs.until_ended(job_id, wait_s)
           if wait_s > 0 else None)
    if job is None:
        job = await _off_loop(service.jobs.status, job_id)
    return Reply({"ok": True, "job": job})


async def _job_result(service, meta: Meta, grids: Grids) -> Reply:
    job, result = await _off_loop(service.jobs.result, _job_id(meta))
    return Reply({"ok": True, "job": job}, result)


async def _job_cancel(service, meta: Meta, grids: Grids) -> Reply:
    job = await _off_loop(service.jobs.cancel, _job_id(meta))
    return Reply({"ok": True, "job": job})


async def _job_list(service, meta: Meta, grids: Grids) -> Reply:
    return Reply({"ok": True, "jobs": await _off_loop(service.jobs.list_jobs)})


#: op name → handler; the TCP ``"op"`` field and the HTTP route table
#: (:data:`repro.service.http.ROUTES`) both key into this.
OPS: Dict[str, Callable[[object, Meta, Grids], Awaitable[Reply]]] = {
    "ping": _ping,
    "stats": _stats,
    "metrics": _metrics,
    "trace": _trace,
    "execute": _execute,
    "job_submit": _job_submit,
    "job_status": _job_status,
    "job_result": _job_result,
    "job_cancel": _job_cancel,
    "job_list": _job_list,
}


async def dispatch(service, op: str, meta: Meta,
                   grids: Grids = None) -> Reply:
    """Answer one operation; every failure comes back as a refusal.

    A field of the caller's that does not parse or validate is a
    ``BadRequest``; any other exception is the server's fault, answered
    ``Internal`` (HTTP 500) and logged once, here."""
    handler = OPS.get(op)
    if handler is None:
        return refusal(BAD_REQUEST, f"unknown op {op!r}")
    try:
        return await handler(service, meta, grids)
    except JobNotFound as error:
        return refusal(NOT_FOUND, str(error))
    except JobError as error:
        # A result asked of a job that has not completed conflicts with
        # the job's state (HTTP 409); any other job error is the caller's.
        return refusal(CANCELLED if op == "job_result" else BAD_REQUEST,
                       str(error))
    except CALLER_ERRORS as error:
        return refusal(BAD_REQUEST, f"{type(error).__name__}: {error}")
    except Exception as error:  # noqa: BLE001 - answered, not propagated
        log.exception("op %r failed", op)
        return refusal(INTERNAL, f"{type(error).__name__}: {error}")


__all__ = ["OPS", "Reply", "dispatch", "refusal"]
