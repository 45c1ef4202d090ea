""":class:`StencilClient` — the production client for the stencil service.

One client object, one configured endpoint, blocking calls:

.. code-block:: python

    from repro.client import ClientConfig, StencilClient

    with StencilClient(ClientConfig(transport="http", port=7458,
                                    auth_key="s3cret")) as client:
        response = client.execute_benchmark("stencil2d", shape=(512, 512),
                                            priority="high", deadline_ms=50)

The client owns deadlines and retries so callers do not reimplement them:

* every call has a *transport* deadline (``timeout_s``, per call or from
  the config) and every request may carry a *server-side* ``deadline_ms``
  freshness bound (the service sheds it once stale), set on the request;
* failed calls are retried with bounded exponential backoff + jitter, but
  **only** when the transport reports the failure as provably-unexecuted
  (connect error, or timeout before a single response byte) — a failure
  after response bytes arrived is surfaced, never replayed;
* admission rejections (429-style) are retried the same way — a rejected
  request never executed — waiting at least the server's
  ``retry_after_ms`` hint before the next attempt.
"""

from __future__ import annotations

import dataclasses
import random
import time
import uuid
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..service.jobs import TERMINAL
from ..service.requests import (ADMISSION_REJECTED, ExecutionRequest,
                                ExecutionResponse)
from .config import ClientConfig
from .transport import HttpTransport, TcpTransport, Transport, TransportError

#: The retry policy: attempts after the first try, and the backoff before
#: retry ``n`` (0-based), ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2**n)``.
RETRIES = 2
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


def backoff_s(attempt: int, jitter: float) -> float:
    """The wait before retry ``attempt`` (0-based); ``jitter`` in [0, 1)
    stretches it by up to its own length, so synchronized clients do not
    stampede."""
    delay = min(BACKOFF_MAX_S, BACKOFF_BASE_S * (2.0 ** attempt))
    return delay * (1.0 + jitter)


class StencilClient:
    """A blocking client over one pluggable transport (TCP or HTTP).

    Every op is written here once: it builds the op's metadata, sends it
    through :meth:`_call` (the one retry loop over
    :meth:`Transport.call`; ``ping``, a probe, makes one attempt) and
    reads the reply.
    """

    def __init__(self, config: Optional[ClientConfig] = None,
                 transport: Optional[Transport] = None,
                 rng: Optional[random.Random] = None) -> None:
        if config is None:
            config = ClientConfig()
        self.config = config
        self._rng = rng if rng is not None else random.Random()
        self.retries_attempted = 0
        if transport is not None:
            self.transport = transport
        elif config.transport == "http":
            self.transport = HttpTransport(
                config.host, config.port, auth_key=config.auth_key,
                binary_threshold_bytes=config.binary_threshold_bytes,
            )
        else:
            self.transport = TcpTransport(
                config.host, config.port, auth_key=config.auth_key)

    # -- calls ---------------------------------------------------------------
    def execute(self, request: ExecutionRequest,
                timeout_s: Optional[float] = None) -> ExecutionResponse:
        """Execute one request (the request's own priority/deadline apply)."""
        reply, grids = self._call("execute", request.wire_meta(),
                                  request.inputs, timeout_s)
        return ExecutionResponse.from_wire(reply, grids)

    def execute_benchmark(self, key: str, shape=None, seed: int = 0,
                          priority: str = "normal",
                          deadline_ms: Optional[float] = None,
                          steps: int = 1,
                          timeout_s: Optional[float] = None,
                          ) -> ExecutionResponse:
        """Execute a registered benchmark with generated inputs."""
        request = ExecutionRequest.for_benchmark(
            key, shape=shape, seed=seed, priority=priority,
            deadline_ms=deadline_ms, steps=steps,
        )
        return self.execute(request, timeout_s)

    def iterate(self, request: ExecutionRequest, steps: int,
                timeout_s: Optional[float] = None) -> ExecutionResponse:
        """Run ``steps`` timesteps of one request (``POST /v1/iterate``).

        The caller's request is left as it was: the steps travel on a copy.
        """
        steps = int(steps)
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if request.steps != steps:
            request = dataclasses.replace(request, steps=steps)
        return self.execute(request, timeout_s)

    def ping(self, timeout_s: float = 5.0) -> bool:
        """Whether the server answers now: one attempt, never retried, so
        a readiness probe polls on its own schedule, not the backoff's."""
        reply, _grids = self.transport.call("ping", {}, None, timeout_s)
        return bool(reply.get("ok"))

    def stats(self, timeout_s: Optional[float] = None) -> Dict[str, object]:
        """The server's stats report (``GET /v1/stats`` over HTTP)."""
        return self._call("stats", {}, None, timeout_s)[0]["stats"]

    # -- durable jobs --------------------------------------------------------
    def submit_job(self, request: ExecutionRequest,
                   job_key: Optional[str] = None,
                   checkpoint_every: Optional[int] = None,
                   timeout_s: Optional[float] = None) -> Dict[str, object]:
        """Submit a checkpointed multi-timestep job; returns its descriptor.

        When the caller supplies no ``job_key``, one is generated *before*
        the first network attempt, so a retried submission (connect error,
        timeout before a response byte) lands on the server's idempotency
        map and returns the already-created job instead of a duplicate.
        """
        meta = request.wire_meta()
        meta["job_key"] = job_key if job_key is not None else uuid.uuid4().hex
        if checkpoint_every is not None:
            meta["checkpoint_every"] = int(checkpoint_every)
        return self._call("job_submit", meta, request.inputs,
                          timeout_s)[0]["job"]

    def job_status(self, job_id: str,
                   timeout_s: Optional[float] = None) -> Dict[str, object]:
        return self._call("job_status", {"job_id": job_id}, None,
                          timeout_s)[0]["job"]

    def job_result(self, job_id: str, timeout_s: Optional[float] = None
                   ) -> Tuple[Dict[str, object], np.ndarray]:
        """The ``(descriptor, final grid)`` of a completed job."""
        reply, grids = self._call("job_result", {"job_id": job_id}, None,
                                  timeout_s)
        if not grids:
            raise TransportError("job result carried no grid")
        return reply.get("job", {}), np.asarray(grids[0], dtype=np.float64)

    def cancel_job(self, job_id: str,
                   timeout_s: Optional[float] = None) -> Dict[str, object]:
        return self._call("job_cancel", {"job_id": job_id}, None,
                          timeout_s)[0]["job"]

    def list_jobs(self, timeout_s: Optional[float] = None
                  ) -> List[Dict[str, object]]:
        return self._call("job_list", {}, None, timeout_s)[0]["jobs"]

    def wait_job(self, job_id: str, timeout_s: float = 60.0,
                 poll_s: float = 0.1) -> Dict[str, object]:
        """Wait until the job reaches a terminal status; returns it.

        Each status request asks the server to answer as soon as the job
        ends, or after ``min(poll_s, remaining)``, so ``poll_s`` bounds how
        long one request stays open and the job's end is learned when it
        happens.  A reply that comes back early without an end (a draining
        server) is followed by a sleep out of the rest of that interval.
        Raises :class:`TransportError` if the job is still running when
        ``timeout_s`` elapses (the job itself keeps running server-side).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            asked = time.monotonic()
            wait_s = max(0.0, min(poll_s, deadline - asked))
            job = self._call(
                "job_status",
                {"job_id": job_id, "wait_ms": round(wait_s * 1e3, 3)}, None,
                wait_s + self.config.timeout_s)[0]["job"]
            if job.get("status") in TERMINAL:
                return job
            now = time.monotonic()
            if now >= deadline:
                raise TransportError(
                    f"job {job_id} still {job.get('status')!r} after "
                    f"{timeout_s:g}s"
                )
            time.sleep(max(0.0, min(asked + wait_s, deadline) - now))

    def run_job(self, request: ExecutionRequest,
                checkpoint_every: Optional[int] = None,
                timeout_s: float = 60.0) -> np.ndarray:
        """Submit + wait + fetch: the blocking convenience for one job."""
        job = self.submit_job(request, checkpoint_every=checkpoint_every)
        done = self.wait_job(job["job_id"], timeout_s=timeout_s)
        if done.get("status") != "completed":
            raise TransportError(
                f"job {job['job_id']} ended {done.get('status')!r}: "
                f"{done.get('error')}"
            )
        _job, result = self.job_result(job["job_id"])
        return result

    # -- mechanics -----------------------------------------------------------
    def _call(self, op: str, meta: Dict[str, object],
              grids: Optional[List[np.ndarray]], timeout_s: Optional[float]):
        """One logical call: attempts = 1 + :data:`RETRIES`, safe failures
        only; returns the reply's ``(metadata, grids)``.

        A :class:`TransportError` is replayed only when the transport
        marks it ``retryable``.  For ``execute`` that flag means
        provably-unexecuted (connect failure, timeout before a response
        byte); job ops are idempotent server-side (submission dedups on
        its ``job_key``; status/result/list are reads; cancel is
        at-most-once), and stats is a read, so the same flag is all they
        need.

        An in-band refusal of any op but ``execute`` raises a
        non-retryable :class:`TransportError` carrying the server's
        ``code`` at once — the caller decides.  An ``execute`` refusal is
        its response; an admission rejection (429-style, in-band: a
        rejected request was provably not executed) is retried too,
        honouring the server's ``retry_after_ms`` hint: the wait is the
        *larger* of the hint and the backoff, clipped to the call
        deadline.  The last rejection is returned (not raised) once
        retries are exhausted.
        """
        timeout = timeout_s if timeout_s is not None else self.config.timeout_s
        call_deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            remaining = call_deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError("call deadline exhausted before "
                                     f"attempt {attempt + 1}")
            try:
                reply, out = self.transport.call(op, meta, grids, remaining)
            except TransportError as error:
                if not error.retryable or attempt >= RETRIES:
                    raise
                delay = backoff_s(attempt, self._rng.random())
            else:
                if op != "execute":
                    if not reply.get("ok", False):
                        raise TransportError(
                            str(reply.get("error", f"{op} refused")),
                            code=reply.get("code"))
                    return reply, out
                if (reply.get("code") != ADMISSION_REJECTED
                        or attempt >= RETRIES):
                    return reply, out
                hint_s = float(reply.get("retry_after_ms") or 0.0) / 1e3
                delay = max(hint_s, backoff_s(attempt, self._rng.random()))
                if delay > call_deadline - time.monotonic():
                    # Honouring the hint would blow the call deadline:
                    # hand the rejection back instead of a doomed retry.
                    return reply, out
            delay = min(delay, max(0.0, call_deadline - time.monotonic()))
            attempt += 1
            self.retries_attempted += 1
            if delay > 0:
                time.sleep(delay)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "StencilClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["BACKOFF_BASE_S", "BACKOFF_MAX_S", "RETRIES", "StencilClient",
           "backoff_s"]
