"""Shard supervision: detect dead/wedged shards, respawn, rejoin.

The :class:`~repro.service.shards.ShardedExecutor` gives the service
redundant capacity; this module gives it *self-healing*.  A
:class:`ShardSupervisor` is an asyncio task on the service loop that
sweeps the fleet every :data:`DEFAULT_CHECK_INTERVAL_S`:

1. **Detect** — a shard is down when its handle was marked failed (a
   round-trip broke or tripped the watchdog timeout) or its process is no
   longer alive.  Detection is passive on the supervisor side: the
   per-round-trip watchdog in :meth:`ShardHandle._roundtrip` is what
   notices a *wedged* (alive but unresponsive) worker, because only a
   round-trip has a reply to wait for.
2. **Respawn** — the dead process is reaped and replaced
   (:meth:`ShardHandle.respawn`) on an executor thread (spawning blocks
   ~1 s), gated by bounded exponential backoff
   (:data:`DEFAULT_BACKOFF_BASE_S` · 2^respawns, capped at
   :data:`DEFAULT_BACKOFF_MAX_S`) and a :data:`DEFAULT_MAX_RESPAWNS`
   budget per shard, read at use time (a test monkeypatches it); a shard
   that exhausts its budget is left out of rotation and logged once (a
   budget of 0 turns respawning off).
3. **Rejoin** — right after the respawn ``failed`` is cleared, making the
   shard visible to :meth:`ShardedExecutor.pick` again.  The new process
   has empty caches, so the first group it gets for a digest carries the
   program, and its plans build on first use, like a fresh shard's.

Redispatch of the failed shard's in-flight groups is *not* done here: the
executor thread that caught :class:`~repro.service.shards.ShardUnavailable`
redispatches its own group immediately (see
``StencilService._dispatch_sharded``) rather than parking it on a
supervisor queue — the reply never arrived, so re-executing elsewhere is
idempotent.  The supervisor's job is purely to restore capacity.

Every transition is counted: ``repro_shard_restarts_total`` (successful
respawns) and ``repro_shard_respawn_failures_total`` here,
``repro_shard_redispatches_total`` in the server's redispatch path — all
three in the owning service's registry (:func:`restart_counters`).
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Dict, Optional, Tuple

from ..telemetry.registry import Counter, MetricsRegistry
from .shards import ShardedExecutor, ShardHandle

log = logging.getLogger("repro.service.supervisor")


def restart_counters(metrics: MetricsRegistry) -> Tuple[Counter, Counter]:
    """The supervisor's ``(restarts, respawn failures)`` counters in
    ``metrics``.  Get-or-create: a service declares them when it is built
    (an unsharded ``/metrics`` lists them at zero) and each supervisor it
    starts counts into the same two."""
    return (
        metrics.counter("repro_shard_restarts_total",
                        "Shard processes respawned by the supervisor."),
        metrics.counter("repro_shard_respawn_failures_total",
                        "Shard respawn attempts that themselves failed."),
    )


DEFAULT_MAX_RESPAWNS = 5
DEFAULT_BACKOFF_BASE_S = 0.25
DEFAULT_BACKOFF_MAX_S = 5.0
DEFAULT_CHECK_INTERVAL_S = 0.2


class ShardSupervisor:
    """Monitor task that keeps a shard fleet at full strength.

    Parameters
    ----------
    executor:
        The fleet to supervise.
    metrics:
        The registry restarts and respawn failures are counted in: the
        owning service's, or a private one for a supervisor built alone.
    """

    def __init__(self, executor: ShardedExecutor, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.executor = executor
        self._restarts, self._respawn_failures = restart_counters(
            metrics if metrics is not None else MetricsRegistry())
        self._task: Optional[asyncio.Task] = None
        self._inflight: set = set()          # shard indices respawning now
        self._next_attempt: Dict[int, float] = {}
        self._gave_up: set = set()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-shard-supervisor")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # -- the monitor loop ----------------------------------------------------
    async def _run(self) -> None:
        while True:
            try:
                self._sweep()
            except Exception:  # noqa: BLE001 - the monitor must not die
                log.exception("supervisor sweep failed")
            await asyncio.sleep(DEFAULT_CHECK_INTERVAL_S)

    def _sweep(self) -> None:
        now = time.monotonic()
        for handle in self.executor.handles:
            index = handle.index
            if index in self._inflight:
                continue
            if not handle.failed and handle.process.is_alive():
                continue
            handle.mark_failed("process died")
            budget = DEFAULT_MAX_RESPAWNS
            if handle.respawns >= budget:
                if index not in self._gave_up:
                    self._gave_up.add(index)
                    if budget:
                        log.error(
                            "shard %d exhausted its respawn budget (%d); "
                            "leaving it out of rotation", index, budget)
                    else:
                        log.info("shard %d down; respawning is off "
                                 "(max_respawns 0), leaving it out of rotation",
                                 index)
                continue
            due = self._next_attempt.get(index)
            if due is None:
                delay = min(DEFAULT_BACKOFF_BASE_S * (2 ** handle.respawns),
                            DEFAULT_BACKOFF_MAX_S)
                self._next_attempt[index] = now + delay
                log.info("shard %d down; respawn #%d in %.2fs",
                         index, handle.respawns + 1, delay)
                continue
            if now < due:
                continue
            self._inflight.add(index)
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(None, self._respawn, handle)
            future.add_done_callback(
                lambda f, handle=handle: self._respawn_done(handle, f))

    # -- respawn (executor thread) -------------------------------------------
    @staticmethod
    def _respawn(handle: ShardHandle) -> None:
        handle.respawn()
        handle.failed = False

    def _respawn_done(self, handle: ShardHandle, future) -> None:
        index = handle.index
        self._inflight.discard(index)
        self._next_attempt.pop(index, None)
        error = future.exception()
        if error is not None:
            # ``failed`` is still set: only a respawn that returned clears it.
            self._respawn_failures.inc()
            log.warning("shard %d respawn failed: %s", index, error)
            return
        self._restarts.inc()
        log.info("shard %d rejoined the rotation", index)

    # -- observability -------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "restarts": self._restarts.value,
            "respawn_failures": self._respawn_failures.value,
            "respawning": sorted(self._inflight),
            "gave_up": sorted(self._gave_up),
            "max_respawns": DEFAULT_MAX_RESPAWNS,
        }


__all__ = ["ShardSupervisor"]
