"""Shard supervision: detect dead/wedged shards, respawn, re-warm, rejoin.

The :class:`~repro.service.shards.ShardedExecutor` gives the service
redundant capacity; this module gives it *self-healing*.  A
:class:`ShardSupervisor` is an asyncio task on the service loop that
sweeps the fleet every ``check_interval_s``:

1. **Detect** — a shard is down when its handle was marked failed (a
   round-trip broke or tripped the watchdog timeout) or its process is no
   longer alive.  Detection is passive on the supervisor side: the
   per-round-trip watchdog in :meth:`ShardHandle._roundtrip` is what
   notices a *wedged* (alive but unresponsive) worker, because only a
   round-trip has a reply to wait for.
2. **Respawn** — the dead process is reaped and replaced
   (:meth:`ShardHandle.respawn`) on an executor thread (spawning blocks
   ~1 s), gated by bounded exponential backoff (``backoff_base_s`` ·
   2^respawns, capped at ``backoff_max_s``) and a ``max_respawns`` budget
   per shard; a shard that exhausts its budget is left out of rotation
   and logged once.
3. **Re-warm** — every program wire dict the parent has ever routed (its
   ``(digest:variant) -> wire`` registry) is pre-loaded into the new
   process, so the shard rejoins the rotation with a warm program cache
   instead of paying a program resend on its first group per digest.
   Plans rebuild on first use, exactly like a cold service.
4. **Rejoin** — only after a successful rewarm is ``failed`` cleared,
   making the shard visible to :meth:`ShardedExecutor.pick` again.

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
from typing import Callable, Dict, Optional, Tuple

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
    wires:
        The parent's live ``(digest:variant) -> program wire dict``
        registry (the service's ``_wires``); read at rewarm time, so
        programs routed after a respawn began are still warmed next time.
    max_respawns:
        Per-shard respawn budget; exhausted shards stay down.
    on_restart:
        Optional callback ``(handle) -> None`` invoked on the event loop
        after a shard rejoins (the service bumps its counters/trace here).
    metrics:
        The registry restarts and respawn failures are counted in: the
        owning service's, or a private one for a supervisor built alone.
    """

    def __init__(self, executor: ShardedExecutor, wires: Dict[str, Dict],
                 *, max_respawns: int = DEFAULT_MAX_RESPAWNS,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
                 backoff_max_s: float = DEFAULT_BACKOFF_MAX_S,
                 check_interval_s: float = DEFAULT_CHECK_INTERVAL_S,
                 on_restart: Optional[Callable[[ShardHandle], None]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 ) -> None:
        self.executor = executor
        self.wires = wires
        self.max_respawns = max_respawns
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.check_interval_s = check_interval_s
        self.on_restart = on_restart
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
            await asyncio.sleep(self.check_interval_s)

    def _sweep(self) -> None:
        now = time.monotonic()
        for handle in self.executor.handles:
            index = handle.index
            if index in self._inflight:
                continue
            if not handle.failed and handle.process.is_alive():
                continue
            if not handle.failed:
                handle.mark_failed("process died")
            if handle.respawns >= self.max_respawns:
                if index not in self._gave_up:
                    self._gave_up.add(index)
                    log.error(
                        "shard %d exhausted its respawn budget (%d); "
                        "leaving it out of rotation", index, self.max_respawns)
                continue
            due = self._next_attempt.get(index)
            if due is None:
                delay = min(self.backoff_base_s * (2 ** handle.respawns),
                            self.backoff_max_s)
                self._next_attempt[index] = now + delay
                log.info("shard %d down; respawn #%d in %.2fs",
                         index, handle.respawns + 1, delay)
                continue
            if now < due:
                continue
            self._inflight.add(index)
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                None, self._respawn_and_rewarm, handle)
            future.add_done_callback(
                lambda f, handle=handle: self._respawn_done(handle, f))

    # -- respawn (executor thread) -------------------------------------------
    def _respawn_and_rewarm(self, handle: ShardHandle) -> None:
        handle.respawn()
        # Rewarm from a snapshot of the parent's digest registry; a program
        # routed mid-rewarm just falls back to the first-group resend path.
        for program_key, wire in list(self.wires.items()):
            handle.load_program(program_key, wire, timeout_s=30.0)
        handle.failed = False

    def _respawn_done(self, handle: ShardHandle, future) -> None:
        index = handle.index
        self._inflight.discard(index)
        self._next_attempt.pop(index, None)
        error = future.exception()
        if error is not None:
            self._respawn_failures.inc()
            handle.mark_failed(f"respawn failed: {error}")
            handle.failed = True
            log.warning("shard %d respawn failed: %s", index, error)
            return
        self._restarts.inc()
        log.info("shard %d rejoined the rotation", index)
        if self.on_restart is not None:
            try:
                self.on_restart(handle)
            except Exception:  # noqa: BLE001 - observer must not kill us
                log.exception("on_restart callback failed")

    # -- observability -------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "restarts": self._restarts.value,
            "respawn_failures": self._respawn_failures.value,
            "respawning": sorted(self._inflight),
            "gave_up": sorted(self._gave_up),
            "max_respawns": self.max_respawns,
        }


__all__ = ["ShardSupervisor"]
