"""Sharded batch execution: pre-forked worker processes behind the batcher.

One :class:`~repro.service.server.StencilService` event loop keeps doing
what it always did — accept requests, collect micro-batches, group them by
routing key — but with ``shards=N`` the *numeric* work of each group is
dispatched round-robin to one of N long-lived worker processes instead of
running on the parent's executor thread.  A multi-core machine then runs N
stacked sweeps concurrently while the asyncio loop stays free for
admission and I/O.

The request path stays zero-copy in the sense that matters: request grids
are written once, straight into a per-(signature, capacity)
``multiprocessing.shared_memory`` slab the shard maps into its address
space — no pickling of arrays, no sockets, no per-request allocation of
wire buffers.  Each shard writes its stacked result into a shared output
slab the parent maps back.  Only tiny control messages (slab names, the
routing digest, batch geometry) cross the pipe; programs cross **once**
per digest per shard, as :func:`~repro.core.serialize.program_to_dict`
wire dicts, and are compiled into the shard's own caches — so in sharded
mode the expected compilation count for one hot digest is one *per shard
that served it*, not one per process tree.

Shards are deliberately plain: each one owns a private
:class:`~repro.backend.base.NumpyBackend` (compilation cache + plan cache
+ buffer pools) and sweeps each group through the same
:func:`~repro.service.executor.sweep_group` the in-process service calls,
so a sharded service is bit-identical to an unsharded one.  Failure
handling is layered: a round-trip that breaks (``EOFError``, watchdog
timeout) raises :class:`ShardUnavailable` and marks the handle
failed so :meth:`ShardedExecutor.pick` skips it; the service *redispatches*
the group to a surviving shard (safe — the reply never arrived, so nothing
was delivered twice) and the :class:`~repro.service.supervisor.ShardSupervisor`
respawns the dead process in the background (:meth:`ShardHandle.respawn`).
The new process starts with empty caches: the first group it gets for a
digest carries the program again, as on a fresh shard.  An
*in-band* error reply (the shard is alive but the program failed) stays a
plain :class:`ShardError` and is **not** redispatched — a deterministic
failure would fail everywhere.

Start method is ``spawn``: the parent runs a threaded asyncio loop, and
forking a threaded process inherits locks in undefined states.  Spawned
children import :mod:`repro` fresh, which is why shard start-up is
visible (~1 s per shard) and why ``serve --shards`` pre-forks before the
socket starts listening.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing as mp
import os
import threading
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import faults as _faults
from ..backend import fuse
from .executor import batch_capacity, sweep_group
from .requests import ServiceError

log = logging.getLogger("repro.service.shards")


class ShardError(ServiceError):
    """A shard process failed (or died) while executing a group."""


class ShardUnavailable(ShardError):
    """The shard did not answer (died, or tripped the watchdog timeout).

    Distinct from an in-band :class:`ShardError` reply: the group's reply
    never arrived, so the service may safely redispatch it elsewhere.
    """


def _create_slab(shape, dtype=np.float64):
    size = max(1, int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
    shm = shared_memory.SharedMemory(create=True, size=size)
    array = np.ndarray(tuple(shape), dtype=dtype, buffer=shm.buf)
    return shm, array


def _attach_slab(name: str, shape, dtype):
    # On Python < 3.13 attaching re-registers the segment with the resource
    # tracker; shard processes are spawned from the parent, so both sides
    # share ONE tracker process and the re-registration is a harmless
    # set-add — the creator's eventual unlink() balances it.  (Do not add
    # the classic `resource_tracker.unregister` workaround here: with a
    # shared tracker it *removes* the creator's registration and unlink()
    # then trips a KeyError inside the tracker.)
    shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)
    return shm, array


# ---------------------------------------------------------------------------
# The shard process (child side)
# ---------------------------------------------------------------------------

def _shard_main(index: int, conn) -> None:
    """One shard's serve loop: recv control message, sweep, reply.

    Runs in a spawned child process.  Owns a private backend (compilation
    cache, plan cache, buffer pools) plus caches of deserialized programs
    (by digest), attached input slabs (by name) and created output slabs
    (by geometry).
    """
    from ..backend.base import NumpyBackend
    from ..backend.cache import CompilationCache
    from ..core.serialize import program_from_dict

    backend = NumpyBackend(cache=CompilationCache(), fallback=False)
    programs: Dict[str, object] = {}
    attached: Dict[str, tuple] = {}    # slab name -> (shm, array)
    outputs: Dict[tuple, tuple] = {}   # (shape, dtype) -> (shm, array)
    counters = {"requests": 0, "groups": 0, "single": 0, "batched": 0}

    def input_array(spec: Dict) -> np.ndarray:
        entry = attached.get(spec["name"])
        if entry is None:
            entry = _attach_slab(spec["name"], spec["shape"], spec["dtype"])
            attached[spec["name"]] = entry
        return entry[1]

    def output_slab(shape, dtype) -> tuple:
        key = (tuple(shape), str(dtype))
        entry = outputs.get(key)
        if entry is None:
            shm, array = _create_slab(shape, dtype)
            entry = outputs[key] = (shm, array)
        return entry

    def execute(message: Dict) -> Dict:
        key = message["digest"]
        if "program" in message:
            programs[key] = program_from_dict(message["program"])
        program = programs.get(key)
        if program is None:
            raise ShardError(f"shard {index} has no program for {key!r}")
        n = int(message["n"])
        slabs = [input_array(spec) for spec in message["inputs"]]
        counters["groups"] += 1
        counters["requests"] += n
        counters["single" if n == 1 else "batched"] += n
        # The same sweep (and fallback chain) the in-process service runs,
        # which is what keeps a sharded service bit-identical to it.
        rows, _timings = sweep_group(
            backend, program,
            [[slab[row] for slab in slabs] for row in range(n)],
            message["size_env"] or None, use_plans=True)
        shm, out = output_slab(
            (batch_capacity(n),) + np.shape(rows[0]), np.float64)
        for row, result in enumerate(rows):
            np.copyto(out[row], result)
        return {
            "ok": True,
            "out": {"name": shm.name, "shape": out.shape,
                    "dtype": str(out.dtype)},
            "n": n,
        }

    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message.get("op")
            if op == "shutdown":
                conn.send({"ok": True})
                break
            if op == "stats":
                stats = dict(counters)
                stats["shard"] = index
                stats["compilations"] = backend.cache.stats().get("misses", 0)
                stats["plans"] = backend.plans.stats()
                # This shard's registry snapshot rides along so the parent's
                # /metrics scrape can merge fleet-wide counters/histograms.
                from ..telemetry.registry import get_registry

                stats["telemetry"] = get_registry().snapshot()
                conn.send({"ok": True, "stats": stats})
                continue
            if op != "execute":
                conn.send({"ok": False, "error": f"unknown op {op!r}"})
                continue
            try:
                reply = execute(message)
                if _faults.ARMED:
                    if _faults.should_fail("shard.crash_before_reply"):
                        # Hard crash with the reply computed but unsent: the
                        # parent sees EOF, never a reply — the redispatch
                        # idempotency case.
                        os._exit(17)
                    if _faults.should_fail("shard.hang"):
                        # Wedge without dying: only the parent's watchdog
                        # timeout can notice this.
                        time.sleep(3600)
                conn.send(reply)
            except Exception as error:  # noqa: BLE001 - reported in-band
                conn.send({
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                })
    finally:
        for shm, _array in attached.values():
            shm.close()
        for shm, _array in outputs.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side handles
# ---------------------------------------------------------------------------

class ShardHandle:
    """Parent-side proxy for one shard process.

    Owns the control pipe, the input slabs (created here, mapped by the
    shard) and attachments to the shard's output slabs.  ``execute`` is
    blocking and internally locked — the service calls it from executor
    threads, one group at a time per shard, while other shards execute
    their own groups concurrently.
    """

    def __init__(self, index: int, ctx, timeout_s: Optional[float] = None) -> None:
        self.index = index
        self._ctx = ctx
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._slabs: Dict[tuple, List[tuple]] = {}  # geometry -> [(shm, arr)]
        self._outputs: Dict[str, tuple] = {}        # slab name -> (shm, arr)
        self._sent_programs: set = set()
        self.requests = 0
        self.groups = 0
        self.errors = 0
        self.failed = False
        self.respawns = 0
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_shard_main, args=(self.index, child_conn),
            name=f"repro-shard-{self.index}", daemon=True,
        )
        self.process.start()
        log.debug("spawned shard %d (pid %s)", self.index, self.process.pid)
        child_conn.close()
        self._conn = parent_conn

    @property
    def available(self) -> bool:
        """Eligible for the round-robin rotation."""
        return not self.failed and self.process.is_alive()

    def mark_failed(self, reason: str) -> None:
        """Take this shard out of rotation (the supervisor respawns it)."""
        if not self.failed:
            self.failed = True
            log.warning("shard %d failed: %s", self.index, reason)

    # -- wire helpers --------------------------------------------------------
    def _roundtrip(self, message: Dict,
                   timeout_s: Optional[float] = None) -> Dict:
        """Send one control message and wait (bounded) for its reply.

        ``timeout_s`` is the per-round-trip watchdog: a shard that neither
        answers nor dies within it is declared failed — the only way a
        wedged (e.g. ``SIGSTOP``-ed, or livelocked) worker is ever noticed.
        """
        try:
            self._conn.send(message)
            if timeout_s is not None and not self._conn.poll(timeout_s):
                self.mark_failed(f"watchdog: no reply within {timeout_s:g}s")
                raise ShardUnavailable(
                    f"shard {self.index} did not reply within {timeout_s:g}s "
                    "(watchdog timeout)")
            return self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            self.mark_failed(f"pipe error {type(error).__name__}")
            raise ShardUnavailable(
                f"shard {self.index} is not responding "
                f"({type(error).__name__}); it may have died"
            ) from error

    def _input_slabs(self, head: Sequence[np.ndarray],
                     capacity: int) -> List[tuple]:
        key = (capacity,
               tuple((tuple(grid.shape), str(grid.dtype)) for grid in head))
        slabs = self._slabs.get(key)
        if slabs is None:
            slabs = [
                _create_slab((capacity,) + tuple(grid.shape))
                for grid in head
            ]
            self._slabs[key] = slabs
        return slabs

    def _attach_output(self, spec: Dict) -> np.ndarray:
        entry = self._outputs.get(spec["name"])
        if entry is None:
            entry = _attach_slab(spec["name"], spec["shape"], spec["dtype"])
            self._outputs[spec["name"]] = entry
        return entry[1]

    # -- the group path ------------------------------------------------------
    def execute(self, digest: str, program_wire: Dict,
                size_env: Optional[Dict],
                parts: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
        """Run one routed group on this shard; returns per-request outputs.

        Slabs are sized by the batcher's power-of-two capacity, so their
        count stays O(log max_batch) per program; only the first
        ``len(parts)`` rows are written (the shard's sweep pads its plan
        from the head request, exactly like the in-process path).
        """
        n = len(parts)
        with self._lock:
            slabs = self._input_slabs(parts[0], batch_capacity(n))
            for row, item in enumerate(parts):
                for (_shm, array), grid in zip(slabs, item):
                    np.copyto(array[row], grid)  # casts to float64 once, here
            message = {
                "op": "execute",
                "digest": digest,
                "size_env": dict(size_env or {}),
                "n": n,
                "inputs": [
                    {"name": shm.name, "shape": array.shape,
                     "dtype": str(array.dtype)}
                    for shm, array in slabs
                ],
            }
            if digest not in self._sent_programs:
                message["program"] = program_wire
                self._sent_programs.add(digest)
            try:
                reply = self._roundtrip(message, timeout_s=self.timeout_s)
            except ShardError:
                self.errors += 1
                raise
            if not reply.get("ok"):
                self.errors += 1
                raise ShardError(
                    f"shard {self.index}: {reply.get('error')}"
                )
            out = self._attach_output(reply["out"])
            self.requests += n
            self.groups += 1
            # Copy out of the shared slab before releasing the lock: the
            # next group on this shard reuses the same output geometry.
            return [np.array(out[row]) for row in range(n)]

    # -- supervision ---------------------------------------------------------
    def respawn(self) -> None:
        """Replace a dead/failed shard process with a fresh one.

        Reaps the old process (``SIGKILL`` — works on stopped processes
        too), drops its output-slab attachments (the parent unlinks them;
        a ``SIGKILL``-ed child never ran its cleanup), clears the
        program-sent set (the new process has empty caches), and spawns.
        Input slabs are parent-owned and name-attached lazily, so they
        carry over.  The caller (supervisor) clears ``failed``.
        """
        with self._lock:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=10)
            try:
                self._conn.close()
            except OSError:
                pass
            for shm, _array in self._outputs.values():
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
            self._outputs.clear()
            self._sent_programs.clear()
            self._spawn()
            self.respawns += 1
            log.info("shard %d respawned (pid %s, respawn #%d)",
                     self.index, self.process.pid, self.respawns)

    # -- ops -----------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        section: Dict[str, object] = {
            "shard": self.index,
            "alive": self.available,
            "pid": self.process.pid,
            "requests": self.requests,
            "groups": self.groups,
            "errors": self.errors,
            "respawns": self.respawns,
        }
        if self.available:
            try:
                with self._lock:
                    # Bounded even without a configured watchdog: a wedged
                    # shard must not hang the stats/metrics scrape.
                    reply = self._roundtrip(
                        {"op": "stats"},
                        timeout_s=self.timeout_s
                        if self.timeout_s is not None else 5.0)
                if reply.get("ok"):
                    section.update(reply["stats"])
            except ShardError:
                section["alive"] = False
        return section

    def close(self) -> None:
        with self._lock:
            if self.process.is_alive():
                try:
                    # Bounded: a wedged shard must not hang shutdown.
                    self._roundtrip({"op": "shutdown"}, timeout_s=5.0)
                except ShardError:
                    pass
            self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5)
            self._conn.close()
            for slabs in self._slabs.values():
                for shm, _array in slabs:
                    shm.close()
                    try:
                        shm.unlink()
                    except FileNotFoundError:
                        pass
            self._slabs.clear()
            for shm, _array in self._outputs.values():
                shm.close()
            self._outputs.clear()


class ShardedExecutor:
    """Round-robin dispatcher over N pre-forked shard processes.

    Round-robin (not hash-by-digest) so a single hot digest — the common
    serving profile — still spreads across every shard; shard-local plan
    caches make the second group per (shard, digest) a warm replay.
    """

    def __init__(self, shards: int, timeout_s: Optional[float] = None) -> None:
        if shards < 1:
            raise ServiceError("shards must be >= 1")
        ctx = mp.get_context("spawn")
        self.handles = [
            ShardHandle(index, ctx, timeout_s=timeout_s)
            for index in range(shards)
        ]
        self._counter = itertools.count()
        # they sweep on this process's cores (fuse.band_cores)
        fuse.count_shard_processes(shards)
        self._counted = shards

    def __len__(self) -> int:
        return len(self.handles)

    def pick(self) -> Optional[ShardHandle]:
        """Next available shard in rotation, or ``None`` if the whole fleet
        is down (the service then runs the group on the local path)."""
        n = len(self.handles)
        for _attempt in range(n):
            handle = self.handles[next(self._counter) % n]
            if handle.available:
                return handle
        return None

    def stats(self) -> List[Dict[str, object]]:
        return [handle.stats() for handle in self.handles]

    def close(self) -> None:
        for handle in self.handles:
            handle.close()
        fuse.count_shard_processes(-self._counted)
        self._counted = 0


__all__ = [
    "ShardError",
    "ShardHandle",
    "ShardUnavailable",
    "ShardedExecutor",
]
