"""Deterministic fault injection for the serving and backend tiers.

The robustness layer (shard supervision, digest circuit breakers, chaos
loadgen) needs failures it can *schedule*: a shard that crashes before its
reply on exactly the third group, an allocator that fails 2% of the time
under a fixed seed, a store that reports ``database is locked`` once.  This
module provides named **injection points** that production code guards with
a two-token check::

    from repro import faults

    if faults.ARMED and faults.should_fail("pool.alloc_fail"):
        raise MemoryError("fault injected: pool.alloc_fail")

``ARMED`` is a module-level bool that is ``False`` unless a schedule has
been armed, so the disarmed hot path costs one attribute load and a branch
— no allocation, no dict lookup, no function call.  Tests assert this with
``tracemalloc``.

**Schedules** are strings of comma-separated point specs::

    shard.crash_before_reply:p=0.02:seed=7
    shard.hang:at=3
    store.locked:at=1:times=2

Each spec names a registered point plus qualifiers:

``p=<float>``
    Probability per hit, drawn from a private ``random.Random`` seeded by
    ``seed`` (default 0) — the firing pattern is a pure function of the
    seed and the hit sequence, so runs replay exactly.
``at=<int>``
    Fire on the Nth hit (1-based).  Fires once by default; raise ``times``
    to keep firing on subsequent hits.
``times=<int>``
    Maximum number of fires (default unlimited for ``p=``, 1 for ``at=``).
    A bare point name with no qualifiers fires on every hit.

Arming happens two ways, both equivalent: the ``REPRO_INJECT``
environment variable (read at import — ``REPRO_INJECT=SPEC repro serve``
arms a server, and its spawned shard children inherit the schedule), or
:func:`arm` in-process (``export=True`` also sets the variable, so shards
spawned afterwards arm themselves).  :func:`disarm` restores the
zero-overhead state.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, List, Optional

__all__ = [
    "ARMED",
    "POINTS",
    "FaultSpecError",
    "arm",
    "disarm",
    "fired",
    "hits",
    "should_fail",
    "snapshot",
]

#: Every injection point production code guards.  Arming an unknown point
#: is an error — a typo in a chaos schedule must not silently no-op.
POINTS = (
    "shard.crash_before_reply",
    "shard.hang",
    "pool.alloc_fail",
    "plan.capture_fail",
    "replay.chunk_error",
    "native.compile_error",
    "native.load_error",
    "native.temporal_mismatch",
    "store.locked",
    "job.crash_after_checkpoint",
    "job.checkpoint_corrupt",
    "wire.payload_corrupt",
)

#: The hot-path guard.  ``False`` unless a schedule is armed.
ARMED = False

ENV_VAR = "REPRO_INJECT"


class FaultSpecError(ValueError):
    """A fault schedule string failed to parse."""


class _PointSchedule:
    """Deterministic firing schedule for one injection point."""

    __slots__ = ("point", "p", "seed", "at", "times", "hits", "fires", "_rng")

    def __init__(self, point: str, p: Optional[float] = None,
                 seed: int = 0, at: Optional[int] = None,
                 times: Optional[int] = None) -> None:
        self.point = point
        self.p = p
        self.seed = seed
        self.at = at
        self.times = times
        self.hits = 0
        self.fires = 0
        self._rng = random.Random(seed)

    def check(self) -> bool:
        self.hits += 1
        if self.times is not None and self.fires >= self.times:
            return False
        fire = False
        if self.at is not None:
            fire = self.hits >= self.at
        if self.p is not None:
            # Draw on every hit so the sequence is a pure function of the
            # seed and hit count, independent of prior fires.
            draw = self._rng.random()
            fire = fire or draw < self.p
        if fire:
            self.fires += 1
        return fire

    def describe(self) -> Dict[str, object]:
        return {
            "point": self.point,
            "p": self.p,
            "seed": self.seed,
            "at": self.at,
            "times": self.times,
            "hits": self.hits,
            "fires": self.fires,
        }


_LOCK = threading.Lock()
_SCHEDULES: Dict[str, _PointSchedule] = {}


def parse_schedule(spec: str) -> List[_PointSchedule]:
    """Parse ``"point:k=v:...,point:k=v"`` into point schedules."""
    schedules: List[_PointSchedule] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        point = fields[0].strip()
        if point not in POINTS:
            raise FaultSpecError(
                f"unknown injection point {point!r}; known points: "
                + ", ".join(POINTS))
        kwargs: Dict[str, object] = {}
        for field in fields[1:]:
            if "=" not in field:
                raise FaultSpecError(
                    f"bad qualifier {field!r} in {part!r} (want key=value)")
            key, _, value = field.partition("=")
            key = key.strip()
            try:
                if key == "p":
                    kwargs["p"] = float(value)
                elif key in ("seed", "at", "times"):
                    kwargs[key] = int(value)
                else:
                    raise FaultSpecError(
                        f"unknown qualifier {key!r} in {part!r} "
                        "(want p=, seed=, at=, times=)")
            except ValueError as exc:
                if isinstance(exc, FaultSpecError):
                    raise
                raise FaultSpecError(
                    f"bad value for {key!r} in {part!r}: {value!r}") from exc
        if "p" not in kwargs and "at" not in kwargs:
            # Bare point name: fire on every hit (until ``times`` runs out).
            kwargs["at"] = 1
        elif "at" in kwargs and "times" not in kwargs:
            # ``at=N`` alone means "fire once, on the Nth hit".
            kwargs["times"] = 1
        schedules.append(_PointSchedule(point, **kwargs))  # type: ignore[arg-type]
    if not schedules:
        raise FaultSpecError(f"empty fault schedule: {spec!r}")
    return schedules


def arm(spec: str, *, export: bool = False) -> None:
    """Arm the schedule ``spec``; with ``export=True`` also set the env var
    so spawned subprocesses (shards) arm themselves at import."""
    global ARMED
    schedules = parse_schedule(spec)
    with _LOCK:
        _SCHEDULES.clear()
        for schedule in schedules:
            _SCHEDULES[schedule.point] = schedule
        ARMED = True
    if export:
        os.environ[ENV_VAR] = spec


def disarm() -> None:
    """Drop every schedule and restore the zero-overhead disarmed state."""
    global ARMED
    with _LOCK:
        _SCHEDULES.clear()
        ARMED = False
    os.environ.pop(ENV_VAR, None)


def should_fail(point: str) -> bool:
    """Record a hit on ``point`` and report whether it should fire.

    Callers must guard with ``faults.ARMED`` first — this function is only
    cheap relative to a failure, not relative to the hot path.
    """
    with _LOCK:
        schedule = _SCHEDULES.get(point)
        if schedule is None:
            return False
        return schedule.check()


def fired(point: str) -> int:
    """How many times ``point`` has fired since it was armed."""
    with _LOCK:
        schedule = _SCHEDULES.get(point)
        return schedule.fires if schedule is not None else 0


def hits(point: str) -> int:
    """How many times ``point`` has been checked since it was armed."""
    with _LOCK:
        schedule = _SCHEDULES.get(point)
        return schedule.hits if schedule is not None else 0


def snapshot() -> List[Dict[str, object]]:
    """Describe every armed schedule (for ``repro stats`` / debugging)."""
    with _LOCK:
        return [schedule.describe() for schedule in _SCHEDULES.values()]


def _arm_from_env() -> None:
    spec = os.environ.get(ENV_VAR)
    if spec:
        arm(spec)


_arm_from_env()
