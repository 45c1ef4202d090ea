"""The service's one executor: how a group is swept, how a trajectory runs.

Every place the service does numeric work — the in-process batcher, the
circuit breaker's quarantine route (``use_plans=False``), the shard child
process, plan pre-warming, synchronous ``steps > 1`` requests and durable
jobs — calls :func:`sweep_group` or :func:`run_trajectory`, so the batching
policy, the segment loop and the ``plan → generic`` fallback each exist
once.  Both report ``plan_fallback`` (the digest circuit breaker's
evidence); nothing else under ``repro.service`` catches
:class:`~repro.backend.numpy_backend.CompileError`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..backend.numpy_backend import CompileError
from ..backend.plan import iterate_generic, iterate_state_generic

#: ``boundary(done, state) -> stop reason | None`` — see :func:`run_trajectory`.
Boundary = Callable[[int, Sequence[np.ndarray]], Optional[str]]


def batch_capacity(n: int) -> int:
    """Group size rounded up to the next power of two: what batched plans
    and shard slabs are keyed by, so variable load keeps O(log max_batch)
    of them resident per program instead of one per distinct batch size."""
    capacity = 1
    while capacity < n:
        capacity *= 2
    return capacity


def sweep_group(
    backend,
    program,
    parts: Sequence[Sequence[np.ndarray]],
    size_env: Optional[Mapping[str, int]],
    use_plans: bool,
) -> Tuple[List[np.ndarray], Dict[str, object]]:
    """One sweep of ``program`` over each request's grids in ``parts``.

    One request replays its unbatched plan; several are copied straight
    into one capacity-sized batched plan's pooled stacked buffers (no
    ``np.stack`` allocation), the padding slots repeating the head request
    and discarded.  Returns ``(rows, timings)``: one output per request,
    bit-identical to ``backend.run`` on that request alone, plus
    ``plan_resolve_ms`` / ``replay_ms`` and — when plan lookup or capture
    raised ``CompileError`` and the generic compiled path served the group
    instead — ``plan_fallback``.
    """
    head = parts[0]
    n = len(parts)
    timings: Dict[str, object] = {}
    rows: Optional[List[np.ndarray]] = None
    started = replay_started = perf_counter()
    if use_plans:
        try:
            if n == 1:
                plan = backend.plan(program, head, size_env)
                replay_started = perf_counter()
                rows = [plan.run(head)]
            else:
                capacity = batch_capacity(n)
                signature = [
                    ((capacity,) + tuple(grid.shape), str(grid.dtype))
                    for grid in head
                ]
                plan = backend.plan(program, signature, size_env,
                                    batched=True)
                replay_started = perf_counter()
                batch = plan.run_batched_parts(
                    list(parts) + [head] * (capacity - n))
                rows = [batch[index] for index in range(n)]
        except CompileError:
            timings["plan_fallback"] = True
            replay_started = perf_counter()
    if rows is None:
        if n == 1:
            rows = [backend.run(program, head, size_env)]
        else:
            stacked = [np.stack([item[index] for item in parts])
                       for index in range(len(head))]
            batch = backend.run_batched(program, stacked, size_env)
            rows = [batch[index] for index in range(n)]
    timings["plan_resolve_ms"] = (replay_started - started) * 1e3
    timings["replay_ms"] = (perf_counter() - replay_started) * 1e3
    return rows, timings


def run_trajectory(
    backend,
    program,
    inputs: Sequence[np.ndarray],
    steps: int,
    carry,
    size_env: Optional[Mapping[str, int]],
    use_plans: bool,
    segment: Optional[int] = None,
    boundary: Optional[Boundary] = None,
) -> Tuple[Optional[np.ndarray], int, Optional[str], Dict[str, object]]:
    """Advance one request ``steps`` timesteps, ``segment`` steps at a time.

    ``boundary(done, state)`` runs before the first segment and after
    every segment but the last, with the steps completed so far and the
    state the next step would read (carried slots copied, read-only;
    static slots the caller's ``inputs`` entries); a stop reason from it
    ends the trajectory there.  ``segment=None`` is one monolithic plan
    loop.  A segment continues from the plan's live binding
    (:meth:`~repro.backend.plan.ExecutionPlan.iterate_state`), unless
    another caller bound the plan in between — then it binds the copied
    state — so any segmentation is bit-identical to the monolithic loop
    and to :func:`~repro.backend.plan.iterate_generic`.  The last segment
    copies out only its output, so a trajectory with no boundary costs
    one copy.

    Returns ``(out, done, stopped, timings)``: the last completed step's
    output (``None`` if none ran), the completed step count, the stop
    reason (``None`` = ran to completion), and ``{"plan_fallback": True}``
    if the generic per-sweep loop had to take over.
    """
    timings: Dict[str, object] = {}
    plan = None
    state = inputs
    out: Optional[np.ndarray] = None
    done = 0
    while done < steps:
        stopped = boundary(done, state) if boundary is not None else None
        if stopped is not None:
            return out, done, stopped, timings
        count = min(segment or steps, steps - done)
        last = done + count == steps
        advanced = None
        if use_plans:
            try:
                if plan is None:
                    plan = backend.plan(program, inputs, size_env)
                advanced = ((plan.iterate(state, count, carry), None) if last
                            else plan.iterate_state(state, count, carry))
            except CompileError:
                use_plans = False
                timings["plan_fallback"] = True
        if advanced is None:
            advanced = ((iterate_generic(backend, program, state, count,
                                         carry, size_env), None) if last
                        else iterate_state_generic(backend, program, state,
                                                   count, carry, size_env))
        out, state = advanced
        done += count
    return out, done, None, timings


__all__ = ["batch_capacity", "run_trajectory", "sweep_group"]
