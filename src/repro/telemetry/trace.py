"""Request-lifecycle traces in a bounded ring buffer.

The service records one trace dict per completed request: the per-stage
wall times of its journey (admit → queue → execute sub-stages → respond)
plus batch/shard context.  Traces live in a
:class:`collections.deque` ring (O(1) record, oldest evicted first);
requests slower than the configured threshold are *additionally* kept in a
second ring so a burst of fast traffic cannot evict the one trace an
operator actually wants to look at.

Recording happens on the service loop after the response futures resolve —
never inside the numeric replay path — so tracing adds a few dict/tuple
allocations per *request*, not per *step*, and the zero-allocation replay
invariants are untouched.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional


class TraceRing:
    """Two bounded rings of request traces: everything, and the slow ones."""

    def __init__(self, capacity: int = 256, slow_ms: float = 50.0,
                 slow_capacity: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms)
        self.slow_capacity = int(slow_capacity or max(16, capacity // 4))
        self._lock = threading.Lock()
        self._traces: "deque[Dict[str, object]]" = deque(maxlen=self.capacity)
        self._slow: "deque[Dict[str, object]]" = deque(maxlen=self.slow_capacity)
        self._sequence = 0
        self.recorded = 0
        self.slow_recorded = 0

    def record(self, trace: Dict[str, object]) -> Dict[str, object]:
        """File one finished trace; tags it slow past the threshold."""
        with self._lock:
            self._sequence += 1
            trace["id"] = self._sequence
            trace["slow"] = bool(
                float(trace.get("total_ms") or 0.0) >= self.slow_ms
            )
            self._traces.append(trace)
            self.recorded += 1
            if trace["slow"]:
                self._slow.append(trace)
                self.slow_recorded += 1
        return trace

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def snapshot(self, slow_only: bool = False,
                 limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Most-recent-first copies of the ring (or the slow ring)."""
        with self._lock:
            source = self._slow if slow_only else self._traces
            traces = [dict(trace) for trace in reversed(source)]
        if limit is not None and limit >= 0:
            traces = traces[:limit]
        return traces

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "slow_capacity": self.slow_capacity,
                "slow_ms": self.slow_ms,
                "recorded": self.recorded,
                "slow_recorded": self.slow_recorded,
                "retained": len(self._traces),
                "slow_retained": len(self._slow),
            }


def format_trace(trace: Dict[str, object]) -> str:
    """One trace as an indented per-stage breakdown (the CLI rendering)."""
    header = (
        f"#{trace.get('id')} {trace.get('benchmark') or '<raw>'} "
        f"digest {str(trace.get('digest') or '')[:12]} "
        f"batch {trace.get('batch_size')} "
        f"total {float(trace.get('total_ms') or 0.0):.2f} ms"
    )
    if trace.get("shard") is not None:
        header += f" shard {trace['shard']}"
    if trace.get("slow"):
        header += "  [slow]"
    if trace.get("error"):
        header += f"  ERROR: {trace['error']}"
    lines = [header]
    for name, duration_ms in trace.get("stages") or []:
        lines.append(f"    {name:<16} {float(duration_ms):>9.3f} ms")
    return "\n".join(lines)


__all__ = ["TraceRing", "format_trace"]
