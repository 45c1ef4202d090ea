"""Harness-side spans: one record per call the benchmark makes into a layer.

Spans are taken from ``bench/`` only — around public calls, never inside
``src/`` — kept in memory, and written out when the run ends.  A span's
*self time* is its duration minus the part its child spans cover.  The
caller is single-threaded, so spans nest strictly and a stack is enough.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    """Records ``{id, name, start, end, parent, trace}`` spans when enabled.

    Disabled, :meth:`span` yields without reading a clock, so the untraced
    run pays one generator frame per call and nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name, "parent": parent,
            "trace": trace, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)
            handle.write("\n")


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Seconds each span spent outside its children, by span id."""
    own = {span["id"]: float(span["end"]) - float(span["start"])
           for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= float(span["end"]) - float(span["start"])
    return own


def attribution(spans: List[Dict[str, Any]], op_name: str) -> Dict[str, Any]:
    """Where traced op time went: self seconds per span name under ``op_name``.

    Only descendants of ``op_name`` spans count; the op spans' own self time
    — harness glue between layer calls — is returned as ``unattributed``.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def under_op(span: Dict[str, Any]) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == op_name:
                return True
            parent = by_id[parent]["parent"]
        return False

    layers: Dict[str, float] = {}
    total = unattributed = 0.0
    for span in spans:
        if span["name"] == op_name:
            total += float(span["end"]) - float(span["start"])
            unattributed += own[span["id"]]
        elif under_op(span):
            name = str(span["name"])
            layers[name] = layers.get(name, 0.0) + own[span["id"]]
    return {"op_seconds": total, "layers": layers, "unattributed": unattributed}
