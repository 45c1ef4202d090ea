"""One stats blob for the whole execution stack (a ``/metrics``-style report).

:func:`stats_report` assembles the compilation-cache counters (hits, misses,
LRU evictions), the results-store counters (entries, hits, misses, sessions,
per-benchmark bests of past tuning sessions) and — when called by a running
service — the serving counters (requests, batches, compilations) into a
single JSON-able dict.
The ``repro stats`` CLI verb prints exactly this report; the service's
:meth:`~repro.service.server.StencilService.stats` embeds it, so operators
read the same shape everywhere.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Union

from ..backend.cache import CompilationCache, default_cache
from ..engine.store import ResultsStore


def cache_section(cache: Optional[CompilationCache] = None) -> Dict[str, int]:
    cache = default_cache if cache is None else cache
    return cache.stats()


# One read handle per store path, reused across stats/scrape calls.  A
# /metrics scrape every few seconds used to open and close a fresh SQLite
# connection per call; connections are check_same_thread=False, so a single
# cached handle per path serves every scraping thread.
_STORE_HANDLES: Dict[str, ResultsStore] = {}
_STORE_HANDLES_LOCK = threading.Lock()


def _store_handle(path: str) -> ResultsStore:
    key = os.path.abspath(path) if path != ":memory:" else path
    with _STORE_HANDLES_LOCK:
        handle = _STORE_HANDLES.get(key)
        if handle is None:
            handle = _STORE_HANDLES[key] = ResultsStore(path)
        return handle


def store_section(store: Union[ResultsStore, str, os.PathLike, None]
                  ) -> Dict[str, object]:
    """Results-store counters plus a per-benchmark best summary.

    A path that does not exist (``":memory:"`` aside) reads as unavailable
    and is never created: a report only reads a store.
    """
    if isinstance(store, (str, os.PathLike)):
        path = os.fspath(store)
        if path != ":memory:" and not os.path.exists(path):
            return {"available": False}
        store = _store_handle(path)
    if store is None:
        return {"available": False}
    section: Dict[str, object] = {"available": True}
    section.update(store.stats())
    section["sessions"] = len(store.sessions())
    section["best"] = {
        name: {
            "variant": result.variant.describe(),
            "config": dict(result.config),
            "cost_s": result.cost,
            "device": result.device,
        }
        for name, result in sorted(store.best_per_benchmark().items())
    }
    return section


def shards_section(per_shard: List[Dict[str, object]]) -> Dict[str, object]:
    """Roll per-shard executor stats into one summary block.

    Totals (requests, groups, errors, compilations) are summed across the
    fleet so dashboards get fleet-level numbers at the top, while the raw
    ``per_shard`` rows stay attached for balance checks — a healthy
    round-robin shows every shard with a similar ``groups`` count, and a
    dead shard shows up as ``alive: false`` with its errors counter frozen.
    """
    totals = {"requests": 0, "groups": 0, "errors": 0, "compilations": 0,
              "respawns": 0}
    alive = 0
    rows = []
    for shard in per_shard:
        # The raw registry snapshot rides the stats op for /metrics merging;
        # it is bulky and belongs to the telemetry surface, not this report.
        row = {k: v for k, v in shard.items() if k != "telemetry"}
        rows.append(row)
        for name in totals:
            value = row.get(name)
            if isinstance(value, (int, float)):
                totals[name] += int(value)
        if row.get("alive"):
            alive += 1
    section: Dict[str, object] = {"count": len(per_shard), "alive": alive}
    section.update(totals)
    section["per_shard"] = rows
    return section


def stats_report(
    cache: Optional[CompilationCache] = None,
    store: Union[ResultsStore, str, None] = None,
    service: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The combined hit/miss/eviction report in one JSON-able blob."""
    report: Dict[str, object] = {
        "compilation_cache": cache_section(cache),
        "results_store": store_section(store),
    }
    if service is not None:
        report["service"] = service
    return report


__all__ = ["cache_section", "shards_section", "stats_report", "store_section"]
