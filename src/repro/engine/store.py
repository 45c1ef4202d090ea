"""The SQLite-backed results store: cross-run memoisation + resumable sessions.

Every evaluated point is persisted under its job fingerprint (the stable
digest of the structural expression hash + configuration, see
:mod:`repro.engine.jobs`).  A second invocation of the same search — same
benchmark, device, strategy set and budget — therefore recalls every cost
from disk and performs **zero re-evaluations**; the ``hits``/``misses``
counters make that verifiable from the CLI and from tests.

Sessions record the full search spec (as JSON) under a user-visible id, so
``repro tune --resume <session-id>`` can re-derive the job set without the
original command-line flags and skip every already-evaluated point.

Only the driver process touches the database; worker processes receive job
specs and return costs, which keeps the store free of cross-process locking
concerns (SQLite's own file lock covers concurrent *driver* invocations).
The store opens in WAL mode with a bounded ``busy_timeout`` so readers and
a concurrent writer coexist, and a corrupt database file is moved aside
(``<path>.corrupt``) and recreated rather than wedging every caller.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults as _faults
from ..rewriting.strategies import Strategy
from .jobs import EvaluationJob

log = logging.getLogger("repro.engine.store")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    benchmark   TEXT NOT NULL,
    device      TEXT NOT NULL,
    shape       TEXT NOT NULL,
    expr_digest TEXT NOT NULL,
    variant     TEXT NOT NULL,
    config      TEXT NOT NULL,
    cost        REAL NOT NULL,
    session     TEXT,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_bench_device
    ON results (benchmark, device);
CREATE INDEX IF NOT EXISTS idx_results_digest
    ON results (expr_digest);
CREATE TABLE IF NOT EXISTS sessions (
    session    TEXT PRIMARY KEY,
    spec       TEXT NOT NULL,
    status     TEXT NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class StoredResult:
    """One persisted evaluation."""

    fingerprint: str
    benchmark: str
    device: str
    shape: Tuple[int, ...]
    expr_digest: str
    variant: Strategy
    config: Dict[str, object]
    cost: float
    session: Optional[str]
    created_at: float


def _row_to_result(row: sqlite3.Row) -> StoredResult:
    return StoredResult(
        fingerprint=row["fingerprint"],
        benchmark=row["benchmark"],
        device=row["device"],
        shape=tuple(json.loads(row["shape"])),
        expr_digest=row["expr_digest"],
        variant=Strategy.from_spec(json.loads(row["variant"])),
        config=dict(json.loads(row["config"])),
        cost=row["cost"],
        session=row["session"],
        created_at=row["created_at"],
    )


class ResultsStore:
    """Persistent evaluation results keyed by job fingerprint.

    ``path`` may be a filesystem path (parent directories are created) or
    ``":memory:"`` for an ephemeral store.  The instance counts ``hits``
    (lookups answered from the database) and ``misses`` (lookups that will
    require a fresh evaluation) since it was opened.
    """

    def __init__(self, path: str = ":memory:",
                 busy_timeout_s: float = 5.0) -> None:
        self.path = path
        self.busy_timeout_s = busy_timeout_s
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError as error:
            # A truncated or garbage file ("file is not a database",
            # "database disk image is malformed").  OperationalError —
            # locked/busy, permissions — is *not* corruption and must
            # propagate: moving a healthy database aside loses data.
            if (isinstance(error, sqlite3.OperationalError)
                    or path == ":memory:"):
                raise
            aside = self._move_corrupt_aside(error)
            log.warning(
                "results store %s is corrupt (%s); moved it to %s and "
                "starting a fresh database", path, error, aside)
            self._conn = self._open()
        self.hits = 0
        self.misses = 0

    def _open(self) -> sqlite3.Connection:
        # Stats and /metrics scrapes read through one cached handle from
        # whichever thread serves them; reads are safe under the GIL and
        # writes stay driver-only.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.row_factory = sqlite3.Row
            # A bounded wait instead of an instant "database is locked"
            # when another driver invocation holds the write lock.
            conn.execute(
                f"PRAGMA busy_timeout = {int(self.busy_timeout_s * 1000)}")
            if self.path != ":memory:":
                # WAL lets the service's stats/metrics scrapes read while a
                # tune session writes, and survives crashes without the
                # rollback journal's whole-file lock.
                conn.execute("PRAGMA journal_mode = WAL")
            conn.executescript(_SCHEMA)
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _move_corrupt_aside(self, error: Exception) -> str:
        """Park an unreadable database file (plus WAL droppings) aside."""
        aside = self.path + ".corrupt"
        if os.path.exists(aside):
            aside = "%s.corrupt.%d" % (self.path, int(time.time()))
        os.replace(self.path, aside)
        for suffix in ("-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except FileNotFoundError:
                pass
        return aside

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- results -------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[StoredResult]:
        row = self._conn.execute(
            "SELECT * FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return _row_to_result(row)

    def get_many(self, fingerprints: Sequence[str]) -> Dict[str, StoredResult]:
        """Look up many fingerprints at once (counting hits/misses per key)."""
        found: Dict[str, StoredResult] = {}
        CHUNK = 512  # SQLite's default variable limit is 999
        unique = list(dict.fromkeys(fingerprints))
        for start in range(0, len(unique), CHUNK):
            chunk = unique[start:start + CHUNK]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT * FROM results WHERE fingerprint IN ({marks})", chunk
            ).fetchall()
            for row in rows:
                found[row["fingerprint"]] = _row_to_result(row)
        self.hits += len(found)
        self.misses += len(unique) - len(found)
        return found

    def put(self, job: EvaluationJob, cost: float,
            session: Optional[str] = None,
            fingerprint: Optional[str] = None) -> str:
        if _faults.ARMED and _faults.should_fail("store.locked"):
            raise sqlite3.OperationalError("database is locked [injected]")
        fingerprint = fingerprint or job.fingerprint()
        self._conn.execute(
            "INSERT OR REPLACE INTO results "
            "(fingerprint, benchmark, device, shape, expr_digest, variant, "
            " config, cost, session, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                job.benchmark,
                job.device,
                json.dumps(list(job.shape)),
                job.expr_digest,
                json.dumps(job.variant.to_spec()),
                json.dumps([[name, value] for name, value in job.config]),
                float(cost),
                session,
                time.time(),
            ),
        )
        self._conn.commit()
        return fingerprint

    def put_many(self, entries: Iterable[Tuple[EvaluationJob, float, str]],
                 session: Optional[str] = None) -> None:
        """Persist ``(job, cost, fingerprint)`` triples in one transaction."""
        if _faults.ARMED and _faults.should_fail("store.locked"):
            raise sqlite3.OperationalError("database is locked [injected]")
        rows = [
            (
                fingerprint,
                job.benchmark,
                job.device,
                json.dumps(list(job.shape)),
                job.expr_digest,
                json.dumps(job.variant.to_spec()),
                json.dumps([[name, value] for name, value in job.config]),
                float(cost),
                session,
                time.time(),
            )
            for job, cost, fingerprint in entries
        ]
        self._conn.executemany(
            "INSERT OR REPLACE INTO results "
            "(fingerprint, benchmark, device, shape, expr_digest, variant, "
            " config, cost, session, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()

    def best_per_benchmark(self, device: Optional[str] = None
                           ) -> Dict[str, StoredResult]:
        """The best stored result of every benchmark (optionally per device)
        in one query — the ``best`` summary of ``repro stats``."""
        device_filter = "" if device is None else "WHERE device = ?"
        params: Tuple = () if device is None else (device, device)
        rows = self._conn.execute(
            # Group-wise minimum via the index, not a full-table sort: only
            # rows matching each benchmark's minimum cost are materialised.
            f"SELECT r.* FROM results r JOIN ("
            f"  SELECT benchmark, MIN(cost) AS best_cost FROM results "
            f"  {device_filter} GROUP BY benchmark"
            f") m ON r.benchmark = m.benchmark AND r.cost = m.best_cost "
            f"{'WHERE r.device = ?' if device is not None else ''} "
            f"ORDER BY r.fingerprint ASC",
            params,
        ).fetchall()
        best: Dict[str, StoredResult] = {}
        for row in rows:  # ties resolved by lowest fingerprint (row order)
            if row["benchmark"] not in best:
                best[row["benchmark"]] = _row_to_result(row)
        return best

    def benchmarks(self) -> List[str]:
        """Distinct benchmark names with at least one stored result."""
        rows = self._conn.execute(
            "SELECT DISTINCT benchmark FROM results ORDER BY benchmark"
        ).fetchall()
        return [row["benchmark"] for row in rows]

    def count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def stats(self) -> Dict[str, int]:
        return {"entries": self.count(), "hits": self.hits, "misses": self.misses}

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # -- sessions ------------------------------------------------------------
    def save_session(self, session: str, spec: Dict[str, object],
                     status: str = "running") -> None:
        now = time.time()
        self._conn.execute(
            "INSERT INTO sessions (session, spec, status, created_at, updated_at) "
            "VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(session) DO UPDATE SET "
            "spec = excluded.spec, status = excluded.status, updated_at = excluded.updated_at",
            (session, json.dumps(spec, sort_keys=True), status, now, now),
        )
        self._conn.commit()

    def finish_session(self, session: str) -> None:
        self._conn.execute(
            "UPDATE sessions SET status = 'done', updated_at = ? WHERE session = ?",
            (time.time(), session),
        )
        self._conn.commit()

    def session_spec(self, session: str) -> Optional[Dict[str, object]]:
        row = self._conn.execute(
            "SELECT spec FROM sessions WHERE session = ?", (session,)
        ).fetchone()
        return None if row is None else dict(json.loads(row["spec"]))

    def sessions(self) -> List[Tuple[str, str]]:
        """All known ``(session-id, status)`` pairs, newest first."""
        rows = self._conn.execute(
            "SELECT session, status FROM sessions ORDER BY created_at DESC"
        ).fetchall()
        return [(row["session"], row["status"]) for row in rows]


#: Default on-disk location used by the CLI verbs.
DEFAULT_STORE_PATH = os.path.join(".repro", "engine.sqlite")


__all__ = ["ResultsStore", "StoredResult", "DEFAULT_STORE_PATH"]
