"""Durable multi-timestep jobs: checkpointed execution and crash recovery.

A ``steps > 1`` request served synchronously is all-or-nothing: if the
server dies at step T-1 of a 10k-step Hotspot trajectory, every step is
lost.  This module makes the *work itself* durable.  Submitting a job
returns an id immediately; a :class:`JobManager` worker executes the
trajectory in ``checkpoint_every``-step **segments** through the same
trajectory runner the synchronous route uses
(:func:`~repro.service.executor.run_trajectory`), and each segment
boundary short of the last has the grids its segment changed atomically
persisted as a checkpoint under ``job_dir``.  A segment continues from
the plan's live binding — no re-bind, no copy in — unless another
request bound the plan in between; a boundary copies out only the
carried slots (read-only), which the checkpoint write frames and
``job.state`` keeps, while the static slots stay the submitted arrays:

.. code-block:: text

    <job_dir>/<job_id>/
        job.json            manifest: steps, deadline, status at submit,
                            resume and end
        inputs.rpg          every slot as submitted: the step-0 state
        ckpt-00000007.rpg   RPG1-framed carried slots after step 7
        ckpt-00000014.rpg   (the newest two checkpoints are kept)
        result.rpg          final grid, written on completion

A submit writes exactly two files, ``inputs.rpg`` and then ``job.json``,
so a manifest on disk always has its inputs.  A slot whose carry entry is
``None`` (Hotspot2D's ``power``) is the same grid at every step, so no
checkpoint frames it again: every checkpoint frames only the carried
slots, and its signed metadata lists the static slots' descriptors (slot,
shape, dtype, sha256), which recovery checks ``inputs.rpg`` against
before it rebuilds the full state in slot order.  The last boundary
writes no checkpoint: ``result.rpg`` is the job's final durable state.
The manifest is written at submit, at a resume and at every terminal
state, never per checkpoint: recovery takes a running job's step from its
newest valid checkpoint, not from ``job.json``.

Checkpoints reuse the RPG1 wire framing (:mod:`repro.service.wire`), so
every carry buffer's descriptor carries its sha256 — plus one
``root_sha256`` over the canonical metadata and those descriptors, so a
flipped bit in either metadata or data is detected at load and each byte
is hashed once.  Writes are write-tmp → flush → fsync → rename →
fsync(dir), so a crash at any instant leaves either the old complete
checkpoint or the new complete checkpoint, never a torn one; a new job's
directory entry is made durable by one fsync of ``job_dir`` before the
submit answers.

**Off the critical path, not free**: the job worker hands each boundary's
state to a helper thread of the process's pool
(:meth:`repro.helpers.HelperPool.submit`) and starts the next segment, so
checkpoint k is written, outside the manager lock, while segment k+1
computes, on a helper the pool pins off the worker's CPU.  When the worker
reaches boundary k+1 with checkpoint k still being written, it hashes
checkpoint k+1's carried grids itself (:func:`_hash_ahead`) instead of
idling, and the helper then only frames and writes it; a write handed off
after the previous one finished gets the state unhashed and hashes it,
since hashing on the worker at every boundary measured slower.  The final
grid is hashed before the last wait, beside the last checkpoint's write.
In a ``repro serve`` on a 2-vCPU Xeon running 20 timed 32-step,
``checkpoint_every=8`` Hotspot2D 512² jobs between execute and iterate
calls, an 8-step segment took a median 3.3 ms (5.0 ms before the helper
was pinned), hashing one 2 MiB grid 2.1 ms on either thread, writing a
checkpoint 3.2 ms, and ``result.rpg`` 3.1 ms; the worker's median wait at
a boundary fell from 0.7 to 0.02 ms, and submit-to-end inside the server
from 45.6 to 34.9 ms.  The compute thread, now busy with the next segment
and that hash, is the job's critical path again.  At most one checkpoint
is in flight (the worker keeps its one pending future, and boundary k+1
first waits for checkpoint k); the file lands before ``completed_steps``
counts it, so a status reply reports *durable* steps; a write error fails
the job at its next boundary; the pending write is awaited before any
terminal status is set.

**Recovery**: :meth:`JobManager.recover` (run at server startup) scans the
job dir; incomplete jobs resume from their newest *valid* checkpoint —
checkpoints that fail checksum validation are counted in
``repro_job_corrupt_checkpoints_total`` and the previous one is used.
Every resume reads ``inputs.rpg``, so a missing, corrupt or mismatched
one fails the job (counted the same way) instead of a silent re-run.
``inputs.rpg`` is the step-0 state only while fewer than
:data:`KEEP_CHECKPOINTS` checkpoint files exist, so a job whose newest
two checkpoints are corrupt fails rather than re-running from step 0.  A
corrupt checkpoint is therefore left in place (the resumed run overwrites
it), so a crash during recovery cannot shrink that count.  A directory an
older layout wrote fails closed the same way: each misses one thing this
layout has (the root hash, the checkpoints' ``static`` list, or an
``inputs.rpg`` of every slot).  Because a segment, whether it continues
from the live binding or binds copied state, runs the same plan tapes on
the same carry values, a resumed trajectory is **bit-identical** to an
uninterrupted run
(property-tested per suite app in ``tests/service/test_jobs.py``) — a
crash after ``result.rpg`` lands but before the ``completed`` manifest
recomputes the last segment.  A ``*.tmp``
a crash cut short is removed by the same scan.

**Hashed once**: ``inputs.rpg`` reuses the sha256 the wire decoder
verified for each submitted grid; a checkpoint the worker hashed ahead
reuses the digests :func:`_hash_ahead` recorded for its read-only carry
copies; and the final grid is frozen read-only with its ``result.rpg``
digest recorded by :func:`~repro.service.wire.remember_sha256`, which
the ``job_result`` reply reuses.

**Waiting for the end**: :meth:`JobManager.until_ended` is the
``job_status`` op's ``wait_ms``: an event-loop future that
:meth:`JobManager._finish` resolves with the terminal descriptor through
``call_soon_threadsafe``, so a waiting request holds no thread, and
:meth:`JobManager.end_waits` answers every pending one when the server
drains or the manager closes.

**Idempotency**: clients supply a ``job_key`` (the client library
generates a uuid4 before the first attempt); re-submitting the same key —
e.g. a retry after an ambiguous transport failure, or after a server
restart — returns the existing job instead of starting a second
trajectory.

**Bounded retention**: terminal jobs older than :data:`JOB_TTL_S` are
purged (memory and disk).  With a job dir a result leaves memory once
:meth:`JobManager.result` has served it: ``result.rpg`` is then its only
home, and a later fetch reloads and checksum-verifies it outside the
manager lock.  At most :data:`MAX_RESIDENT_RESULTS` completed results no
one has fetched yet stay resident (the ``repro_jobs_resident_results``
gauge); older ones are dropped to disk and reloaded on demand.  A
memory-only manager keeps served results too, since memory is their only
home, and evicts served ones first, oldest first, before any unserved
one.  A terminal job keeps no carry state.

Fault points (:mod:`repro.faults`): ``job.crash_after_checkpoint``
fires on the write's helper right after a checkpoint persists and
abandons the worker at its next boundary, or on the worker right after
``result.rpg`` lands — on-disk state is exactly what a ``kill -9``
leaves — and ``job.checkpoint_corrupt`` flips a byte of a checkpoint
*after* its checksums were computed, which is how the corrupt-fallback
path is tested end to end.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import os
import shutil
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import faults as _faults
from ..apps.base import squeeze_result
from ..backend.plan import normalize_carry
from ..helpers import pool
from ..telemetry.registry import MetricsRegistry
from .executor import run_trajectory
from .registry import DigestRouter
from .requests import (
    CANCELLED,
    DEADLINE_EXCEEDED,
    UNAVAILABLE,
    ExecutionRequest,
    ServiceError,
)
from .wire import (
    decode_grid_header,
    decode_grid_payload,
    describe_grids,
    frame_prefix,
    remember_sha256,
)

log = logging.getLogger("repro.service.jobs")

#: Job lifecycle states.  ``queued`` and ``running`` are recoverable;
#: ``completed`` / ``failed`` / ``cancelled`` are terminal.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
JOB_CANCELLED = "cancelled"
TERMINAL = (COMPLETED, FAILED, JOB_CANCELLED)

_MANIFEST = "job.json"
_INPUTS = "inputs.rpg"
_RESULT = "result.rpg"
_CKPT_PREFIX = "ckpt-"
_CKPT_SUFFIX = ".rpg"
#: Checkpoints kept per job: the newest, and the one recovery falls back
#: to when the newest fails its checksums.
KEEP_CHECKPOINTS = 2
#: Seconds a terminal job (and its directory) is kept before a sweep drops it.
JOB_TTL_S = 3600.0
#: Completed results kept in memory; older ones are reloaded from disk.
MAX_RESIDENT_RESULTS = 64


def _resolve_all(futures: List[asyncio.Future], value) -> None:
    """Resolve event-loop futures from any thread (a closed loop's
    waiter is gone already)."""
    def resolve(future: asyncio.Future) -> None:
        if not future.done():
            future.set_result(value)

    for future in futures:
        try:
            future.get_loop().call_soon_threadsafe(resolve, future)
        except RuntimeError:
            pass


class JobError(ServiceError):
    """A job operation failed (bad submission, wrong state)."""


class JobNotFound(JobError):
    """No job with that id (or it aged out past the TTL)."""


class JobIntegrityError(JobError):
    """A checkpoint or result file failed checksum validation."""


# ---------------------------------------------------------------------------
# Framing: RPG1 payloads under one root hash
# ---------------------------------------------------------------------------

_ROOT = "root_sha256"


def _root_hash(meta: Dict[str, object], descriptors: List[dict]) -> str:
    """sha256 over the canonical JSON of ``meta`` + the grid descriptors."""
    canonical = json.dumps([meta, descriptors], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _frame(
    meta: Dict[str, object], grids: List[np.ndarray],
    reuse_verified: bool = False,
) -> Tuple[bytes, List[memoryview], List[dict]]:
    """RPG1-frame ``meta`` + ``grids`` as (prefix, uncopied grid buffers,
    grid descriptors).

    Every grid byte is hashed once, into its descriptor's ``sha256``; the
    root hash covers ``meta`` and the descriptors (shape, dtype, sha256).
    A flipped bit in the data fails its grid's hash and a flipped bit in
    the metadata (step index, digest) or a descriptor fails the root.
    ``reuse_verified`` takes a grid's sha256 from what this process
    already verified or recorded for that array object
    (:func:`~repro.service.wire.verified_sha256`) instead of hashing it
    again: a submission as the wire decoder delivered it, or a read-only
    grid :func:`_hash_ahead` hashed.  A grid written since would fail its
    check at load.
    """
    descriptors, buffers = describe_grids(grids, reuse_verified)
    framed = {**meta, _ROOT: _root_hash(meta, descriptors)}
    return frame_prefix(framed, descriptors), buffers, descriptors


def _hash_ahead(grids: List[np.ndarray]) -> None:
    """Hash the read-only ``grids`` now and record each digest
    (:func:`~repro.service.wire.remember_sha256`), so that framing them
    later with ``reuse_verified`` hashes none of their bytes.  A grid that
    is still writable is left for the framer to hash."""
    frozen = [grid for grid in grids if not grid.flags.writeable]
    descriptors, _buffers = describe_grids(frozen)
    for grid, descriptor in zip(frozen, descriptors):
        remember_sha256(grid, str(descriptor["sha256"]))


def _unframe(
    data,
) -> Tuple[Dict[str, object], List[np.ndarray], List[dict]]:
    """Decode + validate a framed payload as (meta, grids, grid
    descriptors); raises :class:`JobIntegrityError`.  The grids of a
    ``bytearray`` are views of it (:func:`decode_grid_payload`)."""
    try:
        header, _offset = decode_grid_header(data)
        meta, grids = decode_grid_payload(data)
    except (KeyError, TypeError, ValueError) as error:  # incl. WireFormatError
        raise JobIntegrityError(str(error)) from error
    descriptors = header.get("grids") or []
    if _ROOT not in meta:
        raise JobIntegrityError("payload carries no root hash")
    expected = meta.pop(_ROOT)
    if any("sha256" not in descriptor for descriptor in descriptors):
        raise JobIntegrityError("a grid descriptor carries no sha256")
    actual = _root_hash(meta, descriptors)
    if actual != str(expected):
        raise JobIntegrityError(
            f"payload checksum mismatch (expected {expected}, got {actual})")
    return meta, grids, descriptors


def _fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` durable."""
    dir_fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _atomic_write(path: Path, *pieces) -> None:
    """write-tmp → flush → fsync → rename → fsync(dir): crash-atomic.

    ``pieces`` (bytes or memoryviews) are written in order, unjoined.  The
    file is read again only after a crash or an eviction, so once durable
    its pages are dropped from the page cache rather than left to grow it.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        for piece in pieces:
            handle.write(piece)
        handle.flush()
        os.fsync(handle.fileno())
        if hasattr(os, "posix_fadvise"):
            os.posix_fadvise(handle.fileno(), 0, 0, os.POSIX_FADV_DONTNEED)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _read_file(path: Path) -> bytearray:
    """``path``'s bytes, read with ``readinto`` into one writable buffer:
    :func:`_unframe` returns each grid as a view of it, not a copy."""
    with open(path, "rb", buffering=0) as handle:
        data = bytearray(os.fstat(handle.fileno()).st_size)
        view = memoryview(data)
        received = 0
        while received < len(data):
            count = handle.readinto(view[received:])
            if not count:
                raise JobIntegrityError(
                    f"{path} ended after {received} of {len(data)} bytes")
            received += count
    return data


class _InjectedCrash(BaseException):
    """``job.crash_after_checkpoint`` fired: abandon the worker *without*
    recording a failure, leaving on-disk state exactly as process death
    would.  BaseException so ordinary ``except Exception`` failure
    accounting does not catch it."""


# ---------------------------------------------------------------------------
# Job records
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One durable job's in-memory record (mirrors ``job.json``)."""

    job_id: str
    job_key: str
    benchmark: str
    steps: int
    checkpoint_every: int
    num_inputs: int
    size_env: Dict[str, int] = field(default_factory=dict)
    priority: str = "normal"
    deadline_at: Optional[float] = None       # absolute wall clock (epoch s)
    digest: str = ""
    status: str = QUEUED
    completed_steps: int = 0
    error: Optional[str] = None
    code: Optional[str] = None
    created_at: float = 0.0
    updated_at: float = 0.0
    resumes: int = 0
    #: In-memory carry state (the inputs of the next step) and result.
    state: Optional[List[np.ndarray]] = None
    #: Descriptors (slot, shape, dtype, sha256) of the ``inputs.rpg`` grids
    #: every checkpoint signs: the static slots once the job runs.
    static: List[dict] = field(default_factory=list)
    result: Optional[np.ndarray] = None
    #: :meth:`JobManager.result` has returned the result (kept in memory
    #: only, never in the manifest): a served result is evicted first.
    served: bool = False
    cancel_requested: bool = False

    def manifest(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "job_key": self.job_key,
            "benchmark": self.benchmark,
            "steps": self.steps,
            "checkpoint_every": self.checkpoint_every,
            "num_inputs": self.num_inputs,
            "size_env": dict(self.size_env),
            "priority": self.priority,
            "deadline_at": self.deadline_at,
            "digest": self.digest,
            "status": self.status,
            "completed_steps": self.completed_steps,
            "error": self.error,
            "code": self.code,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "resumes": self.resumes,
        }

    @staticmethod
    def from_manifest(data: Dict[str, object]) -> "Job":
        return Job(
            job_id=str(data["job_id"]),
            job_key=str(data["job_key"]),
            benchmark=str(data["benchmark"]),
            steps=int(data["steps"]),
            checkpoint_every=int(data["checkpoint_every"]),
            num_inputs=int(data["num_inputs"]),
            size_env={str(k): int(v)
                      for k, v in dict(data["size_env"]).items()},
            priority=str(data["priority"]),
            deadline_at=(None if data["deadline_at"] is None
                         else float(data["deadline_at"])),
            digest=str(data["digest"]),
            status=str(data["status"]),
            completed_steps=int(data["completed_steps"]),
            error=data["error"],
            code=data["code"],
            created_at=float(data["created_at"]),
            updated_at=float(data["updated_at"]),
            resumes=int(data["resumes"]),
        )

    def describe(self) -> Dict[str, object]:
        """The wire/status view of this job."""
        return {
            "job_id": self.job_id,
            "job_key": self.job_key,
            "benchmark": self.benchmark,
            "status": self.status,
            "steps": self.steps,
            "completed_steps": self.completed_steps,
            "checkpoint_every": self.checkpoint_every,
            "priority": self.priority,
            "resumes": self.resumes,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "error": self.error,
            "code": self.code,
        }


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

class JobManager:
    """Executes, checkpoints, recovers, and retires durable jobs.

    Thread-safe: submissions and status/result/cancel queries may come
    from any thread (the event loop, HTTP handlers, tests); one background
    worker thread drains the job queue so trajectory execution never
    blocks the caller, and a helper-pool worker beside it persists segment
    k's checkpoint while the worker computes segment k+1 (at most one in
    flight).  ``job_dir=None`` runs memory-only (no durability
    across restarts, same segmented semantics) — the mode unit tests use
    for the deadline/cancel/TTL behaviours that don't need a disk.

    Every job counter, the two checkpoint histograms and the resident-
    results gauge are instruments of ``metrics`` — the owning service's
    registry, or a private one for a manager built alone — and
    :meth:`stats` reads them back; nothing is counted twice.

    A job's benchmark is routed through ``router`` — the owning service's
    :class:`~repro.service.registry.DigestRouter`, or a private one for a
    manager built alone — so a job runs the program a request for the same
    benchmark runs.
    """

    def __init__(
        self,
        backend,
        router: Optional[DigestRouter] = None,
        job_dir: Optional[str] = None,
        checkpoint_every: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise JobError("checkpoint_every must be >= 1")
        self.backend = backend
        self.router = router if router is not None else DigestRouter()
        self.job_dir = Path(job_dir) if job_dir else None
        self.checkpoint_every = int(checkpoint_every)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._queue: Deque[str] = deque()
        # Keys whose submit is writing the job's files (outside the lock).
        self._submitting: set = set()
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        # The checkpoint write in flight, the worker's alone: ``_drain``
        # before every hand-off keeps one.
        self._pending: Optional[Future] = None
        # Event-loop futures of pending status waits, by job id
        # (:meth:`until_ended`); a leaf lock, never held across I/O.
        self._waits: Dict[str, List[asyncio.Future]] = {}
        self._waits_lock = threading.Lock()
        self._waits_ended = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        counter, histogram = self.metrics.counter, self.metrics.histogram
        self._submits_total = counter(
            "repro_job_submits_total", "Durable jobs accepted (idempotent-"
            "deduped re-submits are not counted).")
        self._checkpoints_total = counter(
            "repro_job_checkpoints_total",
            "Job checkpoints atomically persisted.")
        self._resumes_total = counter(
            "repro_job_resumes_total", "Incomplete jobs resumed from a "
            "checkpoint after a restart.")
        self._finished = {
            COMPLETED: counter("repro_job_completions_total",
                               "Jobs that ran to completion."),
            FAILED: counter("repro_job_failures_total",
                            "Jobs that terminated with an error (including "
                            "mid-trajectory deadline sheds)."),
            JOB_CANCELLED: counter("repro_job_cancellations_total",
                                   "Jobs cancelled between segments."),
        }
        self._corrupt_total = counter(
            "repro_job_corrupt_checkpoints_total",
            "Checkpoints discarded at recovery because checksum validation "
            "failed.")
        self._evicted_total = counter(
            "repro_job_results_evicted_total",
            "Completed job results evicted by the max-resident bound, served "
            "ones first (still servable from disk when a job dir is "
            "configured; a served durable result leaves memory uncounted).")
        self._checkpoint_seconds = histogram(
            "repro_job_checkpoint_seconds",
            "Helper-thread wall time to persist one job checkpoint (frame, "
            "hash what the compute thread did not hash ahead, fsync, "
            "rename).")
        self._checkpoint_wait_seconds = histogram(
            "repro_job_checkpoint_wait_seconds",
            "Wall time a job's compute thread spent blocked at a segment "
            "boundary, or before result.rpg, on the previous checkpoint's "
            "write; only the blocked time, not the hashing it does first "
            "while that write is still running.")
        self.metrics.gauge(
            "repro_jobs_resident_results",
            "Completed job results currently resident in memory.",
            fn=self._resident_results)
        if self.job_dir is not None:
            self.job_dir.mkdir(parents=True, exist_ok=True)

    def _resident_results(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if job.result is not None)

    # -- lifecycle ------------------------------------------------------------
    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._worker_loop, name="repro-jobs", daemon=True)
                self._worker.start()

    def close(self, timeout_s: float = 5.0) -> None:
        """Answer every pending status wait, then stop the worker, waiting
        up to ``timeout_s`` for it.  A running job stops at its next
        segment boundary, however long that takes, once the checkpoint it
        hands off there is durable: a durable job resumes from it at the
        next :meth:`recover`, a memory-only one fails ``Unavailable``.  So
        does every memory-only job still queued; a durable queue is left
        for :meth:`recover`."""
        self.end_waits()
        with self._wake:
            self._closed = True
            if self.job_dir is None:
                for job_id in self._queue:
                    job = self._jobs.get(job_id)
                    if job is not None and job.status == QUEUED:
                        self._finish(job, FAILED, error="service stopped",
                                     code=UNAVAILABLE)
                self._queue.clear()
            self._wake.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout_s)
            self._worker = None

    # -- submission -----------------------------------------------------------
    def submit(self, request: ExecutionRequest,
               job_key: Optional[str] = None,
               checkpoint_every: Optional[int] = None) -> Dict[str, object]:
        """Accept a job; returns its descriptor immediately.

        Idempotent on ``job_key``: a key already known (in memory or on
        disk, including across a restart) returns the existing job's
        descriptor without starting a second trajectory — which is what
        makes client retries safe even after ambiguous transport failures.

        The job's files are written outside the manager lock, so no other
        job's query waits on them; the key is reserved under it first, and
        a submit of the same key meanwhile answers once they are durable.
        A closed manager refuses the submit before writing anything: no
        worker would run the job.
        """
        if request.benchmark is None:
            raise JobError("durable jobs require a benchmark-keyed request "
                           "(program-carrying jobs cannot be re-resolved "
                           "after a restart)")
        self._sweep()
        key = str(job_key) if job_key else uuid.uuid4().hex
        with self._wake:
            if self._closed:
                raise JobError("the job manager is closed")
            while key in self._submitting:
                self._wake.wait()
            existing = self._by_key.get(key)
            if existing is not None and existing in self._jobs:
                return self._jobs[existing].describe()
            self._submitting.add(key)
        job = None
        try:
            job = self._new_job(request, key, checkpoint_every)
        finally:
            with self._wake:
                self._submitting.discard(key)
                if job is not None:
                    self._jobs[job.job_id] = job
                    self._by_key[key] = job.job_id
                    self._queue.append(job.job_id)
                    self._submits_total.inc()
                self._wake.notify_all()
        self._ensure_worker()
        return job.describe()

    def _new_job(self, request: ExecutionRequest, key: str,
                 checkpoint_every: Optional[int]) -> Job:
        """A queued job for ``request`` whose files are durable: the step-0
        state, so a crash before the first checkpoint resumes, and then the
        manifest, which never lands without it."""
        now = time.time()
        job = Job(
            job_id=uuid.uuid4().hex[:16],
            job_key=key,
            benchmark=request.benchmark,
            steps=request.steps,
            checkpoint_every=(self.checkpoint_every
                              if checkpoint_every is None
                              else int(checkpoint_every)),
            num_inputs=len(request.inputs),
            size_env=dict(request.size_env or {}),
            priority=request.priority,
            deadline_at=(now + request.deadline_ms / 1e3
                         if request.deadline_ms is not None else None),
            status=QUEUED,
            created_at=now,
            updated_at=now,
            state=[np.asarray(grid, dtype=np.float64)
                   for grid in request.inputs],
        )
        if job.checkpoint_every < 1:
            raise JobError("checkpoint_every must be >= 1")
        try:
            route = self.router.plan_for(job.benchmark)
        except Exception as error:
            raise JobError(f"cannot resolve job program: {error}")
        job.digest = route.digest
        job.static = self._persist_inputs(job)
        self._persist_manifest(job)
        return job

    # -- queries --------------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(str(job_id))
        if job is None:
            raise JobNotFound(f"no job {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        self._sweep()
        with self._lock:
            return self._get(job_id).describe()

    def result(self, job_id: str) -> Tuple[Dict[str, object], np.ndarray]:
        """The completed job's descriptor + final grid.

        Raises :class:`JobError` while the job is still queued/running and
        :class:`JobNotFound` after it aged out, also while its result file
        was being read.  With a job dir the resident grid is served once and
        dropped: every later fetch, like a fetch of an evicted result,
        reloads (and checksum-validates) ``result.rpg`` without holding the
        manager lock.  A memory-only manager keeps the grid it serves.
        """
        self._sweep()
        with self._lock:
            job = self._get(job_id)
            if job.status != COMPLETED:
                raise JobError(
                    f"job {job_id} is {job.status}, not completed"
                    + (f": {job.error}" if job.error else ""))
            result = job.result
            job.served = True
            if self.job_dir is not None:
                job.result = None
            descriptor = job.describe()
        if result is None:
            result = self._load_result(job)
        return descriptor, result

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Request cancellation; takes effect at the next segment boundary.

        A still-queued job is cancelled immediately; a terminal job is
        returned unchanged (cancel is idempotent).
        """
        with self._lock:
            job = self._get(job_id)
            if job.status in TERMINAL:
                return job.describe()
            job.cancel_requested = True
            if job.status == QUEUED:
                self._finish(job, JOB_CANCELLED, error="cancelled by client",
                             code=CANCELLED)
            return job.describe()

    async def until_ended(self, job_id: str, timeout_s: float
                          ) -> Optional[Dict[str, object]]:
        """The job's terminal descriptor as soon as it has one, or ``None``
        once ``timeout_s`` passes, when the job was already terminal, or
        when :meth:`end_waits` answers every wait.  Raises
        :class:`JobNotFound` at once for an unknown id.

        The wait is a future of the running event loop that
        :meth:`_finish` resolves through ``call_soon_threadsafe``: it holds
        no thread, so any number of waits leave the executor to the
        requests."""
        future = asyncio.get_running_loop().create_future()
        with self._waits_lock:
            # Checked under the lock _finish takes after setting a terminal
            # status, so an end between the check and the append is seen.
            job = self._get(job_id)
            if job.status in TERMINAL or self._waits_ended:
                return None
            self._waits.setdefault(job.job_id, []).append(future)
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            return None
        finally:
            with self._waits_lock:
                pending = self._waits.get(job.job_id, [])
                if future in pending:
                    pending.remove(future)
                    if not pending:
                        del self._waits[job.job_id]

    def end_waits(self) -> None:
        """Answer every pending and future :meth:`until_ended` at once
        (``None``): a shutdown drain must not wait on them."""
        with self._waits_lock:
            self._waits_ended = True
            waits, self._waits = self._waits, {}
        for futures in waits.values():
            _resolve_all(futures, None)

    def list_jobs(self) -> List[Dict[str, object]]:
        self._sweep()
        with self._lock:
            return [job.describe() for job in self._jobs.values()]

    def wait(self, job_id: str, timeout_s: float = 30.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state (test helper)."""
        deadline = time.monotonic() + timeout_s
        with self._wake:
            while True:
                job = self._get(job_id)
                if job.status in TERMINAL:
                    return job.describe()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise JobError(f"timed out waiting for job {job_id}")
                self._wake.wait(timeout=min(remaining, 0.5))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "jobs": by_status,
                "queue_depth": len(self._queue),
                "checkpoints_written": self._checkpoints_total.value,
                "checkpoint_s": round(self._checkpoint_seconds.sum, 6),
                "checkpoint_wait_s": round(
                    self._checkpoint_wait_seconds.sum, 6),
                "jobs_resumed": self._resumes_total.value,
                "corrupt_checkpoints": self._corrupt_total.value,
                "results_evicted": self._evicted_total.value,
                "resident_results": self._resident_results(),
                "checkpoint_every": self.checkpoint_every,
                "job_ttl_s": JOB_TTL_S,
                "max_resident": MAX_RESIDENT_RESULTS,
                "job_dir": str(self.job_dir) if self.job_dir else None,
            }

    # -- recovery -------------------------------------------------------------
    def recover(self) -> int:
        """Scan the job dir; resume incomplete jobs; return how many.

        Completed/failed/cancelled jobs are re-registered (results stay on
        disk until asked for).  Incomplete jobs load their newest *valid*
        checkpoint — corrupt ones are discarded with a counter bump and
        the previous one is tried; a job with no valid checkpoint at all
        is failed, never silently re-run from scratch.
        """
        if self.job_dir is None:
            return 0
        resumed = 0
        for manifest_path in sorted(self.job_dir.glob(f"*/{_MANIFEST}")):
            try:
                job = Job.from_manifest(
                    json.loads(manifest_path.read_text(encoding="utf-8")))
            except (OSError, ValueError, KeyError, TypeError) as error:
                log.warning("skipping unreadable job manifest %s: %s",
                            manifest_path, error)
                continue
            with self._lock:
                if job.job_id in self._jobs:
                    continue
                self._jobs[job.job_id] = job
                self._by_key[job.job_key] = job.job_id
                for torn in manifest_path.parent.glob("*.tmp"):
                    torn.unlink(missing_ok=True)  # a write the crash cut short
                if job.status in TERMINAL:
                    continue
                try:
                    loaded = self._load_latest_checkpoint(job)
                except JobIntegrityError as error:
                    self._corrupt_total.inc()
                    self._finish(job, FAILED,
                                 error=f"{error}; refusing to silently re-run")
                    continue
                if loaded is None:
                    self._finish(job, FAILED,
                                 error="no valid checkpoint survived; "
                                       "refusing to silently re-run")
                    continue
                step, job.state, job.static = loaded
                job.completed_steps = step
                job.status = QUEUED
                job.resumes += 1
                self._resumes_total.inc()
                self._persist_manifest(job)
                self._queue.append(job.job_id)
                self._wake.notify_all()
                resumed += 1
                log.info("resuming job %s (%s) from step %d/%d",
                         job.job_id, job.benchmark, step, job.steps)
        if resumed:
            self._ensure_worker()
        self._sweep()
        return resumed

    # -- execution ------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait(timeout=0.5)
                if self._closed:
                    return
                job_id = self._queue.popleft()
                job = self._jobs.get(job_id)
                if job is None or job.status != QUEUED:
                    continue
                job.status = RUNNING  # not persisted: recovery resumes both
                job.updated_at = time.time()
            try:
                self._run_job(job)
            except _InjectedCrash:
                # Simulated process death: leave the job exactly as a real
                # crash would (manifest as submitted, newest checkpoint on
                # disk) and abandon this worker thread.  recover() is
                # what brings the job back.
                log.warning("job %s: injected crash after checkpoint",
                            job.job_id)
                return
            except Exception as error:  # noqa: BLE001 - recorded per job
                with self._lock:
                    self._finish(job, FAILED,
                                 error=f"{type(error).__name__}: {error}")

    def _write_checkpoint(self, job: Job, step: int, state) -> None:
        """File first, then ``completed_steps``, so a status reply reports
        *durable* steps.  No manifest: recovery reads the step from the
        newest valid checkpoint.  Runs on a helper-pool worker, which drops
        the carry state once this returns."""
        self._persist_checkpoint(job, step, state)
        with self._lock:
            job.completed_steps = step
            job.updated_at = time.time()
        if _faults.ARMED and _faults.should_fail("job.crash_after_checkpoint"):
            raise _InjectedCrash()

    def _drain(self) -> None:
        """Wait out the in-flight checkpoint; re-raise what writing it raised."""
        started = time.perf_counter()
        pending, self._pending = self._pending, None
        error = pending.exception() if pending is not None else None
        self._checkpoint_wait_seconds.observe(time.perf_counter() - started)
        if error is not None:
            raise error

    def _run_job(self, job: Job) -> None:
        route = self.router.plan_for(job.benchmark)
        if job.digest and job.digest != route.digest:
            with self._lock:
                self._finish(job, FAILED,
                             error=f"program digest changed across restart "
                                   f"({job.digest[:12]} -> "
                                   f"{route.digest[:12]}); refusing to resume")
            return
        spec = normalize_carry(route.carry, job.num_inputs)
        if job.state is None:
            raise JobError(f"job {job.job_id} has no carry state")
        # inputs.rpg holds every slot; checkpoints sign the static ones.
        job.static = [descriptor for descriptor in job.static
                      if spec[descriptor["slot"]] is None]
        resumed_at = job.completed_steps

        def boundary(done: int, state) -> Optional[str]:
            if done:
                # A segment short of the last just finished: hand its
                # carried slots to a helper and go on.  Waiting out the
                # previous checkpoint first bounds how far durability lags
                # compute: one segment.  While that checkpoint is still
                # being written, the worker hashes this one instead of
                # idling, and the helper only frames and writes it.
                if (self.job_dir is not None and self._pending is not None
                        and not self._pending.done()):
                    _hash_ahead(self._carried(job, state))
                self._drain()
                job.state = state
                self._pending = pool().submit(
                    self._write_checkpoint, job, resumed_at + done, state)
            if job.cancel_requested:
                return CANCELLED
            if job.deadline_at is not None and time.time() >= job.deadline_at:
                return DEADLINE_EXCEEDED
            if self._closed:
                return UNAVAILABLE
            return None

        try:
            out, _done, stopped, _timings = run_trajectory(
                self.backend, route.program, job.state,
                job.steps - resumed_at, route.carry, job.size_env or None,
                use_plans=True,
                segment=job.checkpoint_every, boundary=boundary)
            if stopped is None:
                # The last segment writes result.rpg instead of a
                # checkpoint, once the previous checkpoint is durable: a
                # crash from here on recomputes one segment.  The result is
                # hashed first, beside that checkpoint's write.
                result = squeeze_result(np.asarray(out, dtype=np.float64))
                result.flags.writeable = False  # its digest is recorded
                if self.job_dir is not None:
                    _hash_ahead([result])
                self._drain()
                self._persist_result(job, result)
                if (_faults.ARMED
                        and _faults.should_fail("job.crash_after_checkpoint")):
                    raise _InjectedCrash()
        finally:
            # No status flips with a checkpoint still in flight, and a
            # crash or OSError writing it surfaces here at the latest.
            self._drain()
        if stopped is not None:
            with self._lock:
                if stopped == UNAVAILABLE:
                    # A durable job's job.json still reads queued: the next
                    # recover() resumes it from the checkpoint just drained.
                    if self.job_dir is None:
                        self._finish(job, FAILED, error="service stopped",
                                     code=UNAVAILABLE)
                elif stopped == CANCELLED:
                    self._finish(job, JOB_CANCELLED,
                                 error="cancelled by client", code=CANCELLED)
                else:
                    # The mid-trajectory shed: stop burning steps the
                    # moment the deadline passes a segment boundary.
                    self._finish(
                        job, FAILED,
                        error=f"deadline exceeded after "
                              f"{job.completed_steps}/{job.steps} steps",
                        code=DEADLINE_EXCEEDED)
            return
        with self._lock:
            job.result = result
            self._finish(job, COMPLETED)
            self._evict_residents(keep=job.job_id)

    def _finish(self, job: Job, status: str, error: Optional[str] = None,
                code: Optional[str] = None) -> None:
        """Move a job to a terminal state (caller holds the lock)."""
        job.status = status
        if status == COMPLETED:  # result.rpg holds the last segment
            job.completed_steps = job.steps
        job.error = error
        job.code = code
        job.updated_at = time.time()
        job.state = None  # result() serves job.result; nothing reads this
        self._persist_manifest(job)
        self._finished[status].inc()
        self._wake.notify_all()
        with self._waits_lock:
            waiting = self._waits.pop(job.job_id, [])
        _resolve_all(waiting, job.describe())

    # -- persistence ----------------------------------------------------------
    def _dir_for(self, job: Job) -> Optional[Path]:
        if self.job_dir is None:
            return None
        path = self.job_dir / job.job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _persist_manifest(self, job: Job) -> None:
        directory = self._dir_for(job)
        if directory is None:
            return
        _atomic_write(directory / _MANIFEST,
                      json.dumps(job.manifest(), indent=2).encode("utf-8"))

    def _persist_inputs(self, job: Job) -> List[dict]:
        """Frame every slot into ``inputs.rpg`` as the submission delivered
        it, under the sha256 the wire decoder verified: the step-0 state.

        Returns the slots' descriptors (:meth:`_run_job` keeps the static
        ones); writes nothing without a job dir.  The new job's entry in
        ``job_dir`` is made durable before this returns.
        """
        directory = self._dir_for(job)
        if directory is None:
            return []
        slots = list(range(job.num_inputs))
        meta = {"job_id": job.job_id, "digest": job.digest,
                "benchmark": job.benchmark, "slots": slots}
        prefix, buffers, descriptors = _frame(meta, job.state,
                                              reuse_verified=True)
        _atomic_write(directory / _INPUTS, prefix, *buffers)
        _fsync_dir(self.job_dir)
        return [{"slot": slot, **descriptor}
                for slot, descriptor in zip(slots, descriptors)]

    def _persist_checkpoint(self, job: Job, step: int, state) -> None:
        directory = self._dir_for(job)
        if directory is None:
            return
        started = time.perf_counter()
        meta = {
            "job_id": job.job_id,
            "step": step,
            "steps": job.steps,
            "digest": job.digest,
            "benchmark": job.benchmark,
            "static": job.static,
        }
        prefix, buffers, _descriptors = _frame(
            meta, self._carried(job, state), reuse_verified=True)
        if _faults.ARMED and _faults.should_fail("job.checkpoint_corrupt"):
            # Flip one byte of the *body* after every checksum was
            # computed: recovery must detect this and fall back.
            corrupted = bytearray(buffers[-1])
            corrupted[-1] ^= 0xFF
            buffers[-1] = memoryview(corrupted)
        path = directory / f"{_CKPT_PREFIX}{step:08d}{_CKPT_SUFFIX}"
        _atomic_write(path, prefix, *buffers)
        self._checkpoints_total.inc()
        self._checkpoint_seconds.observe(time.perf_counter() - started)
        for stale in self._checkpoints(directory)[:-KEEP_CHECKPOINTS]:
            stale.unlink(missing_ok=True)

    @staticmethod
    def _carried(job: Job, state) -> List[np.ndarray]:
        """The grids of ``state`` a checkpoint frames: all but the static
        slots, which it signs instead."""
        static = {descriptor["slot"] for descriptor in job.static}
        return [grid for slot, grid in enumerate(state) if slot not in static]

    @staticmethod
    def _checkpoints(directory: Path) -> List[Path]:
        return sorted(directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}"))

    def _load_latest_checkpoint(
        self, job: Job
    ) -> Optional[Tuple[int, List[np.ndarray], List[dict]]]:
        """``(step, full state, inputs.rpg descriptors)`` of the newest
        valid checkpoint, else of ``inputs.rpg`` as the step-0 state while
        fewer than :data:`KEEP_CHECKPOINTS` checkpoint files exist; raises
        :class:`JobIntegrityError` when ``inputs.rpg`` is missing, corrupt,
        another job's or short of a slot, or when a valid checkpoint does
        not sign its static slots (an older layout's lists none).

        A corrupt checkpoint stays on disk (the resumed run overwrites it):
        unlinked, a crash before the outcome is recorded would leave too
        few files for the count to refuse a re-run from step 0.

        Every grid is a view of its file's buffer (:func:`_read_file`), so
        a resumed job's static slots hold all of ``inputs.rpg`` until the
        job ends: at most one carried set more than a copy would keep.
        """
        directory = self.job_dir / job.job_id if self.job_dir else None
        if directory is None or not directory.is_dir():
            return None
        held, inputs = self._load_inputs(directory, job)
        checkpoints = self._checkpoints(directory)
        for path in reversed(checkpoints):
            try:
                meta, grids, _descriptors = _unframe(_read_file(path))
            except (OSError, JobIntegrityError) as error:
                self._corrupt_total.inc()
                log.warning("skipping corrupt checkpoint %s: %s", path, error)
                continue
            if str(meta.get("job_id")) != job.job_id:
                continue
            static = meta.get("static")
            if not isinstance(static, list) or [
                    descriptor for descriptor in held
                    if descriptor in static] != static:
                raise JobIntegrityError(
                    f"{path} does not sign the static inputs "
                    f"{directory / _INPUTS} holds")
            if len(grids) + len(static) != job.num_inputs:
                self._corrupt_total.inc()
                continue
            carried = iter(grids)
            return int(meta["step"]), [
                grid if descriptor in static else next(carried)
                for descriptor, grid in zip(held, inputs)], held
        if len(checkpoints) >= KEEP_CHECKPOINTS:
            return None
        return 0, inputs, held

    @staticmethod
    def _load_inputs(directory: Path,
                     job: Job) -> Tuple[List[dict], List[np.ndarray]]:
        """The descriptors (with their slots) and grids of ``job``'s
        ``inputs.rpg``, which holds every slot."""
        path = directory / _INPUTS
        try:
            meta, grids, descriptors = _unframe(_read_file(path))
        except (OSError, JobIntegrityError) as error:
            raise JobIntegrityError(f"{path}: {error}") from error
        if str(meta.get("job_id")) != job.job_id:
            raise JobIntegrityError(
                f"{path} holds job {meta.get('job_id')!r}'s inputs, not "
                f"job {job.job_id}'s")
        slots = list(range(job.num_inputs))
        if meta.get("slots") != slots or len(grids) != job.num_inputs:
            raise JobIntegrityError(
                f"{path} holds slots {meta.get('slots')!r}, not every slot "
                f"of job {job.job_id}'s inputs")
        held = [{"slot": slot, **descriptor}
                for slot, descriptor in zip(slots, descriptors)]
        return held, grids

    def _persist_result(self, job: Job, result: np.ndarray) -> None:
        """Write the frozen ``result`` under the digest :func:`_hash_ahead`
        recorded for it, which the ``job_result`` reply reuses."""
        directory = self._dir_for(job)
        if directory is None:
            return
        meta = {"job_id": job.job_id, "steps": job.steps,
                "digest": job.digest, "benchmark": job.benchmark}
        prefix, buffers, _descriptors = _frame(meta, [result],
                                               reuse_verified=True)
        _atomic_write(directory / _RESULT, prefix, *buffers)

    def _load_result(self, job: Job) -> np.ndarray:
        """``result.rpg``'s grid; a file a TTL sweep removed is the job's
        :class:`JobNotFound`."""
        if self.job_dir is None:
            raise JobError(f"job {job.job_id}'s result is no longer resident "
                           "and no job dir holds it")
        try:
            data = _read_file(self.job_dir / job.job_id / _RESULT)
        except FileNotFoundError:
            raise JobNotFound(f"no job {job.job_id!r}: it aged out while "
                              "its result was read") from None
        meta, grids, _descriptors = _unframe(data)
        if str(meta.get("job_id")) != job.job_id or len(grids) != 1:
            raise JobIntegrityError(
                f"result file for {job.job_id} names job "
                f"{meta.get('job_id')!r}")
        grids[0].flags.writeable = False  # the decoder recorded its digest
        return grids[0]

    # -- retention ------------------------------------------------------------
    def _evict_residents(self, keep: str) -> None:
        """Bound resident results to :data:`MAX_RESIDENT_RESULTS`, counting
        ``keep`` but never evicting it: served ones go first, then unserved
        ones, each oldest first (caller holds lock)."""
        residents = [job for job in self._jobs.values()
                     if job.result is not None and job.job_id != keep]
        overflow = len(residents) + 1 - MAX_RESIDENT_RESULTS
        if overflow <= 0:
            return
        residents.sort(key=lambda job: (not job.served, job.updated_at))
        for job in residents[:overflow]:
            job.result = None
            self._evicted_total.inc()

    def _sweep(self) -> None:
        """Drop terminal jobs older than :data:`JOB_TTL_S` from memory under
        the lock, then delete their directories after releasing it."""
        now = time.time()
        with self._lock:
            expired = [
                job for job in self._jobs.values()
                if job.status in TERMINAL
                and now - job.updated_at > JOB_TTL_S
            ]
            for job in expired:
                self._jobs.pop(job.job_id, None)
                if self._by_key.get(job.job_key) == job.job_id:
                    self._by_key.pop(job.job_key, None)
        if self.job_dir is not None:
            for job in expired:
                shutil.rmtree(self.job_dir / job.job_id, ignore_errors=True)


__all__ = [
    "COMPLETED",
    "FAILED",
    "JOB_CANCELLED",
    "QUEUED",
    "RUNNING",
    "TERMINAL",
    "Job",
    "JobError",
    "JobIntegrityError",
    "JobManager",
    "JobNotFound",
]
