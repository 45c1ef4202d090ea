"""Tape-level optimizer: one region IR, two printers, tiled replay.

An execution plan's tape (:mod:`repro.backend.plan`) replays one full-array
pass per op: every traced user-function schedule streams its whole operand
grids through memory, so on large grids the steady state is bound by DRAM
bandwidth, not compute.  This module rewrites a captured tape before it is
first replayed:

1. **Regions** — a :class:`~repro.backend.numpy_backend.TapeEntry` is
   either a traced schedule or an opaque op, and a fusable run is a maximal
   run of schedule entries (every opaque op ends one — a pad no resident
   home could serve included).  :func:`build_region` turns each run into
   one verified :class:`Region`: the allocations it reads (its bases), its
   ops over accesses (a base plus a per-axis offset), temps and scalars in
   replay order, the buffers it stores (those whose contents outlive it)
   and the schedule buffers it no longer needs.  Which allocation an
   operand reads, and where in it, is decided there, once; a run that is
   not elementwise over one shape raises :class:`FusionError` and the tape
   stays unfused.
2. **Printers** — the region then replaces its run with one
   :class:`FusedOp`, printed by one of two printers that read nothing but
   the :class:`Region`.  On the default tile spec,
   :mod:`repro.backend.native` prints one C loop nest (every temp a
   register) for the system compiler.  Otherwise — or when that printer
   declines (no compiler, an op outside its whitelist, a compile or load
   failure: counted under a ``native_*`` reason) — :func:`print_tiles`
   prints the same ops **tile by tile** over cache-blocked slices of the
   output, temps in a tile-sized scratch arena drawn from the plan's
   :class:`~repro.backend.pool.BufferPool` (one buffer per slot the
   tracer's liveness assignment gave), so a value produced by one op is
   consumed by the next while still in L1/L2.  Its steps are micro-ops
   (:func:`~repro.backend.ufunc_trace.micro_op`) run by the loop an
   unfused schedule runs through (:func:`~repro.backend.ufunc_trace.replay`).

Because every elementwise operation computes output element ``i`` from
element ``i`` of its (broadcast) operands, executing the identical
operation sequence on tiles is **bit-identical** to the full-array replay —
no reassociation, no reordering.  On top of that,
:meth:`~repro.backend.plan.ExecutionPlan._capture` verifies every fused
tape against the unfused one bit for bit at capture time before accepting
it; a native region answers to the same check under one relaxed relation —
equal bits, or NaN on both sides — because C cannot pin which NaN a
commutative operation returns, and a tape that fails it is re-printed on
ufunc tiles from the same regions.

The tile spec is a plan option: ``None`` (the default) means the best
replay this host has (a native region, else the cache-sized row-block
tile of :func:`auto_tile`), ``False`` disables fusion, and an explicit
tuple means ufunc tiles blocking the trailing output axes (``None``
entries keep an axis un-blocked).  Nothing on the default path searches
tile shapes; :func:`measure_best_tile` times candidates for the
benchmark ladder only.

**The region's store target.**  A region whose result is the plan's output
writes each tile into the output ring buffer, which for a grid the program
pads is the *interior view* of a resident padded buffer
(:class:`~repro.backend.numpy_backend.PadHome`): the next step's padded
grid is produced in place, its pads left no tape entry for this module to
see, and its halo ring is refreshed by one tape op after the region.

**Parallel tiled replay.**  Tiles of a fused region are independent by
construction: each tile writes a disjoint box of every buffer the region
stores and nothing outside it, and per-tile intermediates live in scratch.
With ``parallel_workers=N`` (:func:`normalize_workers`; ``None`` resolves
through :func:`auto_workers`) the tile grid is partitioned into N
contiguous chunks, each with its **own pooled scratch set** (no sharing,
no locking in the hot loop), replayed concurrently by the process-wide
:class:`ReplayWorkerPool`; the capture-time check runs through this same
parallel path.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import faults as _faults
from ..telemetry import registry as _telemetry
from ..telemetry.registry import RATIO_BUCKETS, metrics_enabled as _metrics_on
from .numpy_backend import ExecutionError, TapeEntry
from .ufunc_trace import TracedArray, micro_op, replay, replay_nbytes

#: Per-tile working-set target.  One tile of every live scratch buffer
#: should sit comfortably in L2: with the couple of buffers liveness reuse
#: leaves live, 256 KiB per buffer keeps the fused loop cache-resident.
TILE_TARGET_BYTES = 1 << 18

#: Upper bound on parallel replay workers per fused region.  Scratch cost
#: scales linearly with workers (one scratch set per chunk), so the cap
#: keeps a mis-tuned ``parallel_workers`` from ballooning the pool.
MAX_REPLAY_WORKERS = 16


class FusionError(Exception):
    """The tape optimizer could not (safely) fuse — callers fall back."""


# Fused-replay instruments.  All three sit on the steady path and are
# guarded by ``_metrics_on()`` where the clocks are read; observations are
# bucket increments, so the zero-allocation replay invariants survive.
_REGION_REPLAY_SECONDS = _telemetry.histogram(
    "repro_fused_region_replay_seconds",
    "Wall time of one fused region replay (all chunks).",
)
_CHUNK_SECONDS = _telemetry.histogram(
    "repro_replay_chunk_seconds",
    "Wall time of one parallel replay chunk (inline chunk included).",
)
_CHUNK_IMBALANCE = _telemetry.histogram(
    "repro_replay_chunk_imbalance",
    "(max - min) / max chunk wall time per parallel region replay.",
    buckets=RATIO_BUCKETS,
)


# ---------------------------------------------------------------------------
# Tile specifications
# ---------------------------------------------------------------------------

def normalize_tile_spec(tile_shape):
    """Canonicalise a user tile spec: ``None``/``"auto"`` (heuristic),
    ``False``/``"off"`` (unfused), or a tuple of positive ints / ``None``
    entries applied to trailing axes."""
    if tile_shape is None or tile_shape == "auto":
        return None
    if tile_shape is False or tile_shape == "off":
        return False
    if isinstance(tile_shape, (int, np.integer)):
        tile_shape = (int(tile_shape),)
    spec = tuple(
        None if entry is None else int(entry) for entry in tile_shape
    )
    if not spec:
        raise ExecutionError("tile shape must name at least one axis")
    for entry in spec:
        if entry is not None and entry < 1:
            raise ExecutionError(f"invalid tile extent {entry}")
    return spec


#: Grid bytes a replay worker must have to itself before it is worth waking:
#: sixteen cache-sized tiles.  The resolved count chunks ufunc-tiled
#: regions and splits a temporal block into row bands; a per-step native
#: region replays as one call (two threads over its row halves bought
#: nothing on the recording box: 1.105 vs 1.052 ms at 1024²), while two
#: bands of the compute-bound Hotspot2D 1024² block took ``sim2d-dram``
#: from 851 to 1336 Mcell/s (10 of 10 interleaved pairs).
#: Measured on the 2-vCPU recording box: one
#: ``run_parts`` hand-off costs ≈47 µs back to back and ≈131 µs median
#: (617 µs p90) after a 1 ms idle, so a split must buy more than that on
#: every call.  Hotspot2D 1024² (8 MB, 32 tiles) took the second core in 10
#: of 10 interleaved pairs (+6 % median Mcell/s on ufunc tiles).
#: Acoustic 32×96×96 (2.4 MB) is a compute-bound native region (530–760
#: Mcell/s at every working set from 12 KB to 10 MB), and splitting each
#: step into two row halves was noise on ``sim3d-cache`` (622→808,
#: 590→769, 592→728, 580→551 Mcell/s): it stays serial per step and takes
#: the second core through barrier blocks instead, T steps per hand-off
#: (:data:`~repro.backend.native.BARRIER_BAND_CELLS`).  512² grids and
#: batched 64² plans stay serial: a cell-count rule that banded 512²
#: wavefront blocks made ``remote-traj-512`` ``latency_p50_ms`` worse in 3
#: of 3 pairs (24.8→27.2, 22.4→29.6, 24.5→27.8 ms).
AUTO_WORKER_MIN_BYTES = 16 * TILE_TARGET_BYTES


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform has one, else the machine's count, else 1."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: :func:`usable_cores`, read once per process (every warm plan lookup
#: resolves a worker count, and the read is a sysfs walk).
CORES = usable_cores()

#: Shard processes this process has started and not closed
#: (:class:`~repro.service.shards.ShardedExecutor` counts them).  They
#: sweep on the same cores: :data:`CORES` is the affinity set, not split.
SHARD_PROCESSES = 0
_SHARD_LOCK = threading.Lock()


def count_shard_processes(delta: int) -> None:
    """Count ``delta`` more (negative: fewer) :data:`SHARD_PROCESSES`."""
    global SHARD_PROCESSES
    with _SHARD_LOCK:
        SHARD_PROCESSES += delta


def band_cores() -> int:
    """The cores a barrier block bands over when no worker count asks for
    more: this process's share of :data:`CORES` beside its shard processes.

    Served Acoustic 32×96×96 256-step trajectories on the 2-vCPU recording
    box, two bands against per-step replay (median p50 of 4 interleaved
    runs): 168→117 ms with no shards, 176→128 ms beside two idle shards,
    but 226→306 ms while two shards swept single requests.  Banding over
    this share instead, the last case read 202→183 ms."""
    return max(1, CORES // (1 + SHARD_PROCESSES))


def auto_workers(input_shapes: Sequence[Sequence[int]]) -> int:
    """The worker count ``parallel_workers=None`` resolves to.

    One rule on what is known before a plan is built: a fused region sweeps
    a grid the size of the largest input (``float64`` after the bind) in
    tiles of :data:`TILE_TARGET_BYTES`, and each worker beyond the caller
    must find :data:`AUTO_WORKER_MIN_BYTES` of it to itself — up to one
    worker per core (:data:`CORES`).
    """
    grid_bytes = max((8 * int(np.prod(shape, dtype=np.int64))
                      for shape in input_shapes), default=0)
    return max(1, min(CORES, MAX_REPLAY_WORKERS,
                      grid_bytes // AUTO_WORKER_MIN_BYTES))


def normalize_workers(parallel_workers, input_shapes=None) -> int:
    """Canonicalise a parallel-replay worker spec to a concrete count.

    ``False``, ``0`` and ``1`` mean *serial replay*; an integer ``N >= 2``
    requests N-way chunked replay, clamped to :data:`MAX_REPLAY_WORKERS`.
    ``None`` leaves the choice to :func:`auto_workers` for the plan's
    ``input_shapes`` (serial when they are not given).  The resolved count
    is part of the :class:`~repro.backend.plan.PlanCache` key, so ``None``
    and the integer it resolves to are the same cached plan.
    """
    if parallel_workers is None and input_shapes is not None:
        return auto_workers(input_shapes)
    if parallel_workers is None or parallel_workers is False:
        return 1
    count = int(parallel_workers)
    if count < 0:
        raise ExecutionError(
            f"invalid parallel_workers {parallel_workers!r}"
        )
    return min(max(count, 1), MAX_REPLAY_WORKERS)


def auto_tile(shape: Sequence[int], itemsize: int = 8,
              target_bytes: int = TILE_TARGET_BYTES) -> Tuple[int, ...]:
    """A cache-sized row-block tile for ``shape``.

    Trailing axes are kept whole (contiguous, vectorisable rows) while the
    cumulative tile footprint stays under ``target_bytes``; the first axis
    that overflows is blocked to fit and every axis before it becomes an
    outer loop (tile extent 1).
    """
    tile = [1] * len(shape)
    footprint = itemsize
    for axis in range(len(shape) - 1, -1, -1):
        full = footprint * max(1, shape[axis])
        if full <= target_bytes:
            tile[axis] = max(1, shape[axis])
            footprint = full
        else:
            tile[axis] = max(1, target_bytes // footprint)
            break
    return tuple(tile)


def tile_extents(tile_spec, shape: Sequence[int],
                 itemsize: int = 8) -> Tuple[int, ...]:
    """Resolve a tile spec to concrete per-axis tile extents for ``shape``."""
    if tile_spec is None:
        return auto_tile(shape, itemsize)
    spec = tuple(tile_spec)
    if len(spec) > len(shape):
        spec = spec[len(spec) - len(shape):]
    extents = list(shape)
    offset = len(shape) - len(spec)
    for index, entry in enumerate(spec):
        if entry is not None:
            extents[offset + index] = max(1, min(int(entry),
                                                 max(1, shape[offset + index])))
    return tuple(max(1, extent) for extent in extents)


def _tile_grid(shape: Sequence[int],
               tiles: Sequence[int]) -> List[Tuple[Tuple[int, int], ...]]:
    """All tile boxes, row-major: one ``(start, stop)`` pair per axis."""
    ranges = [
        [(start, min(start + tiles[axis], shape[axis]))
         for start in range(0, shape[axis], tiles[axis])]
        for axis in range(len(shape))
    ]
    return list(itertools.product(*ranges))


# ---------------------------------------------------------------------------
# View geometry
# ---------------------------------------------------------------------------

def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _reads(array: np.ndarray, shape: Sequence[int]):
    """What ``array`` reads over a region of ``shape``: its address and its
    byte step per region axis (0 where the region does not move along)."""
    array = np.broadcast_to(array, shape)
    return _address(array), tuple(
        0 if extent == 1 else step for extent, step in zip(shape, array.strides))


def _root(array: np.ndarray) -> np.ndarray:
    """The allocation behind ``array``: the last array on its ``.base``
    chain (``as_strided`` views hang off a non-array)."""
    root = link = array
    while link is not None:
        if isinstance(link, np.ndarray):
            root = link
        link = getattr(link, "base", None)
    return root


def _lead(base: np.ndarray, rank: int) -> int:
    """Base axis ``k`` is swept by region axis ``lead + k`` (a fixed index
    when that is past the region's last axis)."""
    return max(rank - base.ndim, 0)


def _resolve(view: np.ndarray, shape: Sequence[int]):
    """``(base, offset)`` of a leaf over a region of ``shape``.

    The base is ``view``'s allocation and ``offset`` its address split
    axis by axis, when the access reads back exactly what ``view`` reads
    (:func:`_tile_view` over the whole region): every base axis is swept by
    its region axis (:func:`_lead`), has extent 1 (a broadcast), or is a
    fixed index past the region's axes.  Anything else — negative strides,
    a step slice, a broadcast row of a larger grid — is its own base at
    offset zero.
    """
    root, rank = _root(view), len(shape)
    lead = _lead(root, rank)
    delta, offset = _address(view) - _address(root), []
    for extent, stride in zip(root.shape, root.strides):
        offset.append(delta // stride if extent > 1 and stride > 0 else 0)
        delta -= offset[-1] * stride
    spans = [shape[lead + k] if lead + k < rank and extent > 1 else 1
             for k, extent in enumerate(root.shape)]
    inside = all(0 <= shift <= extent - span
                 for shift, span, extent in zip(offset, spans, root.shape))
    if view.dtype == root.dtype and delta == 0 and inside:
        whole = _tile_view(root, [(0, extent) for extent in shape], offset)
        if _reads(whole, shape) == _reads(view, shape):
            return root, tuple(offset)
    return view, (0,) * view.ndim


def _broadcast_ok(shape: Sequence[int], region_shape: Sequence[int]) -> bool:
    if len(shape) > len(region_shape):
        return False
    offset = len(region_shape) - len(shape)
    return all(
        shape[axis] == 1 or shape[axis] == region_shape[offset + axis]
        for axis in range(len(shape))
    )


def _tile_view(array: np.ndarray, tile, offset=None) -> np.ndarray:
    """The view of ``array`` at ``offset`` (zero when omitted; see
    :func:`_resolve`) that one tile box reads: a swept axis is the tile's
    span shifted by its offset, a broadcast (extent-1) axis stays extent
    1, and an axis past the region's is its fixed index."""
    lead = _lead(array, len(tile))
    offset = offset or (0,) * array.ndim
    return array[tuple(
        offset[k] if lead + k >= len(tile) else
        slice(0, 1) if array.shape[k] == 1 else
        slice(offset[k] + tile[lead + k][0], offset[k] + tile[lead + k][1])
        for k in range(array.ndim))]


# ---------------------------------------------------------------------------
# The fused replay op
# ---------------------------------------------------------------------------

class _Latch:
    """Countdown latch carrying the first worker error (if any).

    When built with ``collect_durations=True`` (telemetry enabled at
    dispatch time) workers report their chunk wall time through
    :meth:`finish`; the caller reads ``durations`` after :meth:`wait`.
    """

    __slots__ = ("_remaining", "error", "_cond", "durations")

    def __init__(self, count: int, collect_durations: bool = False) -> None:
        self._remaining = count
        self.error: Optional[BaseException] = None
        self._cond = threading.Condition(threading.Lock())
        self.durations: Optional[List[float]] = [] if collect_durations else None

    def finish(self, error: Optional[BaseException] = None,
               duration: Optional[float] = None) -> None:
        with self._cond:
            if error is not None and self.error is None:
                self.error = error
            if duration is not None and self.durations is not None:
                self.durations.append(duration)
            self._remaining -= 1
            if self._remaining <= 0:
                self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            while self._remaining > 0:
                self._cond.wait()


class ReplayWorkerPool:
    """Process-wide pool of daemon threads replaying fused tile chunks and
    the row bands of temporal blocks.

    Threads (not processes) because NumPy ufuncs release the GIL over
    their inner loops, and ``ctypes`` over every call into a native
    kernel — chunks and bands genuinely overlap.  The
    pool is lazy and persistent: threads spawn on first parallel replay
    and idle on a queue between runs, so the steady serving path pays no
    thread-creation cost.  ``run_parts`` executes chunk 0 inline on the
    caller (one fewer handoff; the caller is otherwise idle) and always
    waits for every dispatched chunk before returning — even when a chunk
    raises — so plan scratch is never touched after the call returns and
    the first error propagates to the caller intact.
    """

    def __init__(self, max_threads: int = MAX_REPLAY_WORKERS) -> None:
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._spawn_lock = threading.Lock()
        self._threads = 0
        self.max_threads = max_threads  # the most it ever spawns

    def _ensure_threads(self, needed: int) -> None:
        target = min(needed, self.max_threads)
        if self._threads >= target:
            return
        with self._spawn_lock:
            while self._threads < target:
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-replay-{self._threads}",
                    daemon=True,
                )
                worker.start()
                self._threads += 1

    def _worker_loop(self) -> None:
        while True:
            latch, steps = self._queue.get()
            timed = latch.durations is not None
            started = perf_counter() if timed else 0.0
            try:
                replay(steps)
            except BaseException as error:  # noqa: BLE001 - must reach caller
                latch.finish(error,
                             perf_counter() - started if timed else None)
            else:
                latch.finish(None,
                             perf_counter() - started if timed else None)

    def run_parts(self, parts: Sequence[Sequence[Tuple]]) -> None:
        tail = parts[1:]
        self._ensure_threads(len(tail))
        timed = _metrics_on()
        latch = _Latch(len(tail), collect_durations=timed)
        for steps in tail:
            self._queue.put((latch, steps))
        inline_error: Optional[BaseException] = None
        inline_started = perf_counter() if timed else 0.0
        try:
            replay(parts[0])
        except BaseException as error:  # noqa: BLE001 - joined below
            inline_error = error
        inline_seconds = perf_counter() - inline_started if timed else 0.0
        latch.wait()  # never leave workers racing a returned-from replay
        if timed:
            self._record_chunks([inline_seconds] + (latch.durations or []))
        error = inline_error if inline_error is not None else latch.error
        if error is not None:
            raise error

    @staticmethod
    def _record_chunks(durations: List[float]) -> None:
        """File per-chunk wall times into the chunk/imbalance histograms."""
        slowest = 0.0
        fastest = float("inf")
        for duration in durations:
            _CHUNK_SECONDS.observe(duration)
            slowest = max(slowest, duration)
            fastest = min(fastest, duration)
        if len(durations) > 1 and slowest > 0.0:
            _CHUNK_IMBALANCE.observe((slowest - fastest) / slowest)


_REPLAY_POOL: Optional[ReplayWorkerPool] = None
_REPLAY_POOL_LOCK = threading.Lock()


def replay_pool() -> ReplayWorkerPool:
    """The process-wide :class:`ReplayWorkerPool` (created on first use)."""
    global _REPLAY_POOL
    if _REPLAY_POOL is None:
        with _REPLAY_POOL_LOCK:
            if _REPLAY_POOL is None:
                _REPLAY_POOL = ReplayWorkerPool()
    return _REPLAY_POOL


class FusedOp:
    """One fused region: pre-resolved tile micro-ops, replayed in order.

    Every operand/output view was resolved at build time (by
    :func:`print_tiles`), so a replay is the shared micro-op loop over
    existing views — zero allocations.  ``parts`` holds one step list per
    worker chunk: serial plans have a single part replayed inline; parallel
    plans hand parts 1..N-1 to the :class:`ReplayWorkerPool` while part 0
    runs on the caller.  Each part was built against its own scratch set and
    writes only its own tiles' boxes of the stored buffers, so parts share
    no mutable state.
    """

    __slots__ = ("parts", "tiles", "native")

    def __init__(self, parts: List[List[Tuple]], tiles: int,
                 native=None) -> None:
        self.parts = parts
        self.tiles = tiles
        #: The :class:`~repro.backend.native.NativeRegion` that is this
        #: op's one micro-op, when the region compiled.
        self.native = native

    @property
    def workers(self) -> int:
        return len(self.parts)

    @property
    def nbytes(self) -> int:
        """Operand plus output bytes one replay moves."""
        if self.native is not None:
            return self.native.nbytes
        return sum(replay_nbytes(part) for part in self.parts)

    def run(self) -> None:
        if _faults.ARMED and _faults.should_fail("replay.chunk_error"):
            raise ExecutionError("fault injected: replay.chunk_error")
        timed = _metrics_on()
        started = perf_counter() if timed else 0.0
        if len(self.parts) == 1:
            replay(self.parts[0])
        else:
            replay_pool().run_parts(self.parts)
        if timed:
            _REGION_REPLAY_SECONDS.observe(perf_counter() - started)


class FusionInfo:
    """What the optimizer did to one tape (reported via plan stats)."""

    __slots__ = ("regions", "tiles", "fused_schedules", "nbytes", "dead",
                 "natives", "declines")

    def __init__(self) -> None:
        self.regions = 0
        #: Each native region's :class:`~repro.backend.native.NativeRegion`.
        self.natives: List = []
        self.declines: List[str] = []  # why a region kept its ufunc tiles
        self.tiles = 0
        self.fused_schedules = 0
        self.nbytes = 0  # operand + output bytes of one replay of the tape
        #: Full-grid schedule buffers the fused tape no longer touches
        #: (registers or tile scratch replaced them); the plan frees them.
        self.dead: List[np.ndarray] = []


# ---------------------------------------------------------------------------
# The region IR
# ---------------------------------------------------------------------------

class Access(NamedTuple):
    """An op argument read from memory: ``Region.bases[base]`` shifted by
    ``offset``, one integer per base axis (see :func:`_resolve`)."""

    base: int
    offset: Tuple[int, ...]


class Temp(NamedTuple):
    """An op argument computed inside the region: ``Region.ops[op]``'s value."""

    op: int


class Op(NamedTuple):
    """``fn`` over ``args`` (each an :class:`Access`, a :class:`Temp` or a
    scalar), producing ``shape`` / ``dtype``.  Ops whose traced buffer was
    one buffer share a ``slot``, so tile scratch is exactly as shared as the
    tracer's liveness assignment made the schedules' buffers."""

    fn: Callable
    args: Tuple
    shape: Tuple[int, ...]
    dtype: np.dtype
    slot: int


class Region(NamedTuple):
    """One fusable run of schedules, verified by :func:`build_region`.

    ``shape`` is the output shape every access, op and store broadcasts to;
    ``bases`` the distinct allocations read from memory, each read through
    one :class:`Access` per distinct offset; ``ops`` in replay order;
    ``stores`` one ``(buffer, op)`` per buffer whose contents outlive the
    region, ``op`` its last writer; ``dead`` the schedule buffers the fused
    replay never touches.
    """

    shape: Tuple[int, ...]
    bases: List[np.ndarray]
    ops: List[Op]
    stores: List[Tuple[np.ndarray, int]]
    dead: List[np.ndarray]

    def accesses(self) -> List[Access]:
        """The distinct accesses, in the order the ops first read them."""
        return list(dict.fromkeys(arg for op in self.ops for arg in op.args
                                  if isinstance(arg, Access)))


def build_region(schedules: Sequence, outlive: Sequence[np.ndarray]) -> Region:
    """The verified :class:`Region` of a run of traced schedules.

    ``outlive`` holds what is read after the run (the tape's output buffer
    and every later entry's reads): a buffer the schedules computed into
    that shares memory with one of them is stored, every other one holds
    temps.  Each leaf resolves once to an :class:`Access` (:func:`_resolve`).
    A leaf of a computed buffer's allocation must resolve to that buffer's
    own access, and reads the temp last written to it — or, for a stored
    buffer not yet written, last sweep's contents as an access.  Raises
    :class:`FusionError` when a node or leaf does not broadcast to the
    region, a leaf views a computed buffer other than element for element,
    a stored buffer is not region-shaped, or a temp is read before any op
    defines it.
    """
    nodes = [node for schedule in schedules for node in schedule.nodes]
    if nodes[-1].buffer is None:
        raise FusionError("schedule has no output buffer")
    shape = nodes[-1].buffer.shape
    buffers: List[np.ndarray] = []  # one per slot, in first-write order
    slot_of: Dict[int, int] = {}
    for node in nodes:
        if node.buffer is None or not _broadcast_ok(node.buffer.shape, shape):
            raise FusionError("node shape does not broadcast to region")
        if slot_of.setdefault(id(node.buffer), len(buffers)) == len(buffers):
            buffers.append(node.buffer)
    stored = [any(np.may_share_memory(buffer, read) for read in outlive)
              for buffer in buffers]
    if any(kept and buffer.shape != shape
           for buffer, kept in zip(buffers, stored)):
        raise FusionError("escaping buffer is not region-shaped")

    homes = [_resolve(buffer, shape) for buffer in buffers]
    bases: List[np.ndarray] = []
    writer: Dict[int, int] = {}  # slot -> the op that last wrote it

    def access(base: np.ndarray, offset: Tuple[int, ...]) -> Access:
        index = next((k for k, known in enumerate(bases) if known is base),
                     len(bases))
        if index == len(bases):
            bases.append(base)
        return Access(index, offset)

    def read(slot: int):
        if slot in writer:
            return Temp(writer[slot])
        if stored[slot]:
            return access(*homes[slot])
        raise FusionError("temp read before it is defined")

    def argument(value):
        if isinstance(value, TracedArray):
            if value.node is not None:
                return read(slot_of[id(value.node.buffer)])
            value = value.concrete
        if not isinstance(value, np.ndarray):
            return value
        if not _broadcast_ok(value.shape, shape):
            raise FusionError("leaf does not broadcast to region")
        base, offset = _resolve(value, shape)
        computed = [slot for slot, (home, _offset) in enumerate(homes)
                    if _root(home) is _root(base)]
        if not computed:
            return access(base, offset)
        for slot in computed:
            if homes[slot][0] is base and homes[slot][1] == offset:
                return read(slot)
        raise FusionError("non-aligned view of an internal buffer")

    ops: List[Op] = []
    for node in nodes:
        args = tuple(argument(value) for value in node.operands)
        slot = slot_of[id(node.buffer)]
        writer[slot] = len(ops)
        ops.append(Op(node.fn, args, node.buffer.shape, np.dtype(node.dtype),
                      slot))
    stores = [(buffer, writer[slot]) for slot, buffer in enumerate(buffers)
              if stored[slot]]
    dead = [buffer for schedule in schedules for buffer in schedule.scratch
            if not any(buffer is kept for kept, _op in stores)]
    return Region(shape, bases, ops, stores, dead)


def fusable_regions(entries: List[TapeEntry], out_buffer: np.ndarray
                    ) -> List[Tuple[int, int, Region]]:
    """Every maximal run ``[start, end)`` of schedule entries as ``(start,
    end, region)`` — every opaque op, a copied pad included, ends a run.
    Raises :class:`FusionError` when a run does not verify."""
    found, start = [], 0
    for traced, run in itertools.groupby(
            entries, lambda entry: entry.schedule is not None):
        end = start + len(list(run))
        if traced:
            later_reads = [read for entry in entries[end:]
                           for read in entry.reads]
            found.append((start, end, build_region(
                [entry.schedule for entry in entries[start:end]],
                [out_buffer] + later_reads)))
        start = end
    return found


# ---------------------------------------------------------------------------
# Printing a region as ufunc tiles
# ---------------------------------------------------------------------------

def _partition_grid(grid: List, parts_count: int) -> List[List]:
    """Split the tile grid into ``parts_count`` contiguous, balanced chunks.

    Contiguity keeps each worker streaming adjacent tiles (prefetch- and
    TLB-friendly); balance keeps the slowest chunk within one tile of the
    fastest.
    """
    base, extra = divmod(len(grid), parts_count)
    chunks: List[List] = []
    start = 0
    for index in range(parts_count):
        size = base + (1 if index < extra else 0)
        chunks.append(grid[start:start + size])
        start += size
    return chunks


def print_tiles(region: Region, tiles: Sequence[int], parts_count: int,
                pool, scratch: List[np.ndarray]) -> List[List[Tuple]]:
    """The ufunc-tile printer: one micro-op list per chunk of the tile grid.

    Every tile replays every op of ``region``: an access reads the tile's
    slice of its base shifted by its offset, a stored slot is written
    through (the tile's slice of the stored buffer), and every other slot
    lives in tile-sized scratch drawn from ``pool`` (and listed in
    ``scratch``).  Tiles within a chunk replay in turn and share one
    scratch set; each chunk gets its own, so parallel workers never share
    scratch.
    """
    shape = region.shape
    stored = {region.ops[op].slot: buffer for buffer, op in region.stores}

    def trailing(extents: Sequence[int], op: Op) -> Tuple[int, ...]:
        """``extents`` (one per region axis) on ``op``'s axes; 1 where it
        broadcasts."""
        offset = len(shape) - len(op.shape)
        return tuple(1 if extent == 1 else extents[offset + axis]
                     for axis, extent in enumerate(op.shape))

    largest = [min(tile, extent) for tile, extent in zip(tiles, shape)]
    parts = []
    for chunk in _partition_grid(_tile_grid(shape, tiles), parts_count):
        held: Dict[int, np.ndarray] = {}  # slot -> this chunk's scratch
        steps = []
        for tile in chunk:
            spans = [stop - start for start, stop in tile]
            values: List[np.ndarray] = []

            def resolve(arg):
                if isinstance(arg, Temp):
                    return values[arg.op]
                if isinstance(arg, Access):
                    return _tile_view(region.bases[arg.base], tile,
                                      arg.offset)
                return arg

            for op in region.ops:
                if op.slot in stored:
                    out = _tile_view(stored[op.slot], tile)
                else:
                    if op.slot not in held:
                        held[op.slot] = pool.acquire(trailing(largest, op),
                                                     op.dtype)
                        scratch.append(held[op.slot])
                    out = held[op.slot][tuple(
                        slice(0, span) for span in trailing(spans, op))]
                steps.append(micro_op(op.fn, op.args, out, resolve))
                values.append(out)
        parts.append(steps)
    return parts


# ---------------------------------------------------------------------------
# Lowering a tape
# ---------------------------------------------------------------------------

def _lower_region(region: Region, tile_spec, pool,
                  scratch: List[np.ndarray], info: FusionInfo,
                  workers: int, native: bool) -> Optional[FusedOp]:
    tiles = tile_extents(tile_spec, region.shape, region.ops[-1].dtype.itemsize)
    tile_count = len(_tile_grid(region.shape, tiles))
    parts_count = 1 if workers <= 1 else max(1, min(workers, tile_count))
    if len(region.ops) < 2 and parts_count < 2:
        return None  # a lone operation gains nothing from serial tiling
    compiled = None
    if native and tile_spec is None:
        # The best replay this host has: one compiled loop nest.  A region
        # it cannot take keeps the ufunc tiles below, counted by reason.
        from . import native as _native  # nothing looks for a compiler earlier
        try:
            compiled = _native.build(region)
        except _native.Unavailable as declined:
            info.declines.append(declined.reason)
    if compiled is not None:
        info.natives.append(compiled)
        parts, tile_count = [[(compiled, (), None)]], 1
    else:
        parts = print_tiles(region, tiles, parts_count, pool, scratch)
    info.dead.extend(region.dead)
    return FusedOp(parts, tiles=tile_count, native=compiled)


def lower_tape(entries: List[TapeEntry], regions, tile_spec, pool,
               workers: int = 1, native: bool = True):
    """Replace every region of :func:`fusable_regions` by a :class:`FusedOp`.

    Returns ``(ops, scratch_buffers, info)`` — the new op list; ``info.dead``
    lists the full-grid schedule buffers that list no longer touches — or
    ``None`` when nothing fuses; scratch goes back to the pool when it
    raises.  ``workers`` (already canonicalised through
    :func:`normalize_workers`) selects N-way chunked parallel replay, each
    chunk's scratch drawn from ``pool``.  With the heuristic tile spec
    (``None``) a region is first offered to :mod:`repro.backend.native`;
    ``native=False`` prints every region as ufunc tiles (the plan's re-print
    after a native tape fails verification).
    """
    scratch: List[np.ndarray] = []
    info = FusionInfo()
    replacements = []
    try:
        for start, end, region in regions:
            fused = _lower_region(region, tile_spec, pool, scratch, info,
                                  workers, native)
            if fused is None:
                continue
            replacements.append((start, end, fused))
            info.regions += 1
            info.tiles += fused.tiles
            info.fused_schedules += end - start
    except BaseException:
        pool.release_all(scratch)
        raise
    if not replacements:
        pool.release_all(scratch)
        return None
    ops = []

    def keep(start: int, stop: int) -> None:
        for entry in entries[start:stop]:
            ops.append(entry.op)
            info.nbytes += entry.nbytes

    index = 0
    for start, end, fused in replacements:
        keep(index, start)
        ops.append(fused.run)
        info.nbytes += fused.nbytes
        index = end
    keep(index, len(entries))
    return ops, scratch, info


# ---------------------------------------------------------------------------
# Tile-size search (the tuning hook)
# ---------------------------------------------------------------------------

def measure_best_tile(backend, program, inputs, candidates=None,
                      runs: int = 3, size_env=None,
                      worker_candidates=None):
    """Time warm fused-plan replays across tile × worker specs; return the
    winner.

    ``candidates`` defaults to
    :func:`repro.tuning.parameters.fuse_tile_candidates` for the input's
    dimensionality; ``worker_candidates`` defaults to
    :func:`repro.tuning.parameters.replay_worker_candidates` (just
    ``(1,)`` on a single-core machine, so the search stays serial there).
    Returns ``(steady_seconds, tile_spec, parallel_workers)`` for the
    fastest warm replay (what the ladder's ``tuning.*`` rows time).  Worker
    counts above 1 are only timed for specs that actually fuse (``False``
    replays the unfused tape, which has no tiles to parallelise).
    """
    from ..tuning.parameters import (
        fuse_tile_candidates,
        replay_worker_candidates,
    )
    from .plan import time_steady

    if candidates is None:
        ndims = max((np.ndim(grid) for grid in inputs), default=2)
        candidates = fuse_tile_candidates(ndims)
    if worker_candidates is None:
        worker_candidates = replay_worker_candidates()
    best_cost = float("inf")
    best_spec = False
    best_workers = 1
    for spec in candidates:
        workers_to_try = (1,) if spec is False else worker_candidates
        for workers in workers_to_try:
            plan = backend.plan(program, inputs, size_env, tile_shape=spec,
                                parallel_workers=workers)
            cost = time_steady(plan, inputs, runs=runs)
            if cost < best_cost:
                best_cost, best_spec, best_workers = cost, spec, workers
    return best_cost, best_spec, best_workers


__all__ = [
    "FusedOp",
    "FusionError",
    "Access",
    "FusionInfo",
    "MAX_REPLAY_WORKERS",
    "Op",
    "Region",
    "ReplayWorkerPool",
    "TILE_TARGET_BYTES",
    "AUTO_WORKER_MIN_BYTES",
    "Temp",
    "auto_tile",
    "auto_workers",
    "band_cores",
    "build_region",
    "count_shard_processes",
    "fusable_regions",
    "lower_tape",
    "measure_best_tile",
    "normalize_tile_spec",
    "normalize_workers",
    "print_tiles",
    "replay_pool",
    "tile_extents",
]
