"""Allocation-free execution plans: pooled buffers + replayable tapes.

Building an :class:`ExecutionPlan` for a program executes it once under a
:class:`~repro.backend.numpy_backend.CaptureArena`, which pre-allocates
every run-varying array — padded halo buffers, user-function scratch, the
output — from a :class:`~repro.backend.pool.BufferPool` and records the
sequence of buffer writes as a *tape*.  Everything between those writes is
stride manipulation (views of the stable buffers), identical from sweep to
sweep, so the steady-state execution path is simply::

    refresh input buffers  →  replay the tape  →  read the output buffer

with **zero** array allocations and no closure-tree traversal, while
producing bit-identical results to the generic
:meth:`~repro.backend.base.NumpyBackend.run` path (every tape op performs
the same NumPy operation on the same values, threaded through ``out=``).

Iterative stencils (:meth:`ExecutionPlan.iterate`) run a double-buffered
ping-pong loop: the output buffer of step *t* is bound as the carried input
of step *t+1* by swapping buffer roles, not by copying — one tape is
captured per distinct buffer binding (a short prologue plus a ping-pong
cycle), after which every timestep is a pure replay.  The ``carry``
specification names, per program input, what feeds it on the next step:
``"out"`` (the previous output), an input index (that input's previous
value — e.g. the acoustic benchmark's two-timestep rotation), or ``None``
(a static grid such as Hotspot's power input).

**Temporal blocks.**  When every tape is one native region whose single
store feeds, through ``"out"``, the padded home that same region reads —
every other input static, the home's pads clamp or constant — the loop
runs blocks of ``min(remaining, T)`` steps while at least two remain, each
one call of the region's ``steps`` wavefront (:mod:`repro.backend.native`,
compiled from its own text, with the carried home as its wavefront base)
plus the output home's halo refresh (a constant halo has none); a last
single step replays the per-step tape.  A block never runs past the steps
of one call, so trajectory segments and job checkpoints still land on
step boundaries, and a segment shorter than T is one block.  Capping
blocks at a segment costs little (≈ 0.3 ms per 32 steps of 512²
Hotspot2D at T = 16); re-binding the state and copying every slot out
at each boundary cost ≈ 2.4 ms, so a segment that
:meth:`ExecutionPlan.iterate_state` handed out continues from the live
binding and only the carried slots are copied out.  The first
iterate decides it, once, for its carry spec: it acquires one row ring
per band from the pool — the resolved ``parallel_workers`` count, at most
one band per row, each band one overlapped slice of the block on the
replay pool — runs T per-step replays and one banded T-step block from
the bound inputs into the other ring buffer, and accepts only if they
agree under the native relation (then re-runs its own steps from the
bind).
Where that wavefront declines because the carry rotates grids (such as
Acoustic's two-grid carry) or its ring is over budget even for two
steps, the loop runs **barrier blocks** instead: every tape per-step
replay would run for the next T steps from a binding is one native
region storing its output (plus that output's halo refresh), all one
text, so one ``steps`` call runs the T bodies with each step's own
pointer table, the bands meeting at a barrier after each step; a block
leaves the binding, the output buffer and every tape lookup exactly as T
replays do.  Its check runs T per-step replays, then one banded barrier
block from the same bound inputs, and compares the last output (one
copy).  Its band count is ``parallel_workers`` when that resolves to two
or more, else one per core of :func:`~repro.backend.fuse.band_cores` (the
cores its shard processes leave) when each band gets
:data:`~repro.backend.native.BARRIER_BAND_CELLS` cell updates a block.
Anything else stays per-step, counted in
``repro_plan_fusion_fallbacks_total`` under a ``temporal_*`` reason;
``stats()["temporal_steps"]`` is the T in use, or 1, and
``stats()["temporal_bands"]`` the bands a block runs in.

**Pad as a view.**  Lift never materialises ``pad``, and neither does a
plan for the buffers it owns: an input buffer or ping-pong output buffer
that the program pads lives inside a *resident padded home*
(:class:`~repro.backend.numpy_backend.PadHome`) — one pooled buffer at the
pad chain's final shape whose interior view stands in for the plain buffer
everywhere (binding, the ``id()``-keyed tape table, the output store).  At
capture the ``pad`` / ``padConstant`` appliers are served the widened view
and record nothing; only the halo ring is ever rewritten, by whoever
writes the interior: the bind for inputs (once per call, not once per
step) and a ``halo`` tape op right after the output store for the buffer a
carry feeds back.  Which inputs are padded, and how, is what the first
capture observes; pads of anything else (computed intermediates, gathers
too fragmented for block copies, two different chains on one buffer) are
copied — one recorded full-buffer op per pad per step, which the tape
optimizer treats like any other opaque op — and counted
(``materialized_pads``).  Because a stale halo
would fool the fused-vs-unfused check on both sides alike, every tape that
elided a pad is also compared, bit for bit, with the kernel's generic
execution of the same step, which copies every pad; on a mismatch the plan
falls back to copied pads (``fusion_fallbacks``, reason ``halo``).

Captured tapes are handed to the tape optimizer (:mod:`repro.backend.fuse`)
before their first replay: each run of elementwise traced-ufunc schedules
is verified once as a :class:`~repro.backend.fuse.Region` (anything the
verifier cannot prove safe keeps the unfused tape) and printed either as
one C loop nest (:mod:`repro.backend.native`, on the default tile spec
where the host has a compiler and the region's operations allow it) or as
**ufunc tiles** replayed over cache-blocked output slices with per-tile
pooled scratch.  The fused tape is verified against the unfused one at
capture time — bit for bit, or for native regions under one relaxed
relation (equal bits, or NaN on both sides) — and a native tape that fails
is re-printed on ufunc tiles from the same regions.  ``tile_shape`` picks
the printer and the tile; ``parallel_workers`` (``N >= 2``) chunks each
tiled region across a persistent worker-thread pool, every chunk against
its own pooled scratch set (:class:`~repro.backend.fuse.ReplayWorkerPool`),
and the capture-time check exercises that same parallel replay.  Left at
``None`` the count follows one rule on the input shapes
(:func:`~repro.backend.fuse.auto_workers`): grids big enough to give each
worker sixteen tiles take one worker per core, everything smaller stays
serial.

Plans are shape-bound (buffers are sized at build time) and serialise their
own execution with a lock; :class:`PlanCache` memoises them per (program
structure, input shapes, size environment, batched, tile spec, workers)
the way the compilation cache memoises kernels.
"""

from __future__ import annotations

import threading
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults as _faults
from ..core.ir import Lambda, structural_key
from ..telemetry import registry as _telemetry
from ..telemetry.registry import metrics_enabled as _metrics_on
from .cache import _LRU
from .fuse import (
    FusionInfo,
    fusable_regions,
    lower_tape,
    normalize_tile_spec,
    normalize_workers,
)
from .numpy_backend import (
    Batched,
    CaptureArena,
    CompiledKernel,
    ExecutionError,
    PadHome,
    PlanCaptureError,
    TapeEntry,
    _align_leaf,
    compile_program,
)
from .pool import BufferPool

#: Per-input carry specification entries (see module docstring).
CarrySpec = Tuple[Union[str, int, None], ...]

# Process-wide instruments, summed over every plan in the process.  The
# replay pair sits on the steady serving path: both are guarded by
# ``_metrics_on()`` at the call site so disabled telemetry skips the clock
# reads entirely, and an enabled observation is bucket increments only —
# the zero-allocation replay invariants hold either way.
_CAPTURES_TOTAL = _telemetry.counter(
    "repro_plan_captures_total", "Tape captures (first execution of a binding)."
)
_CAPTURE_SECONDS = _telemetry.histogram(
    "repro_plan_capture_seconds", "Wall time of tape captures."
)
_REPLAYS_TOTAL = _telemetry.counter(
    "repro_plan_replays_total", "Steady-state tape replays."
)
_REPLAY_SECONDS = _telemetry.histogram(
    "repro_plan_replay_seconds", "Wall time of steady-state tape replays."
)
_FUSION_FALLBACKS_TOTAL = _telemetry.counter(
    "repro_plan_fusion_fallbacks_total",
    "Captured tapes kept unfused, by reason.", label="reason",
)
_FUSED_REGIONS_TOTAL = _telemetry.counter(
    "repro_plan_fused_regions_total",
    "Fused regions accepted after bit-exact verification.",
)

#: Every live plan, so the two gauges below can sum over them at scrape
#: time (weak: a dropped plan is neither pinned nor counted).  They read
#: plain attributes, never ``stats()``: a scrape must not wait on the lock
#: of a plan that is mid-trajectory.
_PLANS: "weakref.WeakSet[ExecutionPlan]" = weakref.WeakSet()


def _sum_over_plans(attribute: str) -> int:
    return sum(getattr(plan, attribute, 0) for plan in list(_PLANS))


_telemetry.gauge(
    "repro_plan_resident_pads",
    "Pads served as views of resident padded buffers, over live plans.",
    fn=lambda: _sum_over_plans("resident_pads"),
)
_telemetry.gauge(
    "repro_plan_replay_bytes_per_step",
    "Operand plus output bytes one step of each live plan's longest tape "
    "moves, summed.",
    fn=lambda: _sum_over_plans("replay_bytes_per_step"),
)


def normalize_carry(carry: Optional[Sequence], num_inputs: int) -> CarrySpec:
    """Validate a carry spec; default: the output feeds input 0, rest static."""
    if num_inputs < 1:
        raise ExecutionError("iteration needs at least one program input")
    if carry is None:
        return ("out",) + (None,) * (num_inputs - 1)
    spec = tuple(carry)
    if len(spec) != num_inputs:
        raise ExecutionError(
            f"carry spec has {len(spec)} entries for {num_inputs} inputs"
        )
    for entry in spec:
        if entry is None or entry == "out":
            continue
        if isinstance(entry, int) and 0 <= entry < num_inputs:
            continue
        raise ExecutionError(f"invalid carry entry {entry!r}")
    if "out" not in spec:
        raise ExecutionError("carry spec must feed the output back somewhere")
    return spec


def _rebind(state: List[np.ndarray], out: np.ndarray,
            carry: CarrySpec) -> List[np.ndarray]:
    return [
        out if entry == "out" else state[entry if isinstance(entry, int) else i]
        for i, entry in enumerate(carry)
    ]


def _key(state: Sequence[np.ndarray], slot: int) -> Tuple:
    """The tape table key of one buffer binding and output slot."""
    return tuple(id(buffer) for buffer in state), slot


def _copy_out(out: np.ndarray, state: Sequence[np.ndarray], spec: CarrySpec,
              statics: Sequence) -> Tuple[np.ndarray, Tuple]:
    """Caller-owned ``(out, state)`` after a loop: each carried buffer
    copied once (``out`` too) and frozen read-only, each static slot the
    caller's own ``statics`` entry, uncopied."""
    copies = {id(out): out.copy()}
    for buffer, entry in zip(state, spec):
        if entry is not None and id(buffer) not in copies:
            copies[id(buffer)] = buffer.copy()
    for copied in copies.values():
        copied.flags.writeable = False
    return copies[id(out)], tuple(
        statics[slot] if entry is None else copies[id(buffer)]
        for slot, (buffer, entry) in enumerate(zip(state, spec)))


# ---------------------------------------------------------------------------
# Output materialisation (mirrors _to_output / _to_output_batched exactly)
# ---------------------------------------------------------------------------

def _output_spec(value, batch: Optional[int]) -> Tuple[Tuple[int, ...], np.dtype]:
    """Shape and dtype of the assembled output for a raw result value."""
    if isinstance(value, tuple):
        specs = [_output_spec(component, batch) for component in value]
        return specs[0][0] + (len(value),), np.result_type(*[d for _, d in specs])
    if isinstance(value, Batched):
        if batch is None:
            if value.bd != 0:
                raise ExecutionError("result value still carries batch axes")
            return value.data.shape, value.data.dtype
        leaf = _align_leaf(value, 1)
        return (batch,) + leaf.data.shape[1:], leaf.data.dtype
    scalar = np.asarray(value, dtype=np.float64)
    shape = scalar.shape if batch is None else (batch,) + scalar.shape
    return shape, scalar.dtype


def _make_output_op(buffer: np.ndarray, value, batch: Optional[int]):
    """An allocation-free tape op copying the result value into ``buffer``.

    Destination views and source views are resolved once, here; the op body
    is a sequence of ``np.copyto`` calls.  Matches ``_to_output`` (tuples
    stack along a new last axis) and ``_to_output_batched`` (length-1 batch
    leaves broadcast to the full extent) bit for bit.  Returns the op plus
    the arrays it reads (the tape optimizer's interference facts).
    """
    pairs: List[Tuple[np.ndarray, object]] = []

    def collect(destination: np.ndarray, result) -> None:
        if isinstance(result, tuple):
            for index, component in enumerate(result):
                collect(destination[..., index], component)
            return
        if isinstance(result, Batched):
            if batch is None:
                if result.bd != 0:
                    raise ExecutionError("result value still carries batch axes")
                pairs.append((destination, result.data))
                return
            leaf = _align_leaf(result, 1)
            if leaf.data.shape[0] not in (1, batch):
                raise ExecutionError(
                    f"batched result has extent {leaf.data.shape[0]} on the "
                    f"batch axis, expected {batch}"
                )
            pairs.append((destination, leaf.data))
            return
        pairs.append((destination, float(result)))

    collect(buffer, value)

    def op() -> None:
        for destination, source in pairs:
            np.copyto(destination, source)

    reads = [source for _, source in pairs if isinstance(source, np.ndarray)]
    return op, reads


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact equality (NaN payloads included) of two dense arrays."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    ))


def _same_or_nan(a: np.ndarray, b: np.ndarray) -> bool:
    """The relation a tape with native regions answers to: equal bits, or
    NaN on both sides.

    C cannot pin which NaN a commutative operation returns — its sign and
    payload follow the operand order the compiler chose — and no operation
    a native region may contain can observe either."""
    if a.shape != b.shape or a.dtype != b.dtype or a.dtype != np.float64:
        return _bits_equal(a, b)
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return bool(((a.view(np.uint64) == b.view(np.uint64))
                 | (np.isnan(a) & np.isnan(b))).all())


class _Tape:
    """One captured buffer binding: ordered ops plus the output buffer.

    ``buffers`` are the pooled buffers the ops write (arena buffers and
    fused tile scratch) and ``nbytes`` the operand plus output bytes one
    replay moves; both are the plan's to account for once it accepts the
    tape.  ``block``, once the plan runs temporal blocks, is the
    :class:`~repro.backend.native.NativeBlock` or
    :class:`~repro.backend.native.BarrierBlock` that stands in for the
    tape's first op (its one native region) over several steps; a barrier
    block's ``trail`` is the tape of each step it runs, this one first."""

    __slots__ = ("ops", "out", "buffers", "nbytes", "fusion", "block",
                 "trail")

    def __init__(self, ops: List[Callable[[], None]], out: np.ndarray,
                 buffers: List[np.ndarray], nbytes: int,
                 fusion: Optional[FusionInfo] = None) -> None:
        self.ops = ops
        self.out = out
        self.buffers = buffers
        self.nbytes = nbytes
        self.fusion = fusion  # what the tape optimizer did, if it did
        self.block = None
        self.trail: Optional[List["_Tape"]] = None

    def run(self, steps: int = 1) -> np.ndarray:
        """One replay, or ``steps`` as one block and the halo refresh of
        the last step's output."""
        if steps == 1:
            for op in self.ops:
                op()
            return self.out
        self.block(steps)
        last = self if self.trail is None else self.trail[steps - 1]
        for op in last.ops[1:]:
            op()
        return last.out

    def outs(self, steps: int) -> List[np.ndarray]:
        """The output each step of a ``steps``-step run leaves, in order
        (a wavefront block writes only this tape's)."""
        if self.trail is None or steps == 1:
            return [self.out]
        return [tape.out for tape in self.trail[:steps]]


# ---------------------------------------------------------------------------
# The execution plan
# ---------------------------------------------------------------------------

def plan_signature(inputs_or_signature) -> Tuple[Tuple[int, ...], ...]:
    """Normalise inputs (or an input signature) to a tuple of shapes.

    Plans convert every input to ``float64`` on bind — exactly what the
    generic path's ``np.asarray(value, dtype=np.float64)`` does — so the
    input *dtype* does not shape-specialise a plan; only shapes do.
    """
    shapes = []
    for entry in inputs_or_signature:
        if isinstance(entry, tuple) and len(entry) == 2 \
                and isinstance(entry[0], tuple):
            shapes.append(tuple(int(extent) for extent in entry[0]))
        else:
            shapes.append(tuple(np.shape(entry)))
    return tuple(shapes)


class ExecutionPlan:
    """A program bound to pooled buffers with replayable execution tapes.

    Not shareable across threads concurrently — a plan serialises its own
    execution with an internal lock (buffers are reused between calls, so
    results must be consumed — or copied, the default — before the next
    call overwrites them).
    """

    def __init__(
        self,
        program: Lambda,
        inputs_or_signature,
        size_env: Optional[Mapping[str, int]] = None,
        pool: Optional[BufferPool] = None,
        batched: bool = False,
        kernel: Optional[CompiledKernel] = None,
        tile_shape=None,
        parallel_workers=None,
    ) -> None:
        self.program = program
        self.size_env = dict(size_env or {})
        self.batched = batched
        #: Tape-optimizer tile spec: ``None`` = the best replay this host
        #: has (native regions, else cache-sized tiles), ``False`` = unfused
        #: tapes, a tuple = explicit trailing-axis ufunc tiles.
        self.tile_shape = normalize_tile_spec(tile_shape)
        self.input_shapes = plan_signature(inputs_or_signature)
        #: Fused-region replay workers, resolved: 1 = serial, ``N >= 2``
        #: chunks each region's tile grid across the process-wide
        #: :class:`~repro.backend.fuse.ReplayWorkerPool`.  ``None`` asked
        #: :func:`~repro.backend.fuse.auto_workers`.
        self.parallel_workers = normalize_workers(parallel_workers,
                                                  self.input_shapes)
        if not self.input_shapes:
            raise ExecutionError("a plan needs at least one input")
        if batched:
            extents = {shape[0] for shape in self.input_shapes if shape}
            if len(extents) != 1:
                raise ExecutionError(
                    f"inconsistent batch extents across inputs: {sorted(extents)}"
                )
            (self.batch,) = extents
        else:
            self.batch = None
        self._depth = 1 if batched else 0
        self._pool = pool if pool is not None else BufferPool()
        self._kernel = kernel if kernel is not None else compile_program(
            program, self.size_env
        )
        self._lock = threading.RLock()
        self._in_bufs = [
            self._pool.acquire(shape, np.float64) for shape in self.input_shapes
        ]
        for buffer in self._in_bufs:
            buffer.fill(1.0)  # benign values until the first bind
        #: Every pooled buffer the plan holds (for homes: the padded one).
        self._buffers: List[np.ndarray] = list(self._in_bufs)
        self._tapes: Dict[Tuple, _Tape] = {}
        self._ring: List[np.ndarray] = []   # ping-pong output buffers
        # Resident padded homes, keyed by id() of the interior view that
        # stands in ``_in_bufs`` / ``_ring`` for the plain buffer.  Input
        # homes are made by the first capture, which sees what the program
        # pads; ring homes when a slot is first used.
        self._homes: Dict[int, PadHome] = {}
        self._homes_probed = False
        self._resident = True  # cleared for good by a failed halo check
        self._out_shape: Optional[Tuple[int, ...]] = None
        self._out_dtype = None
        # ``(state handed out, live binding it continues from)`` after an
        # ``iterate_state``, until that state comes back or anything binds
        # the plan (a trajectory stopped between segments leaves its last
        # state referenced here until then).
        self._live: Optional[Tuple[Tuple, List[np.ndarray]]] = None
        self.captures = 0
        self.replays = 0
        self.traced_calls = 0
        self.opaque_calls = 0
        self.fused_regions = 0
        self.fused_tiles = 0
        self.fused_schedules = 0
        self.native_regions = 0     # fused regions replayed as one C loop
        self.fusion_fallbacks = 0
        self.resident_pads = 0      # pads served as views of a home
        self.materialized_pads = 0  # pads copied (no home, or no match)
        #: Operand plus output bytes one replay of the longest tape moves.
        self.replay_bytes_per_step = 0
        # Temporal blocks, decided by the first iterate for its carry spec:
        # the accepted wavefront and its rings (one per band), or per-step
        # for good.
        self._block_carry: Optional[CarrySpec] = None
        # (steps text, Wavefront or None for a barrier block) once checked
        self._accepted = None
        self._block_rings: List[np.ndarray] = []
        self.temporal_steps = 1  # steps one block runs; 1 = per-step tapes
        self.temporal_bands = 1  # row bands one block runs in
        _PLANS.add(self)

    # -- buffer management ---------------------------------------------------
    @staticmethod
    def _load(destinations: Sequence[np.ndarray], inputs: Sequence) -> None:
        """Copy one request's grids into their destination views."""
        if len(inputs) != len(destinations):
            raise ExecutionError(
                f"plan expects {len(destinations)} inputs, got {len(inputs)}"
            )
        for destination, value in zip(destinations, inputs):
            array = value if isinstance(value, np.ndarray) else np.asarray(value)
            if array.shape != destination.shape:
                raise ExecutionError(
                    f"input shape {array.shape} does not match the plan's "
                    f"{destination.shape}"
                )
            np.copyto(destination, array)  # casts to float64, like the generic path

    def _bind(self, inputs: Sequence) -> None:
        self._live = None  # whoever binds overwrites a live trajectory
        self._load(self._in_bufs, inputs)
        self._refresh_inputs()

    def _refresh_inputs(self) -> None:
        """Whoever writes a home's interior refreshes its halo: for the
        input buffers that is the bind, once per call however many steps
        then read the padded grid."""
        for buffer in self._in_bufs:
            home = self._homes.get(id(buffer))
            if home is not None:
                home.refresh()

    def _new_home(self, shape, dtype, chain) -> PadHome:
        padded = self._pool.acquire(PadHome.padded_shape(shape, chain), dtype)
        self._buffers.append(padded)
        home = PadHome(padded, shape, chain)
        self._homes[id(home.interior)] = home
        return home

    def _house_inputs(self, chains: Mapping[int, Tuple],
                      state: List[np.ndarray]) -> None:
        """Move the input buffers the program pads into resident homes.

        ``state`` (the binding being captured, which is the input buffers
        themselves) is updated in place; the bound values move along."""
        for index, chain in chains.items():
            plain = self._in_bufs[index]
            home = self._new_home(plain.shape, plain.dtype, chain)
            np.copyto(home.interior, plain)
            home.refresh()
            self._in_bufs[index] = home.interior
            for position, buffer in enumerate(state):
                if buffer is plain:
                    state[position] = home.interior
            self._buffers = [b for b in self._buffers if b is not plain]
            self._pool.release(plain)

    def _pick_slot(self, state: Sequence[np.ndarray]) -> int:
        """The lowest-indexed output slot whose buffer is not being read.

        The choice is a pure function of the binding state, so re-running an
        iteration from the same starting state retraces the same (state,
        slot) keys and replays the already-captured tapes instead of
        capturing fresh ones.
        """
        state_ids = {id(buffer) for buffer in state}
        for index, buffer in enumerate(self._ring):
            if id(buffer) not in state_ids:
                return index
        return len(self._ring)

    def _ring_chain(self) -> Optional[Tuple]:
        """The pad chain output buffers are born with, if any.

        An output that can be carried back into a padded input is padded
        the same way: the chain of the first input home of its shape.
        Should a carry feed it to an input padded differently, those pads
        find no matching chain and are materialised as before.  Batched
        plans cannot iterate, so theirs is never carried anywhere."""
        if self.batched or not self._resident:
            return None
        for buffer in self._in_bufs:
            home = self._homes.get(id(buffer))
            if home is not None and buffer.shape == self._out_shape \
                    and buffer.dtype == self._out_dtype:
                return home.chain
        return None

    def _slot_buffer(self, slot: int) -> np.ndarray:
        if slot == len(self._ring):
            chain = self._ring_chain()
            if chain is not None:
                buffer = self._new_home(self._out_shape, self._out_dtype,
                                        chain).interior
            else:
                buffer = self._pool.acquire(self._out_shape, self._out_dtype)
                self._buffers.append(buffer)
            self._ring.append(buffer)
        return self._ring[slot]

    # -- capture & replay ----------------------------------------------------
    def _trace(self, state: List[np.ndarray], roots=()) -> Tuple[CaptureArena,
                                                                 object]:
        """One kernel execution under a capture arena: ``(arena, value)``."""
        homes = self._homes.values() if self._resident else ()
        arena = CaptureArena(self._pool, homes=homes, roots=roots)
        try:
            value = self._kernel.capture(state, self._depth, arena)
            if self._out_shape is None:
                self._out_shape, self._out_dtype = _output_spec(value,
                                                                self.batch)
        except Exception:
            # An aborted capture (e.g. PlanCaptureError on a data-dependent
            # scalar) must hand the arena's buffers straight back: they were
            # never adopted into this plan's buffer set, so without this
            # they would leak from the pool's accounting for good.
            self._pool.release_all(arena.buffers)
            raise
        return arena, value

    def _capture(self, state: List[np.ndarray], slot: int) -> _Tape:
        """Capture the tape of one binding (``state`` may be re-housed in
        place by the first capture)."""
        roots = () if self._homes_probed else state
        arena, value = self._trace(state, roots)
        if not self._homes_probed:
            # The first capture binds the plain input buffers and sees
            # which of them the program pads, and how: those move into
            # resident padded homes and the capture starts over, this time
            # served views.
            self._homes_probed = True
            chains = arena.home_chains()
            if chains:
                self._pool.release_all(arena.buffers)
                self._house_inputs(chains, state)
                arena, value = self._trace(state)
        tape = self._assemble(arena, value, slot)
        if arena.resident_pads and not self._halo_ok(tape, state):
            # A stale halo fools the fused-vs-unfused check on both sides
            # alike, so a tape that elided pads answers to an execution
            # that elided none.  On a mismatch this plan stops trusting
            # its homes: this and every later capture copies its pads.
            self._pool.release_all(tape.buffers)
            self._resident = False
            self.fusion_fallbacks += 1
            _FUSION_FALLBACKS_TOTAL.inc(label="halo")
            arena, value = self._trace(state)
            tape = self._assemble(arena, value, slot)
        self._buffers.extend(tape.buffers)
        self.captures += 1
        self.traced_calls += arena.traced_calls
        self.opaque_calls += arena.opaque_calls
        self.resident_pads += arena.resident_pads
        self.materialized_pads += arena.materialized_pads
        if tape.fusion is not None:
            _FUSED_REGIONS_TOTAL.inc(tape.fusion.regions)
            self.fused_regions += tape.fusion.regions
            self.fused_tiles += tape.fusion.tiles
            self.fused_schedules += tape.fusion.fused_schedules
            self.native_regions += len(tape.fusion.natives)
        self.replay_bytes_per_step = max(self.replay_bytes_per_step,
                                         tape.nbytes)
        return tape

    def _halo_ok(self, tape: _Tape, state: List[np.ndarray]) -> bool:
        """Does the tape's output equal one generic execution of the step?

        The generic call reads only the interiors in ``state`` and copies
        every pad, so it cannot share a halo defect with the tape."""
        if self.batched:
            expected = self._kernel.run_batched(state)
        else:
            expected = self._kernel(state)
        native = tape.fusion is not None and tape.fusion.natives
        same = _same_or_nan if native else _bits_equal
        return same(np.asarray(expected), tape.out)

    def _assemble(self, arena: CaptureArena, value, slot: int) -> _Tape:
        """Turn one traced execution into a tape writing output ``slot``."""
        try:
            return self._assemble_tape(arena, value, slot)
        except Exception:
            self._pool.release_all(arena.buffers)
            raise

    def _assemble_tape(self, arena: CaptureArena, value, slot: int) -> _Tape:
        out_buffer = self._slot_buffer(slot)
        buffers = arena.buffers
        entries = list(arena.entries)
        schedule = entries[-1].schedule if entries else None
        if (
            isinstance(value, Batched)
            and value.bd == 0
            and schedule is not None
            and value.data is schedule.out
            and value.data.shape == out_buffer.shape
            and value.data.dtype == out_buffer.dtype
        ):
            # The kernel's whole result is the last traced schedule's final
            # value: retarget that operation to write straight into the
            # output ring buffer and skip the materialisation copy pass.
            np.copyto(out_buffer, value.data)  # this sweep already computed
            orphan = schedule.retarget(out_buffer)
            if orphan is not None:
                buffers[:] = [b for b in buffers if b is not orphan]
                self._pool.release(orphan)
        else:
            final, final_reads = _make_output_op(out_buffer, value, self.batch)
            final()  # a capture is a real execution: materialise this sweep
            entries.append(TapeEntry(final, reads=final_reads,
                                     writes=[out_buffer]))
        home = self._homes.get(id(out_buffer))
        if home is not None and home.halo_pairs:
            # The store above wrote a home's interior: refresh its ring so
            # the step that pads this buffer next reads a view, not a copy.
            home.refresh()
            entries.append(TapeEntry(
                home.refresh,
                reads=[source for _, source in home.halo_pairs],
                writes=[destination for destination, _ in home.halo_pairs],
            ))
        tape = _Tape([entry.op for entry in entries], out_buffer, buffers,
                     sum(entry.nbytes for entry in entries))
        if self.tile_shape is not False:
            tape = self._try_fuse(tape, entries)
        return tape

    def _try_fuse(self, tape: _Tape, entries: List[TapeEntry]) -> _Tape:
        """Fuse + tile the captured tape; verified, with unfused fallback.

        The fused tape replays the identical operation sequence tile by
        tile, so it must reproduce the unfused replay bit for bit — which
        is checked right here, against the output the capture just
        computed, before the fused tape is ever trusted with a result.
        Native regions are tried first; a tape they fail is re-printed from
        the same regions on ufunc tiles and answers to the strict
        comparison.
        """
        out_buffer = tape.out
        try:
            regions = fusable_regions(entries, out_buffer)
        except Exception:  # noqa: BLE001 - fusion must never break execution
            return self._unfused(tape, "analysis")
        for native in (True, False):
            try:
                optimized = lower_tape(entries, regions, self.tile_shape,
                                       self._pool, self.parallel_workers,
                                       native)
            except Exception:  # noqa: BLE001 - fusion must never break execution
                return self._unfused(tape, "analysis")
            if optimized is None:
                return tape
            ops, scratch, info = optimized
            snapshot = out_buffer.copy()
            for reason in info.declines:
                _FUSION_FALLBACKS_TOTAL.inc(label=reason)
            dead = {id(buffer) for buffer in info.dead}
            fused = _Tape(ops, out_buffer,
                          [b for b in tape.buffers if id(b) not in dead]
                          + scratch, info.nbytes, fusion=info)
            try:
                fused.run()
                same = _same_or_nan if info.natives else _bits_equal
                accepted = same(snapshot, out_buffer)
            except Exception:  # noqa: BLE001 - reject, restore, fall back
                accepted = False
            if accepted:
                # Nothing in the accepted tape touches the schedules'
                # full-grid buffers, so the next capture may have them.
                self._pool.release_all(info.dead)
                return fused
            self._pool.release_all(scratch)
            tape.run()  # restore every buffer from the trusted unfused ops
            if not info.natives:
                break
            _FUSION_FALLBACKS_TOTAL.inc(label="native_verification")
        return self._unfused(tape, "verification")

    def _unfused(self, tape: _Tape, reason: str) -> _Tape:
        """Keep the unfused tape, counted under ``reason``."""
        self.fusion_fallbacks += 1
        _FUSION_FALLBACKS_TOTAL.inc(label=reason)
        return tape

    def _step(self, state: List[np.ndarray], slot: int) -> np.ndarray:
        tape = self._tapes.get(_key(state, slot))
        if tape is not None:
            return self._replay(tape, 1)
        timed = _metrics_on()
        started = perf_counter() if timed else 0.0
        tape = self._capture(state, slot)
        # Keyed afresh: the first capture may have re-housed ``state``.
        self._tapes[_key(state, slot)] = tape
        if self._accepted is not None:
            self._bind_block(tape, state)
        if timed:
            _CAPTURE_SECONDS.observe(perf_counter() - started)
            _CAPTURES_TOTAL.inc()
        return tape.out

    def _replay(self, tape: _Tape, steps: int) -> np.ndarray:
        """Run ``steps`` steps of a captured tape (more than one: as one
        temporal block), timed and counted as that many replays."""
        timed = _metrics_on()
        started = perf_counter() if timed else 0.0
        out = tape.run(steps)
        self.replays += steps
        if timed:
            _REPLAY_SECONDS.observe(perf_counter() - started)
            _REPLAYS_TOTAL.inc(steps)
        return out

    def _advance(self, state: List[np.ndarray], spec: CarrySpec,
                 most: int) -> Tuple[np.ndarray, List[np.ndarray], int]:
        """``(out, state, steps)`` after a temporal block of ``min(most,
        T)`` steps from ``state`` when its binding has one, else after one
        step (a block of one is a replay).  ``state`` is rebound after each
        step the run took, so a barrier block leaves the binding its
        per-step replays would."""
        slot = self._pick_slot(state)
        tape = self._tapes.get(_key(state, slot))
        if tape is None:
            out = self._step(state, slot)
            return out, _rebind(state, out, spec), 1
        steps = 1 if tape.block is None else min(most, self.temporal_steps)
        out = self._replay(tape, steps)
        for written in tape.outs(steps):
            state = _rebind(state, written, spec)
        return out, state, steps

    # -- temporal blocks -----------------------------------------------------
    def _decide_blocks(self, spec: CarrySpec) -> None:
        """Decide, once, on the first iterate (inputs bound), whether
        iterate runs temporal blocks: accept a checked wavefront, else —
        for a carry the wavefront cannot follow or a ring over budget — a
        checked barrier block, or count why not under a ``temporal_*``
        reason.  The bound inputs are left as they were."""
        from . import native  # nothing looks for a compiler earlier

        self._block_carry = spec
        rings: List[np.ndarray] = []
        try:
            if self.tile_shape is not None:
                raise native.Unavailable("temporal_layout", "ufunc tiles")
            state = list(self._in_bufs)
            slot = self._pick_slot(state)
            if _key(state, slot) not in self._tapes:
                self._step(state, slot)  # the first capture may re-house
                state = list(self._in_bufs)
            tape = self._tapes[_key(state, slot)]
            wave = None  # a carry that rotates grids: no wavefront base
            if spec.count("out") == 1 \
                    and all(entry in ("out", None) for entry in spec):
                wave = self._block_wave(tape, state)  # None: ring too big
            try:
                if wave is None:
                    visited, block = self._check_barrier(tape, state)
                    bands = len(block.bands)
                else:
                    bands = min(self.parallel_workers,
                                tape.fusion.natives[0].region.shape[0])
                    for _ in range(bands):
                        rings.append(self._pool.acquire(wave.ring,
                                                        np.float64))
                    visited, block = self._check_block(tape, state, wave,
                                                       rings)
            except BaseException:
                self._pool.release_all(rings)
                raise
        except native.Unavailable as declined:
            _FUSION_FALLBACKS_TOTAL.inc(label=declined.reason)
            return
        self._buffers.extend(rings)
        self._accepted = (block.source, wave)
        self._block_rings = rings
        self.temporal_steps = block.steps
        self.temporal_bands = bands
        bound = set()
        for tape, state in visited:
            if id(tape) not in bound:
                bound.add(id(tape))
                self._bind_block(tape, state)

    def _block_wave(self, tape: _Tape, state: List[np.ndarray]):
        """The :class:`~repro.backend.native.Wavefront` of ``tape`` from
        ``state`` (``None`` when its ring is over budget even for two
        steps), or :class:`~repro.backend.native.Unavailable`: the tape
        must be one native region plus its output home's halo refresh (a
        constant halo has none), reading the carried grid's padded home —
        the wavefront base — and nothing else but static inputs."""
        from . import native
        from .fuse import TILE_TARGET_BYTES, _root

        carried = state[self._block_carry.index("out")]
        home, out_home = self._homes.get(id(carried)), self._homes.get(
            id(tape.out))
        natives = tape.fusion.natives if tape.fusion is not None else []
        if home is None or out_home is None or out_home.chain != home.chain \
                or len(natives) != 1 or tape.ops[1:] != (
                    [out_home.refresh] if out_home.halo_pairs else []):
            raise native.Unavailable(
                "temporal_layout", "not one native region and its refresh")
        region = natives[0].region
        statics = [_root(buffer) for buffer, entry
                   in zip(state, self._block_carry) if entry is None]
        bases = [b for b, base in enumerate(region.bases)
                 if base is home.padded]
        if len(bases) != 1 or not all(
                any(base is static for static in statics)
                for b, base in enumerate(region.bases) if b != bases[0]):
            raise native.Unavailable(
                "temporal_layout", "a base is neither carried nor static")
        return native.wavefront(region, bases[0], home.chain,
                                TILE_TARGET_BYTES)

    def _walk(self, state: List[np.ndarray], steps: int):
        """``(visited, out)``: the ``(tape, state)`` pairs of ``steps``
        per-step replays from ``state`` — a binding seen for the first time
        is captured — and the last output.  They are a check's, not caller
        steps, so they count as no replays."""
        visited, current = [], list(state)
        for _ in range(steps):
            slot = self._pick_slot(current)
            known = self._tapes.get(_key(current, slot))
            out = known.run() if known is not None \
                else self._step(current, slot)
            visited.append((self._tapes[_key(current, slot)], current))
            current = _rebind(current, out, self._block_carry)
        return visited, out

    def _check_block(self, tape: _Tape, state: List[np.ndarray], wave,
                     rings: List[np.ndarray]):
        """One T-step wavefront block, banded over ``rings`` as every later
        block is, from ``state`` against T per-step tapes run from the same
        state, under the native relation: ``(the (tape, state) pairs the
        tapes visited, the block)`` when they agree, else
        ``temporal_verification`` (a band that raises included).  The block
        writes the ring buffer the tapes did not end in, so the check holds
        no grid of its own."""
        from . import native

        visited, out = self._walk(state, wave.steps)
        spare = next(buffer for buffer in self._ring if buffer is not out)
        block = native.NativeBlock(tape.fusion.natives[0], wave, rings,
                                   out=spare)
        self._verify(block, spare, out)
        return visited, block

    def _check_barrier(self, tape: _Tape, state: List[np.ndarray]):
        """One T-step barrier block from ``state`` (whose tape is ``tape``),
        banded as every later block is, against T per-step tapes run from
        the same state: ``(the (tape, state) pairs they visited, the
        block)`` when the block's last output agrees with theirs under the
        native relation, else ``temporal_verification``.  The block
        rewrites the tapes' own buffers, so the check holds one copy of the
        last output."""
        from . import native

        self._barrier_geometry(tape)  # a layout decline costs no walk
        visited, out = self._walk(state, native.MAX_BLOCK_STEPS)
        expected = out.copy()
        _trail, block = self._barrier_block(state)
        self._verify(block, out, expected)
        return visited, block

    def _verify(self, block, result: np.ndarray,
                expected: np.ndarray) -> None:
        """Run ``block`` for all its steps and compare what it leaves in
        ``result`` with ``expected``; any difference or error declines as
        ``temporal_verification``, counted in ``fusion_fallbacks``."""
        from . import native

        try:
            block(block.steps)
            if _faults.ARMED and _faults.should_fail(
                    "native.temporal_mismatch"):
                result.view(np.uint64)[(0,) * result.ndim] ^= 1
            same = _same_or_nan(result, expected)
        except Exception:  # noqa: BLE001 - a failed block is a mismatch
            same = False
        if not same:
            self.fusion_fallbacks += 1
            raise native.Unavailable("temporal_verification")

    def _barrier_block(self, state: List[np.ndarray]):
        """``(trail, block)``: the tapes per-step replay runs for T steps
        from ``state`` and the :class:`~repro.backend.native.BarrierBlock`
        that runs them, or ``None`` while one of those bindings is not
        captured yet.  Every tape must have a :meth:`_barrier_geometry`, all
        the same one, and print one text (``temporal_layout``, or
        ``temporal_boundary`` for a pad other than clamp or constant)."""
        from . import native

        trail, current = [], list(state)
        for _ in range(native.MAX_BLOCK_STEPS):
            tape = self._tapes.get(_key(current, self._pick_slot(current)))
            if tape is None:
                return None
            trail.append(tape)
            current = _rebind(current, tape.out, self._block_carry)
        geometries = {self._barrier_geometry(tape) for tape in trail}
        if len(geometries) != 1:
            raise native.Unavailable("temporal_layout",
                                     "the steps differ in layout")
        return trail, native.BarrierBlock(
            [tape.fusion.natives[0] for tape in trail], geometries.pop())

    def _barrier_geometry(self, tape: _Tape) -> Tuple[int, ...]:
        """The barrier geometry of one step's tape (bands included), or
        :class:`~repro.backend.native.Unavailable`: the tape must be one
        native region storing its output, plus that output home's refresh
        (none for a constant halo or a plain grid)."""
        from . import native
        from .fuse import band_cores

        home = self._homes.get(id(tape.out))
        natives = tape.fusion.natives if tape.fusion is not None else []
        if len(natives) != 1 or tape.ops[1:] != (
                [home.refresh] if home is not None and home.halo_pairs
                else []):
            raise native.Unavailable(
                "temporal_layout", "not one native region and its refresh")
        region = natives[0].region
        geometry = native.barrier_geometry(
            region, None if home is None else home.padded,
            None if home is None else home.chain,
            native.barrier_bands(region.shape, self.parallel_workers,
                                 band_cores()))
        if region.stores[0][0] is not tape.out:
            raise native.Unavailable("temporal_layout",
                                     "the region stores elsewhere")
        return geometry

    def _bind_block(self, tape: _Tape, state: List[np.ndarray]) -> None:
        """Give ``tape`` its block when it prints the accepted steps text
        (and, for a wavefront, has the accepted wavefront); a barrier block
        waits for every binding of its trail to be captured."""
        from . import native

        source, accepted = self._accepted
        try:
            if accepted is None:
                found = self._barrier_block(state)
                if found is None:
                    return
                trail, block = found
            else:
                wave = self._block_wave(tape, state)
                if wave != accepted:
                    return
                trail, block = None, native.NativeBlock(
                    tape.fusion.natives[0], wave, self._block_rings)
        except native.Unavailable:
            return
        if block.source == source:
            tape.block, tape.trail = block, trail

    @staticmethod
    def _result(out: np.ndarray, copy: bool) -> np.ndarray:
        if copy:
            return out.copy()
        view = out.view()
        view.flags.writeable = False
        return view

    # -- execution -----------------------------------------------------------
    def run(self, inputs: Sequence, copy: bool = True) -> np.ndarray:
        """One sweep.  ``copy=False`` returns a read-only view of the output
        buffer, valid until the next call on this plan."""
        with self._lock:
            self._bind(inputs)
            state = list(self._in_bufs)
            out = self._step(state, self._pick_slot(state))
            return self._result(out, copy)

    def _iterate(self, inputs: Sequence, steps: int, carry
                 ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The one ``bind → step → rebind`` loop (caller holds the lock):
        the final output buffer and post-rebind binding state, both *live*
        pooled buffers — the public wrappers decide what is copied out.
        ``inputs`` that are the state the last :meth:`iterate_state`
        handed out, with nothing bound since, continue from the live
        binding instead of being bound."""
        if self.batched:
            raise ExecutionError("iterate is not supported on batched plans")
        if steps < 1:
            raise ExecutionError("iterate needs steps >= 1")
        spec = normalize_carry(carry, len(self._in_bufs))
        if self._live is not None and self._live[0] is inputs:
            state = self._live[1]
            self._live = None
        else:
            self._bind(inputs)
            if self._block_carry is None:
                self._decide_blocks(spec)
            state = list(self._in_bufs)
        out: Optional[np.ndarray] = None
        remaining = steps
        while remaining:
            # blocks were checked for one carry spec; any other steps singly
            out, state, taken = self._advance(
                state, spec, remaining if spec == self._block_carry else 1)
            remaining -= taken
        assert out is not None
        return out, state

    def iterate(self, inputs: Sequence, steps: int,
                carry: Optional[Sequence] = None,
                copy: bool = True) -> np.ndarray:
        """Run ``steps`` timesteps with double-buffered output ping-pong.

        Equivalent — bit for bit — to calling the generic ``run`` path once
        per step and re-binding inputs per ``carry``; after the first few
        steps capture the binding cycle, every further step is a pure tape
        replay with zero allocations.  ``inputs`` that are the state the
        last :meth:`iterate_state` returned continue from the live binding,
        as a further ``iterate_state`` would.
        """
        with self._lock:
            out, _state = self._iterate(inputs, steps, carry)
            return self._result(out, copy)

    def iterate_state(
        self, inputs: Sequence, steps: int,
        carry: Optional[Sequence] = None,
    ) -> Tuple[np.ndarray, Tuple]:
        """Like :meth:`iterate`, but also return the post-rebind carry state.

        Returns ``(out, state)``: ``out`` is a read-only copy of the final
        step's output, and ``state`` the input binding of the *next* step
        (after the final carry rebind) as a tuple — each carried slot a
        read-only copy (an ``"out"`` slot holds ``out`` itself), each
        static slot (carry entry ``None``) the caller's own ``inputs``
        entry, uncopied.  Feeding ``state`` back as ``inputs`` of a
        further ``iterate_state``/``iterate`` call continues the
        trajectory bit for bit:

            iterate(x, a + b)  ==  iterate(iterate_state(x, a).state, b)

        exactly.  If nothing has bound the plan since (no other ``run``,
        ``iterate`` or ``iterate_state``), the next call continues from
        the plan's live binding — the same buffers, so the same captured
        tapes run on the same values — and copies nothing in; otherwise
        it binds ``state`` like any input.  Either way the lock is
        released between calls.  A caller that writes into a static slot
        between two calls must therefore pass a new sequence.  This is the
        primitive the service's trajectory runner
        (:func:`repro.service.executor.run_trajectory`) segments with.
        """
        with self._lock:
            out, live = self._iterate(inputs, steps, carry)
            out, state = _copy_out(out, live,
                                   normalize_carry(carry, len(live)), inputs)
            self._live = (state, live)
            return out, state

    def run_batched(self, stacked_inputs: Sequence,
                    copy: bool = True) -> np.ndarray:
        """One stacked sweep over the leading request-batch axis."""
        if not self.batched:
            raise ExecutionError("this plan was not compiled for batching")
        return self.run(stacked_inputs, copy=copy)

    def run_batched_parts(self, parts: Sequence[Sequence],
                          copy: bool = True) -> np.ndarray:
        """Batched sweep fed from per-request input lists.

        Each request's grids are copied directly into its slice of the
        plan's one pooled stacked buffer set — no intermediate ``np.stack``
        allocation on the serving path.
        """
        if not self.batched:
            raise ExecutionError("this plan was not compiled for batching")
        if len(parts) != self.batch:
            raise ExecutionError(
                f"plan is sized for batches of {self.batch}, got {len(parts)}"
            )
        with self._lock:
            self._live = None
            for index, item_inputs in enumerate(parts):
                self._load([buffer[index] for buffer in self._in_bufs],
                           item_inputs)
            self._refresh_inputs()
            state = list(self._in_bufs)
            out = self._step(state, self._pick_slot(state))
            return self._result(out, copy)

    # -- accounting ----------------------------------------------------------
    @property
    def steady(self) -> bool:
        """True once at least one binding replays from tape."""
        return self.replays > 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "tapes": len(self._tapes),
                "captures": self.captures,
                "replays": self.replays,
                "traced_userfun_calls": self.traced_calls,
                "opaque_userfun_calls": self.opaque_calls,
                "buffers": len(self._buffers),
                "buffer_bytes": sum(b.nbytes for b in self._buffers),
                "fused_regions": self.fused_regions,
                "fused_tiles": self.fused_tiles,
                "native_regions": self.native_regions,
                "fused_schedules": self.fused_schedules,
                # halo gathers that cost no full-grid pass: the resident
                # ones (a copied pad is never inside a region)
                "fused_pads": self.resident_pads,
                "fusion_fallbacks": self.fusion_fallbacks,
                "resident_pads": self.resident_pads,
                "materialized_pads": self.materialized_pads,
                "replay_bytes_per_step": self.replay_bytes_per_step,
                "temporal_steps": self.temporal_steps,
                "temporal_bands": self.temporal_bands,
                "tile_shape": self.tile_shape,
                "parallel_workers": self.parallel_workers,
            }

    def native_sources(self) -> List[str]:
        """The C text of each native region, in capture order (several
        tapes of one plan usually share one text)."""
        with self._lock:
            return [compiled.source for tape in self._tapes.values()
                    if tape.fusion is not None
                    for compiled in tape.fusion.natives]

    def block_source(self) -> Optional[str]:
        """The C text of the temporal blocks' ``steps``, or ``None`` while
        iterate runs per step."""
        with self._lock:
            return None if self._accepted is None else self._accepted[0]

    def release(self) -> None:
        """Return every pooled buffer.  The plan must not be used afterwards."""
        with self._lock:
            self._pool.release_all(self._buffers)
            self._buffers = []
            self._tapes = {}
            self._ring = []
            self._in_bufs = []
            self._homes = {}
            self._live = None


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------

class PlanCache(_LRU):
    """A thread-safe LRU of execution plans, keyed like the kernel cache.

    **Key composition** (see :meth:`key_for`) — six components, each
    canonicalised before keying so spellings that mean the same plan hit
    the same entry:

    1. the program's *structural key* (:func:`~repro.core.ir.structural_key`
       — alpha-renamed IR structure, so two builds of the same expression
       share plans);
    2. the input **shapes** (not dtypes — plans bind-convert every input to
       ``float64``, exactly like the generic path);
    3. the size environment, sorted into a tuple of items;
    4. whether the plan sweeps a leading batch axis (``batched``);
    5. the tape-optimizer tile spec, canonicalised through
       :func:`~repro.backend.fuse.normalize_tile_spec` (``"auto"`` and
       ``None`` coincide; distinct tile shapes are distinct plans);
    6. the *resolved* ``parallel_workers`` count
       (:func:`~repro.backend.fuse.normalize_workers` on the input shapes:
       ``0``/``1`` key the serial plan, ``None`` keys whatever
       :func:`~repro.backend.fuse.auto_workers` picks for these shapes;
       each worker count owns its scratch layout, so N-way plans are
       separate entries).

    Evicted plans are simply dropped: their buffers may still be
    mid-execution on another thread, so they are left to the garbage
    collector rather than returned to a pool.  A pickled cache carries only
    its size limit and rebuilds plans on first use.
    """

    def __init__(self, max_entries: int = 64) -> None:
        super().__init__(max_entries)

    def key_for(self, program: Lambda, inputs_or_signature,
                size_env: Optional[Mapping[str, int]] = None,
                batched: bool = False, tile_shape=None,
                parallel_workers=None) -> Tuple:
        sizes = tuple(sorted((size_env or {}).items()))
        shapes = plan_signature(inputs_or_signature)
        return (structural_key(program), shapes, sizes, batched,
                normalize_tile_spec(tile_shape),
                normalize_workers(parallel_workers, shapes))

    def get_or_compile(
        self,
        program: Lambda,
        inputs_or_signature,
        size_env: Optional[Mapping[str, int]] = None,
        batched: bool = False,
        kernel_resolver=None,
        tile_shape=None,
        parallel_workers=None,
    ) -> ExecutionPlan:
        """The cached plan for this key; ``kernel_resolver`` (a zero-argument
        callable returning a :class:`CompiledKernel`) lets the backend route
        the plan's kernel through its compilation cache so kernels stay
        shared — and counted — across the generic and plan paths."""
        def build() -> ExecutionPlan:
            if _faults.ARMED and _faults.should_fail("plan.capture_fail"):
                # A CompileError here exercises the same fallback the
                # service takes for genuinely uncapturable programs: the
                # group is served on the generic compiled path (and the
                # digest breaker accumulates the failure).
                raise PlanCaptureError("fault injected: plan.capture_fail")
            kernel = kernel_resolver() if kernel_resolver is not None else None
            return ExecutionPlan(program, inputs_or_signature, size_env,
                                 batched=batched, kernel=kernel,
                                 tile_shape=tile_shape,
                                 parallel_workers=parallel_workers)

        return self._get_or_build(
            self.key_for(program, inputs_or_signature, size_env, batched,
                         tile_shape, parallel_workers), build)


def time_steady(plan: ExecutionPlan, inputs: Sequence, runs: int = 3) -> float:
    """Best-of-``runs`` wall-clock of one warm steady-state sweep.

    Warms the plan first (capture + one replay) so the measurement reflects
    the tape-replay serving path, not first-call compilation or buffer
    allocation.  The timing protocol of the engine's measured scorer.
    """
    plan.run(inputs)  # warm-up: capture the tape, populate buffers
    plan.run(inputs)  # first replay (steady state from here on)
    best = float("inf")
    for _ in range(max(1, runs)):
        started = perf_counter()
        plan.run(inputs, copy=False)
        best = min(best, perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# The per-sweep generic baseline (what plans are measured against)
# ---------------------------------------------------------------------------

def _iterate_generic(backend, program: Lambda, inputs: Sequence, steps: int,
                     carry, size_env) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The one per-sweep loop: ``(out, state)`` after ``steps`` generic runs."""
    if steps < 1:
        raise ExecutionError("iterate needs steps >= 1")
    state = [np.asarray(value, dtype=np.float64) for value in inputs]
    spec = normalize_carry(carry, len(state))
    out: Optional[np.ndarray] = None
    for _ in range(steps):
        out = np.asarray(backend.run(program, state, size_env),
                         dtype=np.float64)
        state = _rebind(state, out, spec)
    assert out is not None
    return out, state


def iterate_generic(
    backend,
    program: Lambda,
    inputs: Sequence,
    steps: int,
    carry: Optional[Sequence] = None,
    size_env: Optional[Mapping[str, int]] = None,
) -> np.ndarray:
    """Drive an iterative stencil through the generic per-sweep ``run`` path.

    This is the pre-plan steady-state loop — one full ``backend.run`` (cache
    lookup, closure traversal, fresh temporaries) per timestep — kept as the
    reference implementation plans are verified against bit for bit, and as
    the kernel-loop baseline the ladder's ``backend.plan.*.vs_kernel`` rows
    compare them to.
    """
    return _iterate_generic(backend, program, inputs, steps, carry,
                            size_env)[0]


def iterate_state_generic(
    backend,
    program: Lambda,
    inputs: Sequence,
    steps: int,
    carry: Optional[Sequence] = None,
    size_env: Optional[Mapping[str, int]] = None,
) -> Tuple[np.ndarray, Tuple]:
    """:func:`iterate_generic` that also returns the post-rebind state.

    The generic counterpart of :meth:`ExecutionPlan.iterate_state` — the
    fallback the trajectory runner uses for programs a plan cannot
    capture — with the same ``(out, state)`` shape: carried slots copied
    read-only, static slots the ``float64`` inputs as given.  Resuming
    from the returned ``state`` continues the trajectory bit for bit.
    """
    out, state = _iterate_generic(backend, program, inputs, steps, carry,
                                  size_env)
    return _copy_out(out, state, normalize_carry(carry, len(state)), state)


__all__ = [
    "CarrySpec",
    "ExecutionPlan",
    "PlanCache",
    "iterate_generic",
    "iterate_state_generic",
    "normalize_carry",
    "plan_signature",
]
