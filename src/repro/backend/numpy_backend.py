"""The compiled, vectorized NumPy execution backend.

The reference interpreter (:mod:`repro.runtime.interpreter`) executes one
scalar operation per Python bytecode step over nested lists; it is the
correctness oracle but far too slow to drive experiments.  This module
*compiles* a (high-level or lowered) Lift expression into a kernel of
whole-array NumPy operations:

* ``pad``/``slide``/``transpose``/``split``/``join`` become index tables,
  strided window views and axis permutations — the same role the Section-5
  *view* mechanism (:mod:`repro.views.view`) plays during OpenCL code
  generation, but realised with NumPy's stride machinery;
* every ``map`` nest (``map``/``mapGlb``/``mapWrg``/``mapLcl``/``mapSeq``)
  is vectorised away: instead of looping, the mapped axis is re-interpreted
  as a *batch axis* and the function body is evaluated once on whole arrays;
* ``zip`` produces struct-of-array tuples, so tuple access (``get``) is a
  constant-time component selection;
* user functions are applied element-wise over full arrays via their
  ``numpy_fn`` (or their ``python_fn`` when it broadcasts).

Values
------
A runtime value is one of

* a Python scalar (literals, scalar user-function results on scalar inputs),
* a :class:`Batched` leaf — an ``ndarray`` whose first ``bd`` axes are batch
  axes introduced by enclosing maps, followed by the value's real axes,
* a tuple of values (array-of-tuples is represented as tuple-of-arrays).

The invariant maintained throughout is that a leaf's batch axes correspond
to the *outermost* ``bd`` enclosing map axes; values captured from enclosing
scopes are re-aligned on use by inserting broadcastable singleton axes
(:func:`_align`).  Reductions loop only over the (small, constant) stencil
neighbourhood axis and stay vectorised over all batch axes.

Compilation is *staged*: the expression tree is traversed once and turned
into a tree of closures, so repeated executions (exploration, tuning,
benchmarks) pay no dispatch cost.  Compiled kernels are cached by
structural expression hash plus input signature in
:mod:`repro.backend.cache`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.arithmetic import ArithExpr
from ..core.ir import (
    Expr,
    FunCall,
    FunDecl,
    Lambda,
    Literal,
    Param,
    Primitive,
    UserFun,
)
from ..core.primitives.algorithmic import (
    ArrayConstructor,
    At,
    Get,
    Id,
    Iterate,
    Join,
    Map,
    Reduce,
    Split,
    Transpose,
    TupleCons,
    Zip,
)
from ..core.primitives.opencl import _MemorySpaceModifier
from ..core.primitives.stencil import Pad, PadConstant, Slide
from .ufunc_trace import array_nbytes, replay_nbytes, view_geometry


class CompileError(Exception):
    """Raised when an expression cannot be compiled to a NumPy kernel."""


class PlanCaptureError(CompileError):
    """Raised when a program cannot be captured as an execution-plan tape.

    The tape mechanism stabilises *arrays* in pooled buffers; a program
    computing a run-varying **scalar** (e.g. an untraceable user function
    reducing its array argument to a Python float) has no buffer to refresh
    through, so replays would silently freeze first-sweep data.  Callers
    treat this like any :class:`CompileError`: the plan path refuses and
    the generic per-call path serves the program instead.  The full
    fallback chain is plan tape → generic compiled kernel → (when the
    backend was built with ``fallback=True``) the reference interpreter —
    every rung serves the exact program, each one trading speed for
    generality, so no program ever loses coverage by asking for a plan.
    """


class ExecutionError(Exception):
    """Raised when a compiled kernel is run on incompatible data."""


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

class Batched:
    """An ndarray whose first ``bd`` axes are (broadcastable) batch axes."""

    __slots__ = ("data", "bd")

    def __init__(self, data: np.ndarray, bd: int) -> None:
        self.data = data
        self.bd = bd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batched(shape={self.data.shape}, bd={self.bd})"


def _leafmap(value, fn: Callable[[Batched], "Batched"]):
    """Apply ``fn`` to every :class:`Batched` leaf of a value tree."""
    if isinstance(value, tuple):
        return tuple(_leafmap(component, fn) for component in value)
    if isinstance(value, Batched):
        return fn(value)
    return value  # scalars pass through


def _first_leaf(value) -> Optional[Batched]:
    if isinstance(value, Batched):
        return value
    if isinstance(value, tuple):
        for component in value:
            leaf = _first_leaf(component)
            if leaf is not None:
                return leaf
    return None


def _align_leaf(leaf: Batched, depth: int) -> Batched:
    """Materialise missing inner batch axes as broadcastable singletons.

    Singleton axes are inserted with ``newaxis`` indexing rather than
    ``reshape``: basic indexing is *guaranteed* to return a view, which the
    execution-plan capture machinery relies on (a silent reshape copy would
    detach downstream views from their tape-refreshed buffers).
    """
    if leaf.bd == depth:
        return leaf
    if leaf.bd > depth:
        raise ExecutionError(
            f"value with {leaf.bd} batch axes used at depth {depth}"
        )
    selector = (slice(None),) * leaf.bd + (None,) * (depth - leaf.bd)
    return Batched(leaf.data[selector], depth)


def _align(value, depth: int):
    if isinstance(value, (int, float, np.generic)):
        return value
    return _leafmap(value, lambda leaf: _align_leaf(leaf, depth))


def _as_leaf(value, depth: int) -> Batched:
    """Coerce a scalar to a 0-real-rank leaf; align leaves; reject tuples."""
    if isinstance(value, Batched):
        return _align_leaf(value, depth)
    if isinstance(value, (int, float, np.generic)):
        scalar = np.asarray(value, dtype=np.float64).reshape((1,) * depth)
        return Batched(scalar, depth)
    raise ExecutionError(f"expected an array or scalar, got {type(value).__name__}")


def _array_length(value, depth: int, who: str) -> int:
    """The length of an array value's first real axis (its axis ``depth``)."""
    leaf = _first_leaf(value)
    if leaf is None:
        raise ExecutionError(f"{who} expects an array, got a scalar")
    leaf = _align_leaf(leaf, depth)
    if leaf.data.ndim <= depth:
        raise ExecutionError(f"{who} expects an array, got a scalar value")
    return leaf.data.shape[depth]

def _index(value, depth: int, i: int):
    """Select index ``i`` along axis ``depth`` of an array value."""
    selector = (slice(None),) * depth + (i,)

    def pick(leaf: Batched) -> Batched:
        leaf = _align_leaf(leaf, depth)
        if leaf.data.ndim <= depth:
            raise ExecutionError("indexing into a scalar value")
        return Batched(leaf.data[selector], depth)

    return _leafmap(value, pick)


def _to_output(value):
    """Convert a runtime value into the backend's output representation.

    Arrays become ``float64`` ndarrays.  Arrays *of tuples* (``zip`` results)
    become an ndarray with the tuple components stacked along the last axis,
    matching ``np.array`` applied to the interpreter's list-of-tuples output.
    """
    if isinstance(value, tuple):
        return np.stack([np.asarray(_to_output(v)) for v in value], axis=-1)
    if isinstance(value, Batched):
        if value.bd != 0:
            raise ExecutionError("result value still carries batch axes")
        return value.data
    return value


def _to_output_batched(value, batch: int):
    """Like :func:`_to_output` but keeping one leading request-batch axis.

    The result of a batched execution carries exactly one batch axis (the
    stacked-requests axis the service introduced); a leaf whose batch axis
    stayed a broadcastable singleton (an input-independent result) is
    materialised to the full batch extent so every request gets its slice.
    """
    if isinstance(value, tuple):
        return np.stack(
            [np.asarray(_to_output_batched(v, batch)) for v in value], axis=-1
        )
    if isinstance(value, (int, float, np.generic)):
        scalar = np.asarray(value, dtype=np.float64)
        return np.broadcast_to(scalar, (batch,) + scalar.shape).copy()
    if isinstance(value, Batched):
        leaf = _align_leaf(value, 1)
        data = leaf.data
        if data.shape[0] != batch:
            if data.shape[0] != 1:
                raise ExecutionError(
                    f"batched result has extent {data.shape[0]} on the batch "
                    f"axis, expected {batch}"
                )
            data = np.broadcast_to(data, (batch,) + data.shape[1:]).copy()
        return data
    raise ExecutionError(
        f"cannot convert {type(value).__name__} to a batched output"
    )


# ---------------------------------------------------------------------------
# Capture arenas (the execution-plan recording mode)
# ---------------------------------------------------------------------------

_ARENA = threading.local()  # .current: the capturing thread's CaptureArena


def _active_arena() -> Optional["CaptureArena"]:
    return getattr(_ARENA, "current", None)


#: One link of a pad chain, as the appliers describe it to the arena:
#: ``(axis, left, right, halo_runs, value)``.  ``halo_runs`` are the
#: ``(dst, src, length)`` block copies filling the *halo* of a reindexing
#: ``pad`` (the interior is the identity and needs no copy); a
#: ``padConstant`` has no runs and a float ``value`` instead.
PadSpec = Tuple[int, int, int, Tuple[Tuple[int, int, int], ...], Optional[float]]


def _axis_slice(axis: int, start: int, stop: int) -> Tuple[slice, ...]:
    return (slice(None),) * axis + (slice(start, stop),)


class PadHome:
    """A plan-owned grid kept resident in padded form: ``pad`` as a view.

    ``padded`` is one pooled buffer at the final shape of the pad chain the
    program applies to the grid.  ``stages[k]`` is the view of it that the
    first ``k`` pads produce, so ``stages[0]`` — the ``interior`` — is where
    the grid's owner writes it, and a pad of ``stages[k]`` that matches
    ``chain[k]`` *is* ``stages[k + 1]``: nothing to copy but the halo ring.
    Constant halos are written once, here.  Reindexed halos go stale with
    every write to the interior; :meth:`refresh` rewrites them link by
    link, each link copying at the padded extent of the links before it,
    which is exactly what the chained ``pad`` computes (corners included).
    Whoever writes the interior calls it.
    """

    __slots__ = ("padded", "chain", "stages", "halo_pairs")

    @staticmethod
    def padded_shape(shape: Sequence[int],
                     chain: Sequence[PadSpec]) -> Tuple[int, ...]:
        extents = list(shape)
        for axis, left, right, _runs, _value in chain:
            extents[axis] += left + right
        return tuple(extents)

    def __init__(self, padded: np.ndarray, shape: Sequence[int],
                 chain: Sequence[PadSpec]) -> None:
        self.padded = padded
        self.chain = tuple(chain)
        low = [0] * len(shape)
        for axis, left, _right, _runs, _value in self.chain:
            low[axis] += left
        high = [lo + extent for lo, extent in zip(low, shape)]

        def stage() -> np.ndarray:
            return padded[tuple(slice(lo, hi) for lo, hi in zip(low, high))]

        self.stages = [stage()]
        #: The ``(destination, source)`` copies one :meth:`refresh` makes.
        self.halo_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        for axis, left, right, runs, value in self.chain:
            inner = self.stages[-1]
            low[axis] -= left
            high[axis] += right
            outer = stage()
            self.stages.append(outer)
            if value is not None:
                extent = outer.shape[axis]
                outer[_axis_slice(axis, 0, left)] = value
                outer[_axis_slice(axis, extent - right, extent)] = value
            for dst, src, length in runs:
                self.halo_pairs.append(
                    (outer[_axis_slice(axis, dst, dst + length)],
                     inner[_axis_slice(axis, src, src + length)]))

    @property
    def interior(self) -> np.ndarray:
        return self.stages[0]

    def refresh(self) -> None:
        for destination, source in self.halo_pairs:
            np.copyto(destination, source)


class TapeEntry:
    """One tape op plus the dataflow facts the fuser needs.

    An entry is either a *traced schedule* — ``schedule`` is the
    :class:`~repro.backend.ufunc_trace.ReplaySchedule` whose ``run`` is the
    op, ``reads`` its leaves — or an *opaque op*: a materialised pad, a
    reshape copy, a re-executed user function, the output store, a home's
    halo refresh.  Opaque ops declare the concrete arrays they touch in
    ``reads`` / ``writes``; the fuser never looks inside one, it only fuses
    the schedule runs between them.
    """

    __slots__ = ("op", "reads", "writes", "schedule")

    def __init__(self, op: Callable[[], object], reads=(), writes=(),
                 schedule=None) -> None:
        self.op = op
        self.reads = list(reads)
        self.writes = list(writes)
        self.schedule = schedule

    @property
    def nbytes(self) -> int:
        """Operand plus output bytes one replay of the op moves."""
        if self.schedule is not None:
            return replay_nbytes(self.schedule.steps)
        return array_nbytes(self.reads) + array_nbytes(self.writes)


class CaptureArena:
    """Records the buffer-writing operations of one kernel execution.

    While an arena is installed (see :meth:`CompiledKernel.capture`), every
    compiled step that would allocate a fresh array for *run-varying* data —
    ``pad`` gathers, ``padConstant`` halos, reshape copies in ``split``/
    ``join``, and user-function results — instead writes into a buffer drawn
    from the arena's pool and records the write as a *tape op*: one
    :class:`TapeEntry` appended to ``entries``, the tape in execution
    order.  Everything
    else in the compiled kernel is stride manipulation: views into those
    stable buffers, identical from run to run.  Replaying the tape therefore
    re-executes the whole kernel — bit-identically — without traversing the
    closure tree and without allocating.

    ``homes`` are the plan's resident padded buffers (:class:`PadHome`): a
    ``pad`` whose source is a stage of one, continuing its chain, is served
    the next stage as a view (:meth:`resident_pad`) and records nothing.
    ``roots`` are plan-owned buffers that have no home yet; the pads
    materialised from them are remembered (:meth:`materialized_pad`) so
    the plan can learn which chain each would need (:meth:`home_chains`).
    """

    def __init__(self, pool, homes=(), roots=()) -> None:
        self.pool = pool
        self._stages = {
            view_geometry(stage): (home, index)
            for home in homes for index, stage in enumerate(home.stages)
        }
        # geometry of a root, or of a pad buffer chained onto one ->
        # (root index, the specs that lead there)
        self._chains = {
            view_geometry(root): (index, ()) for index, root in enumerate(roots)
        }
        self.resident_pads = 0
        self.materialized_pads = 0
        self.entries: List[TapeEntry] = []  # the tape, in execution order
        self.buffers: List[np.ndarray] = []
        self.traced_calls = 0
        self.opaque_calls = 0

    def buffer(self, shape, dtype) -> np.ndarray:
        buffer = self.pool.acquire(shape, dtype)
        self.buffers.append(buffer)
        return buffer

    # Allocator protocol used by the ufunc tracer's scratch buffers.
    acquire = buffer

    def record_and_run(self, op: Callable[[], object],
                       reads=(), writes=()) -> None:
        self.entries.append(TapeEntry(op, reads=reads, writes=writes))
        op()

    # -- pads ---------------------------------------------------------------
    def resident_pad(self, source: np.ndarray,
                     spec: Optional[PadSpec]) -> Optional[np.ndarray]:
        """The view that *is* ``pad(source)``, or ``None`` to materialise.

        Matching is by geometry (address, shape, strides, dtype): a source
        that covers exactly a stage's memory is that stage however the
        kernel derived it.  ``spec`` is ``None`` for a pad that cannot be
        resident (a gather too fragmented for block copies).
        """
        found = self._stages.get(view_geometry(source))
        if found is None or spec is None:
            return None
        home, index = found
        if index >= len(home.chain) or home.chain[index] != spec:
            return None
        self.resident_pads += 1
        return home.stages[index + 1]

    def materialized_pad(self, source: np.ndarray, buffer: np.ndarray,
                         spec: Optional[PadSpec]) -> None:
        """Count a pad that was copied; remember it if rooted at a root."""
        self.materialized_pads += 1
        link = self._chains.get(view_geometry(source))
        if link is not None:
            root, specs = link
            self._chains[view_geometry(buffer)] = (root, specs + (spec,))

    def home_chains(self) -> Dict[int, Tuple[PadSpec, ...]]:
        """Root index -> the one pad chain observed on it.

        A root qualifies when every pad sequence seen on it is a prefix of
        the longest (two different chains cannot share one padded buffer)
        and every link can be resident.
        """
        observed: Dict[int, List[Tuple]] = {}
        for root, specs in self._chains.values():
            if specs:
                observed.setdefault(root, []).append(specs)
        chains = {}
        for root, seen in observed.items():
            longest = max(seen, key=len)
            if None not in longest \
                    and all(longest[:len(specs)] == specs for specs in seen):
                chains[root] = longest
        return chains

    # -- user functions ------------------------------------------------------
    def userfun(self, fn: Callable, raws: List):
        """Evaluate ``fn`` over ``raws`` with a stable, tape-refreshed result.

        Preferred path: trace the function into an ``out=``-threaded ufunc
        schedule (:mod:`repro.backend.ufunc_trace`) — allocation-free on
        replay.  Untraceable functions fall back to per-sweep re-execution
        with the result copied into a pooled buffer, which keeps downstream
        views stable at the cost of the function's internal temporaries.
        """
        from .ufunc_trace import trace_function

        try:
            schedule, result = trace_function(fn, raws, self)
        except Exception:  # noqa: BLE001 - tracing must never break execution
            schedule, result = None, None
        if schedule is not None:
            self.entries.append(TapeEntry(schedule.run, reads=schedule.leaves,
                                          schedule=schedule))
            self.traced_calls += 1
            return result
        if result is not None:
            # The function produced no recorded computation: its result is a
            # stable argument view or a run-invariant constant. Use it as is.
            return result
        produced = fn(*raws)
        if _has_array(raws) and not _all_arrays(produced):
            # A run-varying scalar (or mixed) result cannot be refreshed
            # through a buffer — replays would freeze first-sweep data.
            raise PlanCaptureError(
                "user function returns a data-dependent scalar; the program "
                "cannot be captured as an allocation-free plan"
            )
        stable = _leaf_structure_map(
            produced, lambda array: self.buffer(array.shape, array.dtype)
        )

        def op(_fn=fn, _raws=raws, _stable=stable):
            _copy_structure(_stable, _fn(*_raws))

        _copy_structure(stable, produced)
        self.entries.append(TapeEntry(
            op, reads=_flat_arrays(raws), writes=_flat_arrays(stable),
        ))
        self.opaque_calls += 1
        return stable

    def reshape(self, data: np.ndarray, new_shape: Tuple[int, ...]) -> np.ndarray:
        """A reshape whose result is stable across tape replays.

        When NumPy can reshape ``data`` as a view, the view is returned
        (nothing to record).  When the reshape would copy — e.g. merging the
        non-contiguous window axes of ``slide`` under ``join`` — the copy
        goes into a pooled buffer via a recorded ``copyto`` instead.
        """
        view = data.reshape(new_shape)
        if np.shares_memory(view, data):
            return view
        buffer = self.buffer(new_shape, data.dtype)
        destination = buffer.reshape(data.shape)  # contiguous: always a view

        def op(_dst=destination, _src=data):
            np.copyto(_dst, _src)

        self.record_and_run(op, reads=[data], writes=[buffer])
        return buffer


def _index_runs(table: np.ndarray, max_runs: int = 8):
    """Decompose an index table into maximal consecutive runs.

    Returns ``[(destination_start, source_start, length), ...]`` such that
    gathering with the table equals copying each source slice to its
    destination slice, or ``None`` when the table is too fragmented for
    block copies to beat one ``np.take``.
    """
    if len(table) == 0:
        return []
    runs = []
    start = 0
    for position in range(1, len(table) + 1):
        if position == len(table) or table[position] != table[position - 1] + 1:
            runs.append((start, int(table[start]), position - start))
            if len(runs) > max_runs:
                return None
            start = position
    return runs


def _flat_arrays(value) -> List[np.ndarray]:
    if isinstance(value, (tuple, list)):
        arrays: List[np.ndarray] = []
        for component in value:
            arrays.extend(_flat_arrays(component))
        return arrays
    return [value] if isinstance(value, np.ndarray) else []


def _has_array(value) -> bool:
    if isinstance(value, (tuple, list)):
        return any(_has_array(component) for component in value)
    return isinstance(value, np.ndarray)


def _all_arrays(value) -> bool:
    if isinstance(value, tuple):
        return all(_all_arrays(component) for component in value)
    return isinstance(value, np.ndarray)


def _leaf_structure_map(value, fn):
    if isinstance(value, tuple):
        return tuple(_leaf_structure_map(component, fn) for component in value)
    if isinstance(value, np.ndarray):
        return fn(value)
    return value  # scalar results of literal-only inputs are run-invariant


def _copy_structure(destination, source) -> None:
    if isinstance(destination, tuple):
        for dst, src in zip(destination, source):
            _copy_structure(dst, src)
    elif isinstance(destination, np.ndarray):
        np.copyto(destination, source)


# ---------------------------------------------------------------------------
# The staged compiler
# ---------------------------------------------------------------------------

Env = Dict[Param, object]
Step = Callable[[Env, int], object]
Applier = Callable[[List, Env, int], object]


class _Compiler:
    """Compiles one expression tree into a tree of closures."""

    def __init__(self, size_env: Mapping[str, int]) -> None:
        self.size_env = dict(size_env)
        # (id(boundary), left, right, n) -> (index table, halo runs)
        self._pad_layouts: Dict[Tuple, Tuple] = {}

    # -- expressions --------------------------------------------------------
    def compile_expr(self, expr: Expr) -> Step:
        if isinstance(expr, Param):
            def step_param(env: Env, depth: int, _p=expr):
                try:
                    return env[_p]
                except KeyError:
                    raise ExecutionError(f"unbound parameter {_p.name!r}") from None
            return step_param

        if isinstance(expr, Literal):
            value = expr.value
            return lambda env, depth: value

        if isinstance(expr, FunCall):
            arg_steps = [self.compile_expr(arg) for arg in expr.args]
            applier = self.compile_apply(expr.fun)
            def step_call(env: Env, depth: int):
                return applier([s(env, depth) for s in arg_steps], env, depth)
            return step_call

        if isinstance(expr, (Lambda, UserFun, Primitive)):
            raise CompileError(
                f"first-class function values ({type(expr).__name__}) are not "
                "supported by the compiled backend; use the interpreter"
            )
        raise CompileError(f"cannot compile expression {type(expr).__name__}")

    # -- application --------------------------------------------------------
    def compile_apply(self, fun: FunDecl) -> Applier:
        if isinstance(fun, Lambda):
            body_step = self.compile_expr(fun.body)
            params = fun.params
            def apply_lambda(args: List, env: Env, depth: int):
                if len(args) != len(params):
                    raise ExecutionError(
                        f"lambda expects {len(params)} arguments, got {len(args)}"
                    )
                inner = dict(env)
                inner.update(dict(zip(params, args)))
                return body_step(inner, depth)
            return apply_lambda

        if isinstance(fun, UserFun):
            return self._compile_userfun(fun)

        if isinstance(fun, Primitive):
            return self._compile_primitive(fun)

        raise CompileError(f"cannot compile application of {type(fun).__name__}")

    # -- user functions -----------------------------------------------------
    def _compile_userfun(self, fun: UserFun) -> Applier:
        fn = fun.numpy_fn if fun.numpy_fn is not None else fun.python_fn

        def raw(value, depth: int):
            if isinstance(value, Batched):
                return _align_leaf(value, depth).data
            if isinstance(value, tuple):
                return tuple(raw(component, depth) for component in value)
            return value

        def wrap(result, depth: int):
            if isinstance(result, np.ndarray):
                if result.ndim < depth:
                    raise ExecutionError(
                        f"user function {fun.name!r} dropped batch axes"
                    )
                return Batched(result, depth)
            if isinstance(result, tuple):
                return tuple(wrap(component, depth) for component in result)
            return result

        def apply_userfun(args: List, env: Env, depth: int, _fn=fn):
            arena = _active_arena()
            raws = [raw(a, depth) for a in args]
            if arena is not None:
                return wrap(arena.userfun(_fn, raws), depth)
            return wrap(_fn(*raws), depth)

        return apply_userfun

    # -- primitives ---------------------------------------------------------
    def _compile_primitive(self, prim: Primitive) -> Applier:
        if isinstance(prim, Map):  # covers mapGlb/mapWrg/mapLcl/mapSeq
            return self._compile_map(prim)
        if isinstance(prim, Reduce):  # covers reduceSeq/reduceUnroll
            return self._compile_reduce(prim)
        if isinstance(prim, Iterate):
            return self._compile_iterate(prim)
        if isinstance(prim, Zip):
            return self._compile_zip(prim)
        if isinstance(prim, Split):
            return self._compile_split(prim)
        if isinstance(prim, Join):
            return self._compile_join(prim)
        if isinstance(prim, Transpose):
            return self._compile_transpose(prim)
        if isinstance(prim, At):
            index = prim.index
            return lambda args, env, depth: _index(args[0], depth, index)
        if isinstance(prim, Get):
            return self._compile_get(prim)
        if isinstance(prim, TupleCons):
            return lambda args, env, depth: tuple(args)
        if isinstance(prim, ArrayConstructor):
            return self._compile_array_constructor(prim)
        if isinstance(prim, Id):
            return lambda args, env, depth: args[0]
        if isinstance(prim, Pad):
            return self._compile_pad(prim)
        if isinstance(prim, PadConstant):
            return self._compile_pad_constant(prim)
        if isinstance(prim, Slide):
            return self._compile_slide(prim)
        if isinstance(prim, _MemorySpaceModifier):
            return self.compile_apply(prim.f)
        raise CompileError(f"no compilation rule for primitive {prim.name!r}")

    def _compile_map(self, prim: Map) -> Applier:
        f_apply = self.compile_apply(prim.f)
        name = prim.name

        def apply_map(args: List, env: Env, depth: int):
            (data,) = args
            length = _array_length(data, depth, name)
            # The mapped axis becomes one more batch axis; the body is then
            # evaluated ONCE on whole arrays instead of `length` times.
            batched = _leafmap(
                _align(data, depth),
                lambda leaf: Batched(leaf.data, depth + 1),
            )
            result = f_apply([batched], env, depth + 1)
            return _leafmap(
                _align(_scalar_to_leaf(result, depth + 1), depth + 1),
                lambda leaf: _debatch_leaf(leaf, depth, length),
            )

        return apply_map

    def _compile_reduce(self, prim: Reduce) -> Applier:
        f_apply = self.compile_apply(prim.f)
        init_step = self.compile_expr(prim.init)
        name = prim.name

        def apply_reduce(args: List, env: Env, depth: int):
            (data,) = args
            length = _array_length(data, depth, name)
            acc = init_step(env, depth)
            aligned = _align(data, depth)
            # Sequential fold over the (small) reduced axis, in the same
            # order as the interpreter; vectorised over every batch axis.
            for i in range(length):
                acc = f_apply([acc, _index(aligned, depth, i)], env, depth)
            expander = lambda leaf: Batched(
                np.expand_dims(leaf.data, axis=depth), depth
            )
            return _leafmap(_align(_scalar_to_leaf(acc, depth), depth), expander)

        return apply_reduce

    def _compile_iterate(self, prim: Iterate) -> Applier:
        f_apply = self.compile_apply(prim.f)
        count = prim.count

        def apply_iterate(args: List, env: Env, depth: int):
            (data,) = args
            for _ in range(count):
                data = f_apply([data], env, depth)
            return data

        return apply_iterate

    def _compile_zip(self, prim: Zip) -> Applier:
        name = prim.name

        def apply_zip(args: List, env: Env, depth: int):
            lengths = [_array_length(a, depth, name) for a in args]
            if len(set(lengths)) != 1:
                raise ExecutionError("zip: arrays have different lengths")
            # Array-of-tuples is represented struct-of-arrays: the zipped
            # axis stays at position `depth` inside every component.
            return tuple(_align(a, depth) for a in args)

        return apply_zip

    def _compile_split(self, prim: Split) -> Applier:
        chunk = self._concrete(prim.chunk, "split chunk size")

        def apply_split(args: List, env: Env, depth: int):
            arena = _active_arena()

            def split_leaf(leaf: Batched) -> Batched:
                shape = leaf.data.shape
                n = shape[depth]
                if n % chunk != 0:
                    raise ExecutionError(
                        f"split({chunk}): input length {n} is not divisible"
                    )
                new_shape = shape[:depth] + (n // chunk, chunk) + shape[depth + 1:]
                if arena is not None:
                    return Batched(arena.reshape(leaf.data, new_shape), depth)
                return Batched(leaf.data.reshape(new_shape), depth)

            return _leafmap(_align(args[0], depth), split_leaf)

        return apply_split

    def _compile_join(self, prim: Join) -> Applier:
        def apply_join(args: List, env: Env, depth: int):
            arena = _active_arena()

            def join_leaf(leaf: Batched) -> Batched:
                shape = leaf.data.shape
                if leaf.data.ndim < depth + 2:
                    raise ExecutionError("join expects a nested array")
                new_shape = (
                    shape[:depth] + (shape[depth] * shape[depth + 1],)
                    + shape[depth + 2:]
                )
                if arena is not None:
                    return Batched(arena.reshape(leaf.data, new_shape), depth)
                return Batched(leaf.data.reshape(new_shape), depth)

            return _leafmap(_align(args[0], depth), join_leaf)

        return apply_join

    def _compile_transpose(self, prim: Transpose) -> Applier:
        def apply_transpose(args: List, env: Env, depth: int):
            def swap_leaf(leaf: Batched) -> Batched:
                if leaf.data.ndim < depth + 2:
                    raise ExecutionError("transpose expects a nested array")
                return Batched(np.swapaxes(leaf.data, depth, depth + 1), depth)

            return _leafmap(_align(args[0], depth), swap_leaf)

        return apply_transpose

    def _compile_get(self, prim: Get) -> Applier:
        index = prim.index

        def apply_get(args: List, env: Env, depth: int):
            value = args[0]
            if not isinstance(value, tuple):
                raise ExecutionError(
                    f"get expects a tuple, got {type(value).__name__}"
                )
            return value[index]

        return apply_get

    def _compile_array_constructor(self, prim: ArrayConstructor) -> Applier:
        size = self._concrete(prim.size, "array size")
        generator = prim.generator
        values = np.asarray(
            [generator(i, size) for i in range(size)], dtype=np.float64
        )

        def apply_array(args: List, env: Env, depth: int):
            return Batched(values, 0)

        return apply_array

    def _compile_pad(self, prim: Pad) -> Applier:
        left, right, boundary = prim.left, prim.right, prim.boundary

        def layout_for(n: int):
            """``(index table, halo-only runs)`` for length ``n``; the runs
            are ``None`` when the halo is too fragmented for block copies or
            the boundary does not leave the interior in place (only then can
            the pad be a view of a wider buffer)."""
            key = (id(boundary), left, right, n)
            layout = self._pad_layouts.get(key)
            if layout is None:
                table = np.asarray(
                    [boundary(i - left, n) for i in range(n + left + right)],
                    dtype=np.intp,
                )
                halo = None
                before = _index_runs(table[:left])
                after = _index_runs(table[left + n:])
                if before is not None and after is not None and np.array_equal(
                        table[left:left + n], np.arange(n)):
                    halo = tuple(before) + tuple(
                        (left + n + dst, src, length)
                        for dst, src, length in after
                    )
                layout = (table, halo)
                self._pad_layouts[key] = layout
            return layout

        def apply_pad(args: List, env: Env, depth: int):
            arena = _active_arena()

            def pad_leaf(leaf: Batched) -> Batched:
                n = leaf.data.shape[depth]
                table, halo = layout_for(n)
                if arena is None:
                    return Batched(np.take(leaf.data, table, axis=depth), depth)
                source = leaf.data
                spec = None if halo is None else (depth, left, right, halo, None)
                resident = arena.resident_pad(source, spec)
                if resident is not None:
                    return Batched(resident, depth)
                # No home serves this pad: it is copied, whole, on every
                # replay — the generic path's gather threaded through out=.
                shape = (
                    source.shape[:depth] + (len(table),) + source.shape[depth + 1:]
                )
                buffer = arena.buffer(shape, source.dtype)

                def op(_src=source, _table=table, _axis=depth, _out=buffer):
                    np.take(_src, _table, axis=_axis, out=_out)

                arena.record_and_run(op, reads=[source], writes=[buffer])
                arena.materialized_pad(source, buffer, spec)
                return Batched(buffer, depth)

            return _leafmap(_align(args[0], depth), pad_leaf)

        return apply_pad

    def _compile_pad_constant(self, prim: PadConstant) -> Applier:
        left, right = prim.left, prim.right
        value_step = self.compile_expr(prim.value)

        def apply_pad_constant(args: List, env: Env, depth: int):
            value = value_step(env, depth)
            if isinstance(value, Batched):
                if value.data.size != 1:
                    raise ExecutionError(
                        "padConstant requires a scalar boundary value"
                    )
                value = float(value.data.reshape(()))
            arena = _active_arena()

            def pad_leaf(leaf: Batched) -> Batched:
                if arena is None:
                    widths = [(0, 0)] * leaf.data.ndim
                    widths[depth] = (left, right)
                    return Batched(
                        np.pad(leaf.data, widths, mode="constant",
                               constant_values=value),
                        depth,
                    )
                source = leaf.data
                spec = (depth, left, right, (), float(value))
                resident = arena.resident_pad(source, spec)
                if resident is not None:
                    return Batched(resident, depth)
                # The constant halo never changes: write it once, refresh
                # only the interior slab on every tape replay.
                n = source.shape[depth]
                shape = (
                    source.shape[:depth] + (n + left + right,)
                    + source.shape[depth + 1:]
                )
                buffer = arena.buffer(shape, source.dtype)
                buffer.fill(value)
                interior = buffer[_axis_slice(depth, left, left + n)]

                def op(_dst=interior, _src=source):
                    np.copyto(_dst, _src)

                arena.record_and_run(op, reads=[source], writes=[buffer])
                arena.materialized_pad(source, buffer, spec)
                return Batched(buffer, depth)

            return _leafmap(_align(args[0], depth), pad_leaf)

        return apply_pad_constant

    def _compile_slide(self, prim: Slide) -> Applier:
        size = self._concrete(prim.size, "slide window size")
        step = self._concrete(prim.step, "slide step")

        def apply_slide(args: List, env: Env, depth: int):
            def slide_leaf(leaf: Batched) -> Batched:
                data = leaf.data
                n = data.shape[depth]
                count = (n - size + step) // step
                if count < 0:
                    raise ExecutionError(
                        f"slide({size}, {step}): input of length {n} is too short"
                    )
                if n < size:  # zero windows, but a well-shaped empty result
                    shape = (
                        data.shape[:depth] + (0, size) + data.shape[depth + 1:]
                    )
                    return Batched(np.empty(shape, dtype=data.dtype), depth)
                windows = np.lib.stride_tricks.sliding_window_view(
                    data, size, axis=depth
                )
                # window axis is appended last; move it next to the slide axis
                windows = np.moveaxis(windows, -1, depth + 1)
                if step != 1:
                    selector = (slice(None),) * depth + (slice(None, None, step),)
                    windows = windows[selector]
                return Batched(windows, depth)

            return _leafmap(_align(args[0], depth), slide_leaf)

        return apply_slide

    # -- helpers ------------------------------------------------------------
    def _concrete(self, size: ArithExpr, what: str) -> int:
        try:
            return int(size.evaluate(self.size_env))
        except Exception as exc:
            raise CompileError(f"cannot concretise {what} {size!r}: {exc}") from exc


def _scalar_to_leaf(value, depth: int):
    """Promote bare scalars to leaves so axis bookkeeping works uniformly."""
    if isinstance(value, (int, float, np.generic)):
        return _as_leaf(value, 0)
    if isinstance(value, tuple):
        return tuple(_scalar_to_leaf(component, depth) for component in value)
    return value


def _debatch_leaf(leaf: Batched, depth: int, length: int) -> Batched:
    """Turn batch axis ``depth`` back into a real axis of size ``length``."""
    data = leaf.data
    if data.shape[depth] != length:
        if data.shape[depth] != 1:
            raise ExecutionError(
                f"map result has extent {data.shape[depth]} on its mapped "
                f"axis, expected {length}"
            )
        shape = list(data.shape)
        shape[depth] = length
        data = np.broadcast_to(data, tuple(shape))
    return Batched(data, depth)


# ---------------------------------------------------------------------------
# Compiled kernels
# ---------------------------------------------------------------------------

class CompiledKernel:
    """A Lift program compiled to a vectorized NumPy callable."""

    def __init__(self, program: Lambda, size_env: Mapping[str, int]) -> None:
        if not isinstance(program, Lambda):
            raise CompileError("only closed top-level lambdas can be compiled")
        self.program = program
        self.size_env = dict(size_env)
        compiler = _Compiler(self.size_env)
        self._params = program.params
        self._body_step = compiler.compile_expr(program.body)

    def __call__(self, inputs: Sequence) -> np.ndarray:
        if len(inputs) != len(self._params):
            raise ExecutionError(
                f"program expects {len(self._params)} inputs, got {len(inputs)}"
            )
        env: Env = {
            param: Batched(np.asarray(value, dtype=np.float64), 0)
            for param, value in zip(self._params, inputs)
        }
        return _to_output(self._body_step(env, 0))

    def capture(self, buffers: Sequence[np.ndarray], depth: int,
                arena: CaptureArena):
        """Execute the kernel once under a capture arena (plan recording).

        ``buffers`` are the plan's stable input buffers (already converted
        to ``float64``), bound directly as the parameter environment —
        ``depth`` is 0 for single execution, 1 when the leading axis is the
        stacked-requests batch axis.  The execution both *computes* (this is
        a real sweep over real data) and *records*: every buffer write lands
        in the arena's tape.  Returns the raw result value tree (``Batched``
        leaves / tuples), whose leaves are views of arena or input buffers —
        the plan turns it into an output-materialisation op.
        """
        if len(buffers) != len(self._params):
            raise ExecutionError(
                f"program expects {len(self._params)} inputs, got {len(buffers)}"
            )
        env: Env = {
            param: Batched(buffer, depth)
            for param, buffer in zip(self._params, buffers)
        }
        previous = _active_arena()
        _ARENA.current = arena
        try:
            return self._body_step(env, depth)
        finally:
            _ARENA.current = previous

    def run_batched(self, stacked_inputs: Sequence) -> np.ndarray:
        """Execute many independent requests in one vectorized sweep.

        Each input carries a *leading batch axis* of a common extent ``B``:
        ``stacked_inputs[i]`` has shape ``(B,) + single_shape_i`` where
        ``single_shape_i`` is what :meth:`__call__` would receive for one
        request.  The batch axis is threaded through the whole kernel as one
        more broadcastable batch dimension — the same mechanism enclosing
        ``map``s use — so the staged closure tree is traversed **once** and
        every NumPy operation sweeps all ``B`` requests together.  The result
        has the batch axis first; slice ``result[k]`` is bit-identical to
        ``kernel(inputs_k)`` because batching only adds an outer axis to
        elementwise operations and never reorders a reduction.
        """
        if len(stacked_inputs) != len(self._params):
            raise ExecutionError(
                f"program expects {len(self._params)} inputs, "
                f"got {len(stacked_inputs)}"
            )
        arrays = [np.asarray(value, dtype=np.float64) for value in stacked_inputs]
        if not arrays:
            raise ExecutionError("batched execution needs at least one input")
        extents = {array.shape[0] for array in arrays if array.ndim > 0}
        if len(extents) != 1:
            raise ExecutionError(
                f"inconsistent batch extents across inputs: {sorted(extents)}"
            )
        (batch,) = extents
        env: Env = {
            param: Batched(array, 1)
            for param, array in zip(self._params, arrays)
        }
        return _to_output_batched(self._body_step(env, 1), batch)


def compile_program(
    program: Lambda,
    size_env: Optional[Mapping[str, int]] = None,
) -> CompiledKernel:
    """Compile a closed Lift program into a NumPy kernel (no caching)."""
    return CompiledKernel(program, size_env or {})


__all__ = [
    "Batched",
    "CaptureArena",
    "CompileError",
    "CompiledKernel",
    "ExecutionError",
    "PadHome",
    "TapeEntry",
    "compile_program",
]
