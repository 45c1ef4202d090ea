"""Tracing user functions into replayable ``out=``-threaded ufunc schedules.

The compiled backend evaluates a user function by calling its whole-array
implementation (``numpy_fn`` or a broadcasting ``python_fn``); every
arithmetic step inside it allocates a fresh temporary.  For steady-state
execution loops that cost dominates, so execution plans *trace* the
function once: the concrete argument arrays are wrapped in
:class:`TracedArray` proxies whose operators, ``__array_ufunc__`` and
``__array_function__`` hooks record each NumPy operation instead of hiding
it, yielding a schedule of ufunc applications.  Replaying the schedule
executes exactly the same operations in exactly the same order — results
are bit-identical — but every operation writes into a pre-allocated scratch
buffer via ``out=``, so the steady path performs **zero** array
allocations.

Supported operations: every NumPy ufunc (arithmetic, comparisons,
``np.sqrt``/``np.abs``/…), plus ``np.where`` (replayed as a pair of
``np.copyto`` selections) and ``np.clip`` (which accepts ``out=``).  A
function that cannot be traced — e.g. one that branches on array values —
raises :class:`UntraceableFunction` and the caller falls back to calling it
directly into a pooled result buffer (correct, just not allocation-free).

What a replay executes is a list of *micro-ops* ``(fn, operands, out)``,
each meaning ``fn(*operands, out=out)`` over arrays resolved in advance.
:func:`micro_op` is the one constructor (a schedule builds its own at full
grid; the tape optimizer builds a region's again per tile) and
:func:`replay` the one loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class UntraceableFunction(Exception):
    """The user function performed an operation the tracer cannot record."""


def _select(condition, x, y, out: np.ndarray) -> None:
    """``np.where`` through ``out=``: a pair of ``np.copyto`` selections."""
    np.copyto(out, y, casting="unsafe")
    np.copyto(out, x, where=condition, casting="unsafe")


#: The traceable non-ufunc functions -> how each replays through ``out=``.
_OUT_FORMS = {np.where: _select, np.clip: np.clip}


class _Node:
    """One recorded operation: ``fn`` plus operands (nodes, arrays, scalars)."""

    __slots__ = ("fn", "operands", "buffer", "shape", "dtype")

    def __init__(self, fn, operands: Tuple, shape, dtype) -> None:
        self.fn = fn                # replays it: ``fn(*operands, out=buffer)``
        self.operands = operands    # mix of TracedArray / ndarray / scalar
        self.shape = shape          # result shape (drives the scratch buffer)
        self.dtype = dtype
        self.buffer: Optional[np.ndarray] = None  # bound by the schedule


def view_geometry(array: np.ndarray) -> Tuple:
    """What identifies a view: two arrays with equal geometry are one region."""
    return (array.__array_interface__["data"][0], array.shape, array.strides,
            array.dtype.str)


def _operand_key(value) -> Tuple:
    """Identity of one operand for common-subexpression matching."""
    if isinstance(value, TracedArray):
        if value.node is not None:
            return ("node", id(value.node))
        return ("leaf",) + view_geometry(value.concrete)
    if isinstance(value, np.ndarray):
        return ("array", id(value))
    if isinstance(value, np.generic):
        return ("scalar", value.dtype.str, value.tobytes())
    # repr keeps 2 / 2.0 / True and 0.0 / -0.0 apart, which == does not.
    return ("scalar", type(value).__name__, repr(value))


def _stand_in(value):
    """A one-element array of the operand's dtype and rank; scalars pass
    through as themselves, so NumPy's promotion sees what the real call
    would."""
    if isinstance(value, (TracedArray, np.ndarray)):
        return np.ones((1,) * len(value.shape), dtype=value.dtype)
    return value


class TracedArray:
    """A proxy recording NumPy operations applied to a concrete array.

    Nothing is computed while tracing: a recorded operation's shape is the
    broadcast of its operand shapes and its dtype is what NumPy gives
    one-element stand-ins, which is all the replay schedule needs to size
    its scratch buffers.  ``concrete`` is the array behind a *leaf* — one
    that exists independently of the traced function (the stable argument
    views of an execution plan) — and ``None`` for a computed value, whose
    ``node`` records how to compute it.  ``memo`` is the trace's table of
    operations already recorded: the same operation on the same operands
    is one node.
    """

    __slots__ = ("concrete", "node", "shape", "dtype", "memo")

    def __init__(self, concrete: Optional[np.ndarray], memo: dict,
                 node: Optional[_Node] = None) -> None:
        self.concrete = concrete
        self.node = node
        self.memo = memo
        source = concrete if node is None else node
        self.shape = source.shape
        self.dtype = source.dtype

    def _record(self, fn, operands: Tuple, evaluate) -> "TracedArray":
        operands = tuple(
            np.asarray(value) if isinstance(value, (list, tuple)) else value
            for value in operands
        )
        key = (fn,) + tuple(_operand_key(value) for value in operands)
        known = self.memo.get(key)
        if known is not None:
            return known
        shape = np.broadcast_shapes(*[getattr(value, "shape", ())
                                      for value in operands])
        with np.errstate(all="ignore"):
            sample = evaluate(*[_stand_in(value) for value in operands])
        if isinstance(sample, tuple):  # multi-output ufuncs (divmod, …)
            raise UntraceableFunction(f"multi-output operation {fn}")
        node = _Node(fn, operands, shape, np.asarray(sample).dtype)
        traced = TracedArray(None, self.memo, node)
        self.memo[key] = traced
        return traced

    # -- NumPy protocol hooks ------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            raise UntraceableFunction(
                f"unsupported ufunc use: {ufunc.__name__}.{method} with {kwargs}"
            )
        return self._record(ufunc, inputs, ufunc)

    def __array_function__(self, func, types, args, kwargs):
        if func in _OUT_FORMS and len(args) == 3 and not kwargs:
            return self._record(_OUT_FORMS[func], args, func)
        raise UntraceableFunction(f"unsupported function {getattr(func, '__name__', func)}")

    # -- structural access (views of leaves are themselves leaves) ----------
    def __getitem__(self, key) -> "TracedArray":
        if self.node is not None:
            raise UntraceableFunction("indexing a computed intermediate")
        result = self.concrete[key]
        # Only *views* of the leaf stay live across tape replays.  Advanced
        # indexing (index arrays, boolean masks) and scalar extraction copy
        # first-sweep data, which would silently go stale — force the safe
        # opaque (re-execute per sweep) fallback instead.
        if not isinstance(result, np.ndarray) \
                or not np.shares_memory(result, self.concrete):
            raise UntraceableFunction(
                "indexing a traced argument with a copying (advanced/scalar) "
                "selection"
            )
        return TracedArray(result, self.memo)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized object")
        return self.shape[0]

    def __iter__(self):
        raise UntraceableFunction("iterating over a traced array")

    def __bool__(self) -> bool:
        raise UntraceableFunction("branching on a traced array value")

    def __float__(self) -> float:
        raise UntraceableFunction("converting a traced array to a scalar")

    # -- operators (each routes through the ufunc hook above) ----------------
    def __add__(self, other):
        return np.add(self, other)

    def __radd__(self, other):
        return np.add(other, self)

    def __sub__(self, other):
        return np.subtract(self, other)

    def __rsub__(self, other):
        return np.subtract(other, self)

    def __mul__(self, other):
        return np.multiply(self, other)

    def __rmul__(self, other):
        return np.multiply(other, self)

    def __truediv__(self, other):
        return np.true_divide(self, other)

    def __rtruediv__(self, other):
        return np.true_divide(other, self)

    def __pow__(self, other):
        return np.power(self, other)

    def __rpow__(self, other):
        return np.power(other, self)

    def __mod__(self, other):
        return np.mod(self, other)

    def __neg__(self):
        return np.negative(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return np.absolute(self)

    def __lt__(self, other):
        return np.less(self, other)

    def __le__(self, other):
        return np.less_equal(self, other)

    def __gt__(self, other):
        return np.greater(self, other)

    def __ge__(self, other):
        return np.greater_equal(self, other)

    def __eq__(self, other):  # noqa: D105 - traced comparison, not identity
        return np.equal(self, other)

    def __ne__(self, other):
        return np.not_equal(self, other)

    __hash__ = None  # traced arrays are not hashable (eq is elementwise)


def _wrap_argument(value, memo: dict):
    if isinstance(value, np.ndarray):
        return TracedArray(value, memo)
    if isinstance(value, tuple):
        return tuple(_wrap_argument(component, memo) for component in value)
    return value  # scalars participate as plain Python numbers


def _live(value):
    """What a traced operand reads at replay: a computed one its node's
    buffer, a leaf the live view behind it, a scalar itself."""
    if isinstance(value, TracedArray):
        return value.concrete if value.node is None else value.node.buffer
    return value


def micro_op(fn, args: Sequence, out: np.ndarray, resolve=_live) -> Tuple:
    """The micro-op ``(fn, operands, out)`` meaning ``fn(*operands, out=out)``.

    The one place a recorded operation becomes something executable:
    ``resolve`` maps each argument to what this replay reads, once.  A
    schedule resolves its traced operands at full grid (the default); the
    tape optimizer's tile printer resolves a region's loads and temps to
    one tile's views (:func:`repro.backend.fuse.print_tiles`).
    """
    return fn, tuple(resolve(arg) for arg in args), out


def replay(steps: Sequence[Tuple]) -> None:
    """Execute micro-ops in order — the one loop every traced operation runs
    through, whole-grid or tiled, on the caller or on a pool thread."""
    for fn, operands, out in steps:
        fn(*operands, out=out)


def array_nbytes(values) -> int:
    """Logical bytes of the arrays among ``values`` (scalars move nothing)."""
    return sum(value.nbytes for value in values
               if isinstance(value, np.ndarray))


def replay_nbytes(steps: Sequence[Tuple]) -> int:
    """Operand plus output bytes one :func:`replay` of ``steps`` moves."""
    return sum(array_nbytes(operands) + out.nbytes
               for _fn, operands, out in steps)


class ReplaySchedule:
    """A traced function bound to scratch buffers: call :meth:`run` per sweep.

    ``run`` executes the recorded operations in recorded order, each through
    ``out=`` into its scratch buffer, and returns the final buffer.  The
    argument views captured at trace time are read live — they alias the
    plan's stable buffers, which earlier tape entries refresh every sweep.
    """

    def __init__(self, nodes: List[_Node], out: np.ndarray,
                 scratch: List[np.ndarray]) -> None:
        self._nodes = nodes
        self.out = out
        #: Every buffer this schedule drew from its allocator — what a
        #: caller that stops running the schedule may hand back.
        self.scratch = scratch
        self.steps = [micro_op(node.fn, node.operands, node.buffer)
                      for node in nodes]
        #: The arrays read but not computed here: argument views and
        #: constants the function closed over.
        self.leaves = [
            value.concrete if isinstance(value, TracedArray) else value
            for node in nodes for value in node.operands
            if isinstance(value, np.ndarray)
            or (isinstance(value, TracedArray) and value.node is None)
        ]

    @property
    def nodes(self) -> List[_Node]:
        """The recorded operation DAG in replay order (read-only use).

        Exposed for the tape optimizer (:mod:`repro.backend.fuse`), which
        builds a region from the same nodes."""
        return self._nodes

    def retarget(self, new_out: np.ndarray) -> Optional[np.ndarray]:
        """Make the final operation write directly into ``new_out``.

        Returns the scratch buffer this orphans (dropped from ``scratch``;
        the caller owns handing it back), or ``None`` when an earlier node
        still computes into it.

        Used by execution plans when the kernel's whole result *is* this
        schedule's final value: retargeting saves the output-materialisation
        copy pass.  ``new_out`` must be disjoint from every buffer the
        schedule reads (plans pass a fresh ring buffer), so even the
        ``where`` replay — which reads operands after its first write —
        stays correct.
        """
        final = self._nodes[-1]
        assert final.buffer is self.out, "final node must own the schedule output"
        orphan = final.buffer
        final.buffer = new_out
        self.out = new_out
        self.steps[-1] = micro_op(final.fn, final.operands, new_out)
        if any(node.buffer is orphan for node in self._nodes):
            return None
        self.scratch = [b for b in self.scratch if b is not orphan]
        return orphan

    def run(self) -> np.ndarray:
        replay(self.steps)
        return self.out


def trace_function(
    fn: Callable,
    args: Sequence,
    pool,
) -> Tuple[Optional[ReplaySchedule], Optional[np.ndarray]]:
    """Trace ``fn(*args)`` into a replay schedule with pooled scratch.

    ``pool`` is any allocator with an ``acquire(shape, dtype)`` method (a
    :class:`~repro.backend.pool.BufferPool` or a capture arena).  Returns
    ``(schedule, result)`` where ``result`` holds the concrete value of the
    schedule's first run — the one execution; tracing itself computes
    nothing — living in the schedule's final scratch buffer so downstream
    consumers see a stable array.  Returns ``(None, value)``
    when the function performed no recorded computation but its result is
    nevertheless stable across sweeps — an argument passed through unchanged
    (a live view of the caller's buffers) or a run-invariant constant.
    Returns ``(None, None)`` when the function must be re-executed per sweep
    (untraceable control flow, unsupported operations, tuple results).
    """
    try:
        memo: dict = {}
        traced = fn(*[_wrap_argument(value, memo) for value in args])
    except UntraceableFunction:
        return None, None
    if isinstance(traced, TracedArray) and traced.node is None:
        return None, traced.concrete  # argument passthrough: a stable view
    if not isinstance(traced, TracedArray):
        if isinstance(traced, np.ndarray) and traced.dtype != object:
            return None, traced  # constant built inside fn: run-invariant
        if isinstance(traced, (int, float, np.generic)):
            return None, traced
        return None, None  # tuples / object arrays: re-execute per sweep

    # Collect the recorded nodes in dependency order (operands precede use).
    nodes: List[_Node] = []
    seen = set()

    def collect(value) -> None:
        if not isinstance(value, TracedArray) or value.node is None:
            return
        node = value.node
        if id(node) in seen:
            return
        for operand in node.operands:
            collect(operand)
        seen.add(id(node))
        nodes.append(node)

    collect(traced)
    scratch = _assign_buffers(nodes, traced.node, pool)
    schedule = ReplaySchedule(nodes, traced.node.buffer, scratch)
    result = schedule.run()  # materialise the traced values into the buffers
    return schedule, result


def _assign_buffers(nodes: List[_Node], final: _Node,
                    pool) -> List[np.ndarray]:
    """Bind scratch buffers to nodes with liveness-based reuse; returns the
    buffers acquired.

    A node's buffer is dead once its last consumer has executed; later nodes
    of the same shape and dtype reuse it.  This mirrors NumPy's own
    temporary elision on the generic path — the replay's working set stays a
    couple of buffers instead of one per operation, which keeps the hot loop
    in cache.  A plain ufunc may even write directly over an operand dying
    at that very node (exact-overlap ``out=`` is well-defined); the
    ``where``/``clip`` replays never do, as they read operands after the
    first write into ``out``.
    """
    last_use = {}
    for index, node in enumerate(nodes):
        for operand in node.operands:
            if isinstance(operand, TracedArray) and operand.node is not None:
                last_use[id(operand.node)] = index
    last_use[id(final)] = len(nodes)  # the result buffer outlives the schedule

    free = {}  # (shape, dtype str) -> [buffers]
    acquired: List[np.ndarray] = []

    def key_of(buffer: np.ndarray):
        return (buffer.shape, str(buffer.dtype))

    for index, node in enumerate(nodes):
        shape, dtype = node.shape, node.dtype
        dying = []
        for operand in node.operands:
            if isinstance(operand, TracedArray) and operand.node is not None \
                    and last_use.get(id(operand.node)) == index \
                    and operand.node.buffer is not None \
                    and not any(operand.node.buffer is b for b in dying):
                dying.append(operand.node.buffer)
        reused = None
        if isinstance(node.fn, np.ufunc):
            for buffer in dying:
                if buffer.shape == shape and buffer.dtype == dtype:
                    reused = buffer
                    break
        if reused is not None:
            node.buffer = reused
        else:
            bucket = free.get((shape, str(np.dtype(dtype))))
            if bucket:
                node.buffer = bucket.pop()
            else:
                node.buffer = pool.acquire(shape, dtype)
                acquired.append(node.buffer)
        for buffer in dying:
            if buffer is not node.buffer:
                free.setdefault(key_of(buffer), []).append(buffer)
    return acquired


__all__ = ["ReplaySchedule", "TracedArray", "UntraceableFunction",
           "array_nbytes", "micro_op", "replay", "replay_nbytes",
           "trace_function", "view_geometry"]
