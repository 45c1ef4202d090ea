"""Native regions: one C loop nest per fused region, built by the system
C compiler.

The tape optimizer (:mod:`repro.backend.fuse`) verifies a run of traced
schedules as one :class:`~repro.backend.fuse.Region`.  :func:`lower`
prints that region, and nothing else, as one C function with a loop nest
over the region shape, every op a register, so the stencil is computed in
one pass with no float64 temporaries; :func:`build` compiles and binds it.

**Lowering.**  Each base of the region is one pointer plus one byte
stride per base axis, and each store one pointer plus one stride per
region axis.  An access is a row pointer of its base — one per distinct
offset on the axes outside the row — read at a literal column offset, so
the five shifted reads of one padded grid are one pointer argument.
Offsets, and whether a base's row stride is the item size, zero or
something else, are written into the source, so the row loop vectorises,
while pointers, strides and extents are arguments — every tape of a plan
and every grid size of an app share one source text.  A temp is the
register of the op that computed it.  Scalars are ``float.hex()``
literals.  Each store is the register of its last writer; a store into
an allocation the region reads declines (``native_layout``).

**Temporal blocks.**  The plan, which knows which base of a region is the
padded home its single float64 store feeds on the next step (the
*wavefront base*), may ask for a second text, :func:`lower_steps`: one
function ``steps`` running up to T steps of the same body as one
wavefront down the leading axis.  Iteration ``k`` computes row
``k - (t - 1) * lag`` of each level ``t`` that has such a row in the
band, a range of ``1..T`` found once per ``k`` from closed forms; level 0
is the base itself, levels ``1..T-1`` keep ``2r + 2`` padded rows each in
a ring (``r`` the base's leading-axis radius, from ``Region.accesses()``)
and write their inner halo per row, and level T stores the interior of
the destination.  A row's ring slot steps back ``lag`` slots a level,
with no division, and rows read from the ring are slots around it; only
a row within reach of the grid's first or last row calls ``level_``,
where along the leading axis a clamp pad is a clamped row index and a
constant pad the home's own halo row.  The grid crosses memory once per
block instead of once per step.  Ring rows are laid out for the cache,
not like the home's: each spans an odd count of whole 64-byte lines
(:func:`ring_stride`, so no two rows of a level alias at 4 KiB), and
every row's interior starts on a line, so the vectorised row loop splits
no line on the ring.  T, the ring and the pad geometry are
arguments (:class:`Wavefront`), so an app has one ``steps`` text at every
grid size, and the ``region`` text is the same whether or not a plan
blocks.  :func:`wavefront` decides T — the largest value up to 16 whose
ring fits :data:`RING_BUDGET_BYTES`, half a core's L2 — and declines any
pad but clamp or constant (``temporal_boundary``).  ``steps`` computes
the rows ``[lo, hi)`` of the store, each level only the rows the next one
reads, so a block splits into row bands that recompute their overlap
instead of sharing it (the paper's overlapped tiling, along time).  :class:`NativeBlock`
compiles ``steps`` and binds it to one tape's arrays and the plan's rings,
one per band; a call runs any count of steps up to T, its bands on the
helper pool (:meth:`repro.helpers.HelperPool.run_parts`).  The plan
decides when a block runs and checks one against the per-step tapes
first.

**Barrier blocks.**  Where the wavefront declines — a carry that rotates
grids, such as Acoustic's ``(1, "out", None)``, or a padded row so wide
that even a two-step ring is over budget (:func:`wavefront` is ``None``) —
the plan may ask for a barrier block: the region's own text plus a
``steps`` loop (:func:`_barrier_steps`) that runs T per-step bodies
over the rows ``[lo, hi)``, step ``t`` through the ``t``-th of T pointer
and stride tables (those of the tape per-step replay runs at that step),
refreshing the clamp halo of the rows it stored (``halo_`` and the
leading rows, geometry from :func:`barrier_geometry`) and meeting the
other bands at a spin barrier.  Bands exchange rows through the real
grids, so there is no ring and nothing is recomputed; the cost is a
barrier per step, paid inside one C call.  :class:`BarrierBlock` binds
it; :func:`barrier_bands` picks the band count.

**Whitelist.**  float64 ``add`` / ``subtract`` / ``multiply`` /
``true_divide`` / ``negative`` / ``absolute`` / ``sqrt``, the six
comparisons (bool result), ``where``, and ``clip`` between scalar bounds (NumPy's
``_npy_clip_const_minmax_``: ``x < lo ? lo : x`` then ``x > hi ? hi : x``,
all NaN when a bound is; with array bounds NumPy runs a different loop
that disagrees with this one on signed zeros, so those decline), over
float64 or bool arrays and real scalars.  Each is correctly rounded in IEEE double
and exact under the flags below, so on every non-NaN value the loop is
bit-identical to the ufunc replay.  A NaN's sign and payload are not
pinned (x86 returns the first NaN operand of a commutative operation and
the compiler orders those operands as it likes); no whitelisted operation
can observe either, so the difference never reaches a non-NaN value.
Anything else — ``power``, transcendentals, integer or float32
arithmetic — raises :class:`Unavailable` and the region keeps its ufunc
tiles.

**Flags.**  ``-O3 -march=native`` vectorise the row loop (2× over
``-O2``); ``-ffp-contract=off`` forbids fusing ``a * b + c`` into an FMA,
which rounds once where NumPy rounds twice; ``-fno-math-errno`` lets
``sqrt`` be the hardware instruction; never ``-ffast-math``.

**Cache.**  Kernels are memoised per process by source text and function
name and kept on disk under ``${XDG_CACHE_HOME:-~/.cache}/repro/native/``
(a directory owned by the caller and writable by nobody else, else a
per-uid directory under the system temp directory, else memory only).
``-march=native`` makes an object CPU-specific, so the file name is the
sha256 of source, flags, compiler path + size + mtime and the
``/proc/cpuinfo`` flags line.  Objects are written to a temporary name and
renamed into place; one that fails to load is unlinked and rebuilt once,
and one that loads without the asked function is kept and refused
(``native_load``).

Nothing here runs at import: the compiler is looked for when the first
region is built, and failures are never remembered — the next plan tries
again.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from collections import Counter
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import faults as _faults
from ..helpers import MAX_REPLAY_WORKERS, pool
from ..telemetry import registry as _telemetry
from .fuse import Access, Region, Temp, _lead, _tile_view
from .numpy_backend import ExecutionError
from .ufunc_trace import _select

FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
         "-fPIC", "-shared")

_COMPILE_SECONDS = _telemetry.histogram(
    "repro_native_compile_seconds",
    "Wall time of one system-compiler run for a native region.",
)
_CACHE_TOTAL = _telemetry.counter(
    "repro_native_cache_total",
    "Native region kernels resolved, by where the object came from.",
    label="result",
)


class Unavailable(Exception):
    """This region stays on ufunc tiles.  ``reason`` is the ``native_*``
    label it is counted under in ``repro_plan_fusion_fallbacks_total``."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Lowering: region -> C source
# ---------------------------------------------------------------------------

#: The whitelist: traced ``fn`` -> (result kind, C expression over operands
#: already converted to ``double``).  ``d`` is float64, ``b`` is bool.
_FORMS = {
    np.add: ("d", "{0} + {1}"),
    np.subtract: ("d", "{0} - {1}"),
    np.multiply: ("d", "{0} * {1}"),
    np.true_divide: ("d", "{0} / {1}"),
    np.negative: ("d", "-{0}"),
    np.absolute: ("d", "fabs({0})"),
    np.sqrt: ("d", "sqrt({0})"),
    np.less: ("b", "{0} < {1}"),
    np.less_equal: ("b", "{0} <= {1}"),
    np.greater: ("b", "{0} > {1}"),
    np.greater_equal: ("b", "{0} >= {1}"),
    np.equal: ("b", "{0} == {1}"),
    np.not_equal: ("b", "{0} != {1}"),
    np.clip: ("d", "clip_({0}, {1}, {2})"),
    _select: ("d", "{0} ? {1} : {2}"),  # {0} stays a bool, see ``lower``
}
_CTYPES = {"d": "double", "b": "unsigned char"}
_KINDS = {np.dtype(np.float64): "d", np.dtype(np.bool_): "b"}

_PREAMBLE = """\
#include <math.h>
#include <stdint.h>

/* numpy/_core/src/umath/clip.cpp, _npy_clip_const_minmax_ (scalar bounds,
   neither NaN): a NaN x fails both tests and passes through. */
static inline double clip_(double x, double lo, double hi)
{
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}
"""


def _kind(dtype) -> str:
    kind = _KINDS.get(np.dtype(dtype))
    if kind is None:
        raise Unavailable("native_dtype", str(dtype))
    return kind


def _literal(value) -> str:
    if not isinstance(value, (bool, int, float, np.bool_, np.integer,
                              np.floating)):
        raise Unavailable("native_dtype", f"scalar {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError as error:
        raise Unavailable("native_dtype", str(error)) from error
    if number != number:
        return "NAN"
    if number in (float("inf"), float("-inf")):
        return "INFINITY" if number > 0 else "(-INFINITY)"
    return f"({number.hex()})"


def _plus(index: str, offset: int) -> str:
    """``index`` shifted by a literal ``offset``, as a C factor."""
    return f"({index} + {offset})" if offset else index


def lower(region: Region) -> str:
    """The C text of a verified region; its pointer arguments are
    ``region.bases`` then the stored buffers."""
    return _emit(region, *_lower_body(region))


def lower_steps(region: Region, base: int) -> str:
    """The C text of ``steps``, the temporal block of a verified region
    whose wavefront base is ``region.bases[base]`` (:func:`_steps`)."""
    return "\n".join(_steps(region, *_lower_body(region), base))


def _lower_body(region: Region):
    """``(accesses, results, body)``: the region's access table, each
    store's register and the C lines of its ops, or :class:`Unavailable`."""
    rank = len(region.shape)
    if rank < 1 or 0 in region.shape:
        raise Unavailable("native_layout", "rank-0 or empty region")
    accesses = region.accesses()
    registers: List[Tuple[str, str]] = []  # (name, kind) per op

    def operand(arg) -> Tuple[str, str]:
        """``(C expression, kind)`` of one op argument."""
        if isinstance(arg, Temp):
            return registers[arg.op]
        if not isinstance(arg, Access):
            return _literal(arg), "d"
        base = region.bases[arg.base]
        kind = _kind(base.dtype)
        if not base.flags.aligned:
            raise Unavailable("native_layout", "misaligned load")
        return f"a{accesses.index(arg)}", kind

    body: List[str] = []
    for index, op in enumerate(region.ops):
        form = _FORMS.get(op.fn)
        if form is None:
            raise Unavailable("native_op",
                              getattr(op.fn, "__name__", str(op.fn)))
        kind, text = form
        if _kind(op.dtype) != kind:
            raise Unavailable("native_dtype",
                              f"{op.fn.__name__} -> {op.dtype}")
        terms = [operand(arg) for arg in op.args]
        values = [name if held == "d" else f"(double){name}"
                  for name, held in terms]
        if op.fn is np.clip:
            # Only the scalar-bounds loop: with array bounds NumPy takes
            # another one that differs on signed zeros, chosen by strides.
            if any(isinstance(bound, (Access, Temp)) for bound in op.args[1:]):
                raise Unavailable("native_op", "clip with array bounds")
            if "NAN" in values[1:]:
                values[0] = "NAN"  # a NaN bound fills the result with NaN
        if op.fn is _select:
            chosen = op.args[0]
            if isinstance(chosen, (bool, np.bool_)):
                values[0] = "1" if chosen else "0"
            elif terms[0][1] == "b":
                values[0] = terms[0][0]
            else:
                raise Unavailable("native_dtype", "where on a non-bool")
        body.append(f"const {_CTYPES[kind]} r{index} = "
                    f"{text.format(*values)};")
        registers.append((f"r{index}", kind))

    for buffer, _op in region.stores:
        if not buffer.flags.aligned or not buffer.flags.writeable:
            raise Unavailable("native_layout", "store target")
        if any(np.may_share_memory(buffer, base) for base in region.bases):
            # a store into an allocation the region reads: the loop nest
            # overwrites what a later element still reads
            raise Unavailable("native_layout", "a store aliases a base")
    results = [registers[op][0] for _buffer, op in region.stores]
    return accesses, results, body


def _corners(region: Region) -> List[Tuple[int, ...]]:
    """Per base, the lowest offset its accesses read on each axis.  Its
    pointer argument points there, so a grid read at one shift (a padded
    grid's interior) prints as the grid itself does."""
    corners: List = [None] * len(region.bases)
    for b, offset in region.accesses():
        corners[b] = offset if corners[b] is None \
            else tuple(map(min, corners[b], offset))
    return corners


def _emit(region: Region, accesses, results, body: List[str]) -> str:
    """The C text: outer loops, per-row pointer set-up, the row loop.

    ``p`` holds one pointer per base (at its :func:`_corners` entry), then
    one per store; ``s`` their byte strides, one per axis, in the same
    order.  An access is a row pointer of its base (one per distinct offset
    on the axes outside the row) at a literal column offset, both relative
    to the corner; a store is the same at offset zero, through a
    ``restrict`` pointer."""
    rank = len(region.shape)
    inner = rank - 1
    rows, reads, writes = _row_code(region, accesses, results)
    lines = [_PREAMBLE,
             "void region(char *const *p, const int64_t *s, "
             "const int64_t *n, int64_t lo, int64_t hi)", "{"]
    for axis in range(inner):
        first, last = ("lo", "hi") if axis == 0 else ("0", f"n[{axis}]")
        lines.append(f"    for (int64_t i{axis} = {first}; i{axis} < {last};"
                     f" ++i{axis})")
    first, last = ("lo", "hi") if rank == 1 else ("0", f"n[{inner}]")
    lines += ["    {"] + ["        " + text for text in rows]
    lines += [f"        for (int64_t j = {first}; j < {last}; ++j) {{"]
    lines += ["            " + text for text in reads + body + writes]
    lines += ["        }", "    }", "}", ""]
    return "\n".join(lines)


def _row_code(region: Region, accesses, results, wavefront=None):
    """``(rows, reads, writes)``: the C lines of one row of the region —
    once per row (pointers, broadcast scalars), per element before the
    node registers (loads) and after them (stores).

    With ``wavefront`` (a base index) they are the lines of ``steps``: that
    base is read through ``c<shift>_``, the padded row at leading offset
    ``shift``, at its absolute offsets on the other axes, and the store
    through ``d_``, the row being written."""
    rank = len(region.shape)
    inner = rank - 1
    rows: List[str] = []    # once per row: pointers, broadcast scalars
    reads: List[str] = []   # per element, before the node registers
    writes: List[str] = []  # per element, after them
    arrays = list(region.bases) + [buffer for buffer, _op in region.stores]
    origin = [0]  # index in ``s`` of each pointer's first stride
    for array in arrays:
        origin.append(origin[-1] + array.ndim)
    pointers: Dict[str, str] = {}  # row start expression -> its name

    def element(slot: int, offset, name: str, qualifier: str, row=None):
        """``(C expression of element j of p[slot] at offset, whether it
        is the same all along the row)``; declares the row pointer, named
        ``name``, once per distinct row.  ``row`` replaces the pointer and
        the leading axis."""
        array = arrays[slot]
        ctype = qualifier + _CTYPES[_kind(array.dtype)]
        lead, terms, column = _lead(array, rank), [f"p[{slot}]"], None
        if row is not None:
            terms = [row]
        for k, shift in enumerate(offset):
            if row is not None and k == 0:
                continue
            axis, stride = lead + k, f"s[{origin[slot] + k}]"
            if axis < rank and (array.strides[k] == 0 or
                                array.shape[k] == 1 < region.shape[axis]):
                continue  # a broadcast axis
            if axis == inner:
                column = shift
            elif axis < rank:
                terms.append(f"{_plus(f'i{axis}', shift)} * {stride}")
            elif shift:
                terms.append(f"{shift} * {stride}")  # a fixed index
        start = " + ".join(terms)
        if column is None:
            return f"*({ctype} *)({start})", True
        unit = array.strides[inner - lead] == array.itemsize
        if start not in pointers:
            pointers[start] = name
            if unit:
                restrict = "" if qualifier else "restrict "  # stores only
                rows.append(
                    f"{ctype} *{restrict}{name} = ({ctype} *)({start});")
            else:
                rows.append(f"{qualifier}char *{name} = {start};")
                rows.append(f"const int64_t {name}s = "
                            f"s[{origin[slot] + inner - lead}];")
        name = pointers[start]
        if unit:
            return (f"{name}[j + {column}]" if column else f"{name}[j]"), False
        return f"*({ctype} *)({name} + {_plus('j', column)} * {name}s)", False

    corners = _corners(region)
    for n, (b, offset) in enumerate(accesses):
        name = f"b{b}r{len(pointers)}_"
        if b == wavefront:
            value, per_row = element(b, offset, name, "const ",
                                     f"c{offset[0]}_")
        else:
            value, per_row = element(
                b, [shift - low for shift, low in zip(offset, corners[b])],
                name, "const ")
        ctype = _CTYPES[_KINDS[region.bases[b].dtype]]
        (rows if per_row else reads).append(f"const {ctype} a{n} = {value};")
    for index, register in enumerate(results):
        value = element(len(region.bases) + index, (0,) * rank,
                        f"o{index}_", "",
                        None if wavefront is None else "d_")[0]
        writes.append(f"{value} = {register};")
    return rows, reads, writes


_LEVEL = """\
/* Padded row i of level t >= 1 of a temporal block where a read leaves the
   grid: level t keeps its rows in a ring of g[2], the ring's row stride
   (the word after the clamp links) apart, and reads a leading halo row as
   a clamped row index or, under a constant pad, as the home's own (never
   rewritten) halo row, g[3] bytes a row. */
static const char *level_(const char *home, const char *w, const int64_t *g,
                          int64_t t, int64_t i, int64_t n0)
{
    i -= g[0];
    if (i < 0 || i >= n0) {
        if (!g[1])
            return home + (i + g[0]) * g[3];
        i = i < 0 ? 0 : n0 - 1;
    }
    return w + ((t - 1) * g[2] + i % g[2]) * g[7 + 8 * g[6]];
}

/* The ring slot of row x of a level whose rows go round ``rows`` slots, for
   x no more than one lap off [0, rows). */
static inline int64_t slot_(int64_t x, int64_t rows)
{
    return x < 0 ? x + rows : x >= rows ? x - rows : x;
}
"""

_HALO = """\
/* The clamp links of the pad chain over one padded row, in chain order:
   each copies the first and last interior element along its axis over the
   halo on either side, across its box on the other inner axis. */
static void halo_(char *row, const int64_t *g)
{
    for (const int64_t *k = g + 7; k < g + 7 + 8 * g[6]; k += 8)
        for (int64_t b = k[2]; b < k[3]; ++b) {
            char *line = row + b * k[1];
            const double first = *(const double *)(line + k[6] * k[0]);
            const double last = *(const double *)(line + k[7] * k[0]);
            for (int64_t q = 0; q < k[4]; ++q)
                *(double *)(line + q * k[0]) = first;
            for (int64_t q = 1; q <= k[5]; ++q)
                *(double *)(line + (k[7] + q) * k[0]) = last;
        }
}
"""

def _steps(region: Region, accesses, results, body: List[str],
           base: int) -> List[str]:
    """The lines of the ``steps`` text: ``T`` steps of the region as one
    wavefront down the leading axis (:class:`Wavefront` documents ``g``).

    Iteration ``k`` computes row ``i0 = k - (t - 1) * lag`` of each level
    ``t`` that has that row in the band, so a level reads rows its
    predecessor wrote in the same or an earlier iteration.  Levels below ``T`` write a
    padded row into their ring and then its inner halo; level ``T`` writes
    the store.  The wavefront base is ``p[base]`` at its first element
    (not its corner).

    A call computes the band ``[lo, hi)`` of the store: level ``t`` keeps
    to rows ``[lo - (T - t) * back, hi + (T - t) * lag)`` of the grid,
    ``back`` and ``lag`` the base's backward and forward leading reach, so
    two bands share no ring row and write disjoint rows of the store.

    The per-row control is hoisted: those levels are a range ``t..last``
    that closed forms give once per ``k`` (``i0 < n0`` bounds ``t`` below,
    ``i0 >= 0`` and the band's lower edge bound it above, and ``k``'s own
    bound is the band's upper edge), and ``r``, row ``i0``'s ring slot,
    steps back ``lag`` slots a level instead of a ``%`` per row.  Level 0 is the home, read
    at the row itself; a level above it reads its ring slots around ``r``
    unless a read leaves the grid (a row within ``back`` of the first or
    ``lag`` of the last), which ``level_`` resolves."""
    rank = len(region.shape)
    inner = rank - 1
    store = len(region.bases)
    rows, reads, writes = _row_code(region, accesses, results, base)
    leads = sorted({offset[0] for b, offset in accesses if b == base})
    lines = [_PREAMBLE, _LEVEL + "\n" + _HALO,
             "void steps(char *const *p, const int64_t *s, const int64_t *n, "
             "int64_t T, char *w, const int64_t *g, int64_t lo, int64_t hi)",
             "{",
             "    const int64_t n0 = n[0], lag = g[4], rows = g[2];",
             "    const int64_t stride = g[7 + 8 * g[6]];",
             f"    const int64_t back = g[0] > {leads[0]} ? g[0] - {leads[0]} : 0;",
             "    const int64_t first = lo - (T - 1) * back;",
             "    for (int64_t k = first > 0 ? first : 0; k < hi + (T - 1) * lag;"
             " ++k) {",
             "        int64_t t = k < n0 ? 1 : 1 + (k - n0 + lag) / lag;",
             "        int64_t last = lag + back ?"
             " (k - lo + lag + T * back) / (lag + back) : T;",
             "        if (lag && k / lag + 1 < last)",
             "            last = k / lag + 1;",
             "        if (last > T)",
             "            last = T;",
             "        int64_t i0 = k - (t - 1) * lag, r = i0 % rows;",
             "        for (; t <= last; ++t, i0 -= lag,"
             " r = r < lag ? r - lag + rows : r - lag) {"]
    row = [f"    char *const d_ = t == T ? p[{store}] + i0 * "
           f"s[{sum(array.ndim for array in region.bases)}]",
           "        : w + ((t - 1) * rows + r) * stride + g[5];",
           "    const char " + ", ".join(f"*c{lead}_" for lead in leads) + ";",
           "    if (t == 1) {"]
    row += [f"        c{lead}_ = p[{base}] + {_plus('i0', lead)} * g[3];"
            for lead in leads]
    row += ["    } else if (i0 < back || i0 + lag >= n0) {"]
    row += [f"        c{lead}_ = level_(p[{base}], w, g, t - 1, "
            f"{_plus('i0', lead)}, n0);" for lead in leads]
    row += ["    } else {",
            "        const char *const l_ = w + (t - 2) * rows * stride;"]
    row += [f"        c{lead}_ = l_ + slot_(r{f' + {lead}' if lead else ''}"
            " - g[0], rows) * stride;" for lead in leads]
    row += ["    }"]
    for axis in range(1, inner):
        row.append(f"    for (int64_t i{axis} = 0; i{axis} < n[{axis}];"
                   f" ++i{axis})")
    row += ["    {"] + ["        " + text for text in rows]
    if rank == 1:  # a row is one element: the leading index is the column
        row += ["        const int64_t j = i0;"]
        row += ["        " + text for text in reads + body + writes]
    else:
        row += [f"        for (int64_t j = 0; j < n[{inner}]; ++j) {{"]
        row += ["            " + text for text in reads + body + writes]
        row += ["        }"]
    row += ["    }", "    if (t < T)", "        halo_(d_ - g[5], g);"]
    lines += ["        " + text for text in row]
    lines += ["        }", "    }", "}", ""]
    return lines


# ---------------------------------------------------------------------------
# Compile and cache
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
#: ``(source, name) -> (library, function)``.
_LOADED: Dict[Tuple[str, str], Tuple[ctypes.CDLL, object]] = {}

_ARRAYS = [ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_int64),
           ctypes.POINTER(ctypes.c_int64)]
#: The argument types of each function a text defines: ``region(p, s, n,
#: lo, hi)`` and ``steps(p, s, n, T, w, g, lo, hi)``.
_SIGNATURES = {
    "region": _ARRAYS + [ctypes.c_int64, ctypes.c_int64],
    "steps": _ARRAYS + [ctypes.c_int64, ctypes.c_void_p,
                        ctypes.POINTER(ctypes.c_int64), ctypes.c_int64,
                        ctypes.c_int64],
}


def reset() -> None:
    """Forget this process's loaded kernels (tests of the disk cache)."""
    with _LOCK:
        _LOADED.clear()


def compiler() -> List[str]:
    """The compiler command (``$CC`` if set, else ``cc``), path resolved."""
    command = shlex.split(os.environ.get("CC") or "cc")
    path = shutil.which(command[0]) if command else None
    if path is None:
        raise Unavailable("native_compiler", "no C compiler on this host")
    return [path] + command[1:]


@functools.cache
def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return platform.machine() + platform.processor()


def _object_name(source: str, command: List[str]) -> str:
    info = os.stat(command[0])
    identity = "\0".join([source, *FLAGS, *command, str(info.st_size),
                          str(info.st_mtime_ns), _cpu_flags()])
    return hashlib.sha256(identity.encode()).hexdigest() + ".so"


def cache_dir():
    """The directory objects are kept in, or ``None`` for memory only: it
    must be a directory this user owns and nobody else can write."""
    home = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    for path in (os.path.join(home, "repro", "native"),
                 os.path.join(tempfile.gettempdir(),
                              f"repro-native-{os.getuid()}")):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            info = os.stat(path)
        except OSError:
            continue
        if stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid() \
                and not info.st_mode & 0o022 \
                and os.access(path, os.W_OK | os.X_OK):
            return path
    return None


def _run_compiler(command: List[str], source: str, target: str) -> None:
    """Compile ``source`` to ``target`` through a temporary name."""
    if _faults.ARMED and _faults.should_fail("native.compile_error"):
        raise Unavailable("native_compile", "fault injected")
    scratch = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
    started = perf_counter()
    try:
        done = subprocess.run(
            command + list(FLAGS) + ["-x", "c", "-", "-o", scratch, "-lm"],
            input=source.encode(), capture_output=True, check=False,
            timeout=120)
        if done.returncode != 0:
            raise Unavailable("native_compile",
                              done.stderr.decode(errors="replace")[-400:])
        os.replace(scratch, target)
    except (OSError, subprocess.TimeoutExpired) as error:
        raise Unavailable("native_compile", str(error)) from error
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
        _COMPILE_SECONDS.observe(perf_counter() - started)


def _load(path: str, name: str):
    if _faults.ARMED and _faults.should_fail("native.load_error"):
        raise OSError("fault injected: native.load_error")
    library = ctypes.CDLL(path)
    try:
        function = getattr(library, name)
    except AttributeError as error:
        # the object loads, so it stays: the text defines no such function
        raise Unavailable("native_load", f"no function {name!r}") from error
    function.argtypes = _SIGNATURES[name]
    function.restype = None
    return library, function


def kernel(source: str, name: str = "region"):
    """The loaded function ``name`` of ``source`` (``region`` of a
    :func:`lower` text, ``steps`` of a :func:`lower_steps` one): from this
    process's table, else the disk cache, else a compiler run."""
    command = compiler()  # first: a host without one has no native regions
    with _LOCK:
        found = _LOADED.get((source, name))
        if found is not None:
            _CACHE_TOTAL.inc(label="memory")
            return found[1]
        directory = cache_dir()
        result = "disk"
        with tempfile.TemporaryDirectory() if directory is None \
                else contextlib.nullcontext(directory) as where:
            path = os.path.join(where, _object_name(source, command))
            for attempt in (0, 1):
                if not os.path.exists(path):
                    _run_compiler(command, source, path)
                    result = "compiled"
                try:
                    found = _load(path, name)
                    break
                except OSError as error:
                    # A truncated or foreign object: drop it, rebuild once.
                    os.unlink(path)
                    if attempt:
                        raise Unavailable("native_load", str(error)) from error
        _LOADED[(source, name)] = found
        _CACHE_TOTAL.inc(label=result)
        return found[1]


# ---------------------------------------------------------------------------
# A region bound to its arrays
# ---------------------------------------------------------------------------

class NativeRegion:
    """One compiled region bound to the arrays of one tape.

    Calling it runs the loop nest once over the whole region; it has the
    micro-op calling convention (``fn(*operands, out=out)`` with no
    operands) so :func:`~repro.backend.ufunc_trace.replay` executes it.
    The arrays are held here for as long as their addresses are.
    ``nbytes`` counts each base once: the smaller of the whole base and
    what its accesses view (five shifted reads of one padded grid move one
    grid), plus every stored buffer.
    """

    __slots__ = ("source", "nbytes", "region", "_function", "_arguments")

    def __init__(self, source: str, function, region: Region) -> None:
        whole = [(0, extent) for extent in region.shape]
        viewed: Counter = Counter()
        for b, offset in region.accesses():
            viewed[b] += _tile_view(region.bases[b], whole, offset).nbytes
        self.source = source
        self.nbytes = sum(buffer.nbytes for buffer, _op in region.stores) + sum(
            min(base.nbytes, viewed[b]) for b, base in enumerate(region.bases))
        self.region = region  # holds the arrays as long as their addresses
        self._function = function
        self._arguments = _arguments(region, _corners(region)) + (
            0, int(region.shape[0]))

    def __call__(self, out=None) -> None:
        self._function(*self._arguments)


def _arguments(region: Region, corners, stores=None) -> Tuple:
    """``(p, s, n)`` of a region: each base's address at its corner, then
    each store's (``stores`` in place of the region's); their strides; the
    region shape."""
    arrays = list(region.bases) + (
        stores or [buffer for buffer, _op in region.stores])
    corners = list(corners) + [()] * (len(arrays) - len(corners))
    strides = [step for array in arrays for step in array.strides]
    return (
        (ctypes.c_void_p * len(arrays))(*[
            array.ctypes.data + sum(low * stride for low, stride
                                    in zip(corner, array.strides))
            for array, corner in zip(arrays, corners)]),
        (ctypes.c_int64 * len(strides))(*strides),
        (ctypes.c_int64 * len(region.shape))(*region.shape),
    )


def build(region: Region) -> NativeRegion:
    """Lower, compile and bind one verified region, or raise
    :class:`Unavailable` with the reason it stays on ufunc tiles."""
    source = lower(region)
    return NativeRegion(source, kernel(source), region)


# ---------------------------------------------------------------------------
# Temporal blocks: T steps of a carried region as one wavefront
# ---------------------------------------------------------------------------

#: The most steps one block runs.
MAX_BLOCK_STEPS = 16

#: Bytes one band's wavefront ring may span: half of one core's 2 MiB L2
#: on the recording box (an AVX-512 Xeon, 48 KiB L1d per core), so a ring
#: and the rows it streams share that cache.  Hotspot2D's ring at 1024²
#: for T = 16 is 0.5 MB.
RING_BUDGET_BYTES = 1 << 20

#: A cache line: ring rows start on one, and span an odd count of them.
LINE_BYTES = 64


class Wavefront(NamedTuple):
    """How ``steps`` runs one region over the pad chain of its carried
    grid: ``steps`` (T) levels over the wavefront ``base``, levels 1..T-1
    in a flat float64 ``ring`` of shape ``(words,)``: ``(T - 1) * rows``
    padded rows, each :func:`ring_stride` bytes from the next, and one
    cache line of slack, so :class:`NativeBlock` can start every row's
    interior on a line.

    ``geometry`` is the kernel's ``g``: the chain's left pad on the leading
    axis, whether that pad clamps (else it is constant), the ring's rows
    per level, the padded row's bytes, the lag (rows a level trails the
    one before it), the bytes from a padded row to its interior, the count
    of clamp links on the inner axes, then per link in chain order: axis
    stride, other inner axis' stride, that axis' box (start, stop), left
    and right pads, first and last interior index; last, the ring's row
    stride (``g[7 + 8 * g[6]]``)."""

    base: int
    steps: int
    ring: Tuple[int, ...]
    geometry: Tuple[int, ...]


def _grid_store(region: Region) -> np.ndarray:
    """The region's one float64 store, of rank 1 to 3, or
    ``temporal_layout``: the one shape of region either block kind runs."""
    if len(region.stores) != 1 or not 1 <= len(region.shape) <= 3 \
            or region.stores[0][0].dtype != np.float64:
        raise Unavailable("temporal_layout", "not one float64 grid store")
    return region.stores[0][0]


def _pads(shape, home: np.ndarray, chain):
    """``(lefts, leading right pad, whether the leading axis clamps, inner
    clamp links)`` of the padded grid ``home`` of a ``shape`` interior whose
    pad chain is ``chain`` (``(axis, left, right, halo runs, constant)`` per
    link).

    Every link must be a clamp (its runs copy the first or last interior
    element, one halo cell each) or a constant, one per axis
    (``temporal_boundary``), and ``home`` the chain's C-contiguous grid
    (``temporal_layout``).  A leading axis with no pad counts as clamping
    (over no halo rows).  The links are the ``halo_`` words, eight per
    inner clamp in chain order (:class:`Wavefront` lists them)."""
    rank = len(shape)
    links: Dict[int, Tuple[int, int, int, bool]] = {}  # axis -> link
    for position, (axis, left, right, runs, value) in enumerate(chain):
        n = shape[axis] if axis < rank else 0
        clamp = value is None and tuple(runs) == tuple(
            (d, 0, 1) for d in range(left)) + tuple(
            (left + n + d, n - 1, 1) for d in range(right))
        if axis in links or not (clamp or value is not None):
            raise Unavailable("temporal_boundary", f"axis {axis} of {chain}")
        links[axis] = (position, left, right, clamp)
    lefts = [links[axis][1] if axis in links else 0 for axis in range(rank)]
    padded = tuple(n + sum(links[axis][1:3]) if axis in links else n
                   for axis, n in enumerate(shape))
    if home.shape != padded or not home.flags.c_contiguous:
        raise Unavailable("temporal_layout", "the base is not the chain's grid")
    clamps: List[int] = []
    for axis in sorted(links, key=lambda axis: links[axis][0]):
        position, left, right, clamp = links[axis]
        if axis == 0 or not clamp:
            continue  # the leading axis clamps row indices; constants stay
        box, stride = (0, 1), 0
        for other in range(1, rank):
            if other != axis:
                earlier = other in links and links[other][0] < position
                box = (0, padded[other]) if earlier \
                    else (lefts[other], lefts[other] + shape[other])
                stride = home.strides[other]
        clamps += [home.strides[axis], stride, *box, left, right, left,
                   left + shape[axis] - 1]
    right = links[0][2] if 0 in links else 0
    return lefts, right, 0 not in links or links[0][3], clamps


def _interior(home: np.ndarray, lefts) -> int:
    """Bytes from a padded row of ``home`` to its interior."""
    return sum(left * stride for left, stride
               in zip(lefts[1:], home.strides[1:]))


def wavefront(region: Region, base: int, chain,
              budget: int) -> Optional[Wavefront]:
    """The :class:`Wavefront` of ``region`` over ``region.bases[base]``,
    the padded grid of a home whose pad chain is ``chain`` (:func:`_pads`)
    and whose interior the region's single store writes on the next step.

    T is the largest value up to :data:`MAX_BLOCK_STEPS` whose ring —
    ``T - 1`` levels of ``2r + 2`` rows :func:`ring_stride` bytes apart,
    ``r`` the base's leading-axis radius — fits ``budget`` bytes
    (:data:`RING_BUDGET_BYTES` in a plan); anything but one float64 store
    over a float64 base of rank 1 to 3 raises ``temporal_layout``.  A
    two-step ring that does not fit is ``None``: the region may still run
    barrier blocks."""
    home, shape = region.bases[base], region.shape
    _grid_store(region)
    if home.dtype != np.float64:
        raise Unavailable("temporal_layout", "not one float64 grid store")
    lefts, _right, clamps_rows, clamps = _pads(shape, home, chain)
    leads = [offset[0] - lefts[0] for b, offset in region.accesses()
             if b == base]
    rows = 2 * max(abs(lead) for lead in leads) + 2
    stride = ring_stride(home.strides[0])
    steps = min(MAX_BLOCK_STEPS, 1 + budget // (rows * stride))
    if steps < 2:
        return None
    geometry = (lefts[0], int(clamps_rows), rows, home.strides[0],
                max(0, max(leads)), _interior(home, lefts),
                len(clamps) // 8, *clamps, stride)
    words = ((steps - 1) * rows * stride + LINE_BYTES) // 8
    return Wavefront(base, steps, (words,), geometry)


def ring_stride(row_bytes: int) -> int:
    """The bytes from one ring row to the next for padded rows of
    ``row_bytes``: whole cache lines, and an odd count of them, so no two
    rows of a level fall on the same 4 KiB alias of the L1."""
    lines = -(-row_bytes // LINE_BYTES)
    return (lines + (lines % 2 == 0)) * LINE_BYTES


class NativeBlock:
    """One region's :func:`lower_steps` text, compiled and bound to one
    ring per band: ``block(T)`` runs ``T`` steps, at most ``wave.steps``
    (a ring holds any fewer levels), from the wavefront base's home into
    the region's store (or ``out``), interior only — its halo is the
    caller's to refresh.  Each band's ring starts within its buffer's
    slack line where every row's interior starts on a cache line; the
    constant halo cells of its rows are written here, once.

    The leading axis is split into as many equal row bands as there are
    rings (at most one per row).  One band is one direct call; more run on
    the helper pool (:func:`repro.helpers.pool`), band 0 on the caller, and
    the call returns, or raises the first band's error, only once every
    band has finished (``ctypes`` releases the GIL for each)."""

    __slots__ = ("source", "steps", "bands", "_function", "_held", "_p",
                 "_s", "_n", "_g")

    def __init__(self, compiled: NativeRegion, wave: Wavefront,
                 rings: Sequence[np.ndarray], out=None) -> None:
        region = compiled.region
        home = region.bases[wave.base]
        store = region.stores[0][0] if out is None else out
        n0 = region.shape[0]
        if not 1 <= len(rings) <= n0 or store.shape != region.shape \
                or store.strides != home.strides or any(
                    ring.shape != wave.ring or ring.dtype != np.float64
                    or not ring.flags.c_contiguous for ring in rings):
            raise Unavailable("temporal_layout", "ring or store geometry")
        self.source = lower_steps(region, wave.base)
        self.steps = wave.steps
        self._function = kernel(self.source, "steps")
        g, stride = wave.geometry, wave.geometry[-1]
        starts = []
        for ring in rings:
            start = -(ring.ctypes.data + g[5]) % LINE_BYTES
            levels = np.ndarray((wave.steps - 1, g[2]) + home.shape[1:],
                                np.float64, ring, start,
                                (g[2] * stride, stride) + home.strides[1:])
            np.copyto(levels, home[g[0]])
            starts.append(ring.ctypes.data + start)
        corners = _corners(region)
        corners[wave.base] = ()  # ``steps`` addresses rows from the grid's start
        self._held = (region, store, list(rings))  # as long as their addresses
        self._p, self._s, self._n = _arguments(region, corners, [store])
        self._g = (ctypes.c_int64 * len(g))(*g)
        rows = [n0 * band // len(rings) for band in range(len(rings) + 1)]
        #: ``(ring address, lo, hi)`` of each band.
        self.bands = list(zip(starts, rows, rows[1:]))

    def __call__(self, steps: int) -> None:
        if not 1 <= steps <= self.steps:
            raise ValueError(f"a block runs 1 to {self.steps} steps, not {steps}")
        if len(self.bands) == 1:
            self._band(steps, 0)
        else:
            pool().run_parts([(self._band, (steps, band))
                              for band in range(len(self.bands))])

    def _band(self, steps: int, band: int) -> None:
        ring, lo, hi = self.bands[band]
        self._function(self._p, self._s, self._n, steps, ring, self._g, lo, hi)


# ---------------------------------------------------------------------------
# Barrier blocks: T per-step bodies per call, bands meeting after each step
# ---------------------------------------------------------------------------

#: Cell updates each band of a barrier block must have to itself per
#: block before a plan left at one worker bands it over the cores: 2^20
#: updates of Acoustic's body are ≈1.5 ms, so a wake-up on the helper pool
#: (:mod:`repro.helpers`) stays under a tenth of a band's work.
BARRIER_BAND_CELLS = 1 << 20

#: One banded barrier block on the process-wide pool at a time: two groups
#: of spinning bands could otherwise each hold a pool thread the other
#: waits for.
_BARRIER_LOCK = threading.Lock()

#: The word of a block's sync array that holds the abort flag (``w + 8``
#: in ``arrive_``); arrivals are word 0, a cache line away.
_ABORT = 8

_BARRIER_HELPERS = """\
#include <sched.h>
#include <string.h>

/* The clamp halo of the store rows [lo, hi) of a padded grid: the inner
   links of each row, then the leading halo rows beside the grid's first
   or last row when the band holds it. */
static void rows_(char *store, const int64_t *g, int64_t lo, int64_t hi,
                  int64_t n0)
{
    char *const row = store - g[5];
    for (int64_t i = lo; i < hi; ++i)
        halo_(row + i * g[3], g);
    if (!g[1])
        return;
    if (lo == 0)
        for (int64_t d = 1; d <= g[0]; ++d)
            memcpy(row - d * g[3], row, g[3]);
    if (hi == n0)
        for (int64_t d = 1; d <= g[2]; ++d)
            memcpy(row + (n0 - 1 + d) * g[3], row + (n0 - 1) * g[3], g[3]);
}

/* Arrive at the barrier and wait until ``goal`` arrivals are in, or a band
   has aborted (1). */
static int arrive_(int64_t *w, int64_t goal)
{
    __atomic_add_fetch(w, 1, __ATOMIC_ACQ_REL);
    for (int64_t spin = 0;; ++spin) {
        if (__atomic_load_n(w + 8, __ATOMIC_ACQUIRE))
            return 1;
        if (__atomic_load_n(w, __ATOMIC_ACQUIRE) >= goal)
            return 0;
        if (spin >= 4096)
            sched_yield();
    }
}
"""


def _barrier_steps(region: Region) -> str:
    """The ``steps`` function of a barrier text: step ``t`` runs ``region``
    on the ``t``-th pointer and stride tables, then (all but the last)
    refreshes the clamp halo of the rows it stored and meets the other
    bands (:class:`BarrierBlock` documents ``w`` and ``g``)."""
    arrays = list(region.bases) + [buffer for buffer, _op in region.stores]
    count, strides = len(arrays), sum(array.ndim for array in arrays)
    return "\n".join([
        _HALO + _BARRIER_HELPERS,
        "void steps(char *const *p, const int64_t *s, const int64_t *n, "
        "int64_t T, char *w, const int64_t *g, int64_t lo, int64_t hi)",
        "{",
        "    for (int64_t t = 0;; ++t) {",
        f"        region(p + t * {count}, s + t * {strides}, n, lo, hi);",
        "        if (t + 1 == T)",
        "            return;",
        f"        rows_(p[t * {count} + {len(region.bases)}], g, lo, hi, n[0]);",
        "        if (arrive_((int64_t *)w, (t + 1) * g[4]))",
        "            return;",
        "    }",
        "}",
        ""])


def barrier_geometry(region: Region, home, chain, bands: int) -> Tuple[int, ...]:
    """The ``g`` of a barrier block over ``bands`` bands of ``region``,
    whose one float64 store is the interior of ``home`` padded by ``chain``
    (``None``: a plain grid, no halo): the leading left pad, whether it
    clamps, the leading right pad, the padded row's bytes, the band count,
    the bytes from a padded row to its interior, the count of inner clamp
    links, then the links (as :class:`Wavefront`'s)."""
    _grid_store(region)
    if home is None:
        return (0, 0, 0, 0, bands, 0, 0)
    lefts, right, clamps_rows, clamps = _pads(region.shape, home, chain)
    return (lefts[0], int(clamps_rows), right, home.strides[0], bands,
            _interior(home, lefts), len(clamps) // 8, *clamps)


def barrier_bands(shape: Sequence[int], workers: int, cores: int) -> int:
    """The band count of a barrier block over a region of ``shape``: a
    resolved ``workers`` count of two or more, else one band per each of
    ``cores`` when each gets :data:`BARRIER_BAND_CELLS` updates of a full
    block; never more than the leading extent, nor than
    :data:`~repro.helpers.MAX_REPLAY_WORKERS`, so the pool's threads
    and the caller hold every band at once (a band left queued would keep
    the others spinning at the first barrier)."""
    if workers < 2:
        cells = MAX_BLOCK_STEPS * int(np.prod(shape, dtype=np.int64))
        workers = cores if cells // max(cores, 1) >= BARRIER_BAND_CELLS else 1
    return max(1, min(workers, MAX_REPLAY_WORKERS, shape[0]))


class BarrierBlock:
    """T steps of one region text, bound to the tapes per-step replay would
    run them with: step ``t`` reads and writes through ``compiled[t]``'s
    pointer and stride tables, so a block leaves every buffer as T replays
    of those tapes do (the store's clamp halo included, written in C after
    every step but the last; the caller refreshes the last).

    Bands meet at a spin barrier after each step (``w``: arrivals, and an
    abort flag the barrier polls), exchanging rows through the real grids,
    so a barrier block needs no ring and recomputes nothing.  One band is
    one direct call.  More run on the helper pool
    (:func:`repro.helpers.pool`), band 0 on the caller, one
    banded block in the process at a time; a band that raises before or
    inside its call sets the abort flag, and the call returns, or raises
    the first band's error, only once every band has returned."""

    __slots__ = ("source", "steps", "bands", "_function", "_held", "_p",
                 "_s", "_n", "_g", "_sync", "_w")

    def __init__(self, compiled: Sequence[NativeRegion],
                 geometry: Sequence[int]) -> None:
        tables = [native._arguments for native in compiled]
        if len({(native.source, len(p), len(s), tuple(n)) for native,
                (p, s, n, *_band) in zip(compiled, tables)}) != 1:
            raise Unavailable("temporal_layout", "the steps differ in layout")
        first = compiled[0].region
        self.source = compiled[0].source + _barrier_steps(first)
        self.steps = len(compiled)
        self._function = kernel(self.source, "steps")
        pointers = [address for p, *_rest in tables for address in p]
        strides = [stride for _p, s, *_rest in tables for stride in s]
        self._held = list(compiled)  # as long as their addresses
        self._p = (ctypes.c_void_p * len(pointers))(*pointers)
        self._s = (ctypes.c_int64 * len(strides))(*strides)
        self._n = tables[0][2]
        self._g = (ctypes.c_int64 * len(geometry))(*geometry)
        self._sync = np.zeros(16, np.int64)
        self._w = self._sync.ctypes.data
        bands, n0 = geometry[4], first.shape[0]
        rows = [n0 * band // bands for band in range(bands + 1)]
        #: ``(lo, hi)`` of each band.
        self.bands = list(zip(rows, rows[1:]))
        threads = pool().max_threads
        if bands > 1 + threads:
            # a band with no thread would never reach the first barrier
            raise Unavailable("temporal_layout",
                              f"{bands} bands over {threads} pool threads")

    def __call__(self, steps: int) -> None:
        if not 1 <= steps <= self.steps:
            raise ValueError(f"a block runs 1 to {self.steps} steps, not {steps}")
        self._sync.fill(0)
        if len(self.bands) == 1:
            self._band(steps, 0)
            return
        with _BARRIER_LOCK:
            pool().run_parts([(self._enter, (steps, band))
                              for band in range(len(self.bands))])

    def _enter(self, steps: int, band: int) -> None:
        """One band on the pool: its error, raised before or inside the
        call, sets the abort flag so no other band waits for it."""
        try:
            self._band(steps, band)
        except BaseException:
            self._sync[_ABORT] = 1
            raise

    def _band(self, steps: int, band: int) -> None:
        if _faults.ARMED and _faults.should_fail("replay.chunk_error"):
            raise ExecutionError("fault injected: replay.chunk_error")
        lo, hi = self.bands[band]
        self._function(self._p, self._s, self._n, steps, self._w, self._g,
                       lo, hi)


__all__ = ["BARRIER_BAND_CELLS", "BarrierBlock", "FLAGS", "LINE_BYTES",
           "MAX_BLOCK_STEPS", "NativeBlock", "NativeRegion",
           "RING_BUDGET_BYTES", "Unavailable", "Wavefront", "barrier_bands",
           "barrier_geometry", "build", "cache_dir", "compiler", "kernel",
           "lower", "lower_steps", "reset", "ring_stride", "wavefront"]
