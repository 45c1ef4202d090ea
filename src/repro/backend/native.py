"""Native regions: one C loop nest per fused region, built by the system
C compiler.

The tape optimizer (:mod:`repro.backend.fuse`) verifies a run of traced
schedules as one :class:`~repro.backend.fuse.Region`.  :func:`lower`
prints that region, and nothing else, as one C function with a loop nest
over the region shape, every op a register, so the stencil is computed in
one pass with no float64 temporaries; :func:`build` compiles and binds it.

**Lowering.**  A load is a pointer plus one byte stride per region axis
(0 on a broadcast axis); whether its innermost stride is the item size,
zero or something else is written into the source, so the row loop
vectorises, while pointers, strides and extents are arguments — every tape
of a plan and every grid size of an app share one source text.  A temp is
the register of the op that computed it.  Scalars are ``float.hex()``
literals.  Each store is the register of its last writer.

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

**Cache.**  Kernels are memoised per process by source text and kept on
disk under ``${XDG_CACHE_HOME:-~/.cache}/repro/native/`` (a directory
owned by the caller and writable by nobody else, else a per-uid directory
under the system temp directory, else memory only).  ``-march=native``
makes an object CPU-specific, so the file name is the sha256 of source,
flags, compiler path + size + mtime and the ``/proc/cpuinfo`` flags line.
Objects are written to a temporary name and renamed into place; one that
fails to load is unlinked and rebuilt once.

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
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import faults as _faults
from ..telemetry import registry as _telemetry
from .fuse import Load, Region, Temp
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


def _row_strides(array: np.ndarray, rank: int) -> Tuple[int, ...]:
    """Byte stride per region axis; 0 where ``array`` broadcasts."""
    lead = rank - array.ndim
    return (0,) * lead + tuple(
        0 if extent == 1 else stride
        for extent, stride in zip(array.shape, array.strides))


def lower(region: Region):
    """``(source, loads, stores)`` for a verified region: the C text and
    the arrays behind its pointer arguments, in argument order."""
    rank = len(region.shape)
    if rank < 1 or 0 in region.shape:
        raise Unavailable("native_layout", "rank-0 or empty region")
    registers: List[Tuple[str, str]] = []  # (name, kind) per op

    def operand(arg) -> Tuple[str, str]:
        """``(C expression, kind)`` of one op argument."""
        if isinstance(arg, Temp):
            return registers[arg.op]
        if not isinstance(arg, Load):
            return _literal(arg), "d"
        array = region.loads[arg.index]
        kind = _kind(array.dtype)
        if not array.flags.aligned:
            raise Unavailable("native_layout", "misaligned load")
        return f"a{arg.index}", kind

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
            if any(isinstance(bound, (Load, Temp)) for bound in op.args[1:]):
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

    loads = region.loads
    stores = [buffer for buffer, _op in region.stores]
    for buffer in stores:
        if not buffer.flags.aligned or not buffer.flags.writeable:
            raise Unavailable("native_layout", "store target")
        if any(buffer is array for array in loads):
            # a stored buffer read before its write: last sweep's contents,
            # which the loop nest overwrites as it goes
            raise Unavailable("native_layout", "a store aliases a load")
    results = [registers[op] for _buffer, op in region.stores]
    return _emit(rank, loads, stores, results, body), loads, stores


def _emit(rank: int, loads, stores, results, body: List[str]) -> str:
    """The C text: outer loops, per-row pointer set-up, the row loop.

    Pointer ``k`` is ``p[k]`` with byte strides ``s[k * rank + axis]``:
    the loads, then the stores."""
    inner = rank - 1
    rows: List[str] = []    # once per row: pointers, broadcast scalars
    reads: List[str] = []   # per element, before the node registers
    writes: List[str] = []  # per element, after them

    def row_access(slot: int, name: str, kind: str, step: int,
                   qualifier: str):
        """Declare pointer ``slot`` at the current row; returns the C
        lvalue of its element ``j`` (``None``: a row-invariant scalar)."""
        ctype = qualifier + _CTYPES[kind]
        start = f"p[{slot}]" + "".join(
            f" + i{axis} * s[{slot * rank + axis}]" for axis in range(inner))
        if step == 0:
            rows.append(f"{ctype} {name} = *({ctype} *)({start});")
            return None
        if step == (8 if kind == "d" else 1):
            restrict = "" if qualifier else "restrict "
            rows.append(f"{ctype} *{restrict}{name}_ = ({ctype} *)({start});")
            return f"{name}_[j]"
        rows.append(f"{qualifier}char *{name}_ = {start};")
        rows.append(f"const int64_t {name}s = s[{slot * rank + inner}];")
        return f"*({ctype} *)({name}_ + j * {name}s)"

    for slot, array in enumerate(loads):
        kind = _KINDS[array.dtype]
        access = row_access(slot, f"a{slot}", kind,
                            _row_strides(array, rank)[inner], "const ")
        if access is not None:
            reads.append(f"const {_CTYPES[kind]} a{slot} = {access};")
    for index, (array, (register, kind)) in enumerate(zip(stores, results)):
        access = row_access(len(loads) + index, f"o{index}", kind,
                            array.strides[inner] or array.itemsize, "")
        writes.append(f"{access} = {register};")

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


# ---------------------------------------------------------------------------
# Compile and cache
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
_LOADED: Dict[str, Tuple[ctypes.CDLL, object]] = {}  # source -> (lib, fn)


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


def _load(path: str):
    if _faults.ARMED and _faults.should_fail("native.load_error"):
        raise OSError("fault injected: native.load_error")
    library = ctypes.CDLL(path)
    function = library.region
    function.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                         ctypes.POINTER(ctypes.c_int64),
                         ctypes.POINTER(ctypes.c_int64),
                         ctypes.c_int64, ctypes.c_int64]
    function.restype = None
    return library, function


def kernel(source: str):
    """The loaded ``region`` function for ``source``: from this process's
    table, else the disk cache, else a compiler run."""
    command = compiler()  # first: a host without one has no native regions
    with _LOCK:
        found = _LOADED.get(source)
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
                    found = _load(path)
                    break
                except (OSError, AttributeError) as error:
                    # A truncated or foreign object: drop it, rebuild once.
                    os.unlink(path)
                    if attempt:
                        raise Unavailable("native_load", str(error)) from error
        _LOADED[source] = found
        _CACHE_TOTAL.inc(label=result)
        return found[1]


# ---------------------------------------------------------------------------
# A region bound to its arrays
# ---------------------------------------------------------------------------

def _base_nbytes(arrays: Sequence[np.ndarray]) -> int:
    """Bytes behind ``arrays`` with each underlying allocation counted once
    (five shifted views of one padded grid are one grid)."""
    groups: Dict[int, List[int]] = {}
    for array in arrays:
        base = link = array
        while link is not None:  # ``as_strided`` views hang off a non-array
            if isinstance(link, np.ndarray):
                base = link
            link = getattr(link, "base", None)
        entry = groups.setdefault(id(base), [base.nbytes, 0])
        entry[1] += array.nbytes
    return sum(min(whole, viewed) for whole, viewed in groups.values())


class NativeRegion:
    """One compiled region bound to the arrays of one tape.

    Calling it runs the loop nest once over the whole region; it has the
    micro-op calling convention (``fn(*operands, out=out)`` with no
    operands) so :func:`~repro.backend.ufunc_trace.replay` executes it.
    The arrays are held here for as long as their addresses are.
    """

    __slots__ = ("source", "nbytes", "_function", "_arrays", "_arguments")

    def __init__(self, source: str, function, loads, stores,
                 region_shape: Sequence[int]) -> None:
        rank = len(region_shape)
        self.source = source
        self.nbytes = _base_nbytes(loads) + sum(b.nbytes for b in stores)
        self._function = function
        self._arrays = list(loads) + list(stores)
        strides = [stride for array in loads
                   for stride in _row_strides(array, rank)]
        strides += [stride for array in stores for stride in array.strides]
        self._arguments = (
            (ctypes.c_void_p * len(self._arrays))(
                *[array.ctypes.data for array in self._arrays]),
            (ctypes.c_int64 * len(strides))(*strides),
            (ctypes.c_int64 * rank)(*region_shape),
            0, int(region_shape[0]),
        )

    def __call__(self, out=None) -> None:
        self._function(*self._arguments)


def build(region: Region) -> NativeRegion:
    """Lower, compile and bind one verified region, or raise
    :class:`Unavailable` with the reason it stays on ufunc tiles."""
    source, loads, stores = lower(region)
    return NativeRegion(source, kernel(source), loads, stores, region.shape)


__all__ = ["FLAGS", "NativeRegion", "Unavailable", "build", "cache_dir",
           "compiler", "kernel", "lower", "reset"]
