"""The generated OpenCL runs, and computes what the NumPy backend computes.

A kernel becomes plain C99 the way pocl runs OpenCL work-groups on a CPU,
with no threads.  Behind :data:`~tests.codegen.test_kernels_parse_as_c.PRELUDE`:

* the float64 lane: ``float`` becomes ``double`` and the ``f`` literal
  suffixes go, so the kernel computes in the NumPy backend's precision;
* ``get_*_id`` and ``get_local_size`` read file-scope arrays that the driver
  sets for each work-item, and ``__local`` arrays move to file scope;
* the kernel is split at its one ``barrier`` into two phase functions, and
  each work-group runs every local id through phase 0, then through phase 1
  (the generator emitting a second barrier fails the harness).

Every buffer sits between NaN margins and local memory is NaN at the start of
each work-group, so a read outside an input, a write outside the output or a
read of local memory no work-item wrote shows up as a mismatch.  Each output
is compared with :meth:`NumpyBackend.run` of the high-level program, bit for
bit, on a grid the kernel's tiles divide
(:func:`repro.engine.worker.validation_shape`).

Tier-1 runs the :func:`sampled_variants` set plus a few hand-written
programs; CI runs every golden kernel::

    python -c "from tests.codegen.test_kernels_run import main; main()"
"""

import ctypes
import functools
import re
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS
from repro.backend import native
from repro.backend.base import NumpyBackend
from repro.codegen import OpenCLKernel, generate_kernel, generator
from repro.core import builders as L
from repro.core.ir import FunCall, Lambda
from repro.core.primitives.algorithmic import Join, Map, Reduce
from repro.core.primitives.stencil import Pad, Slide
from repro.core.types import Float, array
from repro.core.userfuns import add
from repro.engine.worker import validation_shape
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy
from repro.views.view import ViewIndexed, layout_view
from tests.codegen.test_kernels_parse_as_c import PRELUDE, sampled_variants

RUN_PRELUDE = PRELUDE + """\
#define inline static inline
static int wi_global[3], wi_group[3], wi_local[3], wi_local_size[3];
#define get_global_id(dim) wi_global[dim]
#define get_group_id(dim) wi_group[dim]
#define get_local_id(dim) wi_local[dim]
#define get_local_size(dim) wi_local_size[dim]

/* One kernel: its phases (phase(b, p) runs phase p of the current work-item)
   and its ND-range, padded to three dimensions. */
typedef struct {
    void (*phase)(double **b, int p);
    int phases;
    int global_size[3], local_size[3];
} kernel_t;

/* Every local id of work-group g through phases first..last in turn. */
static void each_item(const kernel_t *k, double **b, const int *g, int first, int last) {
    int l[3], d, p;
    for (l[2] = 0; l[2] < k->local_size[2]; l[2]++)
    for (l[1] = 0; l[1] < k->local_size[1]; l[1]++)
    for (l[0] = 0; l[0] < k->local_size[0]; l[0]++) {
        for (d = 0; d < 3; d++) {
            wi_group[d] = g[d];
            wi_local[d] = l[d];
            wi_global[d] = g[d] * k->local_size[d] + l[d];
            wi_local_size[d] = k->local_size[d];
        }
        for (p = first; p <= last; p++)
            k->phase(b, p);
    }
}

/* Each work-group in turn; with the barrier every local id finishes a phase
   before any starts the next, without it each work-item runs all of them. */
static void run_kernel(const kernel_t *k, double **b, int barrier,
                       double **locals, const int *counts, int nlocals) {
    int g[3], i, j, p;
    for (g[2] = 0; g[2] < k->global_size[2] / k->local_size[2]; g[2]++)
    for (g[1] = 0; g[1] < k->global_size[1] / k->local_size[1]; g[1]++)
    for (g[0] = 0; g[0] < k->global_size[0] / k->local_size[0]; g[0]++) {
        for (i = 0; i < nlocals; i++)
            for (j = 0; j < counts[i]; j++)
                locals[i][j] = __builtin_nan("");
        if (!barrier)
            each_item(k, b, g, 0, k->phases - 1);
        else
            for (p = 0; p < k->phases; p++)
                each_item(k, b, g, p, p);
    }
}
"""

FLAGS = ("-std=c99", "-O1", "-ffp-contract=off", "-fno-math-errno", "-fPIC")
#: compiler processes building one library
JOBS = 2

_ID = re.compile(r"\s*const int \w+ = get_\w+_id\(\d\);")
_LOCAL = re.compile(r"\s*__local double (\w+)\[(\d+)\];")
_F_SUFFIX = re.compile(r"\b(\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)f\b")


class Run(NamedTuple):
    """One kernel to run, and the high-level program and inputs it must match."""

    label: str
    kernel: OpenCLKernel
    program: Lambda
    inputs: Sequence[np.ndarray]


def c_translation(kernel: OpenCLKernel, index: int) -> str:
    """``kernel`` as C exporting ``run_<index>(buffers, barrier)``; its other
    file-scope names get the prefix ``k<index>_``, so many kernels share one
    translation unit."""
    text = re.sub(r"\bfloat\b", "double", kernel.source)
    text = _F_SUFFIX.sub(r"\1", text)
    for name in re.findall(r"^inline double (\w+)\(", text, re.M) + ["tile_local_\\d+"]:
        text = re.sub(rf"\b({name})\b", rf"k{index}_\1", text)
    head, signature = text.split("__kernel void ", 1)
    _, signature = signature.split("(", 1)
    params, body = signature.split(") {\n", 1)
    lines = body.rstrip().removesuffix("}").splitlines()
    locals_ = [match for match in map(_LOCAL.match, lines) if match]
    lines = [line for line in lines if not _LOCAL.match(line)]
    barriers = [i for i, line in enumerate(lines) if line.strip().startswith("barrier(")]
    assert len(barriers) <= 1, "the generator emitted a second barrier"
    phases = [lines]
    if barriers:
        split = barriers[0]
        ids = [line for line in lines[:split] if _ID.match(line)]
        phases = [lines[:split], ids + lines[split + 1:]]

    prefix = f"k{index}_"
    arguments = ", ".join(f"b[{i}]" for i in range(len(kernel.buffers)))
    sizes = [list(size or ()) + [1] * (3 - len(size or ()))
             for size in (kernel.global_size, kernel.local_size)]
    names = [m.group(1) for m in locals_]
    parts = [head]
    parts += [f"static double {m.group(1)}[{m.group(2)}];" for m in locals_]
    parts += [f"static void {prefix}phase{p}({params}) {{\n" + "\n".join(code) + "\n}"
              for p, code in enumerate(phases)]
    calls = " else ".join(f"if (p == {p}) {prefix}phase{p}({arguments});"
                          for p in range(len(phases)))
    parts.append(f"""\
static void {prefix}phase(double **b, int p) {{ {calls} }}

void run_{index}(double **b, int barrier) {{
    static const kernel_t kernel = {{{prefix}phase, {len(phases)},
        {{{", ".join(map(str, sizes[0]))}}}, {{{", ".join(map(str, sizes[1]))}}}}};
    double *locals[] = {{{", ".join(names) or "0"}}};
    const int counts[] = {{{", ".join(m.group(2) for m in locals_) or "0"}}};
    run_kernel(&kernel, b, barrier, locals, counts, {len(names)});
}}
""")
    return "\n".join(parts)


def build(kernels: Sequence[OpenCLKernel], workdir: Path) -> ctypes.CDLL:
    """Compile the kernels as :data:`JOBS` translation units, in parallel, and
    link them into one shared library, in a new directory under ``workdir``."""
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    prelude = workdir / "opencl_run_prelude.h"
    prelude.write_text(RUN_PRELUDE)
    compiler = native.compiler()
    jobs, objects = [], []
    for first in range(min(JOBS, len(kernels))):
        source = workdir / f"kernels_{first}.c"
        source.write_text("\n".join(c_translation(kernels[index], index)
                                    for index in range(first, len(kernels), JOBS)))
        objects.append(str(source.with_suffix(".o")))
        jobs.append(subprocess.Popen(
            [*compiler, *FLAGS, "-include", str(prelude), "-c", str(source),
             "-o", objects[-1]],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
    for job in jobs:
        output = job.communicate()[0]
        if job.returncode:
            raise RuntimeError(output)
    library = workdir / "kernels.so"
    result = subprocess.run([*compiler, "-shared", "-o", str(library), *objects, "-lm"],
                            capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(result.stdout + result.stderr)
    return ctypes.CDLL(str(library))


def _margined(count: int, values=None):
    """A NaN buffer with ``count`` elements (``values`` if given) between two
    NaN margins as wide as the buffer; returns (storage, offset of element 0)."""
    margin = max(count, 8)
    storage = np.full(count + 2 * margin, np.nan)
    if values is not None:
        storage[margin:margin + count] = np.asarray(values, dtype=np.float64).ravel()
    return storage, margin


def execute(library: ctypes.CDLL, index: int, kernel: OpenCLKernel,
            inputs: Sequence[np.ndarray], barrier: bool = True) -> np.ndarray:
    """Run kernel ``index`` of ``library`` on ``inputs``; the output buffer.
    Raises AssertionError when the kernel wrote outside it."""
    stores = []
    for buffer, values in zip(kernel.buffers, [*inputs, None]):
        stores.append(_margined(buffer.element_count, values))
    pointers = (ctypes.c_void_p * len(stores))(
        *[storage.ctypes.data + margin * 8 for storage, margin in stores])
    run = getattr(library, f"run_{index}")
    run.argtypes, run.restype = [ctypes.POINTER(ctypes.c_void_p), ctypes.c_int], None
    run(pointers, int(barrier))
    storage, margin = stores[-1]
    count = kernel.output_buffer.element_count
    outside = np.concatenate([storage[:margin], storage[margin + count:]])
    assert np.isnan(outside).all(), "the kernel wrote outside its output buffer"
    return storage[margin:margin + count]


def mismatches(runs: Sequence[Run], workdir: Path, barrier: bool = True) -> List[str]:
    """Compile and run every kernel; one line per kernel whose output is not
    bit-identical to the NumPy backend's (empty when all of them are)."""
    library = build([run.kernel for run in runs], workdir)
    expected: Dict = {}
    problems = []
    for index, run in enumerate(runs):
        key = (id(run.program), tuple(np.shape(x) for x in run.inputs))
        if key not in expected:
            result = NumpyBackend().run(run.program, list(run.inputs))
            expected[key] = np.asarray(result, dtype=np.float64).ravel()
        want = expected[key]
        try:
            got = execute(library, index, run.kernel, run.inputs, barrier)
        except AssertionError as error:
            problems.append(f"{run.label}: {error}")
            continue
        if got.shape != want.shape:
            problems.append(f"{run.label}: {got.size} outputs, expected {want.size}")
            continue
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        if differ.size:
            first = differ[0]
            problems.append(f"{run.label}: {differ.size} of {want.size} outputs differ "
                            f"(first at {first}: {got[first]!r}, expected {want[first]!r})")
    return problems


# ---------------------------------------------------------------------------
# What runs
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _app_program(key: str) -> Lambda:
    """One program object per app, so runs on one grid share their expected output."""
    return ALL_BENCHMARKS[key].build_program()


def _app_run(key: str, lowered) -> Run:
    """App ``key``'s kernel for ``lowered`` on a grid its tiles divide."""
    benchmark = ALL_BENCHMARKS[key]
    shape = validation_shape(benchmark.stencil_extent, benchmark.ndims, lowered)
    kernel = generate_kernel(lowered, benchmark.input_types(shape))
    return Run(f"{key}|{lowered.strategy.describe()}|{shape}", kernel,
               _app_program(key), benchmark.make_inputs(shape, 0))


def _sum(window):
    return L.reduce(add, 0.0, window)


def _program_run(name: str, shape, build_program) -> Run:
    """The NAIVE kernel of a hand-written program over a random grid."""
    program = L.fun([array(Float, *shape)], build_program, names=["a"])
    kernel = generate_kernel(lower_program(program, NAIVE), [array(Float, *shape)])
    return Run(f"{name}|{shape}", kernel, program, [np.random.default_rng(0).random(shape)])


def _stencil_1d(width, boundary):
    size = 2 * width + 1
    return lambda a: L.map(_sum, L.slide(size, 1, L.pad(width, width, boundary, a)))


def _stencil_2d(width, boundary):
    size = 2 * width + 1
    return lambda a: L.map_nd(lambda w: _sum(L.join(w)),
                              L.slide_nd(size, 1, L.pad_nd(width, width, boundary, a, 2), 2), 2)


#: Programs beyond the suite: the paper's bare ``map(reduce)``, a ``pad`` and
#: a ``join`` applied by ``map`` directly, and pads wider than their input.
PROGRAMS = {
    "bare mapped reduce": ((8,), lambda a: FunCall(
        Map(Reduce(add, L.lit(0.0))), L.slide(3, 1, L.pad(1, 1, L.CLAMP, a)))),
    "mapped pad": ((6, 7), lambda a: L.map_nd(
        lambda w: _sum(L.join(w)),
        L.slide_nd(3, 1, L.pad(1, 1, L.CLAMP, FunCall(Map(Pad(1, 1, L.CLAMP)), a)), 2), 2)),
    "mapped join": ((3, 4, 5), lambda a: L.map_nd(
        lambda w: _sum(L.join(FunCall(Map(Join()), w))),
        L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 3), 3), 3)),
    "mirror 3 over 1": ((1,), _stencil_1d(3, L.MIRROR)),
    "mirror 3 over 2": ((2,), _stencil_1d(3, L.MIRROR)),
    "mirror 2 over 1x2": ((1, 2), _stencil_2d(2, L.MIRROR)),
    "wrap 3 over 2": ((2,), _stencil_1d(3, L.WRAP)),
}


def sampled_runs() -> Dict[str, List[Run]]:
    """Per app, the :func:`sampled_variants` kernels; per hand-written program,
    its NAIVE kernel."""
    runs: Dict[str, List[Run]] = {}
    for key, _, lowered in sampled_variants():
        runs.setdefault(key, []).append(_app_run(key, lowered))
    for name, (shape, build_program) in PROGRAMS.items():
        runs[name] = [_program_run(name, shape, build_program)]
    return runs


def _needs_compiler():
    try:
        native.compiler()
    except native.Unavailable:
        pytest.skip("no C compiler on this host")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    _needs_compiler()
    runs = sampled_runs()
    problems = mismatches([run for group in runs.values() for run in group],
                          tmp_path_factory.mktemp("kernels_run"))
    return {name: [p for p in problems if p.startswith(f"{name}|")] for name in runs}


@pytest.mark.parametrize("name", [*sorted(ALL_BENCHMARKS), *PROGRAMS])
def test_kernels_compute_what_numpy_computes(report, name):
    assert report[name] == []


def test_an_off_by_one_view_rule_is_a_mismatch(tmp_path, monkeypatch):
    """Window ``i`` of every ``slide`` reads window ``i + 1``."""
    _needs_compiler()

    def slide_one_further(fun, views, types):
        view = layout_view(fun, views, types)
        if isinstance(fun, Slide):
            return ViewIndexed(lambda i: view.access(i + 1))
        return view

    monkeypatch.setattr(generator, "layout_view", slide_one_further)
    run = _program_run("slide one further", (8,), _stencil_1d(1, L.CLAMP))
    assert len(mismatches([run], tmp_path)) == 1


def test_a_dropped_barrier_is_a_mismatch(tmp_path):
    _needs_compiler()
    program = ALL_BENCHMARKS["jacobi2d5pt"].build_program()
    runs = [_app_run("jacobi2d5pt", lower_program(program, tiled_strategy(6)))]
    assert mismatches(runs, tmp_path) == []
    assert len(mismatches(runs, tmp_path, barrier=False)) == 1


def main() -> None:
    """Run every golden kernel, each on a grid its tiles divide; exit non-zero
    with the mismatches."""
    from tests.rewriting.test_lowering_golden import golden_variants

    runs: List[Run] = []
    for row, lowered, _ in golden_variants():
        if lowered is not None:
            runs.append(_app_run(row.split("|")[0], lowered))
    with tempfile.TemporaryDirectory() as workdir:
        problems = mismatches(runs, Path(workdir))
    if problems:
        raise SystemExit("\n".join(problems))
    print(f"OK: {len(runs)} golden kernels run bit-identical to the NumPy backend")
