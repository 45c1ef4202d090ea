"""The generated OpenCL parses as C.

OpenCL C is C99 with address-space qualifiers and work-item built-ins.
Through :data:`PRELUDE` (``__kernel``/``__global`` expand to nothing,
``__local`` to ``static``, ``barrier`` is a no-op, the work-item built-ins
and the math built-ins the suite's user functions call are declared,
``clamp`` is a macro, and OpenCL's integer ``min``/``max`` are ``int``
functions) the host C compiler's ``-fsyntax-only -Wall`` checks that the
generator prints well-formed code with nothing a compiler would warn about.
``test_kernels_run.py`` runs the kernels behind the same prelude.

Tier-1 checks each app's naive kernel and its smallest and largest tile
kernel, with and without local memory.  CI checks every golden kernel the
same way::

    python -c "from tests.codegen.test_kernels_parse_as_c import main; main()"
"""

import subprocess
import tempfile
from pathlib import Path

import pytest

from repro.apps.suite import ALL_BENCHMARKS
from repro.backend import native
from repro.codegen import generate_kernel
from repro.rewriting.algorithmic_rules import tile_exceeds_overlap
from repro.rewriting.exploration import DEFAULT_TILE_SIZES
from repro.rewriting.strategies import NAIVE, LoweringError, lower_program, tiled_strategy

PRELUDE = """\
#define __kernel
#define __global
#define __local static
#define CLK_LOCAL_MEM_FENCE 0
#define barrier(flags) ((void)(flags))
int get_global_id(int dim);
int get_group_id(int dim);
int get_local_id(int dim);
int get_local_size(int dim);
#define clamp(x, lo, hi) ((x) < (lo) ? (lo) : (x) > (hi) ? (hi) : (x))
static inline int min(int a, int b) { return a < b ? a : b; }
static inline int max(int a, int b) { return a > b ? a : b; }
double sqrt(double x);
double fabs(double x);
"""


def c_diagnostics(sources, workdir: Path) -> str:
    """What the C compiler says about ``sources``, each its own translation
    unit behind :data:`PRELUDE`, in one call; empty when all of them parse
    cleanly.  Raises :class:`native.Unavailable` without a compiler."""
    command = native.compiler()
    prelude = workdir / "opencl_prelude.h"
    prelude.write_text(PRELUDE)
    files = []
    for index, source in enumerate(sources):
        path = workdir / f"kernel_{index}.c"
        path.write_text(source)
        files.append(str(path))
    result = subprocess.run(
        [*command, "-std=c99", "-fsyntax-only", "-Wall", "-include", str(prelude), *files],
        capture_output=True, text=True)
    diagnostics = result.stdout + result.stderr
    return diagnostics or (f"exit status {result.returncode}" if result.returncode else "")


def sampled_variants():
    """Yield ``(key, benchmark, lowered)`` for each app's naive variant and its
    smallest and largest valid tile with and without local memory."""
    for key in sorted(ALL_BENCHMARKS):
        benchmark = ALL_BENCHMARKS[key]
        program = benchmark.build_program()
        tiles = [tile for tile in DEFAULT_TILE_SIZES
                 if tile_exceeds_overlap(tile, benchmark.stencil_extent, 1)]
        strategies = [NAIVE] + [tiled_strategy(tile, use_local_memory=local)
                                for tile in (tiles[0], tiles[-1])
                                for local in (True, False)]
        for strategy in strategies:
            try:
                yield key, benchmark, lower_program(program, strategy)
            except LoweringError:
                continue


def sampled_kernels():
    """The :func:`sampled_variants` kernels on the golden test's grids."""
    for _, benchmark, lowered in sampled_variants():
        shape = (64, 64) if benchmark.ndims == 2 else (16, 16, 16)
        yield generate_kernel(lowered, benchmark.input_types(shape)).source


def test_sampled_kernels_parse_as_c(tmp_path):
    try:
        native.compiler()
    except native.Unavailable:
        pytest.skip("no C compiler on this host")
    sources = list(sampled_kernels())
    assert len(sources) > len(ALL_BENCHMARKS)
    assert c_diagnostics(sources, tmp_path) == ""


def main() -> None:
    """Parse every golden kernel as C; exit non-zero with the diagnostics."""
    from tests.rewriting.test_lowering_golden import golden_variants

    sources = [generate_kernel(lowered, input_types).source
               for _, lowered, input_types in golden_variants() if lowered is not None]
    with tempfile.TemporaryDirectory() as workdir:
        diagnostics = c_diagnostics(sources, Path(workdir))
    if diagnostics:
        raise SystemExit(diagnostics)
    print(f"OK: {len(sources)} golden kernels parse as C")
