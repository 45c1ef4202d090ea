"""Golden pins of lowering and code generation over the exploration space.

Every (app × candidate strategy) pair — apps in sorted key order, strategies
in :func:`candidate_strategies` order over the default tile sizes on a
64-element padded row — is lowered with :func:`lower_program`, and every
lowered variant is compiled to OpenCL on a 64² (2-D) or 16³ (3-D) grid.  One
row per pair records the lowered program's structural digest (or
``LoweringError``), one row per lowered variant the sha256 of its kernel
source.  The sha256 of each row list, rows joined by newlines, is pinned, so
a refactor of the rewriting or the code generator must leave every lowered
expression and every kernel unchanged.  The row lists are kept in
``golden/`` so a mismatch names its first differing row.

:func:`golden_variants` is the enumeration; CI also parses every golden
kernel as C with it (``tests/codegen/test_kernels_parse_as_c.py``).
"""

import hashlib
from pathlib import Path

import pytest

from repro.apps.suite import ALL_BENCHMARKS
from repro.codegen import generate_kernel
from repro.core.ir import structural_digest
from repro.rewriting.exploration import DEFAULT_TILE_SIZES, candidate_strategies
from repro.rewriting.strategies import LoweringError, lower_program

LOWERING_SHA256 = "45998bf77afd4c5758e629eaa3378b59a3fd4a1501cd926220bffd545c75082e"
KERNELS_SHA256 = "00ef44de795d3394e68fce38ef315f2d7a52363a7305868269422d75c1363795"
GOLDEN = Path(__file__).parent / "golden"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_variants():
    """Yield ``(row, lowered, input types)`` for every (app × strategy) pair in
    pin order; ``lowered`` is ``None`` where lowering raises LoweringError."""
    for key in sorted(ALL_BENCHMARKS):
        benchmark = ALL_BENCHMARKS[key]
        program = benchmark.build_program()
        shape = (64, 64) if benchmark.ndims == 2 else (16, 16, 16)
        for strategy in candidate_strategies(benchmark.stencil_extent, 1, 64,
                                             DEFAULT_TILE_SIZES, validate_tiles=False):
            row = f"{key}|{strategy.describe()}"
            try:
                lowered = lower_program(program, strategy)
            except LoweringError:
                yield row, None, None
                continue
            yield row, lowered, benchmark.input_types(shape)


@pytest.fixture(scope="module")
def rows():
    lowering, kernels = [], []
    for row, lowered, input_types in golden_variants():
        if lowered is None:
            lowering.append(f"{row}|LoweringError")
            continue
        lowering.append(f"{row}|{structural_digest(lowered.program)}")
        source = generate_kernel(lowered, input_types).source
        kernels.append(f"{row}|{_sha256(source)}")
    return {"lowering_rows.txt": lowering, "kernel_rows.txt": kernels}


@pytest.mark.parametrize("name, pinned", [("lowering_rows.txt", LOWERING_SHA256),
                                          ("kernel_rows.txt", KERNELS_SHA256)])
def test_rows_match_their_pin(rows, name, pinned):
    golden = (GOLDEN / name).read_text().splitlines()
    assert _sha256("\n".join(golden)) == pinned, f"golden/{name} is not the pinned list"
    actual = rows[name]
    if _sha256("\n".join(actual)) == pinned:
        return
    index = next((i for i, (want, got) in enumerate(zip(golden, actual)) if want != got),
                 min(len(golden), len(actual)))
    want = golden[index] if index < len(golden) else "<no row>"
    got = actual[index] if index < len(actual) else "<no row>"
    pytest.fail(f"{name}: row {index} differs: pinned {want!r}, now {got!r}")
