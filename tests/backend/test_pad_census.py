"""Traffic census: no suite program, however lowered, copies a pad.

The tape optimizer fuses runs of traced schedules and nothing else: a pad
the resident homes cannot serve stays one full-buffer copy per step,
outside every region.  That is cheap only because real traffic has no such
pad — which is what this file pins.  If a later change makes a suite app
copy pads again (``materialized_pads > 0``), this fails and the question
of tiling copied pads inside regions is reopened with evidence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.suite import ALL_BENCHMARKS
from repro.backend.base import NumpyBackend
from repro.rewriting.strategies import (
    NAIVE,
    LoweringError,
    lower_program,
    tiled_strategy,
)

SHAPES = {2: (32, 32), 3: (16, 16, 16)}

#: Tile 18 covers the padded extent 34 of a 3-point stencil on 32 exactly;
#: the 16-wide axes of the 3-D grids take the tile clipped.
LOWERINGS = {
    "naive": NAIVE,
    "tiled": tiled_strategy(18, use_local_memory=False),
    "tiled+local": tiled_strategy(18, use_local_memory=True),
}

#: Tiling rewrites only single-grid stencils; these lower naively only.
MULTI_GRID = {"acoustic", "hotspot2d", "hotspot3d", "srad2"}


def assert_census(plan, key):
    stats = plan.stats()
    assert stats["materialized_pads"] == 0, key
    assert stats["fusion_fallbacks"] == 0, key
    assert stats["fused_regions"] >= 1, key
    assert stats["resident_pads"] >= 1, key


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_single_and_batched_plans_copy_no_pad(key):
    bench = ALL_BENCHMARKS[key]
    program = bench.build_program()
    backend = NumpyBackend(cache=None)
    parts = [bench.make_inputs(SHAPES[bench.ndims], seed) for seed in (1, 2, 3)]

    plan = backend.plan(program, parts[0])
    for inputs in parts[:2]:                       # capture, then replay
        assert np.array_equal(plan.run(inputs), backend.run(program, inputs))
    assert_census(plan, key)

    stacked = [np.stack(grids) for grids in zip(*parts)]
    batched = backend.plan(program, stacked, batched=True)
    expected = backend.run_batched(program, stacked)
    assert np.array_equal(batched.run_batched(stacked), expected)
    assert np.array_equal(batched.run_batched_parts(parts), expected)
    assert_census(batched, key)


@pytest.mark.parametrize("key", sorted(ALL_BENCHMARKS))
def test_lowered_programs_copy_no_pad(key):
    bench = ALL_BENCHMARKS[key]
    backend = NumpyBackend(cache=None)
    lowered_as = []
    for name, strategy in LOWERINGS.items():
        try:
            program = lower_program(bench.build_program(), strategy).program
        except LoweringError:
            continue
        lowered_as.append(name)
        plan = backend.plan(program, bench.make_inputs(SHAPES[bench.ndims], 4))
        for seed in (4, 5):
            inputs = bench.make_inputs(SHAPES[bench.ndims], seed)
            assert np.array_equal(plan.run(inputs),
                                  backend.run(program, inputs)), (key, name)
        assert_census(plan, (key, name))
    # a lowering that silently stopped applying would hollow the census out
    assert lowered_as == (["naive"] if key in MULTI_GRID else list(LOWERINGS))
