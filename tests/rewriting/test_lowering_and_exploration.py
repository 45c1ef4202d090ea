"""Tests for the lowering rules, lowering strategies and macro exploration."""

import numpy as np
import pytest

from repro.apps.suite import get_benchmark
from repro.cli import main
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.ir import FunCall
from repro.core.primitives.opencl import (
    MapGlb,
    MapLcl,
    MapWrg,
    ReduceSeq,
    ReduceUnroll,
    ToLocal,
)
from repro.core.types import Float, array
from repro.core.userfuns import add, id_fn
from repro.engine import explore_variants_for
from repro.rewriting.lowering_rules import (
    IdInsertionRule,
    LowerMapNestRule,
    LowerReduceSeqRule,
    LowerReduceUnrollRule,
    ToLocalRule,
)
from repro.rewriting.exploration import candidate_strategies, explore
from repro.rewriting.rules import apply_everywhere, apply_first, find_applications
from repro.rewriting.strategies import (
    LoweringError,
    NAIVE,
    Strategy,
    lower_program,
    tiled_strategy,
)

from ..conftest import golden_box_sum_2d, interpret_to_array

#: The variant set the engine explores for Gaussian and Jacobi3D13pt (both
#: 5-point windows, step 1) at their default shapes, recorded before a tile
#: no wider than ``size − step`` became a ``LoweringError``.
EXPLORED_SIZE5 = ["naive unroll", "naive"] + [
    f"tiled tile={tile}{local} unroll"
    for tile in (6, 8, 10, 18, 34, 66) for local in (" localMem", "")
]


def boxsum2d():
    return L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 2), 2),
            2,
        ),
        names=["grid"],
    )


def multigrid2d():
    """A Hotspot-like two-grid stencil."""
    return L.fun(
        [array(Float, Var("N"), Var("M"))] * 2,
        lambda t, p: L.map_nd(
            lambda pair: FunCall(
                add, L.at(1, L.at(1, L.get(0, pair))), L.get(1, pair)
            ),
            L.zip_nd([L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, t, 2), 2), p], 2),
            2,
        ),
        names=["temp", "power"],
    )


class TestLoweringRules:
    def test_reduce_lowered_to_sequential(self):
        program = boxsum2d()
        lowered = apply_everywhere(program.body, LowerReduceSeqRule())
        assert any(
            isinstance(n, FunCall) and isinstance(n.fun, ReduceSeq) for n in lowered.walk()
        )

    def test_reduce_lowered_to_unrolled(self):
        program = boxsum2d()
        lowered = apply_everywhere(program.body, LowerReduceUnrollRule())
        assert any(
            isinstance(n, FunCall) and isinstance(n.fun, ReduceUnroll) for n in lowered.walk()
        )

    def test_map_lowered_to_mapglb(self):
        program = L.fun([array(Float, 8)], lambda a: L.map(id_fn, a))
        lowered = apply_first(program.body, LowerMapNestRule(MapGlb))
        assert isinstance(lowered.fun, MapGlb)

    def test_to_local_rule_matches_map_id_only(self):
        copy = L.map(id_fn, L.fun_n(1, lambda x: x).params[0])
        rule = ToLocalRule()
        assert rule.matches(copy)
        rewritten = rule.apply(copy)
        assert isinstance(rewritten.fun, ToLocal)
        compute = L.map(lambda nbh: L.reduce(add, 0.0, nbh), copy)
        assert not rule.matches(compute)

    def test_id_insertion_rule_wraps_arrays(self):
        program = boxsum2d()
        from repro.core.typecheck import check_program

        check_program(program, [array(Float, 6, 6)])
        rule = IdInsertionRule()
        positions = find_applications(program.body, rule)
        assert positions
        rewritten = rule.apply(positions[0])
        # The inserted copy is semantically the identity.
        assert rewritten.fun.name == "map"


class TestStrategies:
    def test_naive_lowering_uses_global_threads(self):
        lowered = lower_program(boxsum2d(), NAIVE)
        assert not lowered.strategy.use_tiling
        glbs = [n for n in lowered.program.body.walk()
                if isinstance(n, FunCall) and isinstance(n.fun, MapGlb)]
        assert len(glbs) == 2  # one per dimension

    def test_naive_lowering_preserves_semantics(self):
        program = boxsum2d()
        lowered = lower_program(program, NAIVE)
        grid = np.random.default_rng(0).random((8, 9))
        assert np.allclose(
            interpret_to_array(lowered.program, [grid]), golden_box_sum_2d(grid)
        )

    def test_tiled_lowering_uses_workgroups_and_local_memory(self):
        lowered = lower_program(boxsum2d(), tiled_strategy(6))
        body = lowered.program.body
        assert lowered.strategy.use_tiling and lowered.strategy.use_local_memory
        assert any(isinstance(n, FunCall) and isinstance(n.fun, MapWrg) for n in body.walk())
        assert any(isinstance(n, FunCall) and isinstance(n.fun, MapLcl) for n in body.walk())
        assert any(isinstance(n, FunCall) and isinstance(n.fun, ToLocal) for n in body.walk())

    def test_tiled_lowering_preserves_semantics(self):
        program = boxsum2d()
        lowered = lower_program(program, tiled_strategy(6))
        grid = np.random.default_rng(1).random((12, 12))
        assert np.allclose(
            interpret_to_array(lowered.program, [grid]), golden_box_sum_2d(grid)
        )

    def test_tiled_without_local_memory(self):
        lowered = lower_program(boxsum2d(), tiled_strategy(6, use_local_memory=False))
        assert lowered.strategy.use_tiling and not lowered.strategy.use_local_memory
        assert not any(
            isinstance(n, FunCall) and isinstance(n.fun, ToLocal)
            for n in lowered.program.body.walk()
        )

    def test_multigrid_program_lowers_naively(self):
        lowered = lower_program(multigrid2d(), NAIVE)
        assert lowered.multi_grid
        assert lowered.ndims == 2

    def test_multigrid_program_rejects_tiling(self):
        with pytest.raises(LoweringError):
            lower_program(multigrid2d(), tiled_strategy(6))

    def test_multigrid_naive_lowering_preserves_semantics(self):
        program = multigrid2d()
        lowered = lower_program(program, NAIVE)
        rng = np.random.default_rng(2)
        temp, power = rng.random((6, 7)), rng.random((6, 7))
        assert np.allclose(
            interpret_to_array(program, [temp, power]),
            interpret_to_array(lowered.program, [temp, power]),
        )

    @pytest.mark.parametrize("strategy", [NAIVE, tiled_strategy(6)])
    def test_stencil_under_an_outer_map_is_a_lowering_error(self, strategy):
        # A per-row 1-D stencil over a 2-D grid: lowering only the inner
        # stencil leaves the outer map's parameter unbound in the kernel.
        program = L.fun(
            [array(Float, Var("N"), Var("M"))],
            lambda a: L.map(
                lambda row: L.map(
                    lambda window: L.reduce(add, 0.0, window),
                    L.slide(3, 1, L.pad(1, 1, L.MIRROR, row))),
                a),
            names=["grid"],
        )
        with pytest.raises(LoweringError, match=r"outer map .*map\(λ"):
            lower_program(program, strategy)


class TestExploration:
    def test_candidate_strategies_respect_tiling_validity(self):
        strategies = candidate_strategies(
            stencil_size=3, stencil_step=1, padded_length=14, tile_sizes=(4, 6, 7)
        )
        tiled = [s for s in strategies if s.use_tiling]
        assert {s.tile_size for s in tiled} == {4, 6}  # 7 does not divide evenly

    def test_candidate_strategies_include_naive(self):
        strategies = candidate_strategies(3, 1, 14, tile_sizes=())
        assert any(not s.use_tiling for s in strategies)

    def test_explore_produces_multiple_variants(self):
        results = explore(boxsum2d(), stencil_size=3, stencil_step=1,
                          padded_length=14, tile_sizes=(6,))
        descriptions = {r.strategy.describe() for r in results}
        assert any("naive" in d for d in descriptions)
        assert any("tile=6" in d for d in descriptions)

    def test_explore_multigrid_falls_back_to_naive(self):
        results = explore(multigrid2d(), stencil_size=3, stencil_step=1,
                          padded_length=14, tile_sizes=(6,))
        assert results
        assert all(not r.lowered.strategy.use_tiling for r in results)

    def test_strategy_describe_mentions_choices(self):
        assert "tile=8" in tiled_strategy(8).describe()
        assert "localMem" in Strategy("tiled", True, 8, True, True).describe()


class TestTileBound:
    @pytest.mark.parametrize("key", ["gaussian", "jacobi3d13pt"])
    def test_tile_within_the_overlap_is_a_lowering_error(self, key):
        program = get_benchmark(key).build_program()
        with pytest.raises(LoweringError,
                           match=r"tile 4 .* needs u > size − step = 4"):
            lower_program(program, tiled_strategy(4))
        assert lower_program(program, tiled_strategy(5)).strategy.use_tiling

    def test_a_tile_that_holds_no_whole_window_is_a_lowering_error(self):
        # slide(5, 3): a tile of 4 advances (v = 2 > 0) but holds no window,
        # and a tile of 7 holds one but its windows leave the window grid.
        program = L.fun(
            [array(Float, Var("N"), Var("M"))],
            lambda a: L.map_nd(
                lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
                L.slide_nd(5, 3, L.pad_nd(1, 1, L.CLAMP, a, 2), 2),
                2,
            ),
            names=["grid"],
        )
        for tile in (4, 7):
            with pytest.raises(
                    LoweringError,
                    match=rf"tile {tile} holds no whole window of "
                          rf"slide\(size=5, step=3\)"):
                lower_program(program, tiled_strategy(tile))
        assert lower_program(program, tiled_strategy(8)).strategy.use_tiling
        strategies = candidate_strategies(5, 3, 14, tile_sizes=(4, 7, 8),
                                          validate_tiles=False)
        assert {s.tile_size for s in strategies if s.use_tiling} == {8}

    @pytest.mark.parametrize("key", ["gaussian", "jacobi3d13pt"])
    def test_kernel_verb_reports_the_bound_and_exits_2(self, key, capsys):
        assert main(["kernel", key, "--strategy", "tiled", "--tile", "4"]) == 2
        captured = capsys.readouterr()
        assert "u > size − step = 4" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("key", ["gaussian", "jacobi3d13pt"])
    def test_explored_candidates_are_unchanged(self, key):
        benchmark = get_benchmark(key)
        explored = explore_variants_for(benchmark, benchmark.default_shape)
        assert [r.strategy.describe() for r in explored] == EXPLORED_SIZE5
