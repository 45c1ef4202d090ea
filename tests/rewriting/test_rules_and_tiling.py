"""Tests for the rewrite-rule machinery and the overlapped-tiling rule (paper §4.1)."""

import numpy as np
import pytest

from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.ir import FunCall, Lambda
from repro.core.types import Float, array
from repro.core.userfuns import add
from repro.rewriting.algorithmic_rules import (
    MapFusionRule,
    MapJoinInterchangeRule,
    SlideTilingDecompositionRule,
    SplitJoinRule,
    TileStencilNDRule,
    match_slide_nd,
    match_stencil,
    tiling_is_valid,
)
from repro.rewriting.rules import (
    RewriteRule,
    RuleApplicationError,
    apply_at,
    apply_everywhere,
    apply_first,
    find_applications,
)
from repro.runtime.interpreter import evaluate_program

from ..conftest import interpret_to_array


def jacobi1d(n_var="N"):
    return L.fun(
        [array(Float, Var(n_var))],
        lambda a: L.map(lambda nbh: L.reduce(add, 0.0, nbh),
                        L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))),
    )


def boxsum2d():
    return L.fun(
        [array(Float, Var("N"), Var("M"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(nbh)),
            L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 2), 2),
            2,
        ),
    )


def boxsum3d():
    return L.fun(
        [array(Float, Var("A"), Var("B"), Var("C"))],
        lambda a: L.map_nd(
            lambda nbh: L.reduce(add, 0.0, L.join(L.join(nbh))),
            L.slide_nd(3, 1, L.pad_nd(1, 1, L.CLAMP, a, 3), 3),
            3,
        ),
    )


class LambdaRule(RewriteRule):
    """A rule defined by a pair of Python functions."""

    def __init__(self, name, matches, rewrite):
        self.name = name
        self._matches = matches
        self._rewrite = rewrite

    def matches(self, expr):
        return self._matches(expr)

    def rewrite(self, expr):
        return self._rewrite(expr)


class TestRuleMachinery:
    def test_apply_at_unmatched_position_raises(self):
        program = jacobi1d()
        rule = MapJoinInterchangeRule()
        with pytest.raises(RuleApplicationError):
            rule.apply(program.body)

    def test_find_applications_returns_positions(self):
        program = jacobi1d()
        rule = TileStencilNDRule(tile_size=6, ndims=1)
        assert len(find_applications(program.body, rule)) == 1

    def test_apply_first_returns_none_without_match(self):
        program = jacobi1d()
        assert apply_first(program.body, MapJoinInterchangeRule()) is None

    def test_apply_everywhere_reaches_fixed_point(self):
        program = jacobi1d()
        from repro.rewriting.lowering_rules import LowerReduceSeqRule

        rewritten = apply_everywhere(program.body, LowerReduceSeqRule())
        assert apply_first(rewritten, LowerReduceSeqRule()) is None

    def test_lambda_rule_wraps_python_functions(self):
        rule = LambdaRule("never", lambda e: False, lambda e: e)
        assert not rule.matches(jacobi1d().body)


class TestStencilMatching:
    def test_match_1d_stencil(self):
        match = match_stencil(jacobi1d().body)
        assert match is not None and match.ndims == 1

    def test_match_2d_stencil(self):
        matches = [match_stencil(n) for n in boxsum2d().body.walk()]
        dims = [m.ndims for m in matches if m is not None]
        assert 2 in dims

    def test_match_3d_stencil(self):
        matches = [match_stencil(n) for n in boxsum3d().body.walk()]
        dims = [m.ndims for m in matches if m is not None]
        assert 3 in dims

    def test_match_slide_nd_depths(self):
        body2 = L.slide_nd(3, 1, L.fun_n(1, lambda x: x).params[0], 2)
        assert match_slide_nd(body2)[0] == 2

    def test_reorder_map_is_not_a_stencil(self):
        # The map(transpose, slide(...)) inside slideN must not be mistaken for
        # a stencil computation.
        p = L.fun_n(1, lambda x: L.slide_nd(3, 1, x, 2))
        inner_matches = [match_stencil(n) for n in p.body.walk()]
        assert all(m is None for m in inner_matches)

    def test_plain_map_is_not_a_stencil(self):
        program = L.fun([array(Float, 8)], lambda a: L.map(lambda x: x, a))
        assert match_stencil(program.body) is None


class TestClassicRules:
    def test_map_fusion_preserves_semantics(self):
        from repro.core.userfuns import mult

        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.map(lambda x: FunCall(mult, x, L.lit(2.0)),
                            L.map(lambda x: FunCall(add, x, L.lit(1.0)), a)),
        )
        rule = MapFusionRule()
        fused_body = apply_first(program.body, rule)
        assert fused_body is not None
        fused = Lambda(program.params, fused_body)
        data = [1.0, 2.0, 3.0]
        assert evaluate_program(program, [data]) == evaluate_program(fused, [data])
        # After fusion there is a single map left.
        assert apply_first(fused_body, rule) is None

    def test_split_join_preserves_semantics(self):
        program = L.fun(
            [array(Float, Var("N"))],
            lambda a: L.map(lambda x: FunCall(add, x, L.lit(1.0)), a),
        )
        rewritten = Lambda(program.params, apply_first(program.body, SplitJoinRule(2)))
        data = [float(i) for i in range(8)]
        assert evaluate_program(program, [data]) == evaluate_program(rewritten, [data])

    def test_slide_decomposition_rule(self):
        """slide(n,s) == join(map(slide(n,s), slide(u,v))) — half of the tiling proof."""
        program = L.fun([array(Float, Var("N"))], lambda a: L.slide(3, 1, a))
        rewritten = Lambda(
            program.params, apply_first(program.body, SlideTilingDecompositionRule(6))
        )
        data = [float(i) for i in range(14)]  # (14 - 6) % 4 == 0
        assert evaluate_program(program, [data]) == evaluate_program(rewritten, [data])

    def test_map_join_interchange(self):
        program = L.fun(
            [array(Float, Var("N"), Var("M"))],
            lambda a: L.map(lambda x: FunCall(add, x, L.lit(1.0)), L.join(a)),
        )
        rewritten = Lambda(
            program.params, apply_first(program.body, MapJoinInterchangeRule())
        )
        grid = np.arange(12, dtype=float).reshape(3, 4)
        assert evaluate_program(program, [grid]) == evaluate_program(rewritten, [grid])


class TestOverlappedTiling:
    """The paper's new rewrite rule, in 1, 2 and 3 dimensions."""

    @pytest.mark.parametrize("tile_size,n", [(4, 10), (6, 12), (10, 16)])
    def test_1d_tiling_preserves_semantics(self, tile_size, n):
        program = jacobi1d()
        rule = TileStencilNDRule(tile_size=tile_size, ndims=1)
        target = find_applications(program.body, rule)[0]
        tiled = Lambda(program.params, apply_at(program.body, rule, target))
        data = [float(i * i % 7) for i in range(n)]
        assert evaluate_program(program, [data]) == evaluate_program(tiled, [data])

    def test_validity_constraint(self):
        # size - step = u - v must hold and tiles must cover the input exactly.
        assert tiling_is_valid(input_length=14, size=3, step=1, tile_size=6)
        assert not tiling_is_valid(input_length=13, size=3, step=1, tile_size=6)
        assert not tiling_is_valid(input_length=14, size=3, step=1, tile_size=2)

    def test_2d_tiling_preserves_semantics(self):
        program = boxsum2d()
        rule = TileStencilNDRule(tile_size=6, ndims=2)
        candidates = [n for n in program.body.walk()
                      if rule.matches(n) and match_stencil(n).ndims == 2]
        tiled = Lambda(program.params, apply_at(program.body, rule, candidates[0]))
        grid = np.arange(144, dtype=float).reshape(12, 12)
        assert np.allclose(
            interpret_to_array(program, [grid]), interpret_to_array(tiled, [grid])
        )

    def test_3d_tiling_preserves_semantics(self):
        program = boxsum3d()
        rule = TileStencilNDRule(tile_size=6, ndims=3)
        candidates = [n for n in program.body.walk()
                      if rule.matches(n) and match_stencil(n).ndims == 3]
        assert candidates, "3D stencil must be matched by the ND tiling rule"
        tiled = Lambda(program.params, apply_at(program.body, rule, candidates[0]))
        # Padded extents (6, 10, 14) are exactly covered by tiles of width 6 / step 4.
        grid = np.arange(4 * 8 * 12, dtype=float).reshape(4, 8, 12) % 11
        assert np.allclose(
            interpret_to_array(program, [grid]), interpret_to_array(tiled, [grid])
        )

    def test_tiling_changes_expression_structure(self):
        program = jacobi1d()
        rule = TileStencilNDRule(tile_size=6, ndims=1)
        tiled_body = apply_first(program.body, rule)
        from repro.core.primitives.algorithmic import Join
        from repro.core.primitives.stencil import Slide

        joins = [n for n in tiled_body.walk()
                 if isinstance(n, FunCall) and isinstance(n.fun, Join)]
        slides = [n for n in tiled_body.walk()
                  if isinstance(n, FunCall) and isinstance(n.fun, Slide)]
        assert joins, "tiling introduces a join"
        assert len(slides) >= 2, "tiling uses slide twice (tiles + neighbourhoods)"
