"""Tests for the view system and the OpenCL code generator (paper §5)."""


import re

import pytest

from repro.backend import native
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.typecheck import check_program
from repro.core.types import Float, array
from repro.codegen import CodegenError, generate_kernel
from repro.rewriting.strategies import NAIVE, lower_program, tiled_strategy
from repro.core.ir import FunCall
from repro.core.primitives.algorithmic import Map, Reduce, Split, Transpose, Zip
from repro.core.primitives.stencil import CLAMP, Pad, Slide
from repro.core.userfuns import add
from repro.views.view import ViewError, ViewMemory, ViewScalar, layout_view
from repro.apps.jacobi import build_jacobi2d_5pt
from repro.apps.hotspot import build_hotspot2d
from repro.apps.gaussian import build_gaussian
from tests.codegen.test_kernels_parse_as_c import c_diagnostics


class TestViews:
    def test_memory_view_flat_index(self):
        view = ViewMemory("grid", [4, 5])
        assert view.access(Var("i")).access(Var("j")).scalar_ref() == "grid[i * 5 + j]"

    def test_memory_view_requires_full_indexing(self):
        view = ViewMemory("grid", [4, 5]).access(Var("i"))
        with pytest.raises(ViewError):
            view.scalar_ref()

    def test_pad_view_maps_indices_with_boundary(self):
        padded = layout_view(Pad(1, 1, CLAMP), [ViewMemory("a", [10])], [array(Float, 10)])
        assert padded.access(Var("i")).scalar_ref() == "a[min(max(i - 1, 0), 9)]"
        assert padded.access(Var("i") + 1).scalar_ref() == "a[min(i, 9)]"

    def test_slide_view_offsets_window(self):
        windows = layout_view(Slide(3, 2), [ViewMemory("a", [10])], [array(Float, 10)])
        assert windows.access(Var("w")).access(Var("j")).scalar_ref() == "a[w * 2 + j]"

    def test_transpose_view_swaps_indices(self):
        base = ViewMemory("a", [4, 6])
        swapped = layout_view(Transpose(), [base], [array(Float, 4, 6)])
        direct = base.access(Var("i")).access(Var("j")).scalar_ref()
        transposed = swapped.access(Var("j")).access(Var("i")).scalar_ref()
        assert direct == transposed

    def test_zip_view_yields_tuple_components(self):
        zipped = layout_view(Zip(2), [ViewMemory("a", [8]), ViewMemory("b", [8])],
                             [array(Float, 8)] * 2)
        assert zipped.access(Var("i")).get(0).scalar_ref() == "a[i]"
        assert zipped.access(Var("i")).get(1).scalar_ref() == "b[i]"

    def test_layout_views_compose_pad_then_slide(self):
        program = L.fun(
            [array(Float, 16)],
            lambda a: L.slide(3, 1, L.pad(1, 1, L.CLAMP, a)),
            names=["input"],
        )
        check_program(program, [array(Float, 16)])
        slide_call = program.body
        pad_call = slide_call.args[0]
        padded = layout_view(pad_call.fun, [ViewMemory("input", ["16"])],
                             [arg.type for arg in pad_call.args])
        view = layout_view(slide_call.fun, [padded], [arg.type for arg in slide_call.args])
        assert view.access(5).access(2).scalar_ref() == "input[6]"
        assert view.access(Var("w")).access(0).scalar_ref() == "input[min(max(w - 1, 0), 15)]"

    def test_split_indexes_like_slide_with_step_equal_to_size(self):
        base = ViewMemory("a", [12])
        split = layout_view(Split(4), [base], [array(Float, 12)])
        slide = layout_view(Slide(4, 4), [base], [array(Float, 12)])
        i, j = Var("i"), Var("j")
        assert split.access(i).access(j).scalar_ref() == slide.access(i).access(j).scalar_ref()

    def test_scalar_view_passthrough(self):
        assert ViewScalar("1.0f").scalar_ref() == "1.0f"


class TestNaiveCodegen:
    def test_generates_valid_looking_kernel(self):
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 64, 64)], "jacobi5")
        assert "__kernel void jacobi5" in kernel.source
        assert "get_global_id(0)" in kernel.source
        assert "get_global_id(1)" in kernel.source
        assert kernel.global_size == (64, 64)
        assert kernel.local_memory_bytes == 0

    def test_no_memory_copies_for_pad_and_slide(self):
        """pad/slide become index arithmetic, not loops copying memory (paper §5)."""
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 32, 32)], "jacobi5")
        body = kernel.source.split("__kernel")[1]
        assert "for" not in body  # fully unrolled 5-point stencil, no copies

    def test_output_buffer_size_matches_grid(self):
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 48, 32)], "jacobi5")
        assert kernel.output_buffer.element_count == 48 * 32

    def test_boundary_clamp_appears_in_indexing(self):
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 32, 32)], "jacobi5")
        assert "min(max(gid_1 - 1, 0), 31)" in kernel.source

    def test_multi_grid_kernel_has_two_input_buffers(self):
        lowered = lower_program(build_hotspot2d(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 32, 32)] * 2, "hotspot2d")
        names = [b.name for b in kernel.buffers]
        assert "temp" in names and "power" in names and "output" in names

    def test_userfun_definition_emitted_once(self):
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 32, 32)], "jacobi5")
        assert kernel.source.count("inline float jacobi2d5pt") == 1

    def test_array_argument_userfun_is_inlined(self):
        lowered = lower_program(build_gaussian(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 32, 32)], "gaussian")
        # The 25 weights are inlined as literal multiplications.
        assert kernel.source.count("*") > 25

    def test_computed_pad_constant_value_is_printed(self):
        """padConstant's value is a scalar expression: it is printed, never zeroed."""
        program = L.fun(
            [array(Float, 8)],
            lambda a: L.map(
                lambda w: L.reduce(add, 0.0, w),
                L.slide(3, 1, L.pad_constant(1, 1, FunCall(add, L.lit(1.0), L.lit(2.0)), a)),
            ),
            names=["a"],
        )
        kernel = generate_kernel(lower_program(program, NAIVE), [array(Float, 8)])
        assert "? 0.0f :" not in kernel.source
        assert kernel.source.count("? add(1.0f, 2.0f) :") == 3

    @staticmethod
    def _sum_of_three_kernels():
        """The paper's ``map(reduce(add, 0.0), slide(3, 1, pad(1, 1, clamp, a)))``
        written bare and with the reduce wrapped in a lambda: NAIVE kernels."""
        def windows(a):
            return L.slide(3, 1, L.pad(1, 1, L.CLAMP, a))

        bare = L.fun([array(Float, 8)],
                     lambda a: FunCall(Map(Reduce(add, L.lit(0.0))), windows(a)),
                     names=["a"])
        wrapped = L.fun([array(Float, 8)],
                        lambda a: L.map(lambda w: L.reduce(add, 0.0, w), windows(a)),
                        names=["a"])
        return [generate_kernel(lower_program(program, NAIVE), [array(Float, 8)]).source
                for program in (bare, wrapped)]

    def test_bare_mapped_reduce_reads_what_the_lambda_form_reads(self):
        """A reduce mapped directly takes its length from the element's type."""
        bare, wrapped = self._sum_of_three_kernels()
        reads = [re.findall(r"a\[[^\]]*\]", source) for source in (bare, wrapped)]
        assert len(reads[0]) == 3 and len(set(reads[0])) == 3
        assert reads[0] == reads[1]
        assert reads[0] == ["a[min(max(gid_0 - 1, 0), 7)]", "a[min(gid_0, 7)]",
                            "a[min(gid_0 + 1, 7)]"]  # clamped

    def test_bare_mapped_reduce_kernel_parses_as_c(self, tmp_path):
        try:
            native.compiler()
        except native.Unavailable:
            pytest.skip("no C compiler on this host")
        assert c_diagnostics(self._sum_of_three_kernels()[:1], tmp_path) == ""

    def test_3d_kernel_uses_three_dimensions(self):
        from repro.apps.heat import build_heat

        lowered = lower_program(build_heat(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 16, 16, 16)], "heat")
        assert "get_global_id(2)" in kernel.source
        assert kernel.global_size == (16, 16, 16)


class TestTiledCodegen:
    def test_tiled_kernel_structure(self):
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(6))
        kernel = generate_kernel(lowered, [array(Float, 16, 16)], "jacobi5_tiled")
        assert "get_group_id" in kernel.source
        assert "get_local_id" in kernel.source
        assert "__local float" in kernel.source
        assert "barrier(CLK_LOCAL_MEM_FENCE);" in kernel.source
        assert kernel.local_memory_bytes == 6 * 6 * 4

    def test_tiled_kernel_without_local_memory_has_no_barrier(self):
        lowered = lower_program(
            build_jacobi2d_5pt(), tiled_strategy(6, use_local_memory=False)
        )
        kernel = generate_kernel(lowered, [array(Float, 16, 16)], "jacobi5_tiled")
        assert "barrier" not in kernel.source
        assert kernel.local_memory_bytes == 0

    def test_tiled_kernel_nd_range(self):
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(6))
        kernel = generate_kernel(lowered, [array(Float, 16, 16)], "jacobi5_tiled")
        # padded 18 → 4 tiles of step 4 per dimension, 4 outputs per tile
        assert kernel.local_size == (4, 4)
        assert kernel.global_size == (16, 16)

    def test_metadata_records_strategy(self):
        lowered = lower_program(build_jacobi2d_5pt(), tiled_strategy(6))
        kernel = generate_kernel(lowered, [array(Float, 16, 16)], "k")
        assert kernel.metadata["uses_tiling"] is True
        assert kernel.metadata["ndims"] == 2


class TestCodegenErrors:
    def test_scalar_arguments_rejected(self):
        from repro.core.types import TypeError_

        lowered_like = lower_program(build_jacobi2d_5pt(), NAIVE)
        with pytest.raises((CodegenError, TypeError_)):
            generate_kernel(lowered_like, [Float], "bad")

    def test_kernel_describe_mentions_sizes(self):
        lowered = lower_program(build_jacobi2d_5pt(), NAIVE)
        kernel = generate_kernel(lowered, [array(Float, 16, 16)], "k")
        assert "16x16" in kernel.describe()
