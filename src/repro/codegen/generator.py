"""OpenCL-C code generation from lowered Lift expressions.

The generator consumes a :class:`~repro.rewriting.strategies.LoweredProgram`
(produced by the lowering strategies) with concrete input types and emits an
OpenCL kernel.  Data-layout primitives (``pad``, ``slide``, ``zip``,
``transpose``, ...) never generate code: they become views
(:mod:`repro.views`) whose index arithmetic is folded into the final memory
accesses, exactly as described in Section 5 of the paper.

Two kernel shapes are supported, matching the two lowering strategies:

* **naive / global** — a nest of ``mapGlb`` primitives: one work-item per
  output element, every neighbourhood element read straight from global
  memory;
* **overlapped tiling** — a nest of ``mapWrg`` primitives over tiles with a
  nest of ``mapLcl`` primitives inside; when the strategy stages the tile
  through local memory the generator emits the cooperative copy loops and the
  work-group barrier.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ir import Expr, FunCall, Lambda, Literal, Param, UserFun
from ..core.primitives.algorithmic import (
    ArrayConstructor,
    At,
    Get,
    Id,
    Join,
    Map,
    Reduce,
    Split,
    Transpose,
    TupleCons,
    Zip,
)
from ..core.primitives.opencl import (
    MapGlb,
    MapLcl,
    MapSeq,
    MapWrg,
    ReduceSeq,
    ReduceUnroll,
    ToGlobal,
    ToLocal,
    ToPrivate,
)
from ..core.primitives.stencil import Pad, PadConstant, Slide
from ..core.typecheck import check_program
from ..core.types import ArrayType, Type
from ..rewriting.strategies import LoweredProgram
from ..views.view import (
    View,
    ViewError,
    ViewGenerated,
    ViewJoin,
    ViewMapped,
    ViewMemory,
    ViewPad,
    ViewPadConstant,
    ViewScalar,
    ViewSlide,
    ViewSplit,
    ViewTranspose,
    ViewTuple,
    ViewZip,
)
from .kernel import KernelBuffer, OpenCLKernel
from .memory import MemoryAllocator, flat_index
from .opencl_ast import (
    Assign,
    Barrier,
    Block,
    Comment,
    ForLoop,
    FunctionDef,
    If,
    KernelFunction,
    RawStatement,
    VarDecl,
)


class CodegenError(Exception):
    """Raised when an expression cannot be compiled to OpenCL."""


def generate_kernel(
    lowered: LoweredProgram,
    input_types: Sequence[Type],
    kernel_name: str = "lift_stencil",
    local_size: Optional[Tuple[int, ...]] = None,
) -> OpenCLKernel:
    """Generate an OpenCL kernel for a lowered program with concrete input types."""
    generator = _KernelGenerator(lowered, list(input_types), kernel_name, local_size)
    return generator.generate()


class _KernelGenerator:
    def __init__(
        self,
        lowered: LoweredProgram,
        input_types: List[Type],
        kernel_name: str,
        local_size: Optional[Tuple[int, ...]],
    ) -> None:
        self.lowered = lowered
        self.program = lowered.program
        self.input_types = input_types
        self.kernel_name = kernel_name
        self.requested_local_size = local_size
        self.memory = MemoryAllocator()
        self.user_functions: Dict[str, UserFun] = {}
        self.body = Block()
        self._tolocal_view: Optional[View] = None

    # ------------------------------------------------------------------ setup
    def generate(self) -> OpenCLKernel:
        check_program(self.program, self.input_types)

        param_views: Dict[Param, View] = {}
        buffers: List[KernelBuffer] = []
        for param, type_ in zip(self.program.params, self.input_types):
            if not isinstance(type_, ArrayType):
                raise CodegenError("scalar kernel arguments are not supported yet")
            shape = [str(dim.evaluate()) for dim in type_.shape()]
            name = _sanitize(param.name)
            param_views[param] = ViewMemory(name, shape)
            buffers.append(
                KernelBuffer(name, "float", _product(type_), is_output=False)
            )

        nest = self._find_compute_nest(self.program.body)
        if nest is None:
            raise CodegenError("no mapGlb/mapWrg nest found in the lowered program")

        if isinstance(nest.fun, MapWrg):
            output_shape, global_size, local_size = self._generate_tiled(nest, param_views)
        else:
            output_shape, global_size, local_size = self._generate_naive(nest, param_views)

        out_elements = 1
        for extent in output_shape:
            out_elements *= extent
        buffers.append(KernelBuffer("output", "float", out_elements, is_output=True))

        source = self._render_source(buffers)
        strategy = self.lowered.strategy
        return OpenCLKernel(
            name=self.kernel_name,
            source=source,
            buffers=buffers,
            global_size=global_size,
            local_size=local_size,
            local_memory_bytes=self.memory.local_memory_bytes,
            metadata={
                "strategy": strategy.describe(),
                "ndims": self.lowered.ndims,
                "uses_tiling": strategy.use_tiling,
                "uses_local_memory": strategy.use_tiling and strategy.use_local_memory,
                "output_shape": tuple(output_shape),
            },
        )

    # ------------------------------------------------------------- nest search
    def _find_compute_nest(self, body: Expr) -> Optional[FunCall]:
        candidates = [
            node
            for node in body.walk()
            if isinstance(node, FunCall) and isinstance(node.fun, (MapGlb, MapWrg))
        ]
        if not candidates:
            return None
        outermost = candidates[0]
        for node in candidates[1:]:
            if node.contains(outermost):
                outermost = node
        return outermost

    def _collect_nest(self, nest: FunCall, map_class) -> Tuple[List[int], Expr, Expr]:
        """Peel a ``mapX(dim)(λx. mapX(dim')( ... ))`` nest.

        Returns the list of OpenCL dimensions (outermost first), the innermost
        element function and the data argument of the outermost map.
        """
        dims: List[int] = []
        current = nest.fun
        while True:
            dims.append(current.dim)
            f = current.f
            if (
                isinstance(f, Lambda)
                and len(f.params) == 1
                and isinstance(f.body, FunCall)
                and isinstance(f.body.fun, map_class)
                and len(f.body.args) == 1
                and f.body.args[0] is f.params[0]
            ):
                current = f.body.fun
                continue
            return dims, f, nest.args[0]

    # ------------------------------------------------------------ naive kernel
    def _generate_naive(
        self, nest: FunCall, param_views: Dict[Param, View]
    ) -> Tuple[List[int], Tuple[int, ...], Optional[Tuple[int, ...]]]:
        dims, element_fn, data_arg = self._collect_nest(nest, MapGlb)
        ndims = len(dims)
        output_shape = self._output_shape(nest.type, ndims)

        self.body.add(Comment("one work-item per output element (mapGlb nest)"))
        gid_names = []
        for level, dim in enumerate(dims):
            gid = f"gid_{dim}"
            gid_names.append(gid)
            self.body.add(VarDecl("int", gid, f"get_global_id({dim})", qualifier="const"))
        for level, dim in enumerate(dims):
            self.body.add(
                RawStatement(f"if (gid_{dim} >= {output_shape[level]}) return;")
            )

        data_view = self.gen_value(data_arg, dict(param_views))
        element_view = data_view
        for gid in gid_names:
            element_view = element_view.access(gid)

        result = self._apply_element_function(element_fn, element_view, dict(param_views))
        out_index = flat_index(gid_names, output_shape)
        self.body.add(Assign(f"output[{out_index}]", result.scalar_ref()))

        global_size = tuple(reversed(output_shape))
        local_size = self.requested_local_size
        return output_shape, global_size, local_size

    # ------------------------------------------------------------ tiled kernel
    def _generate_tiled(
        self, nest: FunCall, param_views: Dict[Param, View]
    ) -> Tuple[List[int], Tuple[int, ...], Optional[Tuple[int, ...]]]:
        dims, tile_fn, tiles_arg = self._collect_nest(nest, MapWrg)
        ndims = len(dims)
        if not isinstance(tile_fn, Lambda) or len(tile_fn.params) != 1:
            raise CodegenError("expected the tile function to be a unary lambda")

        tile_size = self.lowered.strategy.tile_size
        size, step = self.lowered.stencil_size, self.lowered.stencil_step
        outputs_per_tile = (tile_size - size + step) // step
        tiles_per_dim = self._tiles_per_dim(nest.type, ndims)
        output_shape = [tiles_per_dim[d] * outputs_per_tile for d in range(ndims)]

        self.body.add(Comment("one work-group per tile (mapWrg nest), overlapped tiling"))
        wg_names, lid_names = [], []
        for level, dim in enumerate(dims):
            wg = f"wg_{dim}"
            lid = f"lid_{dim}"
            wg_names.append(wg)
            lid_names.append(lid)
            self.body.add(VarDecl("int", wg, f"get_group_id({dim})", qualifier="const"))
            self.body.add(VarDecl("int", lid, f"get_local_id({dim})", qualifier="const"))

        tiles_view = self.gen_value(tiles_arg, dict(param_views))
        tile_view = tiles_view
        for wg in wg_names:
            tile_view = tile_view.access(wg)

        env = dict(param_views)
        env[tile_fn.params[0]] = tile_view

        tile_body = tile_fn.body
        staged_view, windows_expr = self._stage_tile(tile_body, tile_view, env, ndims, tile_size, lid_names)

        inner_nest = self._find_inner_lcl_nest(tile_body)
        if inner_nest is None:
            raise CodegenError("tiled kernel without an inner mapLcl nest")
        lcl_dims, element_fn, _ = self._collect_nest(inner_nest, MapLcl)

        windows_view = self.gen_value(windows_expr, env)
        element_view = windows_view
        for lid in lid_names:
            element_view = element_view.access(lid)

        compute = Block()
        saved_body = self.body
        self.body = compute
        result = self._apply_element_function(element_fn, element_view, env)
        out_indices = [
            f"({wg} * {outputs_per_tile} + {lid})" for wg, lid in zip(wg_names, lid_names)
        ]
        out_index = flat_index(out_indices, output_shape)
        compute.add(Assign(f"output[{out_index}]", result.scalar_ref()))
        self.body = saved_body

        guard = " && ".join(f"{lid} < {outputs_per_tile}" for lid in lid_names)
        self.body.add(If(guard, compute))

        local_size = self.requested_local_size or tuple([outputs_per_tile] * ndims)
        global_size = tuple(
            tiles * loc for tiles, loc in zip(reversed(tiles_per_dim), local_size)
        )
        return output_shape, global_size, local_size

    def _stage_tile(
        self,
        tile_body: Expr,
        tile_view: View,
        env: Dict[Param, View],
        ndims: int,
        tile_size: int,
        lid_names: List[str],
    ) -> Tuple[Optional[View], Expr]:
        """Emit the local-memory copy (if any) and locate the windows expression.

        The tile body produced by the tiled strategy is
        ``mapLcl-nest(f, slideN(size, step, staged))`` where ``staged`` is the
        tile parameter itself or ``toLocal(mapLcl-nest(id))(tile)``.
        """
        tolocal_calls = [
            node
            for node in tile_body.walk()
            if isinstance(node, FunCall) and isinstance(node.fun, ToLocal)
        ]
        inner_nest = self._find_inner_lcl_nest(tile_body)
        if inner_nest is None:
            raise CodegenError("tiled kernel without an inner mapLcl nest")
        windows_expr = inner_nest.args[0]

        if not tolocal_calls:
            self._tolocal_view = None
            return None, windows_expr

        allocation = self.memory.allocate_local("float", tile_size ** ndims)
        self.body.add(Comment("cooperative copy of the tile into local memory"))
        self.body.add(
            RawStatement(
                f"__local float {allocation.name}[{allocation.element_count}];"
            )
        )

        extents = [tile_size] * ndims
        loop_vars = [f"cp_{d}" for d in range(ndims)]
        innermost = Block()
        dst_index = flat_index(loop_vars, extents)
        src_view = tile_view
        for var in loop_vars:
            src_view = src_view.access(var)
        innermost.add(Assign(f"{allocation.name}[{dst_index}]", src_view.scalar_ref()))

        loop: Block = innermost
        for depth in reversed(range(ndims)):
            lid = lid_names[depth]
            wrapped = ForLoop(
                loop_vars[depth],
                lid,
                str(tile_size),
                step=f"get_local_size({self.lowered.ndims - 1 - depth})",
                body=loop,
            )
            loop = Block([wrapped])
        for stmt in loop.statements:
            self.body.add(stmt)
        self.body.add(Barrier())

        staged_view = ViewMemory(allocation.name, [str(tile_size)] * ndims, space="local")
        self._tolocal_view = staged_view
        return staged_view, windows_expr

    def _find_inner_lcl_nest(self, tile_body: Expr) -> Optional[FunCall]:
        candidates = [
            node
            for node in tile_body.walk()
            if isinstance(node, FunCall)
            and isinstance(node.fun, MapLcl)
            and not isinstance(node.fun.f, Id)
            and not _wraps_only_id(node.fun)
        ]
        if not candidates:
            return None
        outermost = candidates[0]
        for node in candidates[1:]:
            if node.contains(outermost):
                outermost = node
        return outermost

    # ------------------------------------------------------------ value codegen
    def gen_value(self, expr: Expr, env: Dict[Param, View]) -> View:
        """Generate the view/value of an expression, emitting statements as needed."""
        if isinstance(expr, Param):
            if expr not in env:
                raise CodegenError(f"unbound parameter {expr.name!r} during code generation")
            return env[expr]

        if isinstance(expr, Literal):
            return ViewScalar(_literal_c(expr))

        if not isinstance(expr, FunCall):
            raise CodegenError(f"cannot generate code for {type(expr).__name__}")

        fun = expr.fun

        # --- data layout primitives become views -----------------------------
        if isinstance(fun, Pad):
            parent = self.gen_value(expr.args[0], env)
            size = self._size_of(expr.args[0])
            return ViewPad(parent, fun.left, fun.right, size, fun.boundary.c_template)
        if isinstance(fun, PadConstant):
            parent = self.gen_value(expr.args[0], env)
            size = self._size_of(expr.args[0])
            constant = _literal_c(fun.value) if isinstance(fun.value, Literal) else "0.0f"
            return ViewPadConstant(parent, fun.left, fun.right, size, constant)
        if isinstance(fun, Slide):
            parent = self.gen_value(expr.args[0], env)
            return ViewSlide(parent, str(fun.size), str(fun.step))
        if isinstance(fun, Split):
            parent = self.gen_value(expr.args[0], env)
            return ViewSplit(parent, str(fun.chunk))
        if isinstance(fun, Join):
            parent = self.gen_value(expr.args[0], env)
            inner = self._inner_size_of(expr.args[0])
            return ViewJoin(parent, inner)
        if isinstance(fun, Transpose):
            return ViewTranspose(self.gen_value(expr.args[0], env))
        if isinstance(fun, Zip):
            return ViewZip([self.gen_value(a, env) for a in expr.args])
        if isinstance(fun, TupleCons):
            return ViewTuple([self.gen_value(a, env) for a in expr.args])
        if isinstance(fun, At):
            return self.gen_value(expr.args[0], env).access(fun.index)
        if isinstance(fun, Get):
            return self.gen_value(expr.args[0], env).get(fun.index)
        if isinstance(fun, ArrayConstructor):
            return ViewGenerated(fun.c_expression or "0.0f", str(fun.size))
        if isinstance(fun, Id):
            return self.gen_value(expr.args[0], env)

        # --- memory space modifiers ------------------------------------------
        if isinstance(fun, ToLocal):
            if self._tolocal_view is not None:
                return self._tolocal_view
            return self._apply_layout_fn(fun.f, expr.args[0], env)
        if isinstance(fun, (ToGlobal, ToPrivate)):
            return self._apply_layout_fn(fun.f, expr.args[0], env)

        # --- reductions --------------------------------------------------------
        if isinstance(fun, (ReduceUnroll, ReduceSeq, Reduce)):
            return self._gen_reduce(fun, expr, env)

        # --- plain / lowered maps over layout functions ------------------------
        if isinstance(fun, (Map, MapSeq, MapLcl, MapGlb, MapWrg)):
            parent = self.gen_value(expr.args[0], env)
            return ViewMapped(fun.f, parent, env)

        # --- user functions -----------------------------------------------------
        if isinstance(fun, UserFun):
            return self._gen_userfun_call(fun, expr.args, env)

        # --- beta reduction ------------------------------------------------------
        if isinstance(fun, Lambda):
            inner_env = dict(env)
            for param, arg in zip(fun.params, expr.args):
                inner_env[param] = self.gen_value(arg, env)
            return self.gen_value(fun.body, inner_env)

        raise CodegenError(f"no code generation for primitive {getattr(fun, 'name', fun)!r}")

    def _apply_layout_fn(self, f, arg: Expr, env: Dict[Param, View]) -> View:
        arg_view = self.gen_value(arg, env)
        if isinstance(f, Lambda) and len(f.params) == 1:
            inner_env = dict(env)
            inner_env[f.params[0]] = arg_view
            return self.gen_value(f.body, inner_env)
        return arg_view

    def _apply_element_function(self, f, element: View, env: Dict[Param, View]) -> View:
        if isinstance(f, Lambda):
            inner_env = dict(env)
            inner_env[f.params[0]] = element
            result = self.gen_value(f.body, inner_env)
        elif isinstance(f, UserFun):
            result = self._gen_userfun_views(f, [element])
        elif isinstance(f, Id):
            result = element
        else:
            raise CodegenError(f"unsupported element function {type(f).__name__}")
        return self._as_scalar(result)

    def _as_scalar(self, view: View) -> View:
        """Squeeze trailing length-1 dimensions (e.g. the array-of-1 a reduce returns)."""
        for _ in range(4):
            try:
                view.scalar_ref()
                return view
            except ViewError:
                view = view.access(0)
        raise CodegenError("element function did not produce a scalar result")

    # ------------------------------------------------------------ reductions
    def _gen_reduce(self, fun: Reduce, expr: FunCall, env: Dict[Param, View]) -> View:
        arg = expr.args[0]
        arg_view = self.gen_value(arg, env)
        length = self._constant_length(arg)
        init_view = self.gen_value(fun.init, env) if isinstance(fun.init, Expr) else ViewScalar("0.0f")
        acc = self.memory.fresh("acc")
        self.body.add(VarDecl("float", acc, init_view.scalar_ref()))

        unroll = isinstance(fun, ReduceUnroll) or (
            not isinstance(fun, ReduceSeq) and length is not None and length <= 32
        )
        if unroll:
            if length is None:
                raise CodegenError("reduceUnroll requires a compile-time constant length")
            for i in range(length):
                element = arg_view.access(i).scalar_ref()
                self.body.add(Assign(acc, self._apply_scalar_fn(fun.f, [acc, element], env)))
        else:
            loop_var = self.memory.fresh("red_i")
            bound = str(length) if length is not None else self._size_of(arg)
            loop_body = Block()
            element = arg_view.access(loop_var).scalar_ref()
            loop_body.add(Assign(acc, self._apply_scalar_fn(fun.f, [acc, element], env)))
            self.body.add(ForLoop(loop_var, "0", bound, body=loop_body))
        return ViewScalar(acc)

    # ------------------------------------------------------------ user functions
    def _gen_userfun_call(self, fun: UserFun, args: Sequence[Expr],
                          env: Dict[Param, View]) -> View:
        arg_views = [self.gen_value(a, env) for a in args]
        return self._gen_userfun_views(fun, arg_views)

    def _gen_userfun_views(self, fun: UserFun, arg_views: Sequence[View]) -> View:
        if all(_is_scalar_view(v) for v in arg_views):
            self.user_functions[fun.name] = fun
            call = f"{fun.name}({', '.join(v.scalar_ref() for v in arg_views)})"
            return ViewScalar(call)
        # Array-valued argument (e.g. a flattened neighbourhood combined with
        # compile-time weights): inline the body, substituting indexed reads.
        return ViewScalar(self._inline_userfun(fun, arg_views))

    def _inline_userfun(self, fun: UserFun, arg_views: Sequence[View]) -> str:
        body = fun.body_c.strip()
        if not body.startswith("return") or not body.endswith(";"):
            raise CodegenError(
                f"cannot inline user function {fun.name!r} with a non-expression body"
            )
        expression = body[len("return"):].rstrip(";").strip()
        for name, view in zip(fun.param_names, arg_views):
            if _is_scalar_view(view):
                expression = re.sub(rf"\b{name}\b", f"({view.scalar_ref()})", expression)
                continue

            def substitute(match: "re.Match[str]", view=view) -> str:
                index = int(match.group(1))
                return f"({view.access(index).scalar_ref()})"

            expression = re.sub(rf"\b{name}\[(\d+)\]", substitute, expression)
        return f"({expression})"

    def _apply_scalar_fn(self, f, args: List[str], env: Dict[Param, View]) -> str:
        if isinstance(f, UserFun):
            self.user_functions[f.name] = f
            return f"{f.name}({', '.join(args)})"
        if isinstance(f, Lambda):
            inner_env = dict(env)
            for param, arg in zip(f.params, args):
                inner_env[param] = ViewScalar(arg)
            return self.gen_value(f.body, inner_env).scalar_ref()
        raise CodegenError(f"unsupported reduction operator {type(f).__name__}")

    # ------------------------------------------------------------ helpers
    def _size_of(self, expr: Expr) -> str:
        if isinstance(expr.type, ArrayType):
            return str(expr.type.size)
        raise CodegenError("expression has no array type; was the program type-checked?")

    def _inner_size_of(self, expr: Expr) -> str:
        if isinstance(expr.type, ArrayType) and isinstance(expr.type.elem_type, ArrayType):
            return str(expr.type.elem_type.size)
        raise CodegenError("join applied to a non-nested array")

    def _constant_length(self, expr: Expr) -> Optional[int]:
        if isinstance(expr.type, ArrayType) and expr.type.size.is_constant():
            return expr.type.size.evaluate()
        return None

    def _output_shape(self, nest_type: Type, ndims: int) -> List[int]:
        shape = []
        current = nest_type
        for _ in range(ndims):
            if not isinstance(current, ArrayType):
                raise CodegenError("output type has fewer dimensions than the map nest")
            shape.append(int(current.size.evaluate()))
            current = current.elem_type
        return shape

    def _tiles_per_dim(self, nest_type: Type, ndims: int) -> List[int]:
        return self._output_shape(nest_type, ndims)

    # ------------------------------------------------------------ rendering
    def _render_source(self, buffers: List[KernelBuffer]) -> str:
        parts: List[str] = [
            "// Generated by the Lift stencil reproduction "
            f"({self.lowered.strategy.describe()})",
        ]
        for fun in self.user_functions.values():
            params = ", ".join(f"float {p}" for p in fun.param_names)
            parts.append(FunctionDef("float", fun.name, [params], fun.body_c).render())

        kernel_params = []
        for buffer in buffers:
            qualifier = "" if buffer.is_output else "const "
            kernel_params.append(
                f"__global {qualifier}float* restrict {buffer.name}"
            )
        kernel = KernelFunction(self.kernel_name, kernel_params, self.body)
        parts.append(kernel.render())
        return "\n\n".join(parts) + "\n"


def _wraps_only_id(map_prim: MapLcl) -> bool:
    """True when a mapLcl nest only applies the identity (a copy nest)."""
    f = map_prim.f
    while isinstance(f, Lambda) and len(f.params) == 1 and isinstance(f.body, FunCall):
        inner = f.body.fun
        if isinstance(inner, (MapLcl, Map)) and f.body.args and f.body.args[0] is f.params[0]:
            f = inner.f
            continue
        break
    return isinstance(f, Id)


def _is_scalar_view(view: View) -> bool:
    try:
        view.scalar_ref()
        return True
    except ViewError:
        return False


def _literal_c(literal: Literal) -> str:
    value = literal.value
    if isinstance(value, float):
        return f"{value}f"
    return str(value)


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"\W", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"arg_{cleaned}"
    return cleaned


def _product(type_: ArrayType) -> int:
    total = 1
    for dim in type_.shape():
        total *= int(dim.evaluate())
    return total


__all__ = ["CodegenError", "generate_kernel"]
