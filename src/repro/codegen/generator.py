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

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.arithmetic import Var, to_c
from ..core.ir import Expr, FunCall, Lambda, Literal, Param, UserFun
from ..core.primitives.algorithmic import Id, Map, Reduce
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
from ..core.primitives.stencil import PadConstant
from ..core.typecheck import check_program
from ..core.types import ArrayType, Type
from ..rewriting.strategies import LoweredProgram
from ..views import (
    View,
    ViewIndexed,
    ViewMemory,
    ViewScalar,
    array_size,
    c_literal,
    layout_view,
)
from .kernel import KernelBuffer, OpenCLKernel
from .memory import MemoryAllocator
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
            shape = [dim.evaluate() for dim in type_.shape()]
            name = _sanitize(param.name)
            param_views[param] = ViewMemory(name, shape)
            buffers.append(KernelBuffer(name, "float", math.prod(shape)))

        nest = _outermost_call(self.program.body, lambda fun: isinstance(fun, (MapGlb, MapWrg)))
        if nest is None:
            raise CodegenError("no mapGlb/mapWrg nest found in the lowered program")

        if isinstance(nest.fun, MapWrg):
            output_shape, global_size, local_size = self._generate_tiled(nest, param_views)
        else:
            output_shape, global_size, local_size = self._generate_naive(nest, param_views)

        buffers.append(KernelBuffer("output", "float", math.prod(output_shape), is_output=True))

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

        gids = [Var(gid) for gid in gid_names]
        element_view = _indexed(self.gen_value(data_arg, dict(param_views)), gids)
        result = self._as_scalar(self._apply(
            element_fn, [element_view], dict(param_views),
            [_element_type(data_arg.type, ndims)]))
        target = _indexed(ViewMemory("output", output_shape), gids)
        self.body.add(Assign(target.scalar_ref(), result.scalar_ref()))

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
        tiles_per_dim = self._output_shape(nest.type, ndims)
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

        wgs = [Var(wg) for wg in wg_names]
        lids = [Var(lid) for lid in lid_names]
        tile_view = _indexed(self.gen_value(tiles_arg, dict(param_views)), wgs)

        env = dict(param_views)
        env[tile_fn.params[0]] = tile_view

        tile_body = tile_fn.body
        inner_nest = _outermost_call(
            tile_body, lambda fun: isinstance(fun, MapLcl) and not _wraps_only_id(fun))
        if inner_nest is None:
            raise CodegenError("tiled kernel without an inner mapLcl nest")
        _, element_fn, windows_expr = self._collect_nest(inner_nest, MapLcl)
        self._stage_tile(tile_body, tile_view, ndims, tile_size, lid_names)

        element_view = _indexed(self.gen_value(windows_expr, env), lids)

        compute = Block()
        saved_body = self.body
        self.body = compute
        result = self._as_scalar(self._apply(
            element_fn, [element_view], env, [_element_type(windows_expr.type, ndims)]))
        target = _indexed(ViewMemory("output", output_shape),
                          [wg * outputs_per_tile + lid for wg, lid in zip(wgs, lids)])
        compute.add(Assign(target.scalar_ref(), result.scalar_ref()))
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
        ndims: int,
        tile_size: int,
        lid_names: List[str],
    ) -> None:
        """Emit the local-memory copy, if the tile body stages one.

        The tile body produced by the tiled strategy is
        ``mapLcl-nest(f, slideN(size, step, staged))`` where ``staged`` is the
        tile parameter itself or ``toLocal(mapLcl-nest(id))(tile)``.  For the
        latter, ``_tolocal_view`` is the copy, and ``gen_value`` reads the
        ``toLocal`` call from it.
        """
        self._tolocal_view = None
        if _outermost_call(tile_body, lambda fun: isinstance(fun, ToLocal)) is None:
            return

        allocation = self.memory.allocate_local(tile_size ** ndims)
        self.body.add(Comment("cooperative copy of the tile into local memory"))
        self.body.add(
            RawStatement(
                f"__local float {allocation.name}[{allocation.element_count}];"
            )
        )

        extents = [tile_size] * ndims
        loop_vars = [f"cp_{d}" for d in range(ndims)]
        copies = [Var(var) for var in loop_vars]
        innermost = Block()
        self._tolocal_view = ViewMemory(allocation.name, extents)
        innermost.add(Assign(_indexed(self._tolocal_view, copies).scalar_ref(),
                             _indexed(tile_view, copies).scalar_ref()))

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

    # ------------------------------------------------------------ value codegen
    def gen_value(self, expr: Expr, env: Dict[Param, View]) -> View:
        """Generate the view/value of an expression, emitting statements as needed."""
        if isinstance(expr, Param):
            if expr not in env:
                raise CodegenError(f"unbound parameter {expr.name!r} during code generation")
            return env[expr]

        if isinstance(expr, Literal):
            return ViewScalar(c_literal(expr))

        if not isinstance(expr, FunCall):
            raise CodegenError(f"cannot generate code for {type(expr).__name__}")

        if isinstance(expr.fun, ToLocal) and self._tolocal_view is not None:
            return self._tolocal_view
        views = [self.gen_value(arg, env) for arg in expr.args]
        return self._apply(expr.fun, views, env, [arg.type for arg in expr.args])

    def _apply(self, fun, views: List[View], env: Dict[Param, View],
               arg_types: Sequence[Optional[Type]] = ()) -> View:
        """Apply ``fun`` to argument views: bind a lambda's parameters and walk
        its body, call a user function, or take a layout primitive's view.

        ``arg_types`` are the arguments' types, where lengths come from: a
        mapped element's is its map argument's ``elem_type``.  A reduction's
        accumulator and element are scalars and need none.
        """
        if isinstance(fun, Lambda):
            inner_env = dict(env)
            inner_env.update(zip(fun.params, views))
            return self.gen_value(fun.body, inner_env)
        if isinstance(fun, UserFun):
            return self._gen_userfun_views(fun, views)
        if isinstance(fun, (ToLocal, ToGlobal, ToPrivate)):
            return self._apply(fun.f, views, env, arg_types)
        if isinstance(fun, (ReduceUnroll, ReduceSeq, Reduce)):
            return self._gen_reduce(fun, views[0], arg_types[0] if arg_types else None, env)
        if isinstance(fun, (Map, MapSeq, MapLcl, MapGlb, MapWrg)):
            element_type = _element_type(arg_types[0] if arg_types else None)
            return ViewIndexed(lambda i: self._apply(
                fun.f, [views[0].access(i)], env, [element_type]))
        if isinstance(fun, PadConstant):
            # the pad value is a scalar expression like any other
            views = [*views, self.gen_value(fun.value, env)]
        return layout_view(fun, views, arg_types)

    def _as_scalar(self, view: View) -> View:
        """Squeeze trailing length-1 dimensions (e.g. the array-of-1 a reduce returns)."""
        for _ in range(4):
            if view.is_scalar():
                return view
            view = view.access(0)
        raise CodegenError("element function did not produce a scalar result")

    # ------------------------------------------------------------ reductions
    def _gen_reduce(self, fun: Reduce, arg_view: View, arg_type: Optional[Type],
                    env: Dict[Param, View]) -> View:
        size = getattr(arg_type, "size", None)
        length = size.evaluate() if size is not None and size.is_constant() else None
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
                self.body.add(Assign(acc, self._combine(fun.f, acc, element, env)))
        else:
            loop_var = self.memory.fresh("red_i")
            bound = to_c(array_size(arg_type))
            loop_body = Block()
            element = arg_view.access(Var(loop_var)).scalar_ref()
            loop_body.add(Assign(acc, self._combine(fun.f, acc, element, env)))
            self.body.add(ForLoop(loop_var, "0", bound, body=loop_body))
        return ViewScalar(acc)

    def _combine(self, f, acc: str, element: str, env: Dict[Param, View]) -> str:
        """The reduction operator ``f`` applied to the accumulator and an element."""
        return self._apply(f, [ViewScalar(acc), ViewScalar(element)], env).scalar_ref()

    # ------------------------------------------------------------ user functions
    def _gen_userfun_views(self, fun: UserFun, arg_views: Sequence[View]) -> View:
        if all(v.is_scalar() for v in arg_views):
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
            if view.is_scalar():
                expression = re.sub(rf"\b{name}\b", f"({view.scalar_ref()})", expression)
                continue

            def substitute(match: "re.Match[str]", view=view) -> str:
                index = int(match.group(1))
                return f"({view.access(index).scalar_ref()})"

            expression = re.sub(rf"\b{name}\[(\d+)\]", substitute, expression)
        return f"({expression})"

    # ------------------------------------------------------------ helpers
    def _output_shape(self, nest_type: Type, ndims: int) -> List[int]:
        shape = []
        current = nest_type
        for _ in range(ndims):
            if not isinstance(current, ArrayType):
                raise CodegenError("output type has fewer dimensions than the map nest")
            shape.append(int(current.size.evaluate()))
            current = current.elem_type
        return shape

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


def _outermost_call(expr: Expr, accept) -> Optional[FunCall]:
    """The outermost call in ``expr`` whose function ``accept`` admits."""
    outermost = None
    for node in expr.walk():  # post-order: an enclosing call comes later
        if isinstance(node, FunCall) and accept(node.fun):
            if outermost is None or node.contains(outermost):
                outermost = node
    return outermost


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


def _indexed(view: View, indices) -> View:
    """``view`` indexed by each of ``indices`` in turn, outermost first."""
    for index in indices:
        view = view.access(index)
    return view


def _element_type(type_: Optional[Type], depth: int = 1) -> Optional[Type]:
    """The type ``depth`` array levels inside ``type_`` (``None`` if it has fewer)."""
    for _ in range(depth):
        type_ = getattr(type_, "elem_type", None)
    return type_


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"\W", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"arg_{cleaned}"
    return cleaned


__all__ = ["CodegenError", "generate_kernel"]
