"""Common infrastructure shared by all benchmark applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import get_backend
from ..core.ir import Lambda
from ..core.types import Float, Type
from ..core.types import array as array_type
from ..runtime.simulator.kernel_model import ProblemInstance


@dataclass
class StencilBenchmark:
    """One stencil benchmark from Table 1.

    Attributes
    ----------
    name:
        Benchmark name as used in the paper's figures.
    ndims:
        Grid dimensionality (2 or 3).
    points:
        Number of neighbourhood values actually read per output element
        (Table 1 "Pts").
    num_grids:
        Number of input grids (Table 1 "#grids").
    default_shape / small_shape / large_shape:
        The paper's input sizes.  ``small``/``large`` are only set for the
        Figure-8 benchmarks which are evaluated at two sizes.
    build_program:
        Zero-argument callable returning the Lift expression (a closed
        :class:`~repro.core.ir.Lambda` over the input grids).
    reference:
        NumPy implementation with the same argument order as the program.
    make_inputs:
        Callable ``(shape, seed) -> list of NumPy arrays``.
    flops_per_output:
        Arithmetic cost per output element (used by the performance model).
    boundary:
        Human-readable boundary-condition description.
    """

    name: str
    ndims: int
    points: int
    num_grids: int
    default_shape: Tuple[int, ...]
    build_program: Callable[[], Lambda]
    reference: Callable[..., np.ndarray]
    make_inputs: Callable[[Tuple[int, ...], int], List[np.ndarray]]
    flops_per_output: float
    boundary: str = "clamp"
    small_shape: Optional[Tuple[int, ...]] = None
    large_shape: Optional[Tuple[int, ...]] = None
    in_figure7: bool = False
    in_figure8: bool = False
    stencil_extent: int = 3          # window width per dimension passed to slide
    description: str = ""
    num_program_inputs: Optional[int] = None  # defaults to num_grids (Table 1 value)
    #: How an iterative (time-stepping) run feeds each step's output back
    #: into the next step's inputs — one entry per program input: ``"out"``
    #: (the previous output), an input index (that input's previous value),
    #: or ``None`` (static across timesteps).  ``None`` as a whole selects
    #: the default: output → input 0, everything else static.
    carry: Optional[Tuple] = None

    # ------------------------------------------------------------------ helpers
    def input_types(self, shape: Sequence[int]) -> List[Type]:
        """Concrete Lift types of the input grids for a given shape."""
        count = self.num_program_inputs or self.num_grids
        return [array_type(Float, *shape) for _ in range(count)]

    def problem(self, shape: Optional[Sequence[int]] = None,
                label: Optional[str] = None) -> ProblemInstance:
        """The simulator's description of this benchmark at a given size."""
        shape = tuple(shape or self.default_shape)
        return ProblemInstance(
            name=label or self.name,
            output_shape=shape,
            stencil_points=self.points,
            num_input_grids=self.num_grids,
            flops_per_output=self.flops_per_output,
        )

    def shape_for(self, size: str) -> Tuple[int, ...]:
        """Resolve the paper's ``small``/``large``/``default`` size names."""
        if size == "small" and self.small_shape:
            return self.small_shape
        if size == "large" and self.large_shape:
            return self.large_shape
        return self.default_shape

    # ------------------------------------------------------------------ checking
    def run_lift(self, inputs: Sequence[np.ndarray], backend=None) -> np.ndarray:
        """Execute the Lift expression.

        ``backend`` selects the execution backend ("numpy", "interpreter",
        "crosscheck", or a :class:`~repro.backend.Backend` instance); the
        compiled NumPy backend applies when it is omitted.
        """
        program = self.build_program()
        result = get_backend(backend).run(program, list(inputs))
        return squeeze_result(np.asarray(result, dtype=np.float64))

    def run_interpreter(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """Execute the Lift expression with the reference interpreter (oracle)."""
        return self.run_lift(inputs, backend="interpreter")

    def carry_spec(self) -> Tuple:
        """The resolved carry specification for iterative execution."""
        from ..backend.plan import normalize_carry

        count = self.num_program_inputs or self.num_grids
        return normalize_carry(self.carry, count)

    def iterate(self, inputs: Sequence[np.ndarray], steps: int,
                backend=None) -> np.ndarray:
        """Run ``steps`` timesteps, feeding outputs back per :attr:`carry`.

        On the compiled backend (the default) this is the default plan's
        double-buffered loop (:meth:`NumpyBackend.iterate`); any other
        backend drives its per-sweep ``run`` through
        :func:`~repro.backend.plan.iterate_generic`.  The two are
        bit-identical; the plan loop just does not allocate or re-dispatch
        in the steady state.
        """
        from ..backend.base import NumpyBackend
        from ..backend.plan import iterate_generic

        resolved = get_backend(backend)
        program = self.build_program()
        spec = self.carry_spec()
        if isinstance(resolved, NumpyBackend):
            result = resolved.iterate(program, list(inputs), steps, carry=spec)
        else:
            result = iterate_generic(resolved, program, list(inputs), steps,
                                     carry=spec)
        return squeeze_result(np.asarray(result, dtype=np.float64))

    def run_reference(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        return np.asarray(self.reference(*inputs), dtype=np.float64)

    def verify(self, shape: Optional[Sequence[int]] = None, seed: int = 0,
               rtol: float = 1e-5, atol: float = 1e-6, backend=None) -> bool:
        """Check the Lift expression against the NumPy golden implementation."""
        shape = tuple(shape or self.default_shape)
        inputs = self.make_inputs(shape, seed)
        lift_out = self.run_lift(inputs, backend=backend)
        golden = self.run_reference(inputs)
        return np.allclose(lift_out, golden, rtol=rtol, atol=atol)


def squeeze_result(value: np.ndarray) -> np.ndarray:
    """Remove the trailing length-1 axes introduced by ``reduce`` results."""
    while value.ndim > 0 and value.shape[-1] == 1 and value.ndim > 2:
        value = value[..., 0]
    if value.ndim > 0 and value.shape[-1] == 1:
        value = value[..., 0]
    return value


def random_grid(shape: Sequence[int], seed: int, scale: float = 1.0) -> np.ndarray:
    """A reproducible random input grid."""
    rng = np.random.default_rng(seed)
    return (rng.random(tuple(shape)) * scale).astype(np.float64)


__all__ = ["StencilBenchmark", "random_grid", "squeeze_result"]
