"""Execution backends: a common protocol, the registry, and cross-checking.

The reference interpreter remains the semantic oracle of the system; the
compiled NumPy backend is the fast path used by experiments, exploration,
tuning and benchmarks.  Both are exposed behind one small protocol so call
sites select a backend by name instead of hard-coding an execution
strategy:

* ``interpreter`` — :class:`InterpreterBackend`, per-element evaluation over
  nested lists (slow, simple, trusted);
* ``numpy`` — :class:`NumpyBackend`, compiled vectorized kernels with the
  compilation cache (the default);
* ``crosscheck`` — :class:`CrossCheckBackend`, runs *both* and verifies the
  compiled result against the interpreter before returning it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..core.ir import Lambda
from .cache import CompilationCache, default_cache
from .numpy_backend import CompileError, compile_program
from .plan import ExecutionPlan, PlanCache, iterate_generic


@runtime_checkable
class Backend(Protocol):
    """Anything that can execute a closed Lift program on concrete data."""

    name: str

    def run(
        self,
        program: Lambda,
        inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Execute ``program`` on ``inputs`` and return the result as ndarray."""
        ...  # pragma: no cover - protocol stub


class InterpreterBackend:
    """The reference interpreter wrapped in the backend protocol."""

    name = "interpreter"

    def run(
        self,
        program: Lambda,
        inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        from ..runtime.interpreter import evaluate_program

        raw = evaluate_program(program, list(inputs), size_env)
        return np.asarray(raw, dtype=np.float64)


_DEFAULT_CACHE = object()  # sentinel: "use the process-wide default cache"


class NumpyBackend:
    """The compiled vectorized backend (with compilation caching).

    ``cache`` defaults to the process-wide cache; pass ``None`` to compile
    on every run.  When ``fallback`` is set (the default), programs the
    compiler cannot handle — e.g. ones containing first-class function
    values — are executed by the interpreter instead of failing, so
    exploratory code paths never lose coverage by switching backends.

    ``plans`` is the backend's :class:`~repro.backend.plan.PlanCache`:
    :meth:`plan` returns the cached allocation-free execution plan (pooled
    buffers, ``out=`` tapes, double-buffered iteration), bit-identical to
    :meth:`run`; it is the one place a tile spec or replay worker count is
    chosen.  :meth:`iterate` runs the default plan's loop, falling back to
    the per-sweep generic loop for programs a plan cannot capture.
    """

    name = "numpy"

    def __init__(
        self,
        cache=_DEFAULT_CACHE,
        fallback: bool = True,
        plans: Optional[PlanCache] = None,
    ) -> None:
        self.cache: Optional[CompilationCache] = (
            default_cache if cache is _DEFAULT_CACHE else cache
        )
        self.fallback = fallback
        self.plans = plans if plans is not None else PlanCache()

    def run(
        self,
        program: Lambda,
        inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        try:
            if self.cache is not None:
                kernel = self.cache.get_or_compile(program, inputs, size_env)
            else:
                kernel = compile_program(program, size_env)
        except CompileError:
            if not self.fallback:
                raise
            return InterpreterBackend().run(program, inputs, size_env)
        result = kernel(inputs)
        return np.asarray(result, dtype=np.float64)

    def run_batched(
        self,
        program: Lambda,
        stacked_inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Execute a batch of requests stacked along a leading axis.

        Each element of ``stacked_inputs`` is ``np.stack`` of one input
        across the batch.  The kernel is resolved through the compilation
        cache under the *per-item* signature (the batch axis stripped), so a
        program served both one-at-a-time and in batches of any size compiles
        exactly once.  Returns an array whose leading axis indexes requests;
        slices are bit-identical to single-request execution.
        """
        arrays = [np.asarray(value, dtype=np.float64) for value in stacked_inputs]
        signature = tuple(
            (array.shape[1:], str(array.dtype)) for array in arrays
        )
        if self.cache is not None:
            kernel = self.cache.get_or_compile_keyed(program, signature, size_env)
        else:
            kernel = compile_program(program, size_env)
        return np.asarray(kernel.run_batched(arrays), dtype=np.float64)

    # -- execution plans (the allocation-free steady path) -------------------
    def plan(
        self,
        program: Lambda,
        inputs_or_signature,
        size_env: Optional[Mapping[str, int]] = None,
        batched: bool = False,
        tile_shape=None,
        parallel_workers=None,
    ) -> ExecutionPlan:
        """The cached execution plan for this program + input shapes.

        The plan's staged kernel is resolved through this backend's
        compilation cache under the *per-item* ``float64`` signature — the
        same key the generic path uses — so a program served generically,
        through plans, and in batches still compiles exactly once.
        ``tile_shape`` selects the tape optimizer's tile (``None`` = auto
        heuristic, ``False`` = unfused, tuple = explicit trailing-axis
        blocking); ``parallel_workers`` selects N-way chunked replay of
        fused regions (``1`` = serial, ``None`` = the size rule of
        :func:`~repro.backend.fuse.auto_workers`).  Distinct tile shapes
        and resolved worker counts cache distinct plans.
        """
        kernel_resolver = None
        if self.cache is not None:
            from .plan import plan_signature

            shapes = plan_signature(inputs_or_signature)
            if batched:
                shapes = tuple(shape[1:] for shape in shapes)
            signature = tuple((shape, "float64") for shape in shapes)
            kernel_resolver = lambda: self.cache.get_or_compile_keyed(  # noqa: E731
                program, signature, size_env
            )
        return self.plans.get_or_compile(
            program, inputs_or_signature, size_env, batched=batched,
            kernel_resolver=kernel_resolver, tile_shape=tile_shape,
            parallel_workers=parallel_workers,
        )

    def iterate(
        self,
        program: Lambda,
        inputs: Sequence,
        steps: int,
        carry=None,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        """Run ``steps`` timesteps through the double-buffered plan loop.

        Bit-identical to :func:`~repro.backend.plan.iterate_generic` driving
        :meth:`run` once per step with the same ``carry`` specification.
        Falls back to that per-sweep loop for programs a plan cannot capture.
        """
        try:
            return self.plan(program, inputs, size_env).iterate(
                inputs, steps, carry=carry
            )
        except CompileError:
            return iterate_generic(self, program, inputs, steps,
                                   carry=carry, size_env=size_env)


class BackendMismatch(AssertionError):
    """The compiled backend disagreed with the interpreter oracle."""


class CrossCheckBackend:
    """Runs the primary backend and verifies it against an oracle.

    This is the belt-and-braces mode for experiments: results come from the
    fast compiled path but every execution is validated against the
    reference interpreter (within ``rtol``/``atol``).
    """

    name = "crosscheck"

    def __init__(
        self,
        primary: Optional[Backend] = None,
        oracle: Optional[Backend] = None,
        rtol: float = 1e-6,
        atol: float = 0.0,
    ) -> None:
        self.primary = primary if primary is not None else NumpyBackend()
        self.oracle = oracle if oracle is not None else InterpreterBackend()
        self.rtol = rtol
        self.atol = atol

    def run(
        self,
        program: Lambda,
        inputs: Sequence,
        size_env: Optional[Mapping[str, int]] = None,
    ) -> np.ndarray:
        result = self.primary.run(program, inputs, size_env)
        expected = self.oracle.run(program, inputs, size_env)
        if result.shape != expected.shape or not np.allclose(
            result, expected, rtol=self.rtol, atol=self.atol
        ):
            raise BackendMismatch(
                f"backend {self.primary.name!r} disagrees with "
                f"{self.oracle.name!r}: max abs error "
                f"{np.max(np.abs(np.asarray(result) - expected)) if result.shape == expected.shape else 'shape mismatch'}"
            )
        return result


_BACKENDS = {
    "interpreter": InterpreterBackend,
    "numpy": NumpyBackend,
    "crosscheck": CrossCheckBackend,
}


def get_backend(which: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend instance from a name, an instance, or ``None``
    (the compiled NumPy backend)."""
    if which is None:
        which = "numpy"
    if isinstance(which, str):
        try:
            return _BACKENDS[which]()
        except KeyError:
            raise ValueError(
                f"unknown backend {which!r}; known: {sorted(_BACKENDS)}"
            ) from None
    if isinstance(which, Backend):
        return which
    raise TypeError(f"cannot interpret {which!r} as a backend")


def run_program(
    program: Lambda,
    inputs: Sequence,
    size_env: Optional[Mapping[str, int]] = None,
    backend: Union[str, Backend, None] = None,
) -> np.ndarray:
    """Execute a program with the selected (or default) backend."""
    return get_backend(backend).run(program, inputs, size_env)


__all__ = [
    "Backend",
    "BackendMismatch",
    "CrossCheckBackend",
    "InterpreterBackend",
    "NumpyBackend",
    "get_backend",
    "run_program",
]
