"""Execution backends for Lift programs.

* :mod:`repro.backend.numpy_backend` — compiles lowered Lift expressions
  into vectorized NumPy kernels (views, strided windows, batched maps);
* :mod:`repro.backend.plan` — allocation-free execution plans: pooled
  buffers, replayable ``out=`` tapes, double-buffered iteration;
* :mod:`repro.backend.pool` — the sized buffer pool behind the plans;
* :mod:`repro.backend.cache` — the compilation cache (expression hash +
  input signature → compiled kernel);
* :mod:`repro.backend.base` — the :class:`Backend` protocol, the backend
  registry and the interpreter cross-check mode.
"""

from .base import (
    Backend,
    BackendMismatch,
    CrossCheckBackend,
    InterpreterBackend,
    NumpyBackend,
    get_backend,
    run_program,
)
from .cache import CompilationCache, default_cache, input_signature
from .numpy_backend import (
    CompiledKernel,
    CompileError,
    ExecutionError,
    compile_program,
)
from .plan import (
    ExecutionPlan,
    PlanCache,
    iterate_generic,
    normalize_carry,
)
from .pool import BufferPool

__all__ = [
    "Backend",
    "BackendMismatch",
    "BufferPool",
    "CompilationCache",
    "CompileError",
    "CompiledKernel",
    "CrossCheckBackend",
    "ExecutionError",
    "ExecutionPlan",
    "InterpreterBackend",
    "NumpyBackend",
    "PlanCache",
    "compile_program",
    "default_cache",
    "get_backend",
    "input_signature",
    "iterate_generic",
    "normalize_carry",
    "run_program",
]
