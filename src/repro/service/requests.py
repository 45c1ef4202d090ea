"""Request/response types of the stencil execution service, plus wire forms.

A request names *what* to run — a registered benchmark or a full serialized
program — and carries concrete input grids.  Responses return the result
(optionally) together with the execution metadata the batching layer
produced: which structural digest the request routed to, how large the
micro-batch was, and the observed latency.

``to_wire``/``from_wire`` translate both types to JSON-able dicts for the
TCP endpoint (JSON lines over an asyncio stream); in-process callers hand
the dataclasses to :class:`~repro.service.server.StencilService` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.ir import Lambda
from ..core.serialize import program_from_dict, program_to_dict


class ServiceError(Exception):
    """A request could not be served (bad request, plan, or execution)."""


#: Admission classes, in drain order: ``high`` is served before ``normal``
#: before ``batch`` whenever more work is queued than one micro-batch holds.
PRIORITIES = ("high", "normal", "batch")

#: Structured error codes carried by :attr:`ExecutionResponse.code`.
DEADLINE_EXCEEDED = "DeadlineExceeded"
ADMISSION_REJECTED = "AdmissionRejected"
UNAUTHORIZED = "Unauthorized"
REQUEST_TOO_LARGE = "RequestTooLarge"
BAD_REQUEST = "BadRequest"
UNAVAILABLE = "Unavailable"
NOT_FOUND = "NotFound"
CANCELLED = "Cancelled"
INTERNAL = "Internal"


@dataclass
class ExecutionRequest:
    """One stencil-execution request.

    Exactly one of ``benchmark`` (a registry key such as ``"stencil2d"``)
    or ``program`` (a closed Lift lambda) must be set.  ``inputs`` are the
    concrete input grids, one per program parameter.

    ``priority`` places the request in one of the admission classes of
    :data:`PRIORITIES`; ``deadline_ms`` is the server-side freshness bound —
    a request still queued when its deadline expires is *shed* with a
    structured :data:`DEADLINE_EXCEEDED` response instead of occupying a
    batch slot.  ``steps > 1`` asks for an iterative job: the output is fed
    back through the benchmark's carry specification for that many
    timesteps (the ``/v1/iterate`` HTTP verb).
    """

    inputs: List[np.ndarray]
    benchmark: Optional[str] = None
    program: Optional[Lambda] = None
    size_env: Dict[str, int] = field(default_factory=dict)
    return_result: bool = True
    priority: str = "normal"
    deadline_ms: Optional[float] = None
    steps: int = 1

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.program is None):
            raise ServiceError(
                "a request names exactly one of: a benchmark key, a program"
            )
        if self.priority not in PRIORITIES:
            raise ServiceError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        if int(self.steps) < 1:
            raise ServiceError("steps must be >= 1")
        self.steps = int(self.steps)
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
        self.inputs = [np.asarray(grid, dtype=np.float64) for grid in self.inputs]

    @staticmethod
    def for_benchmark(key: str, shape=None, seed: int = 0,
                      return_result: bool = True,
                      priority: str = "normal",
                      deadline_ms: Optional[float] = None,
                      steps: int = 1) -> "ExecutionRequest":
        """A request for a registered benchmark with generated inputs."""
        from ..apps.suite import get_benchmark

        benchmark = get_benchmark(key)
        shape = tuple(shape or benchmark.default_shape)
        return ExecutionRequest(
            inputs=benchmark.make_inputs(shape, seed),
            benchmark=key.lower(),
            return_result=return_result,
            priority=priority,
            deadline_ms=deadline_ms,
            steps=steps,
        )

    @staticmethod
    def for_program(program: Lambda, inputs, size_env=None,
                    return_result: bool = True) -> "ExecutionRequest":
        """A request carrying a full program (e.g. built by a remote client)."""
        return ExecutionRequest(
            inputs=list(inputs),
            program=program,
            size_env=dict(size_env or {}),
            return_result=return_result,
        )

    def wire_meta(self) -> Dict[str, object]:
        """The wire form minus the grids: the RPG1 header, the JSON body."""
        wire: Dict[str, object] = {"return_result": self.return_result}
        if self.size_env:
            wire["size_env"] = dict(self.size_env)
        if self.benchmark is not None:
            wire["benchmark"] = self.benchmark
        else:
            wire["program"] = program_to_dict(self.program)
        if self.priority != "normal":
            wire["priority"] = self.priority
        if self.deadline_ms is not None:
            wire["deadline_ms"] = self.deadline_ms
        if self.steps != 1:
            wire["steps"] = self.steps
        return wire

    def to_wire(self) -> Dict[str, object]:
        return {"inputs": [grid.tolist() for grid in self.inputs],
                **self.wire_meta()}

    @staticmethod
    def from_wire(data: Dict[str, object],
                  grids: Optional[List[np.ndarray]] = None
                  ) -> "ExecutionRequest":
        """The one builder from wire metadata.

        ``grids`` are inputs that travelled beside the metadata as raw
        buffers (the binary framing); without them ``data["inputs"]``
        carries JSON lists, or is absent for generated inputs.
        """
        program = data.get("program")
        benchmark = data.get("benchmark")
        inputs = grids if grids else data.get("inputs")
        deadline_ms = data.get("deadline_ms")
        extras = {
            "priority": str(data.get("priority", "normal")),
            "deadline_ms": None if deadline_ms is None else float(deadline_ms),
            "steps": int(data.get("steps", 1)),
        }
        if inputs is None:
            # Generated inputs: the client sends a shape + seed instead of
            # grids — the cheap form the load generator uses.
            if benchmark is None:
                raise ServiceError("generated inputs require a benchmark key")
            return ExecutionRequest.for_benchmark(
                str(benchmark),
                shape=data.get("shape"),
                seed=int(data.get("seed", 0)),
                return_result=bool(data.get("return_result", True)),
                **extras,
            )
        return ExecutionRequest(
            inputs=[np.asarray(grid, dtype=np.float64) for grid in inputs],
            benchmark=None if benchmark is None else str(benchmark),
            program=None if program is None else program_from_dict(program),
            size_env={str(k): int(v)
                      for k, v in dict(data.get("size_env") or {}).items()},
            return_result=bool(data.get("return_result", True)),
            **extras,
        )


@dataclass
class ExecutionResponse:
    """The service's answer to one request.

    ``code`` structures in-band failures: :data:`DEADLINE_EXCEEDED` for
    work shed past its deadline, :data:`ADMISSION_REJECTED` for 429-style
    backpressure (then ``retry_after_ms`` suggests when to come back),
    :data:`UNAUTHORIZED` / :data:`REQUEST_TOO_LARGE` / :data:`BAD_REQUEST`
    for transport-level refusals, ``None`` for success or unclassified
    execution errors.
    """

    result: Optional[np.ndarray]
    benchmark: Optional[str]
    digest: str
    batch_size: int              # requests in the micro-batch that served it
    latency_s: float
    error: Optional[str] = None
    code: Optional[str] = None
    retry_after_ms: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def batched(self) -> bool:
        """True when a micro-batch of two or more served this request."""
        return self.batch_size > 1

    @property
    def shed(self) -> bool:
        """True when the service shed this request past its deadline."""
        return self.code == DEADLINE_EXCEEDED

    @property
    def rejected(self) -> bool:
        """True when admission control pushed this request back (429-style)."""
        return self.code == ADMISSION_REJECTED

    def wire_meta(self) -> Dict[str, object]:
        """The wire form minus the result grid."""
        wire: Dict[str, object] = {
            "ok": self.ok,
            "benchmark": self.benchmark,
            "digest": self.digest,
            "batch_size": self.batch_size,
            "batched": self.batched,
            "latency_ms": round(self.latency_s * 1e3, 4),
        }
        if self.error is not None:
            wire["error"] = self.error
        if self.code is not None:
            wire["code"] = self.code
        if self.retry_after_ms is not None:
            wire["retry_after_ms"] = round(float(self.retry_after_ms), 3)
        return wire

    def to_wire(self) -> Dict[str, object]:
        wire = self.wire_meta()
        if self.result is not None:
            wire["result"] = np.asarray(self.result).tolist()
        return wire

    @staticmethod
    def from_wire(data: Dict[str, object],
                  grids: Optional[List[np.ndarray]] = None
                  ) -> "ExecutionResponse":
        """Build from reply metadata; ``grids[0]`` is a binary result grid.

        A refusal that never reached the batcher carries only ``ok`` /
        ``code`` / ``error``; the remaining fields take their defaults.
        """
        result = grids[0] if grids else data.get("result")
        retry_after = data.get("retry_after_ms")
        error = data.get("error")
        if error is None and not data.get("ok", True):
            error = "request refused"
        return ExecutionResponse(
            result=None if result is None else np.asarray(result, dtype=np.float64),
            benchmark=data.get("benchmark"),
            digest=str(data.get("digest", "")),
            batch_size=int(data.get("batch_size", 1)),
            latency_s=float(data.get("latency_ms", 0.0)) / 1e3,
            error=error,
            code=data.get("code"),
            retry_after_ms=None if retry_after is None else float(retry_after),
        )


__all__ = [
    "ADMISSION_REJECTED",
    "BAD_REQUEST",
    "CANCELLED",
    "DEADLINE_EXCEEDED",
    "INTERNAL",
    "NOT_FOUND",
    "PRIORITIES",
    "REQUEST_TOO_LARGE",
    "UNAUTHORIZED",
    "UNAVAILABLE",
    "ExecutionRequest",
    "ExecutionResponse",
    "ServiceError",
]
