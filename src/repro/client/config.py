"""Client configuration: endpoint, auth, deadlines and retry policy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Grid payloads above this many bytes switch the HTTP transport from the
#: JSON body to the binary ``application/x-repro-grids`` framing.
DEFAULT_BINARY_THRESHOLD_BYTES = 64 * 1024


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter, for *safe* failures only.

    A retry is attempted only when the transport failed to connect or timed
    out **before reading a single response byte** — once any byte of a
    response arrived the server may have executed the request, and replaying
    it could double work (idempotent-safe semantics).  Delays grow
    ``base * 2**attempt`` up to ``max_delay_s``, each with uniform jitter of
    up to its own magnitude so synchronized clients do not stampede.
    """

    retries: int = 2                  # retry attempts after the first try
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def delay_s(self, attempt: int, jitter: float) -> float:
        """Backoff before retry ``attempt`` (0-based); jitter in [0, 1)."""
        delay = min(self.backoff_max_s,
                    self.backoff_base_s * (2.0 ** attempt))
        return delay * (1.0 + jitter)


@dataclass
class ClientConfig:
    """Where and how :class:`~repro.client.client.StencilClient` connects.

    ``transport`` selects the wire protocol: ``"tcp"`` is the JSON-lines
    endpoint of ``repro serve``, ``"http"`` the ``/v1/*`` endpoint of
    ``repro serve --http-port``.  ``timeout_s`` is the per-call transport
    deadline (connect + send + first response byte).  A request's
    server-side priority and ``deadline_ms`` are fields of the request.
    """

    host: str = "127.0.0.1"
    port: int = 7457
    transport: str = "tcp"
    auth_key: Optional[str] = None
    timeout_s: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    binary_threshold_bytes: int = DEFAULT_BINARY_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "http"):
            raise ValueError(
                f"transport must be 'tcp' or 'http', got {self.transport!r}"
            )


__all__ = [
    "ClientConfig",
    "DEFAULT_BINARY_THRESHOLD_BYTES",
    "RetryPolicy",
]
