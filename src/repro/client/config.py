"""Client configuration: endpoint, auth and the per-call deadline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Grid payloads above this many bytes switch the HTTP transport from the
#: JSON body to the binary ``application/x-repro-grids`` framing.
DEFAULT_BINARY_THRESHOLD_BYTES = 64 * 1024


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
    binary_threshold_bytes: int = DEFAULT_BINARY_THRESHOLD_BYTES

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "http"):
            raise ValueError(
                f"transport must be 'tcp' or 'http', got {self.transport!r}"
            )


__all__ = [
    "ClientConfig",
    "DEFAULT_BINARY_THRESHOLD_BYTES",
]
