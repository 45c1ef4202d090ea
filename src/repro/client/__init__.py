"""The production client library for the stencil execution service.

The service end of the wire lives in :mod:`repro.service`; this package is
what *callers* import:

* :class:`StencilClient` (:mod:`.client`) — blocking calls with per-call
  transport deadlines and bounded exponential-backoff retries that replay
  only provably-unexecuted failures;
* :class:`TcpTransport` / :class:`HttpTransport` (:mod:`.transport`) —
  pluggable wire protocols with pooled, reused connections; the HTTP
  transport switches to the chunk-streamed binary grid body for large
  payloads;
* :class:`ClientConfig` / :class:`RetryPolicy` (:mod:`.config`) — endpoint,
  auth, deadline and backoff settings;
* :mod:`.auth` — the shared-key header/field helpers both transports use.
"""

from .auth import attach_auth, auth_headers
from .client import StencilClient
from .config import ClientConfig, RetryPolicy
from .transport import HttpTransport, TcpTransport, Transport, TransportError

__all__ = [
    "ClientConfig",
    "HttpTransport",
    "RetryPolicy",
    "StencilClient",
    "TcpTransport",
    "Transport",
    "TransportError",
    "attach_auth",
    "auth_headers",
]
