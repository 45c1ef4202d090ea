"""The production client library for the stencil execution service.

The service end of the wire lives in :mod:`repro.service`; this package is
what *callers* import:

* :class:`StencilClient` (:mod:`.client`) — every op written once:
  blocking calls with per-call transport deadlines and bounded
  exponential-backoff retries (the module's ``RETRIES``,
  ``BACKOFF_BASE_S`` and ``BACKOFF_MAX_S``) that replay only
  provably-unexecuted failures;
* :class:`TcpTransport` / :class:`HttpTransport` (:mod:`.transport`) —
  two codecs for one exchange, ``call`` (plus ``close``), with pooled,
  reused connections; the HTTP transport switches to the chunk-streamed
  binary grid body for large payloads;
* :class:`ClientConfig` (:mod:`.config`) — endpoint, auth and deadline;
* :mod:`.auth` — the shared-key header/field helpers both transports use.
"""

from .auth import attach_auth, auth_headers
from .client import StencilClient
from .config import ClientConfig
from .transport import HttpTransport, TcpTransport, Transport, TransportError

__all__ = [
    "ClientConfig",
    "HttpTransport",
    "StencilClient",
    "TcpTransport",
    "Transport",
    "TransportError",
    "attach_auth",
    "auth_headers",
]
