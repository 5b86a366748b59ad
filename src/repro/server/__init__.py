"""The network serving frontend: an asyncio HTTP/1.1 + SSE gateway.

* :mod:`repro.server.app` — :class:`AlayaDBServer`, the server itself, plus
  :func:`check_drained` (the drain-time invariant checker shared with the
  soak tests);
* :mod:`repro.server.http` — the dependency-free HTTP/1.1 + SSE wire
  primitives;
* :mod:`repro.server.client` — a minimal asyncio client (used by the
  network soak, the workload engine's HTTP transport, and
  ``examples/http_client.py``).
"""

from .app import AlayaDBServer, ServerStats, check_drained
from .client import HttpResponse, ServerClient, SSEStream
from .http import HttpError, HttpRequest

__all__ = [
    "AlayaDBServer",
    "ServerStats",
    "check_drained",
    "ServerClient",
    "SSEStream",
    "HttpResponse",
    "HttpError",
    "HttpRequest",
]
