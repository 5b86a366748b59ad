"""The client-facing serving API (what an HTTP frontend would mount).

Three layers, thinnest on top:

* :class:`repro.api.Completions` / :class:`repro.api.Client` — an
  OpenAI-style facade (``create(prompt, stream=True)``) mapping directly
  onto request handles;
* :class:`repro.core.handles.RequestHandle` — per-request status /
  streaming / result / cancel (re-exported here for convenience);
* :class:`repro.core.handles.ChatSession` — multi-turn conversations with
  cross-turn KV reuse through the context store.
"""

from ..core.handles import ChatSession, ChatTurn, RequestHandle
from .completions import (
    Client,
    Completion,
    CompletionChoice,
    CompletionChunk,
    Completions,
    CompletionUsage,
    completion_id,
)

__all__ = [
    "ChatSession",
    "ChatTurn",
    "Client",
    "Completion",
    "CompletionChoice",
    "CompletionChunk",
    "Completions",
    "CompletionUsage",
    "RequestHandle",
    "completion_id",
]
