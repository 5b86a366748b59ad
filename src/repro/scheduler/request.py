"""Request objects flowing through the serving scheduler."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .slo import SLO

__all__ = ["RequestState", "Request", "InFlightRequest"]


class RequestState:
    """Lifecycle of a request: queued → running → finished (or rejected/failed/
    cancelled), possibly bouncing through preempted ⇄ running along the way."""

    QUEUED = "queued"
    DEFERRED = "deferred"
    """Still queued, but at least one admission attempt found no free budget."""
    RUNNING = "running"
    PREEMPTED = "preempted"
    """Paused mid-flight to free a slot for an SLO-critical arrival; resumes
    when a slot (and its memory reservation) frees up again."""
    FINISHED = "finished"
    REJECTED = "rejected"
    FAILED = "failed"
    """Session setup raised; the error is recorded on ``Request.error``."""
    CANCELLED = "cancelled"
    """The client cancelled the request (queued, in flight, or preempted);
    its admission reservation was released and its session torn down."""

    TERMINAL = frozenset({FINISHED, REJECTED, FAILED, CANCELLED})
    """States a request never leaves; see :meth:`Request.is_terminal`."""


@dataclass
class Request:
    """One queued generation request."""

    request_id: int
    prompt_tokens: list[int]
    max_new_tokens: int = 16
    priority: int = 0
    """Higher values are scheduled first by the SLO-aware policy."""
    slo: SLO | None = None
    """Per-request latency class; its TTFT deadline drives SLO-aware order."""
    prefill_chunk_tokens: int | None = None
    """Per-request override of the backend's prefill chunk size; ``None``
    uses the configured default."""
    store_context_id: str | None = None
    """When set, the backend persists the finished session's accumulated
    context (prompt + generated KV) under this id for cross-turn reuse."""
    tenant: str = "default"
    """The tenant this request is billed to; drives weighted fair queuing,
    per-tenant quotas, and backpressure when a ``TenantGovernor`` is active."""
    submitted_at: float = 0.0
    arrival_order: int = 0
    state: str = RequestState.QUEUED
    error: str | None = None
    """Why the request FAILED (``begin_request`` raised); ``None`` otherwise."""

    def __post_init__(self) -> None:
        if not self.prompt_tokens:
            raise ValueError(
                "prompt_tokens must not be empty: an empty prompt has nothing "
                "to prefill or match against the context store"
            )
        if self.max_new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be non-negative, got {self.max_new_tokens}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens <= 0:
            raise ValueError(
                f"prefill_chunk_tokens must be positive when set, "
                f"got {self.prefill_chunk_tokens}"
            )

    @property
    def num_prompt_tokens(self) -> int:
        return len(self.prompt_tokens)

    @property
    def is_terminal(self) -> bool:
        """True once the request reached a state it can never leave."""
        return self.state in RequestState.TERMINAL

    def waited_seconds(self, now: float) -> float:
        return max(0.0, now - self.submitted_at)

    def ttft_slack(self, now: float) -> float:
        """Seconds of TTFT slack left; ``+inf`` without an SLO deadline."""
        if self.slo is None:
            return math.inf
        return self.slo.ttft_slack(self.waited_seconds(now))


@dataclass
class InFlightRequest:
    """Execution state of an admitted request, advanced one step at a time.

    ``session`` and ``rng`` are opaque to the scheduler — the backend owns
    their types (an AlayaDB ``Session`` and a numpy generator in the
    production service).
    """

    request: Request
    session: Any
    pending_tokens: list[int]
    """Prompt suffix still to prefill (shrinks chunk by chunk)."""
    truncated_tokens: list[int] = field(default_factory=list)
    """The original non-reused prompt suffix (for result reporting)."""
    reserved_bytes: int = 0
    """Bytes currently reserved with admission control; while preempted this
    drops to the session's still-resident footprint (see
    ``SchedulerBackend.preempted_request_bytes``), not necessarily 0."""
    estimated_bytes: int = 0
    """The original admission estimate, re-reserved when a preempted request
    resumes."""
    generated: list[int] = field(default_factory=list)
    decode_seconds: list[float] = field(default_factory=list)
    prefill_seconds: float = 0.0
    """Compute-only prefill time (excludes time parked between chunks)."""
    queue_seconds: float = 0.0
    admitted_at: float = 0.0
    """``time.monotonic()`` when the request was admitted; wall-clock TTFT is
    measured from here."""
    first_token_seconds: float | None = None
    """Wall-clock admission → first sampled token (includes time parked
    between prefill chunks, unlike ``prefill_seconds``)."""
    preemptions: int = 0
    rng: Any = None
    finished_by_eos: bool = False

    @property
    def needs_prefill(self) -> bool:
        return bool(self.pending_tokens)

    @property
    def num_generated(self) -> int:
        return len(self.generated)

    @property
    def is_finished(self) -> bool:
        if self.needs_prefill:
            return False
        return self.finished_by_eos or self.num_generated >= self.request.max_new_tokens
