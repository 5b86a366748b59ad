"""Trace-driven workload engine: generate mixed serving traces, replay them
against the real stack, and gate every run on generation quality.

The paper's use cases are MaaS traffic mixes under latency SLOs.  This
module turns such a mix into a seeded trace, replays it, and scores it:

* :func:`generate_replay_trace` builds a large seeded trace from a
  :class:`WorkloadEngineSpec`: diurnal/bursty arrival curves
  (:func:`~repro.workloads.trace.sample_arrival_times`), heavy-tailed
  context lengths, and a multi-tenant mix of

  - **chat** — multi-turn sessions whose turns extend one stored context
    (cross-turn KV reuse through the token-trie prefix match),
  - **rag** — questions over a shared document library with Zipf popularity
    (reusing :func:`~repro.workloads.trace.generate_trace`),
  - **agent** — tool loops: short extension turns in quick succession, with
    mid-stream cancellations and client disconnects,
  - **fresh** — one-shot requests with no reuse opportunity;

* one driver, :func:`replay`, runs a trace over one of two transports —
  :class:`InProcessTransport` (``InferenceService.submit`` on a virtual
  clock advanced one tick per scheduler round) or :class:`HttpTransport`
  (the asyncio HTTP/SSE frontend over real TCP, cancels as DELETEs or TCP
  aborts).  The driver alone paces arrivals and think time, chains session
  turns, retries 429s and fires cancellations; a transport only submits,
  streams tokens, cancels and sleeps.  Either takes any
  ``InferenceService`` — including a sharded router's front service, whose
  library documents then live on the shard owners;

* every replay aggregates one :class:`ReplayReport` — TTFT/TPOT p50/p95/p99,
  SLO attainment, eviction/preemption/throttle (429) rates, prefix-reuse hit
  ratio, per-tenant fairness rows — whose :meth:`~ReplayReport.deterministic_summary`
  is reproducible for a given seed (and identical across transports for
  cancellation-free traces, since decoding is greedy and batching is
  token-identical);

* :func:`score_quality_gate` wires the existing LongBench/∞-Bench scoring
  into the same run: the trace's task mix maps to synthetic task specs, the
  sparse path (DIPRS) is scored against the dense path (full attention) on
  each, and the run passes only when sparse quality stays within the gate
  threshold of dense — so a replay speedup can never silently trade away
  generation quality.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..baselines.base import SelectionStrategy
from ..baselines.diprs import DIPRSStrategy
from ..baselines.full_attention import FullAttentionStrategy
from ..errors import TenantThrottledError
from ..query.types import beta_from_alpha
from ..scheduler import BATCH_SLO, INTERACTIVE_SLO, SLO, TenantSpec
from ..scheduler.slo import percentiles
from .evaluation import evaluate_strategy
from .generator import generate_workload
from .infinite_bench import INFINITE_BENCH_TASKS
from .longbench import LONGBENCH_TASKS
from .trace import TraceSpec, generate_trace, heavy_tailed_lengths, sample_arrival_times

__all__ = [
    "TenantMixSpec",
    "WorkloadEngineSpec",
    "ReplayEvent",
    "ReplayTrace",
    "ReplayReport",
    "QualityGateResult",
    "generate_replay_trace",
    "replay",
    "InProcessTransport",
    "HttpTransport",
    "score_quality_gate",
    "tenant_specs",
    "KIND_TASKS",
]

EVENT_KINDS = ("chat", "rag", "agent", "fresh")

_SLO_CLASSES: dict[str | None, SLO] = {
    "interactive": INTERACTIVE_SLO,
    "batch": BATCH_SLO,
    "default": SLO(),
    None: SLO(),
}

_CHAT_OPENERS = [
    "I am preparing a briefing on our compliance posture. ",
    "Help me draft a response to the auditor's findings. ",
    "Walk me through the retention policy step by step. ",
    "We are migrating the reporting pipeline this quarter. ",
]

_CHAT_FILLER = [
    "The context includes several appendices with conflicting terminology. ",
    "Earlier drafts referenced the 2019 framework, which was superseded. ",
    "Stakeholders asked for a summary table and a risk register. ",
    "The legal team flagged two clauses for outside counsel review. ",
    "Budget figures are provisional until the close of the fiscal year. ",
]

_CHAT_FOLLOWUPS = [
    "Can you expand on the second point?",
    "How does that interact with the deadline?",
    "Rewrite that more concisely.",
    "What risks does that introduce?",
    "Who needs to sign off on this?",
]

_AGENT_GOALS = [
    "Find the total exposure across all subsidiaries and report it. ",
    "Locate the clause governing early termination and quote it. ",
    "Cross-check the revenue figures against the filed statements. ",
]

_AGENT_OBSERVATIONS = [
    "search returned 3 passages mentioning the term",
    "table extraction yielded 12 rows",
    "the cited section spans pages 41-44",
    "no match in the appendix; retrying with synonyms",
    "checksum of the filing verified",
]


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantMixSpec:
    """One tenant's traffic share and task mix in the generated trace."""

    name: str
    weight: int = 1
    """Deficit-round-robin fairness weight (forwarded to :class:`TenantSpec`)."""

    rate_share: float = 1.0
    """Relative share of the arrival process attributed to this tenant."""

    chat_fraction: float = 0.3
    rag_fraction: float = 0.4
    agent_fraction: float = 0.2
    """Kind mix; the remainder up to 1.0 arrives as ``fresh`` one-shots."""

    max_queued: int | None = None
    """Queue-depth backpressure threshold (HTTP 429), forwarded to the
    tenant governor; ``None`` never throttles."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must not be empty")
        if self.rate_share <= 0:
            raise ValueError(f"tenant {self.name!r} rate_share must be positive")
        fractions = (self.chat_fraction, self.rag_fraction, self.agent_fraction)
        if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
            raise ValueError(
                f"tenant {self.name!r} kind fractions must be non-negative and sum to <= 1"
            )

    @property
    def fresh_fraction(self) -> float:
        return max(0.0, 1.0 - self.chat_fraction - self.rag_fraction - self.agent_fraction)


@dataclass(frozen=True)
class WorkloadEngineSpec:
    """Shape of a generated replay trace."""

    duration_seconds: float = 60.0
    """Virtual trace duration the arrival curve spans."""

    base_rate: float = 1.0
    """Mean arrivals per virtual second."""

    diurnal_amplitude: float = 0.5
    diurnal_period_seconds: float = 30.0
    burstiness: float = 0.5
    """Arrival-curve knobs (see :func:`sample_arrival_times`)."""

    tenants: tuple[TenantMixSpec, ...] = (TenantMixSpec(name="default"),)

    corpus: TraceSpec = field(
        default_factory=lambda: TraceSpec(
            num_documents=3, document_repeats=6, num_requests=1, fresh_request_fraction=0.0
        )
    )
    """Shared RAG document library (Zipf popularity comes from
    :func:`generate_trace`); ``num_requests`` is overridden with the number
    of RAG arrivals the curve produced."""

    chat_mean_turns: float = 2.5
    chat_think_seconds: float = 4.0
    chat_prompt_median_chars: int = 400
    chat_prompt_sigma: float = 0.9
    chat_prompt_max_chars: int = 4096
    """Heavy-tailed first-turn context length (byte tokenizer: ~1 token/char)."""

    agent_mean_iterations: float = 3.0
    agent_tool_seconds: float = 0.5

    rag_max_new_tokens: int = 8
    chat_max_new_tokens: int = 10
    agent_max_new_tokens: int = 6
    fresh_max_new_tokens: int = 8

    cancel_fraction: float = 0.0
    """Probability a chat/agent turn is cancelled mid-stream."""

    disconnect_fraction: float = 0.0
    """Probability a cancellation arrives as a client disconnect (HTTP: TCP
    abort) rather than an explicit cancel."""

    max_events: int | None = None
    """Hard cap on generated events (the arrival curve is truncated)."""

    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not self.tenants:
            raise ValueError("at least one tenant mix is required")
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in mix: {names}")
        if self.chat_mean_turns < 1 or self.agent_mean_iterations < 1:
            raise ValueError("chat_mean_turns and agent_mean_iterations must be >= 1")
        for label, value in (
            ("cancel_fraction", self.cancel_fraction),
            ("disconnect_fraction", self.disconnect_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be within [0, 1]")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive when set")


def tenant_specs(spec: WorkloadEngineSpec) -> tuple[TenantSpec, ...]:
    """The :class:`TenantSpec` tuple an ``AlayaDBConfig`` needs to govern the
    trace's tenants (weights + backpressure thresholds)."""
    return tuple(
        TenantSpec(name=t.name, weight=t.weight, max_queued=t.max_queued)
        for t in spec.tenants
    )


# ----------------------------------------------------------------------
# the trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayEvent:
    """One request of a replay trace."""

    event_id: int
    arrival_seconds: float
    tenant: str
    kind: str
    prompt: str
    max_new_tokens: int
    document_id: str | None = None
    session_id: str | None = None
    """Chat/agent session this turn belongs to (``store_context_id``)."""
    turn: int = 0
    cancel_after_tokens: int | None = None
    """Cancel mid-stream once this many tokens streamed (``None``: run out)."""
    disconnect: bool = False
    """Deliver the cancellation as a client disconnect (HTTP: TCP abort)."""
    slo_class: str | None = None
    """``interactive`` / ``batch`` / ``default`` (see ``_SLO_CLASSES``)."""

    @property
    def slo(self) -> SLO:
        return _SLO_CLASSES[self.slo_class]


@dataclass
class ReplayTrace:
    """A generated request stream, its document library, and provenance."""

    spec: WorkloadEngineSpec
    documents: dict[str, str]
    events: list[ReplayEvent] = field(default_factory=list)

    @property
    def num_events(self) -> int:
        return len(self.events)

    def kind_counts(self) -> dict[str, int]:
        counts = {kind: 0 for kind in EVENT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    def tenant_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.tenant] = counts.get(event.tenant, 0) + 1
        return counts

    def kinds_present(self) -> list[str]:
        return [kind for kind, count in self.kind_counts().items() if count]

    def to_jsonable(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "documents": self.documents,
            "events": [asdict(event) for event in self.events],
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form — byte-identical traces (same
        spec, same seed) share a digest; any divergence changes it."""
        canonical = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _filler_text(rng: np.random.Generator, target_chars: int, sentences: list[str]) -> str:
    parts: list[str] = []
    total = 0
    while total < target_chars:
        sentence = sentences[int(rng.integers(0, len(sentences)))]
        parts.append(sentence)
        total += len(sentence)
    return "".join(parts)


def generate_replay_trace(spec: WorkloadEngineSpec | None = None) -> ReplayTrace:
    """Generate a deterministic replay trace according to ``spec``."""
    spec = spec or WorkloadEngineSpec()
    rng = np.random.default_rng(spec.seed)

    arrivals = sample_arrival_times(
        rng,
        spec.duration_seconds,
        spec.base_rate,
        amplitude=spec.diurnal_amplitude,
        period_seconds=spec.diurnal_period_seconds,
        burstiness=spec.burstiness,
    )
    if arrivals.shape[0] == 0:
        arrivals = np.asarray([spec.duration_seconds / 2.0])
    if spec.max_events is not None:
        arrivals = arrivals[: spec.max_events]

    shares = np.asarray([t.rate_share for t in spec.tenants], dtype=np.float64)
    shares /= shares.sum()
    tenant_picks = rng.choice(len(spec.tenants), size=arrivals.shape[0], p=shares)
    kind_rolls = rng.random(arrivals.shape[0])

    # kinds first, so the RAG corpus can be sized to the RAG arrival count
    kinds: list[str] = []
    for index in range(arrivals.shape[0]):
        mix = spec.tenants[int(tenant_picks[index])]
        roll = float(kind_rolls[index])
        if roll < mix.chat_fraction:
            kinds.append("chat")
        elif roll < mix.chat_fraction + mix.rag_fraction:
            kinds.append("rag")
        elif roll < mix.chat_fraction + mix.rag_fraction + mix.agent_fraction:
            kinds.append("agent")
        else:
            kinds.append("fresh")

    num_rag = sum(1 for kind in kinds if kind == "rag")
    corpus_spec = replace(
        spec.corpus,
        num_requests=max(num_rag, 1),
        fresh_request_fraction=0.0,
        seed=spec.seed + 1,
    )
    corpus = generate_trace(corpus_spec)
    rag_requests = iter(corpus.requests)

    chat_lengths = iter(
        heavy_tailed_lengths(
            rng,
            count=arrivals.shape[0],
            median=spec.chat_prompt_median_chars,
            sigma=spec.chat_prompt_sigma,
            maximum=spec.chat_prompt_max_chars,
        )
    )

    events: list[ReplayEvent] = []
    session_counter = 0

    def maybe_cancel(max_new: int) -> tuple[int | None, bool]:
        """A (cancel_after, disconnect) roll for one chat/agent turn."""
        if spec.cancel_fraction <= 0 or rng.random() >= spec.cancel_fraction:
            return None, False
        cancel_after = int(rng.integers(1, max(max_new, 2)))
        disconnect = bool(rng.random() < spec.disconnect_fraction)
        return cancel_after, disconnect

    for index in range(arrivals.shape[0]):
        arrival = float(arrivals[index])
        tenant = spec.tenants[int(tenant_picks[index])].name
        kind = kinds[index]
        if kind == "rag":
            request = next(rag_requests)
            events.append(
                ReplayEvent(
                    event_id=-1,
                    arrival_seconds=arrival,
                    tenant=tenant,
                    kind="rag",
                    prompt=request.prompt,
                    max_new_tokens=spec.rag_max_new_tokens,
                    document_id=request.document_id,
                    slo_class="default",
                )
            )
        elif kind == "fresh":
            prompt = (
                "Answer from general knowledge. "
                + _filler_text(rng, int(next(chat_lengths)) // 2, _CHAT_FILLER)
            )
            events.append(
                ReplayEvent(
                    event_id=-1,
                    arrival_seconds=arrival,
                    tenant=tenant,
                    kind="fresh",
                    prompt=prompt,
                    max_new_tokens=spec.fresh_max_new_tokens,
                    slo_class="batch",
                )
            )
        elif kind == "chat":
            session_counter += 1
            session_id = f"sess-chat-{session_counter:04d}"
            num_turns = 1 + int(rng.poisson(max(spec.chat_mean_turns - 1.0, 0.0)))
            opener = _CHAT_OPENERS[int(rng.integers(0, len(_CHAT_OPENERS)))]
            # the digits-first session tag keeps prefix reuse intra-session:
            # sibling sessions diverge within a few tokens (far below the
            # store's min_reuse_tokens), so replay reuse does not depend on
            # which session's context happened to be stored first
            prompt = f"[{session_counter:04d}-chat] " + opener + _filler_text(
                rng, int(next(chat_lengths)), _CHAT_FILLER
            )
            turn_arrival = arrival
            for turn in range(num_turns):
                cancel_after, disconnect = maybe_cancel(spec.chat_max_new_tokens)
                events.append(
                    ReplayEvent(
                        event_id=-1,
                        arrival_seconds=turn_arrival,
                        tenant=tenant,
                        kind="chat",
                        prompt=prompt,
                        max_new_tokens=spec.chat_max_new_tokens,
                        session_id=session_id,
                        turn=turn,
                        cancel_after_tokens=cancel_after,
                        disconnect=disconnect,
                        slo_class="interactive",
                    )
                )
                if cancel_after is not None:
                    break  # the user walked away; the session ends here
                followup = _CHAT_FOLLOWUPS[int(rng.integers(0, len(_CHAT_FOLLOWUPS)))]
                prompt = prompt + "\nUser: " + followup
                turn_arrival += float(rng.exponential(spec.chat_think_seconds))
        else:  # agent
            session_counter += 1
            session_id = f"sess-agent-{session_counter:04d}"
            num_iterations = 1 + int(rng.poisson(max(spec.agent_mean_iterations - 1.0, 0.0)))
            goal = _AGENT_GOALS[int(rng.integers(0, len(_AGENT_GOALS)))]
            prompt = f"[{session_counter:04d}-agent] Task: " + goal + _filler_text(
                rng, int(next(chat_lengths)) // 2, _CHAT_FILLER
            )
            turn_arrival = arrival
            for turn in range(num_iterations):
                cancel_after, disconnect = maybe_cancel(spec.agent_max_new_tokens)
                events.append(
                    ReplayEvent(
                        event_id=-1,
                        arrival_seconds=turn_arrival,
                        tenant=tenant,
                        kind="agent",
                        prompt=prompt,
                        max_new_tokens=spec.agent_max_new_tokens,
                        session_id=session_id,
                        turn=turn,
                        cancel_after_tokens=cancel_after,
                        disconnect=disconnect,
                        slo_class="batch",
                    )
                )
                if cancel_after is not None:
                    break  # the orchestrator aborted the loop
                observation = _AGENT_OBSERVATIONS[int(rng.integers(0, len(_AGENT_OBSERVATIONS)))]
                prompt = prompt + "\nObservation: " + observation + "."
                turn_arrival += float(rng.exponential(spec.agent_tool_seconds))

    order = sorted(range(len(events)), key=lambda i: (events[i].arrival_seconds, i))
    numbered = [replace(events[i], event_id=seq) for seq, i in enumerate(order)]
    return ReplayTrace(spec=spec, documents=dict(corpus.documents), events=numbered)


# ----------------------------------------------------------------------
# the replay report
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Aggregated outcome of replaying one trace over one transport."""

    entrypoint: str
    num_events: int
    submitted: int
    completed: int
    cancelled: int
    failed: int
    rejected: int
    throttled_429: int
    generated_tokens: int
    prompt_tokens: int
    reused_tokens: int
    reuse_hit_requests: int
    """Completed requests whose prefill reused a stored-context prefix."""
    ttft_seconds: dict[str, float]
    """Client-perceived first-token latency percentiles (queue + prefill)."""
    tpot_seconds: dict[str, float]
    slo_attained: int
    slo_checked: int
    preemptions: int
    evictions: int
    """Context-store spills during the replay (the store's eviction path)."""
    per_tenant: dict[str, dict] = field(default_factory=dict)
    per_kind: dict[str, dict] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def reuse_hit_ratio(self) -> float:
        """Fraction of completed requests that hit a stored prefix."""
        return self.reuse_hit_requests / max(self.completed, 1)

    @property
    def reused_token_ratio(self) -> float:
        """Fraction of prompt tokens served from reused KV."""
        return self.reused_tokens / max(self.prompt_tokens, 1)

    @property
    def slo_attainment(self) -> float:
        return self.slo_attained / max(self.slo_checked, 1)

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["reuse_hit_ratio"] = self.reuse_hit_ratio
        payload["reused_token_ratio"] = self.reused_token_ratio
        payload["slo_attainment"] = self.slo_attainment
        return payload

    def deterministic_summary(self) -> dict:
        """The seed-reproducible slice of the report: counts and token totals,
        no wall-clock quantities.  Identical across repeat runs over the same
        transport, and across transports for cancellation-free traces
        (greedy decoding; batched decode is token-identical)."""
        return {
            "num_events": self.num_events,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "generated_tokens": self.generated_tokens,
            "prompt_tokens": self.prompt_tokens,
            "reused_tokens": self.reused_tokens,
            "reuse_hit_requests": self.reuse_hit_requests,
            "per_kind": self.per_kind,
        }


def _build_service_report(
    entrypoint: str,
    trace: ReplayTrace,
    service,
    *,
    submitted: int,
    throttled: int,
    event_records: dict[int, int],
    wall_seconds: float,
) -> ReplayReport:
    """Aggregate a report from the service's own accounting.

    ``event_records`` maps event_id → request_id for every submission that
    reached the scheduler; per-request outcomes come from
    ``service.stats.records`` (finished requests only).
    """
    records = {record.request_id: record for record in service.stats.records}
    events_by_id = {event.event_id: event for event in trace.events}

    ttfts: list[float] = []
    tpots: list[float] = []
    slo_attained = 0
    generated = 0
    prompt_tokens = 0
    reused_tokens = 0
    reuse_hits = 0
    completed = 0
    per_kind: dict[str, dict] = {
        kind: {"events": 0, "completed": 0, "generated_tokens": 0, "reused_tokens": 0}
        for kind in EVENT_KINDS
    }
    for event in trace.events:
        per_kind[event.kind]["events"] += 1

    for event_id, request_id in event_records.items():
        record = records.get(request_id)
        if record is None:
            continue  # cancelled / failed / rejected: no finished record
        event = events_by_id[event_id]
        completed += 1
        ttfts.append(record.client_ttft_seconds)
        tpots.append(record.tpot_seconds)
        slo_attained += record.slo_attained
        generated += record.generated_tokens
        prompt_tokens += record.prompt_tokens
        reused_tokens += record.reused_tokens
        if record.reused_tokens > 0:
            reuse_hits += 1
        row = per_kind[event.kind]
        row["completed"] += 1
        row["generated_tokens"] += record.generated_tokens
        row["reused_tokens"] += record.reused_tokens

    stats = service.stats
    store = service.db.store_registry
    per_tenant = stats.tenant_rows(service.scheduler.queued_by_tenant())
    return ReplayReport(
        entrypoint=entrypoint,
        num_events=trace.num_events,
        submitted=submitted,
        completed=completed,
        cancelled=stats.cancelled,
        failed=stats.failed,
        rejected=stats.rejected,
        throttled_429=throttled,
        generated_tokens=generated,
        prompt_tokens=prompt_tokens,
        reused_tokens=reused_tokens,
        reuse_hit_requests=reuse_hits,
        ttft_seconds=percentiles(ttfts),
        tpot_seconds=percentiles(tpots),
        slo_attained=slo_attained,
        slo_checked=completed,
        preemptions=service.scheduler.stats.preemptions,
        evictions=store.spill_count,
        per_tenant=per_tenant,
        per_kind=per_kind,
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------------------
# replay: one driver over two transports
# ----------------------------------------------------------------------
TICK_SECONDS = 1.0 / 200.0
"""Virtual seconds one in-process scheduler round advances the clock."""

MAX_STEPS = 2_000_000
"""Stall guard: an in-process replay that needs more rounds raises."""

THROTTLE_RETRIES = 200
"""429 answers one event absorbs before the driver gives it up."""

MAX_RETRY_WAIT_SECONDS = 1.0
"""Cap on the virtual wait the driver honours from a 429's retry-after."""

HTTP_TIME_SCALE = 0.004
"""Real seconds per virtual second over HTTP (arrival, think and retry waits)."""

DRAIN_SECONDS = 120.0
"""How long the HTTP server's shutdown may take to settle in-flight work."""


async def replay(trace: ReplayTrace, transport) -> ReplayReport:
    """Replay ``trace`` through ``transport`` and report on the service.

    The library is ingested first.  Then one task per session chain (or
    single event) sleeps to its arrival and submits; turn *k+1* waits for
    turn *k*'s stream to end (its stored context must exist for reuse) plus
    the trace's think time.  A 429 is retried after its retry-after, and a
    cancellation fires once ``cancel_after_tokens`` tokens have streamed —
    as a disconnect for ``disconnect`` events.  The transport only moves
    bytes: :class:`InProcessTransport` or :class:`HttpTransport`.
    """
    start = time.perf_counter()
    service = transport.service
    for document_id, text in trace.documents.items():
        service.ingest(text, context_id=document_id)

    chains: dict[str | int, list[ReplayEvent]] = {}
    for event in trace.events:
        key = event.session_id if event.session_id is not None else event.event_id
        chains.setdefault(key, []).append(event)

    submitted = 0
    throttled = 0
    event_records: dict[int, int] = {}

    async def submit(event: ReplayEvent):
        """The event's stream, or ``None`` once its 429 retries run out."""
        nonlocal throttled
        for attempt in range(THROTTLE_RETRIES):
            try:
                return await transport.submit(event)
            except TenantThrottledError as exc:
                throttled += 1
                if attempt + 1 < THROTTLE_RETRIES:
                    await transport.sleep(min(exc.retry_after_seconds, MAX_RETRY_WAIT_SECONDS))
        return None

    async def run_event(event: ReplayEvent) -> None:
        nonlocal submitted
        stream = await submit(event)
        if stream is None:
            return
        submitted += 1
        event_records[event.event_id] = stream.request_id
        seen = 0
        async for _token in transport.tokens(stream):
            seen += 1
            if event.cancel_after_tokens is not None and seen >= event.cancel_after_tokens:
                await transport.cancel(stream, disconnect=event.disconnect)
                return

    async def run_chain(chain: list[ReplayEvent]) -> None:
        previous_arrival = 0.0
        for event in chain:
            # the arrival for the first turn, the think time after the last
            await transport.sleep(max(event.arrival_seconds - previous_arrival, 0.0))
            previous_arrival = event.arrival_seconds
            await run_event(event)

    async def load() -> None:
        await asyncio.gather(*(run_chain(chain) for chain in chains.values()))

    await transport.run(load)
    return _build_service_report(
        transport.entrypoint,
        trace,
        service,
        submitted=submitted,
        throttled=throttled,
        event_records=event_records,
        wall_seconds=time.perf_counter() - start,
    )


class InProcessTransport:
    """``InferenceService.submit`` on a virtual clock.

    A pump task runs ``service.step()`` and advances the clock one
    :data:`TICK_SECONDS` per round; with the scheduler idle the clock jumps
    to the earliest sleeper.  Sleepers due at a tick wake (earliest first)
    and submit before that tick's round; streams read each round's tokens
    after it.  The replay is deterministic regardless of host speed.
    """

    entrypoint = "scheduler"

    def __init__(self, service):
        self.service = service
        self.clock = 0.0
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._sleeps = 0
        self._stepped: asyncio.Future | None = None

    async def run(self, load) -> None:
        """Run ``load()`` (a zero-argument coroutine function) to completion
        beside the pump."""
        self._stepped = asyncio.get_running_loop().create_future()
        await asyncio.gather(load(), self._pump())

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        steps = 0
        while True:
            while self._sleepers and self._sleepers[0][0] <= self.clock:
                heapq.heappop(self._sleepers)[2].set_result(None)
            await asyncio.sleep(0)  # woken tasks run until they park again
            if self.service.scheduler.has_work:
                self.service.step()
                steps += 1
                if steps > MAX_STEPS:
                    raise RuntimeError(f"replay exceeded {MAX_STEPS} scheduler steps")
            elif self._sleepers:
                self.clock = max(self.clock, self._sleepers[0][0])
                continue
            else:
                return  # no work, nobody sleeping: every chain has ended
            stepped, self._stepped = self._stepped, loop.create_future()
            stepped.set_result(None)
            await asyncio.sleep(0)  # streams read the round's tokens
            self.clock += TICK_SECONDS

    async def submit(self, event: ReplayEvent):
        return self.service.submit(
            event.prompt,
            max_new_tokens=event.max_new_tokens,
            slo=event.slo,
            store_context_id=event.session_id,
            tenant=event.tenant,
        )

    async def tokens(self, handle):
        seen = 0
        while True:
            tokens = self.service.generated_tokens(handle.request_id)
            for token in tokens[seen:]:
                yield token
            seen = len(tokens)
            if handle.is_done:
                return
            await self._stepped

    async def cancel(self, handle, disconnect: bool) -> None:
        self.service.cancel(handle.request_id)

    async def sleep(self, seconds: float) -> None:
        wake = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self.clock + seconds, self._sleeps, wake))
        self._sleeps += 1
        await wake


class HttpTransport:
    """The asyncio HTTP/SSE frontend over real TCP.

    :meth:`run` hosts the load on an ``AlayaDBServer`` and always shuts it
    down drained, which runs :func:`~repro.server.app.check_drained`.  A
    cancel is ``DELETE /v1/requests/{id}``, a disconnect a TCP abort the
    server must turn into a cancellation; virtual seconds sleep
    :data:`HTTP_TIME_SCALE` real seconds each.
    """

    entrypoint = "http"

    def __init__(self, service):
        self.service = service
        self._client = None

    async def run(self, load) -> None:
        """Start the server, then run ``load()`` against it: no submission
        can run before the client exists."""
        from ..server import AlayaDBServer, ServerClient

        server = AlayaDBServer(self.service, port=0)
        await server.start()
        self._client = ServerClient(*server.address)
        try:
            await load()
        finally:
            await server.shutdown(drain=True, max_seconds=DRAIN_SECONDS)

    async def submit(self, event: ReplayEvent):
        slo = {"tpot_seconds": event.slo.tpot_seconds}
        if event.slo.ttft_seconds is not None:
            slo["ttft_seconds"] = event.slo.ttft_seconds
        stream = await self._client.stream_completion(
            prompt=event.prompt,
            max_new_tokens=event.max_new_tokens,
            tenant=event.tenant,
            store_context_id=event.session_id,
            slo=slo,
        )
        if stream.status == 200:
            return stream
        length = int(stream.headers.get("content-length", 0))
        body = (await stream.reader.readexactly(length)).decode() if length else ""
        await stream.close()
        if stream.status == 429:
            raise TenantThrottledError(
                body,
                tenant=event.tenant,
                retry_after_seconds=float(stream.headers.get("retry-after", 1)),
            )
        raise RuntimeError(f"completion refused with HTTP {stream.status}: {body}")

    async def tokens(self, stream):
        async for item in stream.events():
            if "token_id" in item:
                yield item["token_id"]
        await stream.close()

    async def cancel(self, stream, disconnect: bool) -> None:
        if disconnect:
            stream.abort()
            return
        await self._client.cancel(stream.request_id)
        await stream.close()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds * HTTP_TIME_SCALE)


# ----------------------------------------------------------------------
# the quality gate
# ----------------------------------------------------------------------
KIND_TASKS: dict[str, tuple[str, ...]] = {
    "rag": ("Qasper", "HotpotQA"),
    "chat": ("QMSum", "En.MC"),
    "agent": ("Retr.KV", "LCC"),
    "fresh": ("TriviaQA",),
}
"""Which LongBench/∞-Bench task specs stand in for each traffic kind when
scoring the trace's quality: RAG maps to document QA, chat to summarisation
and multiple choice over history, agent loops to exact retrieval and code
completion, fresh one-shots to few-shot recall."""


@dataclass
class QualityGateResult:
    """Sparse-vs-dense quality scores for the task mix of one trace."""

    per_task: dict[str, dict] = field(default_factory=dict)
    """task name → {kind, sparse, dense, ratio}."""

    @property
    def min_ratio(self) -> float:
        if not self.per_task:
            return 0.0
        return min(row["ratio"] for row in self.per_task.values())

    @property
    def mean_ratio(self) -> float:
        if not self.per_task:
            return 0.0
        return float(np.mean([row["ratio"] for row in self.per_task.values()]))

    def passes(self, threshold: float = 0.95) -> bool:
        """True when the sparse path keeps at least ``threshold`` of the dense
        path's quality on every task in the mix."""
        return bool(self.per_task) and self.min_ratio >= threshold

    def to_dict(self) -> dict:
        return {
            "per_task": self.per_task,
            "min_ratio": self.min_ratio,
            "mean_ratio": self.mean_ratio,
        }


def _task_spec(name: str):
    if name in LONGBENCH_TASKS:
        return LONGBENCH_TASKS[name].spec
    return INFINITE_BENCH_TASKS[name]


def score_quality_gate(
    kinds: list[str] | None = None,
    *,
    context_length: int = 2048,
    decode_steps: int = 2,
    tasks_per_kind: int = 1,
    sparse_strategy: SelectionStrategy | None = None,
    dense_strategy: SelectionStrategy | None = None,
) -> QualityGateResult:
    """Score the sparse path against the dense path on the trace's task mix.

    For each traffic kind, the mapped LongBench/∞-Bench specs (shrunk to
    ``context_length`` for tractability) are generated and both strategies
    replayed through :func:`evaluate_strategy`; the gate ratio per task is
    ``sparse_quality / dense_quality``.  Deterministic: the synthetic
    workloads are seeded and both strategies are seed-free.
    """
    kinds = list(kinds) if kinds is not None else list(KIND_TASKS)
    result = QualityGateResult()
    for kind in kinds:
        for task_name in KIND_TASKS.get(kind, ())[:tasks_per_kind]:
            if task_name in result.per_task:
                continue
            spec = replace(
                _task_spec(task_name),
                context_length=context_length,
                num_decode_steps=decode_steps,
            )
            workload = generate_workload(spec)
            dense = dense_strategy or FullAttentionStrategy()
            # scale beta to the task's head_dim as the Table 5 harness does —
            # a fixed beta under-selects at longer contexts
            sparse = sparse_strategy or DIPRSStrategy(
                beta=beta_from_alpha(0.012, spec.head_dim), capacity_threshold=256
            )
            dense_eval = evaluate_strategy(dense, workload)
            sparse_eval = evaluate_strategy(sparse, workload)
            ratio = sparse_eval.quality / max(dense_eval.quality, 1e-9)
            result.per_task[task_name] = {
                "kind": kind,
                "sparse": sparse_eval.quality,
                "dense": dense_eval.quality,
                "ratio": ratio,
            }
    return result
