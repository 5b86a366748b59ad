"""Trace-driven workload engine: generate mixed serving traces, replay them
against the real stack, and gate every run on generation quality.

The benches elsewhere in ``benchmarks/`` are single-scenario panels; the
paper's headline claim is end-to-end — serving quality *and* latency SLOs
under realistic long-context traffic.  This module closes that gap:

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

* two replay entry points run the same trace against the real stack:
  :func:`replay_scheduler` (``InferenceService.submit`` + ``step``, virtual
  clock) and :func:`replay_http` (the asyncio HTTP/SSE frontend over real
  TCP, with DELETE-cancellations and TCP aborts); either takes any
  ``InferenceService`` — including a sharded router's front service, whose
  library documents then live on the shard owners;

* every replay aggregates one :class:`ReplayReport` — TTFT/TPOT p50/p95/p99,
  SLO attainment, eviction/preemption/throttle (429) rates, prefix-reuse hit
  ratio, per-tenant fairness rows — whose :meth:`~ReplayReport.deterministic_summary`
  is reproducible for a given seed (and identical across entry points for
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
    "replay_scheduler",
    "replay_http",
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
    """Aggregated outcome of replaying one trace at one entry point."""

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
        no wall-clock quantities.  Identical across repeat runs of the same
        entry point, and across entry points for cancellation-free traces
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


def _ingest_documents(service, trace: ReplayTrace) -> float:
    start = time.perf_counter()
    for document_id, text in trace.documents.items():
        service.ingest(text, context_id=document_id)
    return time.perf_counter() - start


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
    slo_checked = 0
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
        slo_checked += 1
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
        slo_checked=slo_checked,
        preemptions=service.scheduler.stats.preemptions,
        evictions=store.spill_count,
        per_tenant=per_tenant,
        per_kind=per_kind,
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------------------
# entry point 1: the scheduler (virtual-clock replay)
# ----------------------------------------------------------------------
def replay_scheduler(
    trace: ReplayTrace,
    service,
    *,
    steps_per_second: float = 200.0,
    max_steps: int = 2_000_000,
    throttle_retries: int = 100,
) -> ReplayReport:
    """Replay the trace through ``InferenceService.submit`` + ``step``.

    Arrival pacing uses a virtual clock advanced ``1/steps_per_second`` per
    scheduler round, so the replay is deterministic regardless of host speed.
    Session turns are chained: turn *k+1* is submitted only after turn *k*
    reached a terminal state (its stored context must exist for reuse).
    Mid-stream cancellations fire once the target token count has streamed;
    tenant backpressure (429) is retried after the advertised delay.
    """
    start = time.perf_counter()
    _ingest_documents(service, trace)

    successors: dict[tuple[str, int], ReplayEvent] = {}
    roots: list[ReplayEvent] = []
    for event in trace.events:
        if event.session_id is not None and event.turn > 0:
            successors[(event.session_id, event.turn - 1)] = event
        else:
            roots.append(event)

    ready: list[tuple[float, int, ReplayEvent, int]] = []  # (when, seq, event, retries)
    seq = 0
    for event in roots:
        heapq.heappush(ready, (event.arrival_seconds, seq, event, 0))
        seq += 1

    clock = 0.0
    tick = 1.0 / steps_per_second
    submitted = 0
    throttled = 0
    event_records: dict[int, int] = {}
    active: dict[int, tuple[ReplayEvent, object]] = {}  # request_id -> (event, handle)
    steps = 0

    def release_successor(event: ReplayEvent, at: float) -> None:
        nonlocal seq
        if event.session_id is None:
            return
        successor = successors.pop((event.session_id, event.turn), None)
        if successor is not None:
            think = successor.arrival_seconds - event.arrival_seconds
            heapq.heappush(ready, (max(successor.arrival_seconds, at + max(think, 0.0)), seq, successor, 0))
            seq += 1

    while ready or service.scheduler.has_work:
        # submit everything whose (virtual) arrival has passed
        while ready and ready[0][0] <= clock:
            _, _, event, retries = heapq.heappop(ready)
            try:
                handle = service.submit(
                    event.prompt,
                    max_new_tokens=event.max_new_tokens,
                    slo=event.slo,
                    store_context_id=event.session_id,
                    tenant=event.tenant,
                )
            except TenantThrottledError as exc:
                throttled += 1
                if retries + 1 >= throttle_retries:
                    release_successor(event, clock)  # give up; free the chain
                    continue
                delay = min(max(exc.retry_after_seconds, tick), 1.0)
                heapq.heappush(ready, (clock + delay, seq, event, retries + 1))
                seq += 1
                continue
            submitted += 1
            event_records[event.event_id] = handle.request_id
            active[handle.request_id] = (event, handle)

        if service.scheduler.has_work:
            service.step()
            steps += 1
            if steps > max_steps:
                raise RuntimeError(f"replay exceeded {max_steps} scheduler steps")
        elif ready:
            clock = max(clock, ready[0][0])
            continue

        # fire due cancellations, retire terminal requests, release chains
        for request_id in list(active):
            event, handle = active[request_id]
            if (
                event.cancel_after_tokens is not None
                and not handle.is_done
                and len(service.generated_tokens(request_id)) >= event.cancel_after_tokens
            ):
                service.cancel(request_id)
            if handle.is_done:
                del active[request_id]
                release_successor(event, clock)
        clock += tick

    wall = time.perf_counter() - start
    return _build_service_report(
        "scheduler",
        trace,
        service,
        submitted=submitted,
        throttled=throttled,
        event_records=event_records,
        wall_seconds=wall,
    )


# ----------------------------------------------------------------------
# entry point 2: the HTTP frontend (real TCP, SSE, disconnects)
# ----------------------------------------------------------------------
def replay_http(
    trace: ReplayTrace,
    service,
    *,
    time_scale: float = 0.01,
    throttle_retries: int = 200,
    drain_seconds: float = 120.0,
) -> ReplayReport:
    """Replay the trace over the asyncio HTTP/SSE frontend.

    Arrivals are compressed by ``time_scale`` (virtual second → real
    seconds); session turns run sequentially per session.  Mid-stream
    cancellations arrive as ``DELETE /v1/requests/{id}`` — or, for
    ``disconnect`` events, as a TCP abort the server must detect and turn
    into a cancellation.  429 backpressure is retried after ``Retry-After``.
    The server is drained and :func:`~repro.server.app.check_drained`
    verified on shutdown.
    """
    import asyncio

    from ..server import AlayaDBServer, ServerClient

    async def scenario() -> ReplayReport:
        start = time.perf_counter()
        _ingest_documents(service, trace)
        server = AlayaDBServer(service, port=0)
        await server.start()
        client = ServerClient(*server.address)

        sessions: dict[str, list[ReplayEvent]] = {}
        singles: list[ReplayEvent] = []
        for event in trace.events:
            if event.session_id is not None:
                sessions.setdefault(event.session_id, []).append(event)
            else:
                singles.append(event)
        for chain in sessions.values():
            chain.sort(key=lambda e: e.turn)

        submitted = 0
        throttled = 0
        event_records: dict[int, int] = {}

        async def run_event(event: ReplayEvent) -> None:
            nonlocal submitted, throttled
            payload = dict(
                prompt=event.prompt,
                max_new_tokens=event.max_new_tokens,
                tenant=event.tenant,
                store_context_id=event.session_id,
                slo={"tpot_seconds": event.slo.tpot_seconds}
                | (
                    {"ttft_seconds": event.slo.ttft_seconds}
                    if event.slo.ttft_seconds is not None
                    else {}
                ),
            )
            for _attempt in range(throttle_retries):
                stream = await client.stream_completion(**payload)
                if stream.status == 429:
                    throttled += 1
                    retry_after = float(stream.headers.get("retry-after", 1))
                    length = int(stream.headers.get("content-length", 0))
                    if length:
                        await stream.reader.readexactly(length)
                    await stream.close()
                    await asyncio.sleep(min(retry_after * time_scale, 0.05))
                    continue
                if stream.status != 200:
                    await stream.close()
                    return
                submitted += 1
                if stream.request_id is not None:
                    event_records[event.event_id] = stream.request_id
                tokens_seen = 0
                async for item in stream.events():
                    if "token_id" in item:
                        tokens_seen += 1
                        if (
                            event.cancel_after_tokens is not None
                            and tokens_seen >= event.cancel_after_tokens
                        ):
                            if event.disconnect:
                                stream.abort()
                                return
                            await client.cancel(stream.request_id)
                await stream.close()
                return

        async def run_single(event: ReplayEvent) -> None:
            await asyncio.sleep(event.arrival_seconds * time_scale)
            await run_event(event)

        async def run_session(chain: list[ReplayEvent]) -> None:
            await asyncio.sleep(chain[0].arrival_seconds * time_scale)
            previous_arrival = chain[0].arrival_seconds
            for turn, event in enumerate(chain):
                if turn > 0:
                    think = max(event.arrival_seconds - previous_arrival, 0.0)
                    await asyncio.sleep(think * time_scale)
                previous_arrival = event.arrival_seconds
                await run_event(event)

        tasks = [asyncio.create_task(run_single(e)) for e in singles]
        tasks += [asyncio.create_task(run_session(chain)) for chain in sessions.values()]
        await asyncio.gather(*tasks)
        await server.shutdown(drain=True, max_seconds=drain_seconds)
        wall = time.perf_counter() - start
        return _build_service_report(
            "http",
            trace,
            service,
            submitted=submitted,
            throttled=throttled,
            event_records=event_records,
            wall_seconds=wall,
        )

    return asyncio.run(scenario())


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
