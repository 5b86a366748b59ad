"""The serving layer: a memory-governed, multi-request scheduler over the DB.

The paper's deployment story (Section 8) is a Model-as-a-Service provider
running many concurrent requests against a library of stored contexts.  This
module provides that serving stack on top of :class:`~repro.core.db.DB`:

* ``submit()`` enqueues a request (with optional priority / SLO class) and
  returns a :class:`~repro.core.handles.RequestHandle` — live ``status``, an
  incremental ``tokens()`` stream, a blocking ``result()``, and ``cancel()``;
* ``step()`` runs one scheduler round: admission control against a global
  GPU-memory budget, then one unit of work per in-flight request — its next
  prefill chunk or its next decode token — **all of them rows of one ragged
  forward pass**, so long prefills interleave with other requests' decodes
  and the dense model math is amortised across every row of the round;
* under the ``slo`` policy with ``preemption`` enabled, an SLO-critical
  arrival that finds every slot taken pauses the in-flight request with the
  most TTFT slack (its reservation released, its stored context spillable)
  until a slot frees;
* ``cancel()`` tears a request down wherever it lives — queued, in flight,
  or preempted — releasing its admission reservation and unpinning its
  stored context (state ``CANCELLED`` end-to-end);
* ``chat()`` opens a :class:`~repro.core.handles.ChatSession`: each turn
  extends one stored context via ``DB.store`` so the next turn's prefill
  reuses the whole history's KV through the token-trie prefix match;
* ``drain()`` steps until everything submitted has finished;
* ``serve()`` remains the one-request convenience wrapper (a thin
  ``submit().result()``).

The substrate is single-threaded NumPy, so "concurrency" means interleaving
work across in-flight sessions rather than parallel threads — but the
accounting (per-request stats, queue/TTFT/TPOT, admission decisions, context
hit ratios, peak resident bytes) mirrors what a production deployment would
export.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import RequestFailedError
from ..llm.generation import GenerationResult
from ..llm.model import TransformerModel
from ..llm.sampling import SamplingConfig, sample_token
from ..scheduler import (
    DEFAULT_TENANT,
    AdmissionController,
    InFlightRequest,
    Request,
    RequestScheduler,
    SchedulerStats,
    SLO,
    SLOReport,
    TenantGovernor,
    make_policy,
)
from ..scheduler.slo import percentiles
from ..storage.backend import StorageBackend
from .config import AlayaDBConfig
from .db import DB
from .decode_round import CrossRequestDecodeRound, StageTimings
from .handles import ChatSession, RequestHandle

__all__ = ["RequestRecord", "ServiceStats", "InferenceService"]

SAMPLING = SamplingConfig()
"""How every request picks its next token: greedy (temperature 0)."""


@dataclass
class RequestRecord:
    """Everything the service tracked about one served request."""

    request_id: int
    prompt_tokens: int
    reused_tokens: int
    generated_tokens: int
    ttft_seconds: float
    """Wall-clock first-token latency: admission → first sampled token,
    including time parked between interleaved prefill chunks."""
    tpot_seconds: float
    gpu_resident_bytes: int
    slo_attained: bool
    """The request's own SLO (else the service default) held for its
    measured client-seen TTFT and TPOT (see :meth:`SLO.attained`)."""
    prefill_compute_seconds: float = 0.0
    """Prefill compute only (the old TTFT figure); excludes parked time."""
    queue_seconds: float = 0.0
    preemptions: int = 0
    stored_context_id: str | None = None

    @property
    def reuse_ratio(self) -> float:
        return self.reused_tokens / max(self.prompt_tokens, 1)

    @property
    def client_ttft_seconds(self) -> float:
        """First-token latency as the client saw it: queue wait + TTFT."""
        return self.queue_seconds + self.ttft_seconds


@dataclass
class ServiceStats:
    """Aggregate statistics over every request served so far."""

    scheduler: SchedulerStats
    """The scheduler's live counters, the one ledger of rejected, failed and
    cancelled requests."""
    tenants: TenantGovernor
    """Live view of the tenant governor: per-tenant
    in-flight/queued/deferred/429/tokens-served counters."""
    decode_timings: StageTimings
    """Live per-stage decode wall-time split (retrieval vs. partial-attention
    merge vs. dense model math) summed over every decode round served."""
    records: list[RequestRecord] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        """Requests admission control rejected outright."""
        return self.scheduler.rejected

    @property
    def failed(self) -> int:
        """Requests whose session setup raised (queryable via ``result()``)."""
        return self.scheduler.failed

    @property
    def cancelled(self) -> int:
        """Requests the client cancelled before they finished."""
        return self.scheduler.cancelled

    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def mean_reuse_ratio(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.reuse_ratio for r in self.records]))

    @property
    def peak_gpu_resident_bytes(self) -> int:
        return max((r.gpu_resident_bytes for r in self.records), default=0)

    @property
    def total_generated_tokens(self) -> int:
        return sum(r.generated_tokens for r in self.records)

    @property
    def throttled(self) -> int:
        """Submissions refused by per-tenant backpressure (HTTP 429s)."""
        return sum(
            self.tenants.stats(name).throttled for name in self.tenants.known_tenants()
        )

    def tenant_rows(self, queued_by_tenant: dict[str, int] | None = None) -> dict[str, dict]:
        """Per-tenant observability rows."""
        return self.tenants.snapshot(queued_by_tenant)


class InferenceService:
    """Serves generation requests through AlayaDB with SLO accounting.

    Also the scheduler's execution backend: the
    :class:`~repro.scheduler.RequestScheduler` calls back into
    ``estimate_request_bytes`` / ``begin_request`` / ``run_round`` /
    ``finish_request`` to run admitted requests.
    """

    MAX_RETAINED_RESULTS = 1024
    """Finished-request outcomes kept for :meth:`result` lookups; beyond this
    the oldest are dropped so a long-running service does not accumulate
    every generation it ever produced."""

    def __init__(
        self,
        model: TransformerModel,
        config: AlayaDBConfig | None = None,
        store_conversations: bool = False,
        backend: StorageBackend | None = None,
        shard_catalog=None,
    ):
        self.model = model
        self.config = config or AlayaDBConfig()
        self.db = DB(self.config, backend=backend, shard_catalog=shard_catalog)
        self.store_conversations = store_conversations
        self.decode_timings = StageTimings()
        """Per-stage decode wall time (retrieval / merge / dense) across all
        decode rounds served so far; surfaced through :meth:`memory_report`."""
        self.scheduler = RequestScheduler(
            backend=self,
            policy=make_policy(self.config.scheduler_policy),
            admission=AdmissionController(self.config.scheduler_gpu_budget_bytes),
            max_inflight=self.config.max_inflight_requests,
            preemption=self.config.preemption,
            preemption_slack_seconds=self.config.preemption_slack_seconds,
            tenants=TenantGovernor(self.config.tenants, strict=self.config.strict_tenants),
        )
        self.stats = ServiceStats(
            scheduler=self.scheduler.stats,
            tenants=self.scheduler.tenants,
            decode_timings=self.decode_timings,
        )
        self._results: OrderedDict[int, tuple[GenerationResult, RequestRecord]] = OrderedDict()
        self._failures: OrderedDict[int, str] = OrderedDict()
        self._live: dict[int, InFlightRequest] = {}
        """In-flight (or preempted) execution state by request id, so handles
        can stream ``generated`` tokens while the request runs."""
        self._request_counter = 0
        self._chat_counter = 0

    # ------------------------------------------------------------------
    # document management
    # ------------------------------------------------------------------
    def ingest(self, document: str | list[int], context_id: str | None = None) -> str:
        """Import a document (prefill + index construction) for later reuse.

        The prefill is an unconnected session's, chunk by chunk, so the
        stored KV is what a request with the document as its prompt computes.
        The document gets the indexes its plans read (see
        :mod:`repro.core.db`); ``lazy_index_build`` defers them to the first
        request whose plans read them (built when its session is created).
        A service fronting a shard catalog shards the document and places it
        on the shard owners.
        """
        if self.db.shard_catalog is not None:
            return self.db.shard_catalog.ingest(document, context_id=context_id).context_id
        context = self.db.prefill_and_import(self.model, document, context_id=context_id)
        return context.context_id

    @property
    def num_contexts(self) -> int:
        return self.db.num_contexts

    # ------------------------------------------------------------------
    # serving: submit / step / drain
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: str | list[int],
        max_new_tokens: int = 16,
        priority: int = 0,
        slo: SLO | None = None,
        prefill_chunk_tokens: int | None = None,
        store_context_id: str | None = None,
        tenant: str | None = None,
    ) -> RequestHandle:
        """Enqueue a request; returns a :class:`RequestHandle`.

        The handle streams tokens (``for t in handle.tokens()``), blocks for
        the outcome (``handle.result()``), and cancels (``handle.cancel()``).
        Invalid requests — an empty prompt, negative ``max_new_tokens``, a
        non-positive ``prefill_chunk_tokens`` override — are rejected here
        with a ``ValueError`` instead of failing mid-round.

        ``tenant`` bills the request for weighted fairness and quotas (an
        undeclared name goes to ``default``); an unknown tenant under
        ``strict_tenants`` raises :class:`UnknownTenantError`, and a tenant
        at its queue-depth limit raises :class:`TenantThrottledError`
        (backpressure — the HTTP frontend's 429) *before* anything queues.
        """
        if isinstance(prompt, str) and not prompt:
            # the byte tokenizer would still emit a BOS token; reject the
            # empty *text* explicitly so the error names the real problem
            raise ValueError("prompt must not be an empty string")
        request = Request(
            request_id=self._request_counter + 1,
            prompt_tokens=self.db.tokenize(prompt),
            max_new_tokens=max_new_tokens,
            priority=priority,
            slo=slo,
            prefill_chunk_tokens=prefill_chunk_tokens,
            store_context_id=store_context_id,
            tenant=tenant or DEFAULT_TENANT,
        )
        self.scheduler.submit(request)
        self._request_counter += 1
        return RequestHandle(self, request)

    def chat(
        self, context_id: str | None = None, max_new_tokens: int = 16
    ) -> ChatSession:
        """Open a multi-turn :class:`ChatSession` with cross-turn KV reuse.

        ``context_id`` names the stored conversation context (auto-generated
        when omitted); passing the id of an existing context resumes that
        conversation.
        """
        return ChatSession(self, context_id=context_id, max_new_tokens=max_new_tokens)

    def next_chat_context_id(self) -> str:
        """A fresh context id for an anonymous :class:`ChatSession`."""
        self._chat_counter += 1
        return f"chat-{self._chat_counter:04d}"

    def cancel(self, request_id: int) -> bool:
        """Cancel a request (queued, in flight, or preempted).

        Releases its admission reservation, closes its session (unpinning the
        stored context so the store may spill it), and moves the request to
        state ``CANCELLED``.  Returns ``False`` as an idempotent no-op when
        the request is already terminal or unknown.
        """
        return self.scheduler.cancel(request_id)

    def step(self) -> list[int]:
        """One scheduler round; returns ids of requests it finished."""
        return [fl.request.request_id for fl in self.scheduler.step()]

    def drain(self, max_steps: int | None = None) -> list[tuple[GenerationResult, RequestRecord]]:
        """Run the scheduler until all submitted requests are done."""
        finished = self.scheduler.drain(max_steps=max_steps)
        return [
            self._results[fl.request.request_id]
            for fl in finished
            if fl.request.request_id in self._results
        ]

    def result(
        self, request_id: int | RequestHandle
    ) -> tuple[GenerationResult, RequestRecord] | None:
        """The outcome of a finished request (None while pending or rejected).

        Accepts a request id or the :class:`RequestHandle` ``submit``
        returned.  Raises :class:`RequestFailedError` when the request's
        session setup, or storing its finished context, raised mid-round
        (state FAILED) — the original error is in the message.
        """
        if isinstance(request_id, RequestHandle):
            request_id = request_id.request_id
        if request_id in self._failures:
            raise RequestFailedError(
                f"request {request_id} failed: "
                f"{self._failures[request_id]}"
            )
        return self._results.get(request_id)

    def generated_tokens(self, request_id: int) -> list[int]:
        """Tokens generated so far for a request (live view for streaming).

        While the request is in flight this is its growing ``generated``
        list; after it finishes, the final result's tokens.  Queued,
        rejected, and cancelled requests have none.
        """
        inflight = self._live.get(request_id)
        if inflight is not None:
            return inflight.generated
        outcome = self._results.get(request_id)
        if outcome is not None:
            return outcome[0].generated_tokens
        return []

    def serve(
        self,
        prompt: str | list[int],
        max_new_tokens: int = 16,
    ) -> tuple[GenerationResult, RequestRecord]:
        """Serve one request end to end (a thin ``submit().result()``)."""
        return self.submit(prompt, max_new_tokens=max_new_tokens).result()

    # ------------------------------------------------------------------
    # scheduler backend protocol
    # ------------------------------------------------------------------
    def estimate_request_bytes(self, request: Request) -> int:
        """Estimated GPU-resident footprint: window + KV appended in flight."""
        match = self.db.store_registry.find_longest_prefix(request.prompt_tokens)
        reused = (
            match.prefix_length
            if match.is_hit and match.prefix_length >= self.config.min_reuse_tokens
            else 0
        )
        per_token = self.model.kv_bytes_per_token()
        appended_tokens = len(request.prompt_tokens) - reused + request.max_new_tokens
        window_tokens = min(self.config.window_total_tokens, reused)
        return (appended_tokens + window_tokens) * per_token

    def begin_request(self, request: Request) -> InFlightRequest:
        session, truncated = self.db.create_session(request.prompt_tokens)
        # an empty suffix (full prefix reuse) still needs one forward pass to
        # produce first-token logits: it prefills a lone BOS
        pending = list(truncated) if truncated else [self.db.tokenizer.bos_id]
        inflight = InFlightRequest(
            request=request,
            session=session,
            pending_tokens=pending,
            truncated_tokens=list(truncated),
            rng=SAMPLING.make_rng(),
        )
        self._live[request.request_id] = inflight
        return inflight

    def run_round(self, inflights: Sequence[InFlightRequest]) -> None:
        """One forward pass for the in-flight requests: each contributes its
        next prefill chunk or its next decode token as rows of one ragged batch.

        The dense work (embedding, projections, MLP, LM head) runs once over
        every row, and a
        :class:`~repro.core.decode_round.CrossRequestDecodeRound` runs each
        layer's attention: a prefill chunk, however short, as its session's
        causal attention, decode tokens stacked per plan-compatible group.
        The round's wall time is split across the requests in proportion to
        their rows.
        """
        prefilling = [fl.needs_prefill for fl in inflights]
        num_decoding = prefilling.count(False)
        tokens: list[int] = []
        rows: list[int] = []
        last_rows: list[int] = []
        for inflight, prefill in zip(inflights, prefilling):
            if prefill:
                size = inflight.request.prefill_chunk_tokens or self.config.prefill_chunk_tokens
                chunk = inflight.pending_tokens[:size]
                del inflight.pending_tokens[:size]
            else:
                chunk = inflight.generated[-1:]
            tokens += chunk
            rows.append(len(chunk))
            last_rows.append(len(tokens) - 1)
        sessions = [fl.session for fl in inflights]
        sparse_before = self.decode_timings.sparse_seconds
        start = time.perf_counter()
        logits = self.model.forward_rows(
            tokens,
            sessions,
            rows,
            attention_round=CrossRequestDecodeRound(
                sessions, prefilling, timings=self.decode_timings
            ),
        )
        wall = time.perf_counter() - start
        per_row = wall / len(tokens)
        if num_decoding:
            self.decode_timings.dense_seconds += max(
                per_row * num_decoding - (self.decode_timings.sparse_seconds - sparse_before), 0.0
            )
            self.decode_timings.rounds += 1
        for inflight, prefill, n, row in zip(inflights, prefilling, rows, logits[last_rows]):
            if prefill:
                inflight.prefill_seconds += per_row * n
                if inflight.pending_tokens:
                    continue
                if inflight.request.max_new_tokens == 0:
                    # zero tokens requested: the request is served by prefill
                    # alone; its first-token latency is the prefill completion
                    inflight.first_token_seconds = time.monotonic() - inflight.admitted_at
                    continue
            else:
                inflight.decode_seconds.append(per_row)
            self._append_token(inflight, sample_token(row, SAMPLING, inflight.rng))

    def prefill_chunk(self, inflight: InFlightRequest) -> None:
        """One prefill chunk for one request: a :meth:`run_round` of one."""
        self.run_round([inflight])

    def decode_step(self, inflight: InFlightRequest) -> None:
        """One decode token for one request: a :meth:`run_round` of one."""
        self.run_round([inflight])

    def decode_batch(self, inflights: Sequence[InFlightRequest]) -> None:
        """One decode token for each request: a :meth:`run_round`."""
        self.run_round(inflights)

    def _append_token(self, inflight: InFlightRequest, token: int) -> None:
        if inflight.first_token_seconds is None:
            inflight.first_token_seconds = time.monotonic() - inflight.admitted_at
        inflight.generated.append(token)
        if token == self.db.tokenizer.eos_id:
            inflight.finished_by_eos = True

    def finish_request(self, inflight: InFlightRequest) -> None:
        request = inflight.request
        self._live.pop(request.request_id, None)
        ttft = (
            inflight.first_token_seconds
            if inflight.first_token_seconds is not None
            else inflight.prefill_seconds
        )
        result = GenerationResult(
            prompt_tokens=inflight.truncated_tokens,
            generated_tokens=inflight.generated,
            text=self.db.tokenizer.decode(inflight.generated),
            ttft_seconds=ttft,
            decode_seconds=inflight.decode_seconds,
            finished_by_eos=inflight.finished_by_eos,
        )
        record = self._record(inflight, result)
        try:
            if request.store_context_id is not None:
                stored = self._store_session_context(inflight, request.store_context_id)
                record.stored_context_id = stored.context_id
            elif self.store_conversations:
                stored = self.db.store(inflight.session, context_id=f"conversation-{request.request_id:04d}")
                record.stored_context_id = stored.context_id
        finally:
            inflight.session.close()
        self.stats.records.append(record)
        self._results[request.request_id] = (result, record)
        while len(self._results) > self.MAX_RETAINED_RESULTS:
            self._results.popitem(last=False)

    def _store_session_context(self, inflight: InFlightRequest, context_id: str):
        """Persist a finished session's full context under ``context_id``.

        The stored token sequence mirrors exactly what the model consumed:
        the reused prefix, the prefilled suffix (a lone BOS when the prefix
        covered the whole prompt), then every generated token that was fed
        back through decode.  The final sampled token was never fed back, so
        it has no KV yet — it is prefilled as part of the next turn's suffix.
        """
        request = inflight.request
        session = inflight.session
        kv_tokens = session.sequence_length(0)
        fed = list(request.prompt_tokens[: session.reused_prefix_length])
        fed += inflight.truncated_tokens if inflight.truncated_tokens else [self.db.tokenizer.bos_id]
        fed += inflight.generated[: max(kv_tokens - len(fed), 0)]
        return self.db.store(session, tokens=fed[:kv_tokens], context_id=context_id)

    def cancel_request(self, inflight: InFlightRequest) -> None:
        """Tear down a cancelled request's session.

        The scheduler already released the admission reservation; closing the
        session unpins its stored context so the context store may spill it
        again.  (A preempted victim was unpinned — and its close callback
        detached — at preemption time, so its close here unpins nothing.)
        """
        self._live.pop(inflight.request.request_id, None)
        inflight.session.close()

    def fail_request(self, request: Request, error: Exception) -> None:
        """Record a mid-round failure (session setup, or storing the
        finished session's context) for ``result()`` lookup."""
        # the scheduler already formatted the error onto the request
        self._failures[request.request_id] = request.error or repr(error)
        while len(self._failures) > self.MAX_RETAINED_RESULTS:
            self._failures.popitem(last=False)

    def preempted_request_bytes(self, inflight: InFlightRequest) -> int:
        """GPU bytes a paused request keeps resident: its session's window
        and locally appended KV survive preemption (only the stored context
        becomes spillable), so that slice of the reservation is not released."""
        return inflight.session.gpu_memory_bytes()

    def preempt_request(self, inflight: InFlightRequest) -> None:
        """Unpin the paused session's stored context so the store may spill it.

        The session's close callback (which performs the same unpin) is
        detached so that cancelling or tearing down the paused session cannot
        unpin twice and release another session's pin on the same context.
        """
        session = inflight.session
        if session.context is not None:
            session.detach_on_close()
            self.db.store_registry.unpin(session.context.context_id)

    def resume_request(self, inflight: InFlightRequest) -> None:
        """Re-pin (reloading if spilled) the resumed session's stored context."""
        session = inflight.session
        if session.context is not None:
            context_id = session.context.context_id
            self.db.store_registry.ensure_resident(context_id)
            self.db.store_registry.pin(context_id)
            session.attach_on_close(lambda: self.db.store_registry.unpin(context_id))
            session.invalidate_context_caches()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _record(self, inflight: InFlightRequest, result: GenerationResult) -> RequestRecord:
        """The finished request's row, judged once against its own SLO (or
        ``config.slo``) on what was measured."""
        request, session = inflight.request, inflight.session
        slo = request.slo or self.config.slo
        return RequestRecord(
            request_id=request.request_id,
            prompt_tokens=len(request.prompt_tokens),
            reused_tokens=session.reused_prefix_length,
            generated_tokens=result.num_generated,
            ttft_seconds=result.ttft_seconds,
            tpot_seconds=result.tpot_seconds,
            gpu_resident_bytes=session.gpu_memory_bytes(),
            slo_attained=slo.attained(inflight.queue_seconds + result.ttft_seconds, result.tpot_seconds),
            prefill_compute_seconds=inflight.prefill_seconds,
            queue_seconds=inflight.queue_seconds,
            preemptions=inflight.preemptions,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def slo_report(self) -> SLOReport:
        """SLO attainment and measured latency percentiles of every served request."""
        records = self.stats.records
        return SLOReport(
            num_requests=len(records),
            attained=sum(r.slo_attained for r in records),
            ttft_seconds=percentiles([r.client_ttft_seconds for r in records]),
            tpot_seconds=percentiles([r.tpot_seconds for r in records]),
        )

    def memory_report(self, per_context: bool = False) -> dict:
        """Residency, disk-tier and admission accounting across the serving stack.

        With ``per_context=True`` a ``"contexts"`` map is added: one row per
        stored context (residency, KV footprint, pins, trie matchability) —
        what a shard-serving harness aggregates into per-worker/per-shard
        placement views.
        """
        store = self.db.store_registry
        report = {
            "resident_kv_bytes": store.resident_kv_bytes,
            "total_kv_bytes": store.total_kv_bytes,
            "spilled_kv_bytes": store.spilled_kv_bytes,
            "disk_kv_bytes": store.disk_kv_bytes,
            "disk_index_bytes": store.disk_index_bytes,
            "context_spills": store.spill_count,
            "context_hits": store.hit_count,
            "context_reloads": store.reload_count,
            "context_hit_ratio": store.hit_ratio,
            "context_reloads_deserialized": store.reload_deserialized_count,
            "context_reloads_rebuilt": store.reload_rebuilt_count,
            "manifest_generation": store.manifest_generation,
            "admission_committed_bytes": self.scheduler.admission.committed_bytes,
            "decode_retrieval_seconds": self.decode_timings.retrieval_seconds,
            "decode_merge_seconds": self.decode_timings.merge_seconds,
            "decode_dense_seconds": self.decode_timings.dense_seconds,
            "decode_rounds": self.decode_timings.rounds,
            "tenants": self.stats.tenant_rows(self.scheduler.queued_by_tenant()),
        }
        if per_context:
            report["contexts"] = {
                context_id: {
                    "resident": context.is_resident,
                    "kv_bytes": context.kv_bytes,
                    "pin_count": store.pin_count(context_id),
                    "prefix_matchable": context.prefix_matchable,
                }
                for context_id, context in store.items()
            }
        return report
