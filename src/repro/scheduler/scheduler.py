"""The step-driven request scheduler.

Each :meth:`RequestScheduler.step` (1) admits queued requests in the
:class:`~repro.scheduler.tenancy.TenantGovernor`'s order while slots and the
memory budget allow — when every slot is taken and the governor's pick is an
SLO-critical arrival, first pausing one in-flight request to make room for
it — (2) resumes preempted requests into leftover slots, (3) gives every
in-flight request one unit of work — a prefill chunk or one decode token — in
a single ``run_round`` call, and (4) retires finished requests, releasing
their admission reservations.

The scheduler knows nothing about models or databases: a
:class:`SchedulerBackend` supplies the actual work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, Sequence

from .admission import AdmissionController, AdmissionDecision
from .policy import FCFSPolicy, SchedulerPolicy
from .request import InFlightRequest, Request, RequestState
from .tenancy import TenantGovernor

__all__ = ["SchedulerBackend", "SchedulerStats", "RequestScheduler"]


class SchedulerBackend(Protocol):
    """What the scheduler needs from the serving layer; it calls every hook."""

    def estimate_request_bytes(self, request: Request) -> int:
        """Estimated GPU-resident bytes the request will pin while in flight."""

    def begin_request(self, request: Request) -> InFlightRequest:
        """Create the session / execution state for an admitted request."""

    def run_round(self, inflights: Sequence[InFlightRequest]) -> None:
        """Advance each of the ``>= 1`` in-flight requests by one unit of work
        — the next chunk of its pending prompt suffix, or one generated token
        — in one pass."""

    def finish_request(self, inflight: InFlightRequest) -> None:
        """Record results and release per-request resources.  Raising fails
        the request (see :meth:`fail_request`)."""

    def cancel_request(self, inflight: InFlightRequest) -> None:
        """A running or preempted request was cancelled; tear down its
        session (its admission reservation is already released)."""

    def fail_request(self, request: Request, error: Exception) -> None:
        """Note a request whose ``begin_request`` or ``finish_request``
        raised."""

    def preempted_request_bytes(self, inflight: InFlightRequest) -> int:
        """Bytes a paused request keeps resident (its session's live KV);
        only the rest of its reservation is released on preemption."""

    def preempt_request(self, inflight: InFlightRequest) -> None:
        """A request was paused; its session's pinned state may be spilled."""

    def resume_request(self, inflight: InFlightRequest) -> None:
        """A paused request is back in flight; re-pin / reload its state."""


@dataclass
class SchedulerStats:
    """Counters describing scheduler activity so far."""

    steps: int = 0
    prefill_chunks: int = 0
    """Prefill chunks run (one per prefilling request per round)."""
    decode_steps: int = 0
    """Decode tokens run (one per decode-ready request per round)."""
    batched_decode_calls: int = 0
    """Scheduler rounds that served ≥2 decode-ready requests in their one
    forward pass."""
    admitted: int = 0
    rejected: int = 0
    failed: int = 0
    """Requests whose ``begin_request`` or ``finish_request`` raised (state
    FAILED)."""
    deferrals: int = 0
    """Unique requests that waited on the memory budget at least once."""
    preemptions: int = 0
    resumes: int = 0
    completed: int = 0
    cancelled: int = 0
    """Requests cancelled by the client (queued, in flight, or preempted)."""


class RequestScheduler:
    """Queue + admission control + interleaved prefill/decode step loop."""

    def __init__(
        self,
        backend: SchedulerBackend,
        policy: SchedulerPolicy | None = None,
        admission: AdmissionController | None = None,
        max_inflight: int = 8,
        preemption: bool = False,
        preemption_slack_seconds: float = 0.5,
        tenants: TenantGovernor | None = None,
    ):
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.backend = backend
        self.policy = policy or FCFSPolicy()
        self.tenants = tenants or TenantGovernor()
        """The admission order: deficit round robin across tenants
        (``tenants.select`` wrapping ``policy``), whose lifecycle hooks keep
        the per-tenant quota/fairness counters.  The default bills every
        request to one ``default`` tenant, which admits in ``policy`` order."""
        self.admission = admission or AdmissionController()
        self.max_inflight = max_inflight
        self.preemption = preemption
        self.preemption_slack_seconds = preemption_slack_seconds
        self._queue: list[Request] = []
        self._inflight: list[InFlightRequest] = []
        self._preempted: list[InFlightRequest] = []
        self._arrival_counter = 0
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def num_inflight(self) -> int:
        return len(self._inflight)

    @property
    def num_preempted(self) -> int:
        return len(self._preempted)

    @property
    def has_work(self) -> bool:
        return bool(self._queue or self._inflight or self._preempted)

    def queued_requests(self) -> list[Request]:
        return list(self._queue)

    def queued_by_tenant(self) -> dict[str, int]:
        """Live queue depth per tenant (includes deferred requests)."""
        counts: dict[str, int] = {}
        for request in self._queue:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        return counts

    def inflight_requests(self) -> list[InFlightRequest]:
        return list(self._inflight)

    def preempted_requests(self) -> list[InFlightRequest]:
        return list(self._preempted)

    # ------------------------------------------------------------------
    # queueing
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Enqueue a request; it runs once admission control lets it in.

        The request is billed to the tenant the governor resolves its name
        to.  An unknown name under a strict registry raises
        :class:`~repro.errors.UnknownTenantError`, and a tenant at its
        ``max_queued`` raises :class:`~repro.errors.TenantThrottledError`
        (backpressure, the HTTP 429) — both before anything queues.
        """
        tenant = self.tenants.resolve(request.tenant).name
        self.tenants.check_backpressure(tenant, sum(r.tenant == tenant for r in self._queue))
        request.tenant = tenant
        request.submitted_at = time.monotonic()
        request.arrival_order = self._arrival_counter
        self._arrival_counter += 1
        request.state = RequestState.QUEUED
        self._queue.append(request)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, request_id: int) -> bool:
        """Cancel a request wherever it currently lives.

        * queued (or deferred): it simply leaves the queue;
        * in flight: its admission reservation is released and the backend's
          ``cancel_request`` tears down its session;
        * preempted: likewise — the retained part of its reservation (the
          session footprint kept on the books while paused) is released too.

        Returns ``True`` when a request was cancelled, ``False`` when the id
        is unknown or already terminal (finished / rejected / failed /
        cancelled) — cancelling twice is an idempotent no-op.
        """
        for index, request in enumerate(self._queue):
            if request.request_id == request_id:
                self._queue.pop(index)
                request.state = RequestState.CANCELLED
                self.stats.cancelled += 1
                self.tenants.on_cancelled_queued(request)
                return True
        for pool in (self._inflight, self._preempted):
            for index, inflight in enumerate(pool):
                if inflight.request.request_id == request_id:
                    pool.pop(index)
                    inflight.request.state = RequestState.CANCELLED
                    self.admission.release(inflight.reserved_bytes)
                    inflight.reserved_bytes = 0
                    self.stats.cancelled += 1
                    self.tenants.on_cancelled_inflight(inflight)
                    self.backend.cancel_request(inflight)
                    return True
        return False

    # ------------------------------------------------------------------
    # the step loop
    # ------------------------------------------------------------------
    def _preempt_for(self, critical: Request, now: float) -> bool:
        """Pause one in-flight request so ``critical`` — the governor's next
        admission — can take its slot; whether a victim was paused.

        Only a request inside its TTFT slack threshold is served this way,
        only when the policy names a victim with slack to spare, and only
        when pausing it frees enough budget to admit ``critical``.
        """
        if critical.ttft_slack(now) > self.preemption_slack_seconds:
            return False
        victim_index = self.policy.preemption_victim(
            self._inflight, critical, now, self.preemption_slack_seconds
        )
        if victim_index is None:
            return False
        victim = self._inflight[victim_index]
        # a paused session's live KV stays resident (only its stored context
        # becomes spillable), so that part of the reservation stays booked
        retained = min(
            max(int(self.backend.preempted_request_bytes(victim)), 0), victim.reserved_bytes
        )
        releasable = victim.reserved_bytes - retained
        if (
            self.admission.budget_bytes is not None
            and self.backend.estimate_request_bytes(critical)
            > self.admission.available_bytes + releasable
        ):
            # pausing this victim cannot free enough budget to admit the
            # critical request; preempting would only thrash (pause, fail to
            # admit, resume — possibly spilling and reloading KV every step)
            return False
        self._inflight.pop(victim_index)
        victim.request.state = RequestState.PREEMPTED
        victim.preemptions += 1
        self.admission.release(releasable)
        victim.reserved_bytes = retained
        self._preempted.append(victim)
        self.stats.preemptions += 1
        self.backend.preempt_request(victim)
        return True

    def _admit(self) -> None:
        """Admit the governor's picks while slots and budget allow.

        When the step starts with every slot taken, a pick that is
        SLO-critical may pause one in-flight request (at most one victim per
        step, so preemption stays gradual) and is admitted into the freed
        slot in the same step.
        """
        may_preempt = self.preemption and len(self._inflight) >= self.max_inflight
        while self._queue:
            full = len(self._inflight) >= self.max_inflight
            if full and not may_preempt:
                break
            now = time.monotonic()
            index = self.tenants.select(self._queue, self.policy, now)
            if index is None:
                break  # every backlogged tenant is at its quota/budget
            request = self._queue[index]
            if full:
                may_preempt = False
                if not self._preempt_for(request, now):
                    break
            estimate = self.backend.estimate_request_bytes(request)
            decision = self.admission.try_admit(estimate)
            if decision == AdmissionDecision.REJECT:
                self._queue.pop(index)
                request.state = RequestState.REJECTED
                self.stats.rejected += 1
                self.tenants.on_rejected(request)
                continue
            if decision == AdmissionDecision.DEFER:
                # not enough free budget until an in-flight request finishes;
                # count each request's first deferral only (re-tried every step)
                if request.state != RequestState.DEFERRED:
                    request.state = RequestState.DEFERRED
                    self.stats.deferrals += 1
                    self.tenants.on_deferred(request)
                break
            self._queue.pop(index)
            try:
                inflight = self.backend.begin_request(request)
            except Exception as exc:
                # session setup failed (e.g. a spilled context's snapshot is
                # gone from disk): release the reservation, record the error
                # on the request, and keep the round going for everyone else
                self.admission.release(estimate)
                self.tenants.on_failed(request)
                self._fail(request, exc)
                continue
            inflight.reserved_bytes = estimate
            inflight.estimated_bytes = estimate
            inflight.queue_seconds = request.waited_seconds(now)
            inflight.admitted_at = now
            request.state = RequestState.RUNNING
            self.stats.admitted += 1
            self.tenants.on_admitted(request, estimate)
            self._inflight.append(inflight)

    def _resume_preempted(self) -> None:
        """Move paused requests back in flight while slots and budget allow.

        Runs after :meth:`_admit`, so a critical arrival takes the slot its
        preemption freed before its victim can reclaim it.
        """
        while self._preempted and len(self._inflight) < self.max_inflight:
            inflight = self._preempted[0]
            # re-reserve only what preemption released (the retained resident
            # footprint stayed on the books in reserved_bytes)
            delta = max(inflight.estimated_bytes - inflight.reserved_bytes, 0)
            if not self.admission.try_reserve_more(delta):
                break
            self._preempted.pop(0)
            inflight.reserved_bytes += delta
            inflight.request.state = RequestState.RUNNING
            self._inflight.append(inflight)
            self.stats.resumes += 1
            self.backend.resume_request(inflight)

    def step(self) -> list[InFlightRequest]:
        """Run one scheduling round; returns the requests finished by it."""
        self.stats.steps += 1
        self._admit()
        self._resume_preempted()
        if self._inflight:
            prefilling = sum(1 for inflight in self._inflight if inflight.needs_prefill)
            decoding = len(self._inflight) - prefilling
            self.backend.run_round(list(self._inflight))
            self.stats.prefill_chunks += prefilling
            self.stats.decode_steps += decoding
            if decoding > 1:
                self.stats.batched_decode_calls += 1
        finished = [fl for fl in self._inflight if fl.is_finished]
        for inflight in finished:
            self._inflight.remove(inflight)
            self.admission.release(inflight.reserved_bytes)
            try:
                self.backend.finish_request(inflight)
            except Exception as exc:
                # keeping the outcome failed (a durable re-store raised): the
                # request fails, the round's other requests finish as usual
                self.tenants.on_failed(inflight.request, inflight)
                self._fail(inflight.request, exc)
                continue
            inflight.request.state = RequestState.FINISHED
            self.stats.completed += 1
            self.tenants.on_finished(inflight)
        return finished

    def _fail(self, request: Request, exc: Exception) -> None:
        request.state = RequestState.FAILED
        request.error = f"{type(exc).__name__}: {exc}"
        self.stats.failed += 1
        self.backend.fail_request(request, exc)

    def drain(self, max_steps: int | None = None) -> list[InFlightRequest]:
        """Step until the queue and in-flight set are empty (or ``max_steps``)."""
        finished: list[InFlightRequest] = []
        steps = 0
        while self.has_work:
            finished.extend(self.step())
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return finished
