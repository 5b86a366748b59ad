"""Multi-tenant scheduling: weighted fairness, quotas, and backpressure.

Every request is billed to a *tenant*; this module is the policy layer that
keeps tenants from starving each other, and the scheduler's only admission
order:

* :class:`TenantSpec` declares a tenant — its deficit-round-robin ``weight``
  and three optional governors: ``max_inflight`` (concurrent admitted
  requests), ``reserved_bytes_budget`` (a per-tenant slice of the admission
  budget), and ``max_queued`` (the backpressure threshold — a submission
  beyond it is refused with :class:`~repro.errors.TenantThrottledError`, the
  HTTP 429 path, instead of queuing without bound);

* :class:`TenantGovernor` orders :class:`RequestScheduler` admissions:
  *across tenants* by deficit round robin (each fresh visit of a backlogged
  tenant grows its deficit by ``quantum x weight``; a request is admitted
  when the deficit covers its token cost, which is then deducted), *within*
  one tenant by the wrapped FCFS/SLO policy — so SLO urgency keeps working
  inside each tenant's share.  The round robin is work-conserving: it never
  declines a free slot while a backlogged tenant is under quota, so a
  governor serving one tenant admits exactly in the policy's order.  Tenants
  at their in-flight quota or byte budget are skipped (their deficit neither
  grows nor resets: they are self-limited, not starved);

* the registry is fixed when the governor is built: the declared specs plus
  ``default`` (unless ``strict``).  A request naming an undeclared tenant is
  billed to ``default``, or refused with
  :class:`~repro.errors.UnknownTenantError` under ``strict`` — client-chosen
  names never grow the registry;

* the governor also keeps the per-tenant counters (in flight, queued,
  deferred, throttled, tokens served, ...) that ``ServiceStats`` and
  ``memory_report()`` expose, so fairness is observable, not just enforced.

The scheduler calls the ``on_*`` lifecycle hooks; nothing here touches model
or storage state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigError, TenantThrottledError, UnknownTenantError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policy import SchedulerPolicy
    from .request import InFlightRequest, Request

__all__ = ["TenantSpec", "TenantStats", "TenantGovernor", "DEFAULT_TENANT"]

DEFAULT_TENANT = "default"
"""Tenant requests fall under when the caller names none."""


@dataclass(frozen=True)
class TenantSpec:
    """Declared limits and fair-queuing weight of one tenant."""

    name: str
    weight: int = 1
    """Deficit-round-robin weight: a tenant with weight 3 is entitled to 3x
    the admitted token throughput of a weight-1 tenant under saturation."""
    max_inflight: int | None = None
    """Concurrent admitted (running or preempted) requests; ``None`` leaves
    the tenant bounded only by the scheduler's global ``max_inflight``."""
    max_queued: int | None = None
    """Queue-depth backpressure threshold: a submission finding this many of
    the tenant's requests already queued raises ``TenantThrottledError``
    (HTTP 429) instead of queuing.  ``None`` never throttles."""
    reserved_bytes_budget: int | None = None
    """Cap on the tenant's concurrently reserved admission bytes (the sum of
    its in-flight requests' estimates); ``None`` is uncapped."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must not be empty")
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r} weight must be positive, got {self.weight}")
        if self.max_inflight is not None and self.max_inflight <= 0:
            raise ConfigError(
                f"tenant {self.name!r} max_inflight must be positive when set, "
                f"got {self.max_inflight}"
            )
        if self.max_queued is not None and self.max_queued <= 0:
            raise ConfigError(
                f"tenant {self.name!r} max_queued must be positive when set, "
                f"got {self.max_queued}"
            )
        if self.reserved_bytes_budget is not None and self.reserved_bytes_budget <= 0:
            raise ConfigError(
                f"tenant {self.name!r} reserved_bytes_budget must be positive "
                f"when set, got {self.reserved_bytes_budget}"
            )


@dataclass
class TenantStats:
    """Live counters of one tenant (mutated by the governor's hooks)."""

    inflight: int = 0
    """Admitted requests not yet terminal (running or preempted)."""
    reserved_bytes: int = 0
    """Sum of the in-flight requests' admission estimates."""
    deficit_tokens: int = 0
    """The DRR deficit counter (token-denominated service credit)."""
    admitted: int = 0
    completed: int = 0
    cancelled: int = 0
    rejected: int = 0
    failed: int = 0
    deferred: int = 0
    """Requests that waited on the global memory budget at least once."""
    throttled: int = 0
    """Submissions refused by queue-depth backpressure (the HTTP 429 count)."""
    tokens_served: int = 0
    """Generated tokens delivered across the tenant's finished requests."""
    service_seconds_ema: float = 0.0
    """Exponential moving average of one request's compute time (prefill +
    decode), the basis of the ``Retry-After`` hint."""


class TenantGovernor:
    """Deficit-round-robin admission across tenants, plus quota bookkeeping.

    The registry is ``specs`` plus a ``default`` tenant with no limits
    (a declared ``default`` spec wins; ``strict`` registers none).
    ``quantum_tokens`` is the per-weight-unit deficit replenishment: one full
    scheduling cycle entitles a tenant to ``quantum x weight`` more admitted
    tokens, which is what makes long-run admitted-token throughput
    proportional to the weights.
    """

    def __init__(
        self,
        specs: Sequence[TenantSpec] = (),
        quantum_tokens: int = 256,
        strict: bool = False,
    ):
        if quantum_tokens <= 0:
            raise ConfigError(f"quantum_tokens must be positive, got {quantum_tokens}")
        self.quantum_tokens = quantum_tokens
        self.strict = strict
        self._specs: dict[str, TenantSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ConfigError(f"duplicate tenant spec {spec.name!r}")
            self._specs[spec.name] = spec
        if not strict:
            self._specs.setdefault(DEFAULT_TENANT, TenantSpec(name=DEFAULT_TENANT))
        self._stats = {name: TenantStats() for name in self._specs}
        self._ring = list(self._specs)
        """Round-robin visiting order (declaration order)."""
        self._turn: int | None = None
        """Ring index of the tenant holding the turn (``None`` before the
        first pick): it was picked last and is mid-burst, keeping the turn
        until its deficit runs out.  A mid-burst tenant is *not* replenished —
        replenishment happens once per rotation arrival, which is what makes
        long-run shares proportional to the weights."""

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def resolve(self, name: str | None) -> TenantSpec:
        """The spec ``name`` is billed to: its own when declared, else
        ``default`` (``UnknownTenantError`` when strict)."""
        spec = self._specs.get(name or DEFAULT_TENANT)
        if spec is not None:
            return spec
        if self.strict:
            known = ", ".join(repr(n) for n in self._ring)
            raise UnknownTenantError(
                f"unknown tenant {name!r} (strict tenant registry; declared: {known})"
            )
        return self._specs[DEFAULT_TENANT]

    def known_tenants(self) -> list[str]:
        return list(self._ring)

    def spec(self, name: str) -> TenantSpec:
        return self._specs[name]

    def stats(self, name: str) -> TenantStats:
        return self._stats[name]

    # ------------------------------------------------------------------
    # backpressure (the submit-time 429 path)
    # ------------------------------------------------------------------
    def check_backpressure(self, name: str, queued: int) -> None:
        """Refuse a submission when the tenant's queue is at its limit.

        ``queued`` is the tenant's current scheduler queue depth.  Raises
        :class:`TenantThrottledError` carrying the queue position the request
        would have taken and a ``Retry-After`` hint derived from the tenant's
        recent per-request service time (how long until roughly one queue
        slot frees up).
        """
        spec = self.resolve(name)
        if spec.max_queued is None or queued < spec.max_queued:
            return
        stats = self._stats[spec.name]
        stats.throttled += 1
        per_request = stats.service_seconds_ema or 1.0
        retry_after = max(1.0, per_request * max(stats.inflight + 1, 1))
        raise TenantThrottledError(
            f"tenant {spec.name!r} has {queued} requests queued "
            f"(max_queued={spec.max_queued}); retry in ~{retry_after:.0f}s",
            tenant=spec.name,
            queue_depth=queued,
            queue_position=queued + 1,
            retry_after_seconds=retry_after,
        )

    # ------------------------------------------------------------------
    # deficit-round-robin admission order
    # ------------------------------------------------------------------
    @staticmethod
    def request_cost(request: "Request") -> int:
        """A request's DRR cost: the tokens it will make the service process."""
        return request.num_prompt_tokens + request.max_new_tokens

    def _eligible(self, name: str) -> bool:
        """Whether the tenant may take another admission right now."""
        spec = self._specs[name]
        stats = self._stats[name]
        if spec.max_inflight is not None and stats.inflight >= spec.max_inflight:
            return False
        if (
            spec.reserved_bytes_budget is not None
            and stats.reserved_bytes >= spec.reserved_bytes_budget
        ):
            return False
        return True

    def select(
        self, queue: Sequence["Request"], policy: "SchedulerPolicy", now: float
    ) -> int | None:
        """Index into ``queue`` of the next request to try admitting.

        Deficit round robin over the tenant ring from the tenant holding the
        turn: each fresh visit of a backlogged, under-quota tenant adds
        ``quantum x weight`` to its deficit (the turn holder's first visit is
        mid-burst, not fresh), and the first tenant whose deficit covers its
        head request's cost wins and keeps the turn.  The head *within* a
        tenant is whatever the wrapped policy picks from that tenant's slice
        of the queue.  The scan is work-conserving: it rotates until some
        tenant can pay (the rotations in which none can are taken in one
        stride), so ``None`` means every backlogged tenant is at its quota,
        and with one tenant the pick is ``policy.select(queue, now)``.  A
        tenant whose backlog emptied has its deficit reset — credit does not
        accumulate across idle periods.
        """
        by_tenant: dict[str, list[int]] = {}
        for index, request in enumerate(queue):
            by_tenant.setdefault(request.tenant, []).append(index)
        size = len(self._ring)
        # (ring position, stats, head index, cost, quantum) of every tenant
        # that may admit, in visiting order
        visits = []
        for offset in range(size):
            position = ((self._turn or 0) + offset) % size
            name = self._ring[position]
            indices = by_tenant.get(name)
            if indices is None:
                self._stats[name].deficit_tokens = 0
            elif self._eligible(name):  # else self-limited: no credit, no reset
                head = indices[policy.select([queue[i] for i in indices], now)]
                quantum = self.quantum_tokens * self._specs[name].weight
                cost = self.request_cost(queue[head])
                visits.append((position, self._stats[name], head, cost, quantum))
        if not visits:
            return None
        mid_burst = visits[0][0] == self._turn
        while True:
            for turn, (position, stats, head, cost, quantum) in enumerate(visits):
                if stats.deficit_tokens < cost and (turn or not mid_burst):
                    stats.deficit_tokens += quantum
                if stats.deficit_tokens >= cost:
                    self._turn = position
                    return head
            # nobody could pay in this rotation: skip to the one in which the
            # first tenant can (a large request saves up across rotations
            # exactly like a large packet in classic DRR)
            rotations = min(-(-(c - s.deficit_tokens) // q) for _, s, _, c, q in visits)
            for _, stats, _, _, quantum in visits:
                stats.deficit_tokens += (rotations - 1) * quantum
            mid_burst = False

    # ------------------------------------------------------------------
    # scheduler lifecycle hooks
    # ------------------------------------------------------------------
    def on_admitted(self, request: "Request", reserved_bytes: int) -> None:
        stats = self._stats[request.tenant]
        stats.deficit_tokens = max(stats.deficit_tokens - self.request_cost(request), 0)
        stats.inflight += 1
        stats.reserved_bytes += reserved_bytes
        stats.admitted += 1

    def on_deferred(self, request: "Request") -> None:
        """First time a request waits on the global memory budget."""
        self._stats[request.tenant].deferred += 1

    def on_rejected(self, request: "Request") -> None:
        self._stats[request.tenant].rejected += 1

    def on_failed(self, request: "Request", inflight: "InFlightRequest | None" = None) -> None:
        """Session setup raised (``inflight`` is None: admission bookkeeping
        never started), or keeping an admitted request's outcome did."""
        stats = self._stats[request.tenant] if inflight is None else self._release(inflight)
        stats.failed += 1

    def on_finished(self, inflight: "InFlightRequest") -> None:
        stats = self._release(inflight)
        stats.completed += 1
        compute = inflight.prefill_seconds + sum(inflight.decode_seconds)
        if compute > 0:
            alpha = 0.2
            stats.service_seconds_ema = (
                compute
                if stats.service_seconds_ema == 0.0
                else (1 - alpha) * stats.service_seconds_ema + alpha * compute
            )

    def on_cancelled_queued(self, request: "Request") -> None:
        self._stats[request.tenant].cancelled += 1

    def on_cancelled_inflight(self, inflight: "InFlightRequest") -> None:
        self._release(inflight).cancelled += 1

    def _release(self, inflight: "InFlightRequest") -> TenantStats:
        """Take a terminal admitted request off its tenant's books."""
        stats = self._stats[inflight.request.tenant]
        stats.inflight = max(stats.inflight - 1, 0)
        stats.reserved_bytes = max(stats.reserved_bytes - inflight.estimated_bytes, 0)
        stats.tokens_served += inflight.num_generated
        return stats

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self, queued_by_tenant: dict[str, int] | None = None) -> dict[str, dict]:
        """One observable row per tenant (the ``memory_report()`` payload).

        ``queued_by_tenant`` supplies the live scheduler queue depths (the
        governor does not watch the queue itself); omitted tenants report 0.
        """
        queued_by_tenant = queued_by_tenant or {}
        rows = {}
        for name in self._ring:
            spec = self._specs[name]
            stats = self._stats[name]
            rows[name] = {
                "weight": spec.weight,
                "inflight": stats.inflight,
                "queued": queued_by_tenant.get(name, 0),
                "reserved_bytes": stats.reserved_bytes,
                "admitted": stats.admitted,
                "completed": stats.completed,
                "cancelled": stats.cancelled,
                "rejected": stats.rejected,
                "failed": stats.failed,
                "deferred": stats.deferred,
                "throttled_429": stats.throttled,
                "tokens_served": stats.tokens_served,
            }
        return rows
