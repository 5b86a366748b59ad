"""Request scheduling for concurrent serving (Section 8, Model-as-a-Service).

The scheduler turns the one-request-at-a-time serving loop into a
step-driven, memory-governed pipeline:

* :class:`~repro.scheduler.request.Request` — a queued generation request
  with priority and (optional) :class:`~repro.scheduler.slo.SLO` class;
* :class:`~repro.scheduler.policy.SchedulerPolicy` — the admission order
  (FCFS or SLO-aware least-slack-first);
* :class:`~repro.scheduler.admission.AdmissionController` — global
  GPU-memory admission control across all in-flight requests;
* :class:`~repro.scheduler.tenancy.TenantGovernor` — multi-tenant weighted
  fairness (deficit round robin across tenants, wrapping the FCFS/SLO
  intra-tenant order), per-tenant in-flight/byte quotas, and queue-depth
  backpressure (the HTTP 429 path);
* :class:`~repro.scheduler.scheduler.RequestScheduler` — the step loop that
  interleaves chunked prefill and decode across in-flight sessions, batching
  all decode-ready requests into one shared forward pass (continuous
  batching) and preempting slack-rich in-flight requests for SLO-critical
  arrivals under the ``slo`` policy.

The package is deliberately independent of :mod:`repro.core`: it drives any
backend implementing the :class:`~repro.scheduler.scheduler.SchedulerBackend`
protocol (``InferenceService`` is the production one).
"""

from .admission import AdmissionController, AdmissionDecision, AdmissionStats
from .policy import FCFSPolicy, SchedulerPolicy, SLOAwarePolicy, make_policy
from .request import InFlightRequest, Request, RequestState
from .scheduler import RequestScheduler, SchedulerBackend, SchedulerStats
from .slo import BATCH_SLO, HUMAN_READING_TPOT, INTERACTIVE_SLO, SLO, SLOReport
from .tenancy import DEFAULT_TENANT, TenantGovernor, TenantSpec, TenantStats

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "BATCH_SLO",
    "DEFAULT_TENANT",
    "FCFSPolicy",
    "HUMAN_READING_TPOT",
    "INTERACTIVE_SLO",
    "InFlightRequest",
    "Request",
    "RequestScheduler",
    "RequestState",
    "SchedulerBackend",
    "SchedulerPolicy",
    "SchedulerStats",
    "SLO",
    "SLOAwarePolicy",
    "SLOReport",
    "TenantGovernor",
    "TenantSpec",
    "TenantStats",
    "make_policy",
]
