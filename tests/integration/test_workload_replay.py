"""Workload-engine soak: seeded traces replayed against the full stack.

Tier-1 covers the engine's pieces (``tests/workloads/test_engine.py``); this
module runs the expensive end-to-end passes the CI ``workloads`` job
executes with ``-m workloads``:

* a mixed multi-tenant trace — chat sessions, RAG over a shared Zipf
  library, agent loops with mid-stream cancellations and disconnects —
  replayed through the scheduler, over real TCP through the HTTP frontend
  (which must drain clean), and through the scheduler of a sharded router's
  front service (library documents living on the shard owners);
* cross-entry-point determinism: on a cancellation-free trace the
  scheduler and HTTP replays — and the scheduler replay over the
  router-backed service — must agree on every deterministic-summary count
  (greedy decoding, token-identical batching, exact cross-shard merge);
* the quality gate scored on the same trace's task mix.
"""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.sharding.router import ShardedContextRouter
from repro.workloads.engine import (
    TenantMixSpec,
    WorkloadEngineSpec,
    generate_replay_trace,
    replay_http,
    replay_scheduler,
    score_quality_gate,
    tenant_specs,
)
from repro.workloads.trace import TraceSpec

pytestmark = [pytest.mark.slow, pytest.mark.workloads]


def soak_spec(**overrides) -> WorkloadEngineSpec:
    defaults = dict(
        duration_seconds=40.0,
        base_rate=0.8,
        diurnal_amplitude=0.6,
        diurnal_period_seconds=20.0,
        burstiness=0.8,
        tenants=(
            TenantMixSpec(name="finance", weight=2, rate_share=2.0,
                          chat_fraction=0.25, rag_fraction=0.5, agent_fraction=0.15),
            TenantMixSpec(name="legal", weight=1, rate_share=1.0,
                          chat_fraction=0.45, rag_fraction=0.2, agent_fraction=0.25,
                          max_queued=8),
        ),
        corpus=TraceSpec(
            num_documents=3, document_repeats=5, num_requests=1,
            fresh_request_fraction=0.0,
        ),
        chat_prompt_median_chars=300,
        chat_prompt_max_chars=1500,
        seed=42,
    )
    defaults.update(overrides)
    return WorkloadEngineSpec(**defaults)


def make_service(spec, tiny_model, **config_overrides) -> InferenceService:
    return InferenceService(
        tiny_model, AlayaDBConfig(tenants=tenant_specs(spec), **config_overrides)
    )


def make_router(spec, tiny_model) -> ShardedContextRouter:
    """A 2-worker sharded router; its front ``service`` has the same config
    and tenants as :func:`make_service`, but shards what it ingests."""
    return ShardedContextRouter(
        tiny_model, num_workers=2, config=AlayaDBConfig(tenants=tenant_specs(spec))
    )


class TestMixedTraceSoak:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_replay_trace(
            soak_spec(cancel_fraction=0.25, disconnect_fraction=0.5)
        )

    def test_trace_covers_every_kind_and_tenant(self, trace):
        counts = trace.kind_counts()
        assert all(counts[kind] > 0 for kind in ("chat", "rag", "agent", "fresh"))
        assert set(trace.tenant_counts()) == {"finance", "legal"}
        assert any(e.cancel_after_tokens is not None for e in trace.events)
        assert any(e.disconnect for e in trace.events)

    def test_scheduler_replay_soak(self, trace, tiny_model):
        report = replay_scheduler(trace, make_service(trace.spec, tiny_model))
        assert report.submitted == trace.num_events
        assert report.completed + report.cancelled + report.failed == report.submitted
        assert report.cancelled > 0  # virtual-clock cancels fire deterministically
        assert report.failed == 0
        assert report.reuse_hit_requests > 0
        assert report.per_tenant["finance"]["tokens_served"] > 0
        assert report.per_tenant["legal"]["tokens_served"] > 0

    def test_http_replay_soak_drains_clean(self, trace, tiny_model):
        # shutdown(drain=True) inside replay_http runs check_drained: any
        # leaked pin/reservation/non-terminal request fails the test
        report = replay_http(
            trace, make_service(trace.spec, tiny_model), time_scale=0.004
        )
        assert report.entrypoint == "http"
        assert report.submitted > 0
        assert report.completed + report.cancelled + report.failed == report.submitted
        assert report.reuse_hit_requests > 0

    def test_router_replay_soak(self, trace, tiny_model):
        router = make_router(trace.spec, tiny_model)
        report = replay_scheduler(trace, router.service)
        assert (
            report.completed + report.cancelled + report.failed + report.rejected
            == report.submitted
        )
        assert report.completed > 0
        assert report.reuse_hit_requests > 0
        # the library really is served off the shard owners
        for document_id in trace.documents:
            assert router.ref(document_id).num_shards >= 1
        assert router.memory_report()["router"]["admission_committed_bytes"] == 0

    def test_quality_gate_on_trace_mix(self, trace):
        gate = score_quality_gate(
            trace.kinds_present(), context_length=1024, decode_steps=2
        )
        assert len(gate.per_task) == len(trace.kinds_present())
        assert gate.passes(threshold=0.95), gate.to_dict()


class TestCrossEntryDeterminism:
    @pytest.fixture(scope="class")
    def trace(self):
        # no cancellations: cancel timing is wall-clock under HTTP, so only
        # cancel-free traces replay identically across entry points
        return generate_replay_trace(
            soak_spec(duration_seconds=25.0, cancel_fraction=0.0, seed=13)
        )

    def test_scheduler_and_http_agree(self, trace, tiny_model):
        sched = replay_scheduler(trace, make_service(trace.spec, tiny_model))
        http = replay_http(
            trace, make_service(trace.spec, tiny_model), time_scale=0.004
        )
        assert sched.deterministic_summary() == http.deterministic_summary()

    def test_router_generates_identical_token_counts(self, trace, tiny_model):
        sched = replay_scheduler(trace, make_service(trace.spec, tiny_model))
        sharded = replay_scheduler(trace, make_router(trace.spec, tiny_model).service)
        assert sharded.completed == sched.completed
        assert sharded.generated_tokens == sched.generated_tokens
        assert sharded.deterministic_summary() == sched.deterministic_summary()
