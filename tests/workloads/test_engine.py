"""Tests of the trace-driven workload engine (generation + replay + gate)."""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.scheduler import SLO
from repro.workloads import engine
from repro.workloads.engine import (
    HttpTransport,
    InProcessTransport,
    TenantMixSpec,
    WorkloadEngineSpec,
    generate_replay_trace,
    replay,
    score_quality_gate,
    tenant_specs,
)
from repro.workloads.trace import (
    TraceSpec,
    diurnal_rate,
    heavy_tailed_lengths,
    sample_arrival_times,
)


def small_spec(**overrides) -> WorkloadEngineSpec:
    defaults = dict(
        duration_seconds=15.0,
        base_rate=0.6,
        burstiness=0.5,
        tenants=(
            TenantMixSpec(name="acme", weight=2, rate_share=2.0),
            TenantMixSpec(name="beta", weight=1, rate_share=1.0),
        ),
        corpus=TraceSpec(
            num_documents=2, document_repeats=4, num_requests=1, fresh_request_fraction=0.0
        ),
        chat_prompt_median_chars=150,
        chat_prompt_max_chars=600,
        seed=7,
    )
    defaults.update(overrides)
    return WorkloadEngineSpec(**defaults)


def replay_in_process(trace, service):
    return asyncio.run(replay(trace, InProcessTransport(service)))


class TestSamplers:
    def test_diurnal_rate_envelope(self):
        times = np.linspace(0.0, 60.0, 200)
        rates = diurnal_rate(times, base_rate=2.0, amplitude=0.5, period_seconds=60.0)
        assert rates.min() >= 1.0 - 1e-9 and rates.max() <= 3.0 + 1e-9
        flat = diurnal_rate(times, base_rate=2.0, amplitude=0.0, period_seconds=60.0)
        assert np.allclose(flat, 2.0)

    def test_diurnal_rate_validation(self):
        with pytest.raises(ValueError):
            diurnal_rate(np.zeros(1), base_rate=0.0, amplitude=0.5, period_seconds=60.0)
        with pytest.raises(ValueError):
            diurnal_rate(np.zeros(1), base_rate=1.0, amplitude=1.5, period_seconds=60.0)
        with pytest.raises(ValueError):
            diurnal_rate(np.zeros(1), base_rate=1.0, amplitude=0.5, period_seconds=0.0)

    def test_arrival_times_sorted_within_duration(self):
        rng = np.random.default_rng(0)
        times = sample_arrival_times(rng, 120.0, 2.0, amplitude=0.5, burstiness=1.0)
        assert times.shape[0] > 0
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() <= 120.0

    def test_arrival_times_mean_rate(self):
        rng = np.random.default_rng(1)
        counts = [
            sample_arrival_times(rng, 200.0, 3.0, burstiness=b).shape[0]
            for b in (0.0, 1.0)
        ]
        for count in counts:  # 600 expected; bursty variance is large, so ±50%
            assert 300 < count < 900

    def test_arrival_times_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_arrival_times(rng, 0.0, 1.0)
        with pytest.raises(ValueError):
            sample_arrival_times(rng, 10.0, 1.0, burstiness=-0.1)

    def test_heavy_tailed_lengths(self):
        rng = np.random.default_rng(2)
        lengths = heavy_tailed_lengths(rng, 4000, median=500, sigma=0.9, maximum=8000)
        assert lengths.min() >= 1 and lengths.max() <= 8000
        assert 400 < np.median(lengths) < 625
        with pytest.raises(ValueError):
            heavy_tailed_lengths(rng, 10, median=0)


class TestTraceSpecValidation:
    # regression: non-positive counts and negative skew were silently accepted
    def test_rejects_non_positive_num_requests(self):
        with pytest.raises(ValueError, match="num_requests"):
            TraceSpec(num_requests=0)
        with pytest.raises(ValueError, match="num_requests"):
            TraceSpec(num_requests=-3)

    def test_rejects_non_positive_document_repeats(self):
        with pytest.raises(ValueError, match="document_repeats"):
            TraceSpec(document_repeats=0)

    def test_rejects_negative_popularity_skew(self):
        with pytest.raises(ValueError, match="document_popularity_skew"):
            TraceSpec(document_popularity_skew=-0.5)


class TestEngineSpecValidation:
    def test_tenant_mix_validation(self):
        with pytest.raises(ValueError, match="rate_share"):
            TenantMixSpec(name="t", rate_share=0.0)
        with pytest.raises(ValueError, match="fractions"):
            TenantMixSpec(name="t", chat_fraction=0.8, rag_fraction=0.5)
        with pytest.raises(ValueError, match="name"):
            TenantMixSpec(name="")

    def test_engine_spec_validation(self):
        with pytest.raises(ValueError, match="duration"):
            small_spec(duration_seconds=0.0)
        with pytest.raises(ValueError, match="base_rate"):
            small_spec(base_rate=-1.0)
        with pytest.raises(ValueError, match="tenant"):
            small_spec(tenants=())
        with pytest.raises(ValueError, match="duplicate"):
            small_spec(
                tenants=(TenantMixSpec(name="a"), TenantMixSpec(name="a"))
            )
        with pytest.raises(ValueError, match="cancel_fraction"):
            small_spec(cancel_fraction=1.5)
        with pytest.raises(ValueError, match="max_events"):
            small_spec(max_events=0)

    def test_tenant_specs_mapping(self):
        spec = small_spec(
            tenants=(TenantMixSpec(name="acme", weight=3, max_queued=5),)
        )
        (ts,) = tenant_specs(spec)
        assert ts.name == "acme" and ts.weight == 3 and ts.max_queued == 5


class TestTraceGeneration:
    def test_same_seed_same_digest(self):
        spec = small_spec(cancel_fraction=0.3, disconnect_fraction=0.5)
        a = generate_replay_trace(spec)
        b = generate_replay_trace(spec)
        assert a.digest() == b.digest()
        assert a.to_jsonable() == b.to_jsonable()

    def test_different_seed_different_digest(self):
        assert (
            generate_replay_trace(small_spec(seed=1)).digest()
            != generate_replay_trace(small_spec(seed=2)).digest()
        )

    def test_trace_structure(self):
        trace = generate_replay_trace(small_spec(cancel_fraction=0.3))
        assert trace.num_events > 0
        arrivals = [e.arrival_seconds for e in trace.events]
        assert arrivals == sorted(arrivals)
        assert [e.event_id for e in trace.events] == list(range(trace.num_events))
        for event in trace.events:
            assert event.tenant in ("acme", "beta")
            assert event.kind in ("chat", "rag", "agent", "fresh")
            assert event.max_new_tokens > 0
            if event.kind == "rag":
                assert event.document_id in trace.documents
                assert trace.documents[event.document_id] in event.prompt
            if event.session_id is None:
                assert event.turn == 0

    def test_session_turns_chain(self):
        trace = generate_replay_trace(small_spec(seed=11, duration_seconds=30.0))
        sessions: dict[str, list] = {}
        for event in trace.events:
            if event.session_id is not None:
                sessions.setdefault(event.session_id, []).append(event)
        assert sessions, "expected at least one chat/agent session"
        for chain in sessions.values():
            chain.sort(key=lambda e: e.turn)
            assert [e.turn for e in chain] == list(range(len(chain)))
            for earlier, later in zip(chain, chain[1:]):
                # each turn extends the previous turn's prompt (prefix reuse)
                assert later.prompt.startswith(earlier.prompt)
                assert later.arrival_seconds >= earlier.arrival_seconds

    def test_cancelled_turn_ends_its_session(self):
        trace = generate_replay_trace(
            small_spec(seed=3, cancel_fraction=0.6, disconnect_fraction=0.5)
        )
        cancels = [e for e in trace.events if e.cancel_after_tokens is not None]
        assert cancels, "expected cancellation events at this fraction"
        last_turn = {}
        for event in trace.events:
            if event.session_id is not None:
                last_turn[event.session_id] = max(
                    last_turn.get(event.session_id, 0), event.turn
                )
        for event in cancels:
            assert 1 <= event.cancel_after_tokens <= event.max_new_tokens
            assert event.turn == last_turn[event.session_id]

    def test_max_events_cap(self):
        trace = generate_replay_trace(small_spec(max_events=3, chat_mean_turns=1.0))
        root_events = {e.session_id or e.event_id for e in trace.events if e.turn == 0}
        assert len(root_events) <= 3

    def test_trace_is_json_serializable(self):
        trace = generate_replay_trace(small_spec())
        json.dumps(trace.to_jsonable())


class TestSchedulerReplay:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_replay_trace(small_spec(seed=5, cancel_fraction=0.2))

    def replay(self, trace, tiny_model):
        service = InferenceService(
            tiny_model, AlayaDBConfig(tenants=tenant_specs(trace.spec))
        )
        return replay_in_process(trace, service)

    def test_replay_accounts_for_every_event(self, trace, tiny_model):
        report = self.replay(trace, tiny_model)
        assert report.entrypoint == "scheduler"
        assert report.num_events == trace.num_events
        assert report.submitted == trace.num_events
        assert report.completed + report.cancelled + report.failed == report.submitted
        assert report.completed > 0

    def test_replay_reuses_contexts_and_meets_slos(self, trace, tiny_model):
        report = self.replay(trace, tiny_model)
        # chat turns and repeated RAG documents must hit the token trie
        assert report.reuse_hit_requests > 0
        assert 0.0 < report.reused_token_ratio <= 1.0
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.ttft_seconds["p50"] <= report.ttft_seconds["p99"]
        json.dumps(report.to_dict())

    def test_service_slo_report_equals_replay_report(self, tiny_model, monkeypatch):
        """One verdict per request: the service's SLO report and the replay
        report read the same records.  Every other event carries an SLO no
        request can meet, so attainment lands strictly between 0 and 1."""
        monkeypatch.setitem(engine._SLO_CLASSES, "tight", SLO(tpot_seconds=1e-9, ttft_seconds=1e-9))
        trace = generate_replay_trace(small_spec())
        trace.events = [
            replace(event, slo_class="tight") if event.event_id % 2 else event
            for event in trace.events
        ]
        service = InferenceService(tiny_model, AlayaDBConfig(tenants=tenant_specs(trace.spec)))
        report = replay_in_process(trace, service)
        slo = service.slo_report()
        assert slo.num_requests == report.completed
        assert slo.attainment == report.slo_attainment
        assert 0.0 < report.slo_attainment < 1.0
        assert slo.ttft_seconds == report.ttft_seconds

    def test_replay_deterministic_across_runs(self, trace, tiny_model):
        first = self.replay(trace, tiny_model)
        second = self.replay(trace, tiny_model)
        assert first.deterministic_summary() == second.deterministic_summary()

    def test_backpressure_retries_surface_as_429s(self, tiny_model):
        spec = small_spec(
            duration_seconds=4.0,
            base_rate=4.0,
            burstiness=1.0,
            tenants=(
                TenantMixSpec(
                    name="hot", chat_fraction=0.0, rag_fraction=0.6,
                    agent_fraction=0.0, max_queued=1,
                ),
            ),
            seed=5,
        )
        trace = generate_replay_trace(spec)
        service = InferenceService(
            tiny_model,
            AlayaDBConfig(tenants=tenant_specs(spec), max_inflight_requests=1),
        )
        report = replay_in_process(trace, service)
        assert report.throttled_429 > 0
        assert report.completed == report.submitted  # retries eventually landed


class TestHttpReplay:
    def service(self, trace, tiny_model):
        return InferenceService(tiny_model, AlayaDBConfig(tenants=tenant_specs(trace.spec)))

    def test_transports_agree_on_cancel_free_trace(self, tiny_model):
        """One driver: greedy decoding and token-identical batching make the
        seed-reproducible counts independent of the transport."""
        trace = generate_replay_trace(small_spec(seed=7))
        in_process = replay_in_process(trace, self.service(trace, tiny_model))
        http = asyncio.run(replay(trace, HttpTransport(self.service(trace, tiny_model))))
        assert (in_process.entrypoint, http.entrypoint) == ("scheduler", "http")
        assert http.completed > 0
        assert http.deterministic_summary() == in_process.deterministic_summary()

    def test_load_waits_for_a_slow_server_start(self, tiny_model, monkeypatch):
        """No chain submits before the transport's client exists, however
        long the server takes to come up."""
        from repro.server import AlayaDBServer

        real_start = AlayaDBServer.start

        async def slow_start(server):
            await asyncio.sleep(0.05)
            await real_start(server)

        monkeypatch.setattr(AlayaDBServer, "start", slow_start)
        trace = generate_replay_trace(small_spec(seed=7))
        report = asyncio.run(replay(trace, HttpTransport(self.service(trace, tiny_model))))
        assert report.submitted == trace.num_events
        assert report.completed > 0

    def test_backpressure_retries_land_over_http(self, tiny_model):
        """A 429 carries its retry-after to the driver, which retries until
        every flooded request is served."""
        spec = small_spec(
            duration_seconds=4.0,
            base_rate=4.0,
            burstiness=1.0,
            tenants=(
                TenantMixSpec(
                    name="hot", chat_fraction=0.0, rag_fraction=0.6,
                    agent_fraction=0.0, max_queued=1,
                ),
            ),
            seed=5,
        )
        trace = generate_replay_trace(spec)
        service = InferenceService(
            tiny_model,
            AlayaDBConfig(tenants=tenant_specs(spec), max_inflight_requests=1),
        )
        report = asyncio.run(replay(trace, HttpTransport(service)))
        assert report.throttled_429 > 0
        assert report.submitted == report.completed == trace.num_events

    def test_cancel_sends_at_most_one_delete_per_request(self, tiny_model, monkeypatch):
        """The cancel fires once: the driver stops reading a stream it has
        cancelled instead of sending a DELETE for every later token."""
        from repro.server import ServerClient

        deletes: Counter[int] = Counter()
        send_delete = ServerClient.cancel

        async def counting_cancel(self, request_id):
            deletes[request_id] += 1
            return await send_delete(self, request_id)

        monkeypatch.setattr(ServerClient, "cancel", counting_cancel)
        trace = generate_replay_trace(
            small_spec(
                seed=11,
                cancel_fraction=1.0,
                disconnect_fraction=0.0,
                chat_max_new_tokens=40,
                agent_max_new_tokens=40,
            )
        )
        report = asyncio.run(replay(trace, HttpTransport(self.service(trace, tiny_model))))
        cancel_events = sum(e.cancel_after_tokens is not None for e in trace.events)
        assert report.cancelled > 0
        assert max(deletes.values()) == 1
        assert sum(deletes.values()) <= cancel_events


class TestQualityGate:
    def test_gate_passes_for_sparse_path(self):
        gate = score_quality_gate(["rag", "agent"], context_length=1024, decode_steps=2)
        assert set(gate.per_task) == {"Qasper", "Retr.KV"}
        for row in gate.per_task.values():
            assert row["dense"] == pytest.approx(100.0)
            assert 0.0 <= row["sparse"] <= 100.0 + 1e-9
        assert gate.passes(threshold=0.95)
        assert gate.min_ratio <= gate.mean_ratio + 1e-12
        json.dumps(gate.to_dict())

    def test_gate_is_deterministic(self):
        a = score_quality_gate(["chat"], context_length=1024, decode_steps=2)
        b = score_quality_gate(["chat"], context_length=1024, decode_steps=2)
        assert a.to_dict() == b.to_dict()

    def test_empty_gate_fails(self):
        gate = score_quality_gate([])
        assert not gate.passes()
