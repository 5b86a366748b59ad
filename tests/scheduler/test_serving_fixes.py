"""Serving-path correctness tests: batched decode through the service,
zero-token requests, mid-round session-setup failures, EOS termination,
wall-clock TTFT accounting, result retention, and preemption end to end."""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import ConfigError, RequestFailedError
from repro.llm.model import ModelConfig, TransformerModel
from repro.llm.tokenizer import ByteTokenizer, SpecialTokens
from repro.scheduler import BATCH_SLO, SLO, RequestState
from repro.storage.backend import FilesystemBackend

SPARSE_CONFIG = dict(
    window_initial_tokens=8,
    window_last_tokens=16,
    short_context_threshold=64,
    gpu_memory_budget_bytes=1,
    max_retrieved_tokens=64,
)


def _make_service(seed=71, **overrides):
    model = TransformerModel(ModelConfig.tiny(seed=seed))
    return InferenceService(model, AlayaDBConfig(**overrides))


class TestZeroAndOneTokenRequests:
    def test_zero_max_new_tokens_through_submit_drain(self):
        service = _make_service()
        request_id = service.submit("a prompt that wants no completion", max_new_tokens=0)
        service.drain()
        result, record = service.result(request_id)
        assert result.generated_tokens == []
        assert record.generated_tokens == 0
        assert record.ttft_seconds > 0  # prefill still ran

    def test_one_max_new_token_through_submit_drain(self):
        service = _make_service()
        request_id = service.submit("a prompt that wants one token", max_new_tokens=1)
        service.drain()
        result, record = service.result(request_id)
        assert result.num_generated == 1
        assert record.generated_tokens == 1

    def test_negative_max_new_tokens_rejected_at_submit(self):
        service = _make_service()
        with pytest.raises(ValueError):
            service.submit("bad request", max_new_tokens=-3)


class TestBeginRequestFailureThroughService:
    def test_other_requests_survive_a_setup_failure(self, monkeypatch):
        service = _make_service()
        original = service.db.create_session
        calls = {"n": 0}

        def flaky_create_session(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("snapshot vanished from disk")
            return original(*args, **kwargs)

        monkeypatch.setattr(service.db, "create_session", flaky_create_session)
        ids = [service.submit(f"request number {i}", max_new_tokens=2) for i in range(3)]
        service.drain()
        ok_a, failed, ok_b = ids
        assert service.result(ok_a)[0].num_generated == 2
        assert service.result(ok_b)[0].num_generated == 2
        with pytest.raises(RequestFailedError, match="snapshot vanished"):
            service.result(failed)
        assert service.stats.failed == 1
        assert service.scheduler.stats.failed == 1
        # the failed request's reservation was released
        assert service.scheduler.admission.committed_bytes == 0

    def test_serve_surfaces_the_failure(self, monkeypatch):
        service = _make_service()

        def broken_create_session(*args, **kwargs):
            raise RuntimeError("session setup exploded")

        monkeypatch.setattr(service.db, "create_session", broken_create_session)
        with pytest.raises(RequestFailedError, match="session setup exploded"):
            service.serve("doomed request", max_new_tokens=2)


class TestEOSThroughScheduler:
    def test_eos_terminates_a_scheduled_request(self):
        # discover what the model greedily emits, then rebrand the second
        # generated token as EOS for a fresh service over the same weights
        probe = _make_service(seed=73)
        probe_id = probe.submit("the same deterministic prompt", max_new_tokens=4)
        probe.drain()
        tokens = probe.result(probe_id)[0].generated_tokens
        assert len(tokens) == 4

        service = _make_service(seed=73)
        service.db.tokenizer = ByteTokenizer(special=SpecialTokens(eos=tokens[1]))
        request_id = service.submit("the same deterministic prompt", max_new_tokens=10)
        service.drain()
        result, record = service.result(request_id)
        assert result.finished_by_eos
        assert result.num_generated == 2  # stopped at the rebranded EOS
        assert record.generated_tokens == 2


class TestTTFTAccounting:
    def test_wall_clock_ttft_includes_parked_time(self):
        """With two interleaved chunked prefills, each request's wall-clock
        first-token latency must exceed its own prefill compute."""
        service = _make_service(prefill_chunk_tokens=16, max_inflight_requests=2)
        prompt = "a deliberately long prompt to force several prefill chunks. " * 8
        ids = [service.submit(prompt + str(i), max_new_tokens=1) for i in range(2)]
        service.drain()
        for request_id in ids:
            _, record = service.result(request_id)
            assert record.prefill_compute_seconds > 0
            assert record.ttft_seconds > record.prefill_compute_seconds

    def test_single_request_ttft_close_to_compute(self):
        service = _make_service(prefill_chunk_tokens=10_000)
        request_id = service.submit("a short prompt", max_new_tokens=1)
        service.drain()
        _, record = service.result(request_id)
        assert record.ttft_seconds >= record.prefill_compute_seconds


class TestResultRetention:
    def test_results_just_past_the_retention_cap(self):
        service = _make_service()
        service.MAX_RETAINED_RESULTS = 3
        ids = [service.submit(f"prompt {i}", max_new_tokens=1) for i in range(4)]
        service.drain()
        assert service.result(ids[0]) is None  # evicted, oldest first
        for request_id in ids[1:]:
            assert service.result(request_id) is not None


class TestBatchedDecodeThroughService:
    def test_batched_and_one_at_a_time_generations_match(self):
        prompts = [f"shared weights, request {i}, distinct suffix" for i in range(3)]
        outputs = []
        for max_inflight in (4, 1):
            service = _make_service(max_inflight_requests=max_inflight)
            ids = [service.submit(p, max_new_tokens=4) for p in prompts]
            service.drain()
            outputs.append([service.result(i)[0].generated_tokens for i in ids])
            batched = service.scheduler.stats.batched_decode_calls
            assert batched > 0 if max_inflight > 1 else batched == 0
        assert outputs[0] == outputs[1]

    def test_batched_calls_counted(self):
        service = _make_service(max_inflight_requests=4)
        for i in range(3):
            service.submit(f"count my batches {i}", max_new_tokens=3)
        service.drain()
        assert service.scheduler.stats.batched_decode_calls > 0


class TestPreemptionThroughService:
    def test_preemption_requires_slo_policy(self):
        with pytest.raises(ConfigError):
            AlayaDBConfig(preemption=True, scheduler_policy="fcfs")

    @pytest.mark.parametrize("preemption", [True, False])
    def test_critical_first_token_precedes_long_jobs_only_with_preemption(self, preemption):
        """Two long batch jobs hold both slots when an SLO-critical request
        arrives.  With preemption its first token comes before either job
        finishes; without, it waits for a slot to free."""
        service = _make_service(
            seed=103, scheduler_policy="slo", preemption=preemption, max_inflight_requests=2
        )
        jobs = [
            service.submit(f"long-running batch job {i}", max_new_tokens=24, slo=BATCH_SLO)
            for i in range(2)
        ]
        for _ in range(3):
            service.step()
        critical = service.submit(
            "urgent interactive question", max_new_tokens=2, slo=SLO(ttft_seconds=0.2)
        )
        while not service.generated_tokens(critical.request_id):
            service.step()
        assert any(job.is_done for job in jobs) == (not preemption)
        service.drain()
        assert service.stats.num_requests == 3  # the victims resumed and finished
        stats = service.scheduler.stats
        if preemption:
            assert stats.preemptions >= 1 and stats.resumes >= 1
        else:
            assert stats.preemptions == 0

    def test_critical_arrival_preempts_and_victim_recovers(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=79))
        config = AlayaDBConfig(
            scheduler_policy="slo",
            preemption=True,
            max_inflight_requests=1,
            **SPARSE_CONFIG,
        )
        service = InferenceService(model, config, backend=FilesystemBackend(tmp_path))
        document = "a long stored reference the victim request reads from. " * 20
        service.ingest(document, context_id="doc")
        prompt = service.db.tokenizer.decode(service.db.get_context("doc").tokens)

        victim_id = service.submit(prompt + " victim", max_new_tokens=12, slo=BATCH_SLO)
        service.step()  # victim admitted and prefilling
        critical_id = service.submit(
            "an urgent unrelated question", max_new_tokens=2, slo=SLO(ttft_seconds=0.05)
        )
        service.step()
        victim = next(
            fl for fl in service.scheduler.preempted_requests()
            if fl.request.request_id == victim_id.request_id
        )
        assert victim.request.state == RequestState.PREEMPTED
        # the victim's stored context was unpinned: the store may spill it now
        service.db.store_registry.spill("doc")
        assert "doc" not in service.db.store_registry.resident_ids()

        service.drain()
        # both finished; the victim's context was transparently reloaded
        assert service.result(critical_id)[0].num_generated == 2
        victim_result, victim_record = service.result(victim_id)
        assert victim_result.num_generated == 12
        assert victim_record.preemptions == 1
        assert victim_record.reused_tokens > 0
        assert service.scheduler.stats.preemptions == 1
        assert service.scheduler.stats.resumes == 1
        assert "doc" in service.db.store_registry.resident_ids()
