"""Cancellation races: cancel while queued, while preempted, after finish
(idempotent no-op), and mid-stream under the ``slo`` policy — at both the
scheduler level (FakeBackend) and through the full InferenceService."""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import RequestCancelledError
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import (
    BATCH_SLO,
    SLO,
    AdmissionController,
    InFlightRequest,
    Request,
    RequestScheduler,
    RequestState,
    SLOAwarePolicy,
)
from repro.server.app import check_drained
from repro.storage.backend import FilesystemBackend


class FakeBackend:
    """Model-free backend (mirrors test_scheduler.FakeBackend, recording cancels)."""

    def __init__(self, chunk_tokens=4, bytes_per_request=100):
        self.chunk_tokens = chunk_tokens
        self.bytes_per_request = bytes_per_request
        self.finished: list[int] = []
        self.cancelled: list[int] = []
        self.preempted: list[int] = []
        self.resumed: list[int] = []

    def estimate_request_bytes(self, request):
        return self.bytes_per_request

    def preempted_request_bytes(self, inflight):
        return 0

    def begin_request(self, request):
        return InFlightRequest(
            request=request, session=None, pending_tokens=list(request.prompt_tokens)
        )

    def run_round(self, inflights):
        for inflight in inflights:
            if inflight.needs_prefill:
                del inflight.pending_tokens[: self.chunk_tokens]
                if not inflight.pending_tokens and inflight.request.max_new_tokens > 0:
                    inflight.generated.append(1)
            else:
                inflight.generated.append(1)

    def finish_request(self, inflight):
        self.finished.append(inflight.request.request_id)

    def cancel_request(self, inflight):
        self.cancelled.append(inflight.request.request_id)

    def fail_request(self, request, error):
        pass

    def preempt_request(self, inflight):
        self.preempted.append(inflight.request.request_id)

    def resume_request(self, inflight):
        self.resumed.append(inflight.request.request_id)


def _request(request_id, num_tokens=4, **kwargs):
    return Request(request_id=request_id, prompt_tokens=list(range(1, num_tokens + 1)), **kwargs)


class TestSchedulerCancel:
    def test_cancel_while_queued(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=20, max_new_tokens=4))
        queued = _request(2, max_new_tokens=1)
        scheduler.submit(queued)
        scheduler.step()  # 1 in flight, 2 still queued
        assert queued.state == RequestState.QUEUED
        assert scheduler.cancel(2)
        assert queued.state == RequestState.CANCELLED
        assert scheduler.queue_depth == 0
        scheduler.drain()
        # the cancelled request never ran: no begin/finish, no backend cancel
        assert backend.finished == [1]
        assert backend.cancelled == []
        assert scheduler.stats.cancelled == 1

    def test_cancel_inflight_releases_reservation(self):
        backend = FakeBackend(chunk_tokens=1, bytes_per_request=60)
        scheduler = RequestScheduler(
            backend, admission=AdmissionController(budget_bytes=100), max_inflight=2
        )
        running = _request(1, num_tokens=8, max_new_tokens=4)
        scheduler.submit(running)
        scheduler.step()
        assert scheduler.admission.committed_bytes == 60
        assert scheduler.cancel(1)
        assert running.state == RequestState.CANCELLED
        assert scheduler.admission.committed_bytes == 0
        assert backend.cancelled == [1]
        assert not scheduler.has_work

    def test_cancel_while_preempted(self):
        backend = FakeBackend(chunk_tokens=1, bytes_per_request=40)
        scheduler = RequestScheduler(
            backend,
            policy=SLOAwarePolicy(),
            preemption=True,
            preemption_slack_seconds=0.5,
            max_inflight=1,
            admission=AdmissionController(budget_bytes=100),
        )
        victim = _request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO)
        scheduler.submit(victim)
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=4, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        assert victim.state == RequestState.PREEMPTED
        assert scheduler.cancel(1)
        assert victim.state == RequestState.CANCELLED
        assert scheduler.num_preempted == 0
        assert backend.cancelled == [1]
        scheduler.drain()
        # the victim never resumed; the critical request finished alone
        assert backend.resumed == []
        assert backend.finished == [2]
        assert scheduler.admission.committed_bytes == 0

    def test_cancel_after_finish_is_noop(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend)
        request = _request(1, max_new_tokens=1)
        scheduler.submit(request)
        scheduler.drain()
        assert request.state == RequestState.FINISHED
        assert not scheduler.cancel(1)
        assert request.state == RequestState.FINISHED
        assert scheduler.stats.cancelled == 0

    def test_cancel_unknown_id_is_noop(self):
        scheduler = RequestScheduler(FakeBackend())
        assert not scheduler.cancel(999)

    def test_double_cancel_is_idempotent(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = RequestScheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=4))
        scheduler.step()
        assert scheduler.cancel(1)
        assert not scheduler.cancel(1)
        assert scheduler.stats.cancelled == 1
        assert backend.cancelled == [1]


SERVICE_CONFIG = dict(
    window_initial_tokens=8,
    window_last_tokens=16,
    short_context_threshold=64,
    gpu_memory_budget_bytes=1,
    max_retrieved_tokens=64,
)


class TestServiceCancel:
    def _service(self, seed=71, **overrides):
        model = TransformerModel(ModelConfig.tiny(seed=seed))
        config = AlayaDBConfig(**{**SERVICE_CONFIG, **overrides})
        return InferenceService(model, config)

    def test_cancel_queued_through_service(self):
        service = self._service(max_inflight_requests=1)
        service.submit("the first request runs " * 4, max_new_tokens=2)
        queued = service.submit("the second waits in the queue", max_new_tokens=2)
        service.step()
        assert queued.status == RequestState.QUEUED
        assert queued.cancel()
        assert queued.status == RequestState.CANCELLED
        service.drain()
        with pytest.raises(RequestCancelledError):
            queued.result()
        assert service.stats.cancelled == 1

    def test_cancel_running_frees_admission_budget_and_unpins(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=73))
        config = AlayaDBConfig(
            **SERVICE_CONFIG,
            scheduler_gpu_budget_bytes=1 << 30,
            prefill_chunk_tokens=16,
        )
        service = InferenceService(model, config, backend=FilesystemBackend(tmp_path))
        service.ingest("a pinned reference document for the victim. " * 15, context_id="doc")
        prompt = service.db.tokenizer.decode(service.db.get_context("doc").tokens)
        handle = service.submit(prompt + " question", max_new_tokens=8)
        service.step()  # admitted, mid-prefill, context pinned
        assert service.memory_report()["admission_committed_bytes"] > 0
        assert handle.cancel()
        assert handle.status == RequestState.CANCELLED
        assert service.memory_report()["admission_committed_bytes"] == 0
        # the stored context was unpinned by the session teardown: spillable
        service.db.store_registry.spill("doc")
        assert "doc" not in service.db.store_registry.resident_ids()
        service.db.store_registry.flush()  # drained means durable
        check_drained(service)

    def test_drain_check_catches_a_leaked_tenant_ledger(self, monkeypatch):
        """A cancel that skips the governor's hook leaves the tenant billed
        for a request that is gone, and the drain invariants say so."""
        service = self._service(max_inflight_requests=1)
        handle = service.submit("a request cancelled mid-flight " * 3, max_new_tokens=4)
        service.step()
        monkeypatch.setattr(service.scheduler.tenants, "on_cancelled_inflight", lambda inflight: None)
        assert handle.cancel()
        with pytest.raises(AssertionError, match="tenant 'default' ledger leaked: inflight=1"):
            check_drained(service)

    def test_cancel_preempted_through_service(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=79))
        config = AlayaDBConfig(
            **SERVICE_CONFIG,
            scheduler_policy="slo",
            preemption=True,
            max_inflight_requests=1,
        )
        service = InferenceService(model, config, backend=FilesystemBackend(tmp_path))
        service.ingest("a stored document the victim reuses. " * 15, context_id="doc")
        prompt = service.db.tokenizer.decode(service.db.get_context("doc").tokens)
        victim = service.submit(prompt + " victim", max_new_tokens=12, slo=BATCH_SLO)
        service.step()
        critical = service.submit(
            "urgent unrelated question", max_new_tokens=2, slo=SLO(ttft_seconds=0.05)
        )
        service.step()
        assert victim.status == RequestState.PREEMPTED
        assert victim.cancel()
        assert victim.status == RequestState.CANCELLED
        service.drain()
        assert critical.result()[0].num_generated == 2
        assert service.scheduler.stats.resumes == 0
        assert service.memory_report()["admission_committed_bytes"] == 0
        # cancelling the (already unpinned) preempted victim must not have
        # disturbed pin accounting: the context is spillable exactly once
        service.db.store_registry.spill("doc")
        assert "doc" not in service.db.store_registry.resident_ids()

    def test_cancel_preempted_does_not_steal_other_sessions_pin(self, tmp_path):
        """A preempted victim's cancel must not unpin a context still pinned
        by another live session reusing the same document."""
        model = TransformerModel(ModelConfig.tiny(seed=83))
        config = AlayaDBConfig(
            **SERVICE_CONFIG,
            scheduler_policy="slo",
            preemption=True,
            max_inflight_requests=2,
        )
        service = InferenceService(model, config, backend=FilesystemBackend(tmp_path))
        service.ingest("one document shared by two requests. " * 15, context_id="doc")
        prompt = service.db.tokenizer.decode(service.db.get_context("doc").tokens)
        victim = service.submit(prompt + " victim", max_new_tokens=12, slo=BATCH_SLO)
        survivor = service.submit(prompt + " other", max_new_tokens=12, slo=BATCH_SLO)
        service.step()  # both in flight, both pinning "doc"
        critical = service.submit(
            "urgent unrelated question", max_new_tokens=2, slo=SLO(ttft_seconds=0.05)
        )
        service.step()
        preempted = {fl.request.request_id for fl in service.scheduler.preempted_requests()}
        assert len(preempted) == 1
        paused, running = (
            (victim, survivor)
            if victim.request_id in preempted
            else (survivor, victim)
        )
        assert paused.cancel()
        # the running request still pins the context: spilling must refuse
        with pytest.raises(ValueError):
            service.db.store_registry.spill("doc")
        service.drain()
        assert running.result()[0].num_generated == 12
        assert critical.result()[0].num_generated == 2

    def test_cancel_during_streaming_under_slo_policy(self):
        service = self._service(seed=89, scheduler_policy="slo", max_inflight_requests=2)
        noisy = service.submit("a競 concurrent batch request " * 3, max_new_tokens=6, slo=BATCH_SLO)
        handle = service.submit("stream then cancel me", max_new_tokens=64, slo=BATCH_SLO)
        seen = []
        for token in handle.tokens():
            seen.append(token)
            if len(seen) == 3:
                assert handle.cancel()
        # the stream ended early, exactly at the cancellation point
        assert len(seen) == 3
        assert handle.status == RequestState.CANCELLED
        with pytest.raises(RequestCancelledError):
            handle.result()
        # the concurrent request is unaffected and completes
        service.drain()
        assert noisy.result()[0].num_generated == 6
        assert service.memory_report()["admission_committed_bytes"] == 0

    def test_cancelled_request_yields_no_result_record(self):
        service = self._service(seed=97)
        handle = service.submit("cancel before any step", max_new_tokens=2)
        assert handle.cancel()
        service.drain()
        assert service.result(handle) is None
        assert service.stats.num_requests == 0
