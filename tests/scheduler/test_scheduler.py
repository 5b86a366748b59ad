"""Tests of the request scheduler: policies, admission control, step loop,
and the InferenceService serving path built on top of them."""

from __future__ import annotations


import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import AdmissionRejectedError
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import (
    BATCH_SLO,
    INTERACTIVE_SLO,
    SLO,
    AdmissionController,
    AdmissionDecision,
    FCFSPolicy,
    InFlightRequest,
    Request,
    RequestScheduler,
    RequestState,
    SLOAwarePolicy,
    make_policy,
)


class FakeBackend:
    """A model-free backend: prefill consumes chunks, decode emits token 1."""

    def __init__(self, chunk_tokens=4, bytes_per_request=100):
        self.chunk_tokens = chunk_tokens
        self.bytes_per_request = bytes_per_request
        self.bytes_overrides: dict[int, int] = {}
        """Per-request-id overrides of ``bytes_per_request``."""
        self.preempted_bytes = 0
        """What ``preempted_request_bytes`` reports a paused request retains."""
        self.begun: list[int] = []
        self.finished: list[int] = []
        self.rejected: list[int] = []
        self.failed: list[int] = []
        self.preempted: list[int] = []
        self.resumed: list[int] = []
        self.fail_request_ids: set[int] = set()
        """Requests whose ``begin_request`` raises (for failure-path tests)."""
        self.rounds: list[list[int]] = []
        """Request ids of every ``run_round`` call the scheduler issued."""
        self.batch_sizes: list[int] = []
        """Decode-ready requests in every round that had any."""

    def estimate_request_bytes(self, request):
        return self.bytes_overrides.get(request.request_id, self.bytes_per_request)

    def preempted_request_bytes(self, inflight):
        return self.preempted_bytes

    def begin_request(self, request):
        if request.request_id in self.fail_request_ids:
            raise RuntimeError(f"session setup exploded for {request.request_id}")
        self.begun.append(request.request_id)
        return InFlightRequest(
            request=request, session=None, pending_tokens=list(request.prompt_tokens)
        )

    def run_round(self, inflights):
        self.rounds.append([inflight.request.request_id for inflight in inflights])
        decoding = [inflight for inflight in inflights if not inflight.needs_prefill]
        if decoding:
            self.batch_sizes.append(len(decoding))
        for inflight in inflights:
            if inflight.needs_prefill:
                del inflight.pending_tokens[: self.chunk_tokens]
                if not inflight.pending_tokens and inflight.request.max_new_tokens > 0:
                    inflight.generated.append(1)
            else:
                inflight.generated.append(1)

    def finish_request(self, inflight):
        self.finished.append(inflight.request.request_id)

    def reject_request(self, request):
        self.rejected.append(request.request_id)

    def fail_request(self, request, error):
        self.failed.append(request.request_id)

    def preempt_request(self, inflight):
        self.preempted.append(inflight.request.request_id)

    def resume_request(self, inflight):
        self.resumed.append(inflight.request.request_id)


def _request(request_id, num_tokens=4, **kwargs):
    return Request(request_id=request_id, prompt_tokens=list(range(num_tokens)), **kwargs)


class TestPolicies:
    def test_make_policy(self):
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("slo"), SLOAwarePolicy)
        with pytest.raises(ValueError):
            make_policy("round-robin")

    def test_fcfs_selects_head(self):
        queue = [_request(1), _request(2)]
        assert FCFSPolicy().select(queue, now=0.0) == 0

    def test_slo_aware_prefers_tight_deadline(self):
        batch = _request(1, slo=BATCH_SLO)
        interactive = _request(2, slo=INTERACTIVE_SLO)
        for r in (batch, interactive):
            r.submitted_at = 0.0
        assert SLOAwarePolicy().select([batch, interactive], now=0.1) == 1

    def test_slo_aware_priority_dominates_slack(self):
        urgent_deadline = _request(1, slo=SLO(ttft_seconds=0.01))
        prioritized = _request(2, priority=5)
        for r in (urgent_deadline, prioritized):
            r.submitted_at = 0.0
        assert SLOAwarePolicy().select([urgent_deadline, prioritized], now=0.1) == 1

    def test_slo_aware_falls_back_to_arrival(self):
        first = _request(1)
        second = _request(2)
        first.arrival_order, second.arrival_order = 0, 1
        assert SLOAwarePolicy().select([second, first], now=0.0) == 1


class TestAdmissionController:
    def test_unbounded_always_admits(self):
        controller = AdmissionController(budget_bytes=None)
        assert controller.try_admit(10**12) == AdmissionDecision.ADMIT

    def test_oversized_request_rejected(self):
        controller = AdmissionController(budget_bytes=100)
        assert controller.try_admit(101) == AdmissionDecision.REJECT
        assert controller.committed_bytes == 0

    def test_defer_until_release(self):
        controller = AdmissionController(budget_bytes=100)
        assert controller.try_admit(60) == AdmissionDecision.ADMIT
        assert controller.try_admit(60) == AdmissionDecision.DEFER
        controller.release(60)
        assert controller.try_admit(60) == AdmissionDecision.ADMIT
        assert controller.stats.deferral_attempts == 1

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            AdmissionController(budget_bytes=0)


class TestRequestScheduler:
    def test_fcfs_runs_in_arrival_order(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend, max_inflight=1)
        for i in (1, 2, 3):
            scheduler.submit(_request(i))
        scheduler.drain()
        assert backend.begun == [1, 2, 3]
        assert backend.finished == [1, 2, 3]

    def test_holds_four_inflight(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = RequestScheduler(backend, max_inflight=4)
        for i in range(6):
            scheduler.submit(_request(i + 1, num_tokens=8))
        scheduler.step()
        assert scheduler.num_inflight == 4
        assert scheduler.queue_depth == 2
        scheduler.drain()
        assert sorted(backend.finished) == [1, 2, 3, 4, 5, 6]

    def test_interleaves_prefill_and_decode(self):
        """A short request finishes while a long prefill is still in flight."""
        backend = FakeBackend(chunk_tokens=2)
        scheduler = RequestScheduler(backend, max_inflight=2)
        scheduler.submit(_request(1, num_tokens=40, max_new_tokens=1))
        scheduler.submit(_request(2, num_tokens=2, max_new_tokens=1))
        scheduler.drain()
        assert backend.finished[0] == 2
        assert backend.finished[-1] == 1
        assert scheduler.stats.prefill_chunks > scheduler.stats.decode_steps

    def test_admission_rejection_and_deferral(self):
        backend = FakeBackend()
        backend.bytes_per_request = 80
        scheduler = RequestScheduler(
            backend, admission=AdmissionController(budget_bytes=100), max_inflight=4
        )
        requests = [_request(i + 1, max_new_tokens=2) for i in range(3)]
        for request in requests:
            scheduler.submit(request)
        scheduler.step()
        # only one 80-byte request fits the 100-byte budget at a time
        assert scheduler.num_inflight == 1
        assert scheduler.stats.deferrals >= 1
        scheduler.drain()
        assert sorted(backend.finished) == [1, 2, 3]
        assert backend.rejected == []

        backend.bytes_per_request = 101  # can never fit
        rejected = _request(9)
        scheduler.submit(rejected)
        scheduler.drain()
        assert backend.rejected == [9]
        assert rejected.state == RequestState.REJECTED

    def test_deferrals_count_unique_requests(self):
        """A request re-tried every step counts as one deferral, not many."""
        backend = FakeBackend()
        backend.bytes_per_request = 80
        scheduler = RequestScheduler(
            backend, admission=AdmissionController(budget_bytes=100), max_inflight=4
        )
        scheduler.submit(_request(1, num_tokens=40, max_new_tokens=1))  # long-running
        scheduler.submit(_request(2, max_new_tokens=1))  # waits on budget
        waiting = scheduler.queued_requests()[-1]
        for _ in range(5):
            scheduler.step()
        assert waiting.state == RequestState.DEFERRED
        assert scheduler.stats.deferrals == 1
        assert scheduler.admission.stats.deferral_attempts >= 5
        scheduler.drain()
        assert sorted(backend.finished) == [1, 2]

    def test_request_states_progress(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend)
        request = _request(1, max_new_tokens=1)
        scheduler.submit(request)
        assert request.state == RequestState.QUEUED
        scheduler.drain()
        assert request.state == RequestState.FINISHED


class TestBatchedDecode:
    def test_decode_ready_requests_share_one_batch(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend, max_inflight=4)
        for i in range(3):
            scheduler.submit(_request(i + 1, num_tokens=4, max_new_tokens=3))
        scheduler.drain()
        # step 1: all three prefill; steps 2-3: all three decode in one batch
        assert backend.batch_sizes == [3, 3]
        assert scheduler.stats.batched_decode_calls == 2
        assert scheduler.stats.decode_steps == 6
        assert sorted(backend.finished) == [1, 2, 3]

    def test_lone_decode_request_is_a_batch_of_one(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend, max_inflight=4)
        scheduler.submit(_request(1, num_tokens=4, max_new_tokens=3))
        scheduler.drain()
        assert backend.batch_sizes == [1, 1]
        # batched_decode_calls keeps its meaning: rounds with >= 2 rows
        assert scheduler.stats.batched_decode_calls == 0
        assert scheduler.stats.decode_steps == 2

    def test_mixed_prefill_and_decode_round(self):
        """Prefilling requests keep chunking while the rest decode as a batch."""
        backend = FakeBackend(chunk_tokens=2)
        scheduler = RequestScheduler(backend, max_inflight=3)
        scheduler.submit(_request(1, num_tokens=2, max_new_tokens=4))
        scheduler.submit(_request(2, num_tokens=2, max_new_tokens=4))
        scheduler.submit(_request(3, num_tokens=12, max_new_tokens=1))
        scheduler.step()  # everyone prefills (1 and 2 finish theirs)
        scheduler.step()  # 1 and 2 decode as a batch of 2, 3 keeps prefilling
        assert backend.batch_sizes == [2]
        assert scheduler.stats.prefill_chunks == 4

    def test_one_work_call_per_round(self):
        """Every step hands all in-flight requests — prefilling or decoding —
        to one backend call."""
        backend = FakeBackend(chunk_tokens=2)
        scheduler = RequestScheduler(backend, max_inflight=3)
        scheduler.submit(_request(1, num_tokens=2, max_new_tokens=4))
        scheduler.submit(_request(2, num_tokens=2, max_new_tokens=4))
        scheduler.submit(_request(3, num_tokens=12, max_new_tokens=1))
        steps = 0
        while scheduler.has_work:
            scheduler.step()
            steps += 1
        assert len(backend.rounds) == steps == scheduler.stats.steps
        assert backend.rounds[:2] == [[1, 2, 3], [1, 2, 3]]
        assert scheduler.stats.prefill_chunks == 1 + 1 + 6
        assert scheduler.stats.decode_steps == 3 + 3


class TestZeroTokenRequests:
    def test_zero_max_new_tokens_emits_nothing(self):
        backend = FakeBackend()
        scheduler = RequestScheduler(backend)
        request = _request(1, num_tokens=4, max_new_tokens=0)
        scheduler.submit(request)
        scheduler.drain()
        assert backend.finished == [1]
        assert request.state == RequestState.FINISHED
        assert scheduler.stats.decode_steps == 0

    def test_negative_max_new_tokens_rejected(self):
        with pytest.raises(ValueError):
            _request(1, max_new_tokens=-1)


class TestBeginRequestFailure:
    def test_failure_does_not_poison_the_round(self):
        """One request's session-setup failure leaves the rest serving."""
        backend = FakeBackend()
        backend.fail_request_ids = {2}
        scheduler = RequestScheduler(backend, max_inflight=4)
        requests = [_request(i + 1, num_tokens=4, max_new_tokens=2) for i in range(3)]
        for request in requests:
            scheduler.submit(request)
        scheduler.drain()
        assert sorted(backend.finished) == [1, 3]
        assert backend.failed == [2]
        assert requests[1].state == RequestState.FAILED
        assert "session setup exploded" in requests[1].error
        assert scheduler.stats.failed == 1
        assert scheduler.stats.completed == 2

    def test_failure_releases_reservation(self):
        backend = FakeBackend()
        backend.fail_request_ids = {1}
        scheduler = RequestScheduler(
            backend, admission=AdmissionController(budget_bytes=100), max_inflight=4
        )
        scheduler.submit(_request(1, max_new_tokens=1))
        scheduler.drain()
        assert scheduler.admission.committed_bytes == 0

    def test_failure_without_fail_hook_falls_back_to_reject(self):
        backend = FakeBackend()
        backend.fail_request_ids = {1}
        del FakeBackend.fail_request
        try:
            scheduler = RequestScheduler(backend)
            request = _request(1, max_new_tokens=1)
            scheduler.submit(request)
            scheduler.drain()
            assert backend.rejected == [1]
            assert request.state == RequestState.FAILED
        finally:
            FakeBackend.fail_request = _FAKE_FAIL_REQUEST


class TestPreemption:
    def _scheduler(self, backend, **kwargs):
        kwargs.setdefault("policy", SLOAwarePolicy())
        kwargs.setdefault("preemption", True)
        kwargs.setdefault("preemption_slack_seconds", 0.5)
        return RequestScheduler(backend, **kwargs)

    def test_critical_arrival_preempts_slack_rich_victim(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        victim = _request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO)
        scheduler.submit(victim)
        scheduler.step()
        assert scheduler.num_inflight == 1
        critical = _request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1))
        scheduler.submit(critical)
        scheduler.step()
        # the batch request was paused and the critical one admitted
        assert victim.state == RequestState.PREEMPTED
        assert critical.state in (RequestState.RUNNING, RequestState.FINISHED)
        assert backend.preempted == [1]
        assert scheduler.stats.preemptions == 1
        scheduler.drain()
        # the victim resumed once the critical request finished, then completed
        assert backend.resumed == [1]
        assert scheduler.stats.resumes == 1
        assert sorted(backend.finished) == [1, 2]
        assert victim.state == RequestState.FINISHED

    def test_preempted_reservation_is_released_and_retaken(self):
        backend = FakeBackend(chunk_tokens=1, bytes_per_request=60)
        scheduler = self._scheduler(
            backend, max_inflight=1, admission=AdmissionController(budget_bytes=100)
        )
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO))
        scheduler.step()
        assert scheduler.admission.committed_bytes == 60
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=2, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        # victim released its 60 bytes; the critical request holds its own 60
        assert scheduler.num_preempted == 1
        assert scheduler.admission.committed_bytes == 60
        scheduler.drain()
        assert scheduler.admission.committed_bytes == 0

    def test_no_preemption_without_critical_arrival(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=4, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=BATCH_SLO))
        scheduler.drain()
        assert scheduler.stats.preemptions == 0
        assert backend.finished == [1, 2]

    def test_critical_victim_is_never_preempted(self):
        """A victim near its own deadline has no slack to give."""
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=4, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        assert scheduler.stats.preemptions == 0

    def test_fcfs_policy_never_names_a_victim(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = RequestScheduler(
            backend, policy=FCFSPolicy(), preemption=True, max_inflight=1
        )
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=4, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.01)))
        scheduler.drain()
        assert scheduler.stats.preemptions == 0

    def test_no_preemption_when_policy_would_admit_someone_else(self):
        """If the next admission would go to a high-priority (non-critical)
        request, preempting for the min-slack one would evict a victim per
        step without ever serving it — so no victim is taken at all."""
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1)))
        scheduler.submit(_request(3, num_tokens=1, max_new_tokens=1, priority=5))
        scheduler.step()
        # priority dominates slack in SLOAwarePolicy.select, so the freed slot
        # would go to request 3 — preempting for request 2 cannot help it
        assert scheduler.stats.preemptions == 0
        scheduler.drain()
        assert sorted(backend.finished) == [1, 2, 3]

    def test_resumes_do_not_inflate_admission_stats(self):
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1)))
        scheduler.drain()
        assert scheduler.stats.resumes == 1
        # two unique requests were admitted; the resume is not a third
        assert scheduler.admission.stats.admitted == 2

    def test_no_preemption_when_budget_still_blocks_the_critical(self):
        """Pausing a victim that cannot free enough budget would only thrash
        (preempt, fail to admit, resume — every step), so it must not happen."""
        backend = FakeBackend(chunk_tokens=1, bytes_per_request=30)
        backend.bytes_overrides = {3: 80}
        scheduler = self._scheduler(
            backend, max_inflight=2, admission=AdmissionController(budget_bytes=100)
        )
        for i in (1, 2):
            scheduler.submit(_request(i, num_tokens=4, max_new_tokens=4, slo=BATCH_SLO))
        scheduler.step()
        assert scheduler.num_inflight == 2
        scheduler.submit(_request(3, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        # 80 > (100 - 60 available) + 30 releasable: preemption cannot help
        assert scheduler.stats.preemptions == 0
        scheduler.drain()
        assert sorted(backend.finished) == [1, 2, 3]

    def test_retained_footprint_stays_reserved_across_preemption(self):
        """Only the reservation beyond the session's still-resident bytes is
        released on preemption, and exactly that delta is re-taken on resume."""
        backend = FakeBackend(chunk_tokens=1, bytes_per_request=60)
        backend.preempted_bytes = 20
        scheduler = self._scheduler(
            backend, max_inflight=1, admission=AdmissionController(budget_bytes=100)
        )
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=2, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        # victim keeps 20 of its 60 on the books; the critical request holds 60
        assert scheduler.num_preempted == 1
        assert scheduler.preempted_requests()[0].reserved_bytes == 20
        assert scheduler.admission.committed_bytes == 80
        scheduler.drain()
        assert scheduler.admission.committed_bytes == 0
        assert sorted(backend.finished) == [1, 2]

    def test_preempted_counts_as_work(self):
        """drain() must not stop while a preempted request awaits resume."""
        backend = FakeBackend(chunk_tokens=1)
        scheduler = self._scheduler(backend, max_inflight=1)
        scheduler.submit(_request(1, num_tokens=8, max_new_tokens=8, slo=BATCH_SLO))
        scheduler.step()
        scheduler.submit(_request(2, num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1)))
        scheduler.step()
        assert scheduler.num_preempted == 1
        assert scheduler.has_work
        scheduler.drain()
        assert not scheduler.has_work
        assert sorted(backend.finished) == [1, 2]


_FAKE_FAIL_REQUEST = FakeBackend.fail_request


@pytest.fixture(scope="module")
def concurrent_service():
    model = TransformerModel(ModelConfig.tiny(seed=53))
    config = AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=64,
        max_inflight_requests=4,
        prefill_chunk_tokens=64,
    )
    service = InferenceService(model, config)
    service.ingest("a reference corpus about scheduling policies. " * 20, context_id="doc")
    return service


class TestServiceScheduling:
    def test_submit_step_drain(self, concurrent_service):
        service = concurrent_service
        document = service.db.get_context("doc")
        prompt = service.db.tokenizer.decode(document.tokens) + " tell me more"
        ids = [service.submit(prompt, max_new_tokens=2) for _ in range(5)]
        service.step()
        assert service.scheduler.num_inflight == 4  # the fifth waits its turn
        service.drain()
        for request_id in ids:
            result, record = service.result(request_id)
            assert result.num_generated == 2
            assert record.reused_tokens > 0

    def test_serve_wrapper_still_works(self, concurrent_service):
        result, record = concurrent_service.serve("an unrelated question", max_new_tokens=2)
        assert result.num_generated == 2
        assert record.reused_tokens == 0
        assert concurrent_service.result(record.request_id) is not None

    def test_chunked_prefill_matches_unchunked_generation(self):
        """Splitting prefill into chunks must not change greedy decode output."""
        model = TransformerModel(ModelConfig.tiny(seed=59))
        prompt = "the quick brown fox jumps over the lazy dog. " * 4
        outputs = []
        for chunk in (8, 10_000):
            config = AlayaDBConfig(prefill_chunk_tokens=chunk)
            service = InferenceService(model, config)
            result, _ = service.serve(prompt, max_new_tokens=4)
            outputs.append(result.generated_tokens)
        assert outputs[0] == outputs[1]

    def test_admission_rejection_surfaces(self):
        model = TransformerModel(ModelConfig.tiny(seed=61))
        config = AlayaDBConfig(scheduler_gpu_budget_bytes=8)  # nothing fits
        service = InferenceService(model, config)
        with pytest.raises(AdmissionRejectedError):
            service.serve("far too large for the budget", max_new_tokens=2)
        assert service.stats.rejected == 1

    def test_slo_policy_orders_admission(self):
        model = TransformerModel(ModelConfig.tiny(seed=67))
        config = AlayaDBConfig(scheduler_policy="slo", max_inflight_requests=1)
        service = InferenceService(model, config)
        service.submit("batch style request", max_new_tokens=1, slo=BATCH_SLO)
        urgent = service.submit("urgent request", max_new_tokens=1, slo=INTERACTIVE_SLO)
        finished = service.drain()
        assert finished[0][1].request_id == urgent.request_id
