"""Tests of the multi-tenant policy layer: DRR fairness, quotas, backpressure.

Unit tests drive :class:`TenantGovernor` directly (a synthetic admission loop
around ``select``/``on_admitted``); integration tests run it inside a real
:class:`RequestScheduler` over the model-free ``FakeBackend`` and inside a
full :class:`InferenceService`.
"""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import ConfigError, TenantThrottledError, UnknownTenantError
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import (
    DEFAULT_TENANT,
    SLO,
    AdmissionController,
    FCFSPolicy,
    Request,
    RequestScheduler,
    RequestState,
    SLOAwarePolicy,
    TenantGovernor,
    TenantSpec,
)
from repro.storage.backend import FilesystemBackend

from test_scheduler import FakeBackend


def _request(request_id, tenant, num_tokens=4, max_new_tokens=4, **kwargs):
    return Request(
        request_id=request_id,
        prompt_tokens=list(range(num_tokens)),
        max_new_tokens=max_new_tokens,
        tenant=tenant,
        **kwargs,
    )


class TestTenantSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="")
        with pytest.raises(ConfigError):
            TenantSpec(name="a", weight=0)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", max_inflight=0)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", max_queued=-1)
        with pytest.raises(ConfigError):
            TenantSpec(name="a", reserved_bytes_budget=0)

    def test_governor_rejects_duplicates_and_bad_quantum(self):
        with pytest.raises(ConfigError):
            TenantGovernor(specs=[TenantSpec(name="a"), TenantSpec(name="a")])
        with pytest.raises(ConfigError):
            TenantGovernor(quantum_tokens=0)


class TestResolve:
    def test_strict_rejects_unknown(self):
        governor = TenantGovernor(specs=[TenantSpec(name="a")], strict=True)
        assert governor.resolve("a").name == "a"
        with pytest.raises(UnknownTenantError):
            governor.resolve("mystery")

    def test_auto_registers_with_default_spec_limits(self):
        governor = TenantGovernor(
            default_spec=TenantSpec(name=DEFAULT_TENANT, max_queued=7)
        )
        spec = governor.resolve("new-tenant")
        assert spec.name == "new-tenant"
        assert spec.max_queued == 7
        assert "new-tenant" in governor.known_tenants()

    def test_none_maps_to_default(self):
        governor = TenantGovernor()
        assert governor.resolve(None).name == DEFAULT_TENANT


def _drain_admissions(governor, queue, rounds, refill=None):
    """Synthetic admission loop: select, admit, optionally refill the backlog."""
    policy = FCFSPolicy()
    admitted = []
    for _ in range(rounds):
        index = governor.select(queue, policy, now=0.0)
        if index is None:
            break
        request = queue.pop(index)
        governor.on_admitted(request, reserved_bytes=10)
        admitted.append(request)
        # model the request finishing immediately (frees quota for the next)
        stats = governor.stats(request.tenant)
        stats.inflight -= 1
        stats.reserved_bytes -= 10
        if refill is not None:
            queue.append(refill(request))
    return admitted


class TestDeficitRoundRobin:
    def test_admitted_share_matches_weights(self):
        """Saturated 3:1 tenants split admissions exactly 3:1 (cost == quantum x 1)."""
        governor = TenantGovernor(
            specs=[TenantSpec(name="a", weight=3), TenantSpec(name="b", weight=1)],
            quantum_tokens=8,
        )
        counter = [0]

        def refill(request):
            counter[0] += 1
            return _request(1000 + counter[0], request.tenant)

        queue = [_request(i, "a" if i % 2 else "b") for i in range(8)]
        admitted = _drain_admissions(governor, queue, rounds=80, refill=refill)
        share_a = sum(1 for r in admitted if r.tenant == "a")
        share_b = sum(1 for r in admitted if r.tenant == "b")
        assert share_a + share_b == 80
        assert share_a / share_b == pytest.approx(3.0, rel=0.1)

    def test_large_request_saves_deficit_across_cycles(self):
        """A request costlier than one quantum is admitted after enough visits,
        not starved forever and not admitted on credit."""
        governor = TenantGovernor(
            specs=[TenantSpec(name="big"), TenantSpec(name="small")], quantum_tokens=8
        )
        queue = [
            _request(1, "big", num_tokens=20, max_new_tokens=4),  # cost 24 = 3 quanta
            _request(2, "small"),  # cost 8 = 1 quantum
        ]
        policy = FCFSPolicy()
        order = []
        for _ in range(4):
            index = governor.select(queue, policy, now=0.0)
            if index is None:
                continue
            request = queue.pop(index)
            governor.on_admitted(request, reserved_bytes=0)
            governor.stats(request.tenant).inflight -= 1
            order.append(request.request_id)
        # small admits on its first visit; big needs three replenishments
        assert order == [2, 1]

    def test_idle_tenant_deficit_resets(self):
        governor = TenantGovernor(
            specs=[TenantSpec(name="a"), TenantSpec(name="b")], quantum_tokens=100
        )
        queue = [_request(1, "a")]
        assert governor.select(queue, FCFSPolicy(), now=0.0) == 0
        # b has no backlog: its deficit must stay reset, not accumulate
        assert governor.stats("b").deficit_tokens == 0.0

    def test_quota_blocked_tenant_is_skipped_without_replenishment(self):
        governor = TenantGovernor(
            specs=[TenantSpec(name="a", max_inflight=1), TenantSpec(name="b")],
            quantum_tokens=8,
        )
        governor.stats("a").inflight = 1  # a is at quota
        queue = [_request(1, "a"), _request(2, "b")]
        for _ in range(5):
            index = governor.select(queue, FCFSPolicy(), now=0.0)
            assert queue[index].tenant == "b"  # only b is eligible
        # being blocked earned a no credit to burst with later
        assert governor.stats("a").deficit_tokens == 0.0

    def test_returns_none_when_every_backlogged_tenant_is_blocked(self):
        governor = TenantGovernor(specs=[TenantSpec(name="a", max_inflight=1)])
        governor.stats("a").inflight = 1
        queue = [_request(1, "a")]
        assert governor.select(queue, FCFSPolicy(), now=0.0) is None

    def test_byte_budget_blocks_admission(self):
        governor = TenantGovernor(
            specs=[TenantSpec(name="a", reserved_bytes_budget=100)]
        )
        governor.stats("a").reserved_bytes = 100
        queue = [_request(1, "a")]
        assert governor.select(queue, FCFSPolicy(), now=0.0) is None

    def test_intra_tenant_order_uses_wrapped_policy(self):
        """Inside one tenant's slice the SLO policy still picks urgency."""
        governor = TenantGovernor(specs=[TenantSpec(name="a")], quantum_tokens=64)
        relaxed = _request(1, "a", slo=SLO(ttft_seconds=60.0))
        urgent = _request(2, "a", slo=SLO(ttft_seconds=0.01))
        for request in (relaxed, urgent):
            request.submitted_at = 0.0
        queue = [relaxed, urgent]
        index = governor.select(queue, SLOAwarePolicy(), now=0.1)
        assert queue[index] is urgent

    def test_adopts_tenants_submitted_around_the_governor(self):
        governor = TenantGovernor()
        queue = [_request(1, "stranger")]
        index = governor.select(queue, FCFSPolicy(), now=0.0)
        assert index == 0
        assert "stranger" in governor.known_tenants()


class TestBackpressure:
    def test_throttles_at_max_queued(self):
        governor = TenantGovernor(specs=[TenantSpec(name="a", max_queued=2)])
        governor.check_backpressure("a", queued=1)  # under the limit: fine
        with pytest.raises(TenantThrottledError) as excinfo:
            governor.check_backpressure("a", queued=2)
        error = excinfo.value
        assert error.tenant == "a"
        assert error.queue_depth == 2
        assert error.queue_position == 3
        assert error.retry_after_seconds >= 1.0
        assert governor.stats("a").throttled == 1

    def test_no_limit_never_throttles(self):
        governor = TenantGovernor(specs=[TenantSpec(name="a")])
        governor.check_backpressure("a", queued=10_000)


class TestSchedulerIntegration:
    def _scheduler(self, governor, max_inflight=1):
        backend = FakeBackend(chunk_tokens=8)
        scheduler = RequestScheduler(
            backend=backend,
            policy=FCFSPolicy(),
            admission=AdmissionController(),
            max_inflight=max_inflight,
            tenants=governor,
        )
        return backend, scheduler

    def test_weighted_fairness_under_saturation(self):
        """A saturated scheduler serves tenants proportionally to weight."""
        governor = TenantGovernor(
            specs=[TenantSpec(name="gold", weight=3), TenantSpec(name="bronze", weight=1)],
            quantum_tokens=8,
        )
        backend, scheduler = self._scheduler(governor, max_inflight=2)
        for i in range(40):
            scheduler.submit(_request(i + 1, "gold" if i % 2 else "bronze"))
        # run until half the work is done; the share so far shows the order
        while scheduler.stats.completed < 20:
            scheduler.step()
        gold = governor.stats("gold")
        bronze = governor.stats("bronze")
        assert gold.completed + bronze.completed >= 20
        assert gold.completed / max(bronze.completed, 1) == pytest.approx(3.0, rel=0.25)
        scheduler.drain()
        # both tenants fully served in the end; counters consistent
        assert gold.completed == 20
        assert bronze.completed == 20
        assert gold.inflight == bronze.inflight == 0
        assert gold.reserved_bytes == bronze.reserved_bytes == 0
        assert gold.tokens_served == bronze.tokens_served > 0

    def test_max_inflight_quota_caps_a_tenant(self):
        governor = TenantGovernor(
            specs=[TenantSpec(name="capped", max_inflight=1), TenantSpec(name="free")]
        )
        backend, scheduler = self._scheduler(governor, max_inflight=4)
        for i in range(4):
            scheduler.submit(_request(i + 1, "capped", num_tokens=32))
        for i in range(2):
            scheduler.submit(_request(10 + i, "free", num_tokens=32))
        scheduler.step()
        assert governor.stats("capped").inflight == 1
        assert governor.stats("free").inflight == 2
        scheduler.drain()
        assert governor.stats("capped").completed == 4

    def test_cancel_updates_tenant_counters(self):
        governor = TenantGovernor()
        backend, scheduler = self._scheduler(governor, max_inflight=1)
        running = _request(1, "t", num_tokens=32)
        queued = _request(2, "t", num_tokens=32)
        scheduler.submit(running)
        scheduler.submit(queued)
        scheduler.step()
        assert scheduler.cancel(running.request_id)
        assert scheduler.cancel(queued.request_id)
        stats = governor.stats("t")
        assert stats.cancelled == 2
        assert stats.inflight == 0
        assert stats.reserved_bytes == 0


def _service(tmp_path, **config_kwargs):
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(**config_kwargs)
    return InferenceService(model, config, backend=FilesystemBackend(tmp_path))


class TestServiceIntegration:
    def test_governance_off_by_default(self, tmp_path):
        service = _service(tmp_path)
        assert service.tenants is None
        assert "tenants" not in service.memory_report()

    def test_memory_report_has_tenant_rows(self, tmp_path):
        service = _service(tmp_path, tenant_fairness=True)
        service.submit("hello alpha", max_new_tokens=2, tenant="alpha").result()
        service.submit("hello default", max_new_tokens=2).result()
        rows = service.memory_report()["tenants"]
        assert rows["alpha"]["completed"] == 1
        assert rows["alpha"]["tokens_served"] == 2
        assert rows[DEFAULT_TENANT]["completed"] == 1
        assert rows["alpha"]["inflight"] == 0
        assert service.stats.tenant_rows()["alpha"]["completed"] == 1

    def test_strict_tenants_reject_unknown(self, tmp_path):
        service = _service(
            tmp_path,
            strict_tenants=True,
            tenants=(TenantSpec(name="declared"),),
        )
        service.submit("fine", max_new_tokens=1, tenant="declared").result()
        with pytest.raises(UnknownTenantError):
            service.submit("nope", max_new_tokens=1, tenant="undeclared")

    def test_backpressure_throttles_submissions(self, tmp_path):
        service = _service(
            tmp_path,
            tenants=(TenantSpec(name="busy", max_queued=2),),
            max_inflight_requests=1,
        )
        # one in flight + two queued; the next submission must throttle
        handles = [
            service.submit("prompt %d" % i, max_new_tokens=4, tenant="busy")
            for i in range(2)
        ]
        service.step()  # admit the first so the queue frees a slot
        handles.append(service.submit("prompt 2", max_new_tokens=4, tenant="busy"))
        with pytest.raises(TenantThrottledError) as excinfo:
            service.submit("one too many", max_new_tokens=4, tenant="busy")
        assert excinfo.value.queue_position == 3
        assert service.stats.throttled == 1
        assert service.memory_report()["tenants"]["busy"]["throttled_429"] == 1
        service.drain()
        for handle in handles:
            assert handle.status == RequestState.FINISHED

    def test_default_tenant_queue_limit(self, tmp_path):
        service = _service(tmp_path, tenant_default_max_queued=1, max_inflight_requests=1)
        service.submit("a", max_new_tokens=2)  # queue depth 0 at submit: fine
        with pytest.raises(TenantThrottledError):
            service.submit("b", max_new_tokens=2)  # depth 1 == limit: throttled
        service.drain()
