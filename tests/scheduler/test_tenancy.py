"""Tests of the multi-tenant policy layer: DRR fairness, quotas, backpressure.

Unit tests drive :class:`TenantGovernor` directly (a synthetic admission loop
around ``select``/``on_admitted``); integration tests run it inside a real
:class:`RequestScheduler` over the model-free ``FakeBackend`` and inside a
full :class:`InferenceService`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import ConfigError, TenantThrottledError, UnknownTenantError
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import (
    BATCH_SLO,
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

    def test_undeclared_name_is_billed_to_default(self):
        governor = TenantGovernor(specs=[TenantSpec(name="a")])
        assert governor.resolve("new-tenant").name == DEFAULT_TENANT
        assert governor.known_tenants() == ["a", DEFAULT_TENANT]

    def test_declared_default_wins(self):
        governor = TenantGovernor(specs=[TenantSpec(name=DEFAULT_TENANT, max_queued=7)])
        assert governor.resolve("new-tenant").max_queued == 7
        assert governor.known_tenants() == [DEFAULT_TENANT]

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

    def test_lone_tenant_admits_on_the_first_call(self):
        """Work-conserving: a free slot is never declined for want of credit,
        whatever the request costs and whatever credit is left over."""
        governor = TenantGovernor()
        for request_id, cost in enumerate((1616, 712, 20, 712, 5000)):
            queue = [_request(request_id, DEFAULT_TENANT, num_tokens=cost - 16, max_new_tokens=16)]
            assert governor.select(queue, FCFSPolicy(), now=0.0) == 0
            governor.on_admitted(queue[0], reserved_bytes=0)

    def test_saving_up_keeps_the_rotation_order(self):
        """The rotations in which nobody can pay are skipped in one stride;
        the deficits they would have added stay, and the first tenant in
        ring order that can pay in the next rotation wins."""
        governor = TenantGovernor(
            specs=[TenantSpec(name="a"), TenantSpec(name="b", weight=2)], quantum_tokens=10
        )
        queue = [_request(1, "a", num_tokens=36), _request(2, "b", num_tokens=56)]
        # a needs 4 visits (40 >= 40), b needs 3 (60 >= 60): b wins on its
        # third visit, by which a has been credited three times
        assert queue[governor.select(queue, FCFSPolicy(), now=0.0)].tenant == "b"
        assert governor.stats("a").deficit_tokens == 30
        assert governor.stats("b").deficit_tokens == 60


@settings(deadline=None, max_examples=60)
@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3000),  # prompt tokens
            st.integers(min_value=0, max_value=2000),  # max_new_tokens
            st.integers(min_value=-2, max_value=2),  # priority
            st.one_of(st.none(), st.floats(min_value=0.01, max_value=120.0)),  # TTFT SLO
            st.floats(min_value=0.0, max_value=50.0),  # seconds waited so far
        ),
        min_size=1,
        max_size=24,
    ),
    policy_name=st.sampled_from(["fcfs", "slo"]),
    arrival=st.randoms(use_true_random=False),
)
def test_one_tenant_admits_in_policy_order(requests, policy_name, arrival):
    """A governor holding only ``default`` admits exactly in the order that
    repeated ``policy.select`` gives — the single-path scheduler relies on
    it to behave as the bare policy for a service without declared tenants."""
    policy = FCFSPolicy() if policy_name == "fcfs" else SLOAwarePolicy()
    now = 100.0
    queue = []
    for request_id, (prompt, new, priority, ttft, waited) in enumerate(requests):
        slo = SLO(ttft_seconds=ttft) if ttft is not None else None
        request = _request(request_id, DEFAULT_TENANT, prompt, new, priority=priority, slo=slo)
        request.submitted_at = now - waited
        queue.append(request)
    orders = list(range(len(queue)))
    arrival.shuffle(orders)
    for request, order in zip(queue, orders):
        request.arrival_order = order
    expected, remaining = [], list(queue)
    while remaining:
        expected.append(remaining.pop(policy.select(remaining, now)).request_id)
    governor = TenantGovernor()
    admitted, remaining = [], list(queue)
    while remaining:
        index = governor.select(remaining, policy, now)
        assert index is not None
        request = remaining.pop(index)
        governor.on_admitted(request, reserved_bytes=0)
        admitted.append(request.request_id)
    assert admitted == expected


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
        governor = TenantGovernor(specs=[TenantSpec(name="t")])
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

    def test_preemption_serves_the_request_it_was_made_for(self):
        """Every preemption frees the slot for the governor's own pick, which
        is admitted in the same step.  Gold holds the DRR turn with credit
        for its three queued requests, so the critical std request must wait
        for std's turn, then takes one victim's slot."""
        governor = TenantGovernor(
            specs=[TenantSpec(name="gold", weight=2), TenantSpec(name="std")], quantum_tokens=8
        )
        backend = FakeBackend(chunk_tokens=1)
        scheduler = RequestScheduler(
            backend,
            policy=SLOAwarePolicy(),
            max_inflight=1,
            preemption=True,
            preemption_slack_seconds=0.5,
            tenants=governor,
        )
        scheduler.submit(_request(1, "gold", num_tokens=2, max_new_tokens=2, slo=BATCH_SLO))
        scheduler.step()  # gold takes the turn with 16 - 4 tokens of credit left
        for request_id in (2, 3, 4):
            scheduler.submit(
                _request(request_id, "gold", num_tokens=2, max_new_tokens=2, slo=BATCH_SLO)
            )
        critical = _request(5, "std", num_tokens=1, max_new_tokens=1, slo=SLO(ttft_seconds=0.1))
        scheduler.submit(critical)
        while scheduler.has_work:
            preempted, begun = len(backend.preempted), len(backend.begun)
            scheduler.step()
            if len(backend.preempted) > preempted:
                assert backend.begun[begun:] == [critical.request_id]
        assert scheduler.stats.preemptions == 1
        assert sorted(backend.finished) == [1, 2, 3, 4, 5]


def _service(tmp_path, **config_kwargs):
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(**config_kwargs)
    return InferenceService(model, config, backend=FilesystemBackend(tmp_path))


class TestServiceIntegration:
    def test_every_service_admits_through_the_governor(self, tmp_path):
        service = _service(tmp_path)
        assert service.scheduler.tenants.known_tenants() == [DEFAULT_TENANT]
        service.submit("hello", max_new_tokens=2).result()
        assert service.memory_report()["tenants"][DEFAULT_TENANT]["completed"] == 1

    def test_undeclared_names_never_grow_the_registry(self, tmp_path):
        """Client-chosen tenant names are billed to ``default``: thousands of
        one-off names leave one row per declared tenant, not one per name."""
        service = _service(tmp_path, tenants=(TenantSpec(name="gold"),))
        for i in range(3000):
            assert service.submit("x", max_new_tokens=1, tenant=f"one-off-{i}").cancel()
        assert service.scheduler.tenants.known_tenants() == ["gold", DEFAULT_TENANT]
        rows = service.memory_report()["tenants"]
        assert sorted(rows) == [DEFAULT_TENANT, "gold"]
        assert rows[DEFAULT_TENANT]["cancelled"] == 3000

    def test_memory_report_has_tenant_rows(self, tmp_path):
        service = _service(tmp_path, tenants=(TenantSpec(name="alpha"),))
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
        service = _service(
            tmp_path,
            tenants=(TenantSpec(name=DEFAULT_TENANT, max_queued=1),),
            max_inflight_requests=1,
        )
        service.submit("a", max_new_tokens=2)  # queue depth 0 at submit: fine
        with pytest.raises(TenantThrottledError):
            service.submit("b", max_new_tokens=2)  # depth 1 == limit: throttled
        service.drain()
