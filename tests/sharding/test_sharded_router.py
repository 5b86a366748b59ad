"""Behavioral tests of sharded serving: placement, failover, memory, and the
request lifecycle a sharded context gets from the one scheduler (admission,
batching, preemption, chat stores, HTTP)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.errors import AdmissionRejectedError, ContextNotFoundError
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
from repro.scheduler import BATCH_SLO, SLO, RequestState
from repro.server import AlayaDBServer, ServerClient, check_drained
from repro.sharding import ShardedContextRouter, ShardedSession, WorkerGroup
from repro.storage.backend import InMemoryBackend

DOC = "the quick brown fox jumps over the lazy dog. " * 6
PROMPT = DOC + "what did the fox do?"


def make_config(**overrides) -> AlayaDBConfig:
    kwargs = dict(
        short_context_threshold=128,
        coarse_block_size=32,
        coarse_num_blocks=4,
        window_initial_tokens=8,
        window_last_tokens=24,
        prefill_chunk_tokens=64,
    )
    kwargs.update(overrides)
    return AlayaDBConfig(**kwargs)


def make_model(seed: int = 7) -> TransformerModel:
    return TransformerModel(
        ModelConfig(dim=32, num_layers=2, num_query_heads=4, num_kv_heads=2, hidden_dim=64, seed=seed)
    )


@pytest.fixture()
def router():
    return ShardedContextRouter(make_model(), num_workers=2, config=make_config())


def generate(router, prompt=PROMPT, max_new_tokens=6) -> list[int]:
    """One request through the router's front service, start to finish."""
    result, record = router.service.submit(prompt, max_new_tokens=max_new_tokens).result()
    assert record.reused_tokens > 0, "the request must have been served off the shards"
    return result.generated_tokens


def unsharded_service(**overrides) -> InferenceService:
    model = make_model()
    service = InferenceService(model, make_config(**overrides))
    service.db.prefill_and_import(model, DOC, context_id="ctx")
    return service


class TestPlacement:
    def test_round_robin_assignment(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=4)
        for shard_id in range(ref.num_shards):
            owner = router.shard_owner("ctx", shard_id)
            assert owner is router.workers[shard_id % 2]
            assert ref.shard_id_of(shard_id) in owner.owned

    def test_ingest_frees_router_side_copies(self, router):
        router.ingest(DOC, context_id="ctx", num_shards=2)
        store = router.db.store_registry
        # ingest-side copies are spilled, durable objects + manifest rows stay
        assert store.resident_kv_bytes == 0
        for context_id, _ in store.items():
            assert router.backend.exists(f"{context_id}.npz")

    def test_unknown_context_raises(self, router):
        with pytest.raises(ContextNotFoundError):
            router.ref("nope")

    def test_shards_do_not_pollute_prefix_trie(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        tokens = router.db.tokenize(DOC)
        # a prompt equal to the *second shard's* tokens must not prefix-match
        shard_tokens = tokens[ref.plan.ranges[1].start :]
        for worker in router.workers:
            match = worker.db.store_registry.find_longest_prefix(shard_tokens)
            assert not match.is_hit
        # the (spilled) base context stays matchable on the router's front DB
        match = router.db.store_registry.find_longest_prefix(tokens)
        assert match.is_hit and match.context.context_id == "ctx"
        assert not match.context.is_resident

    def test_create_session_is_the_seam(self, router):
        """A prefix match on a catalogued context yields a ShardedSession —
        nothing reloaded, nothing pinned; any other match an ordinary one."""
        router.ingest(DOC, context_id="ctx", num_shards=2)
        store = router.db.store_registry
        session, suffix = router.db.create_session(PROMPT)
        assert isinstance(session, ShardedSession)
        assert suffix == router.db.tokenize(PROMPT)[session.reused_prefix_length :]
        assert store.resident_kv_bytes == 0 and store.num_pinned == 0
        session.close()
        plain, _ = router.db.create_session("something else entirely")
        assert not isinstance(plain, ShardedSession)

    def test_shard_contexts_marked_unmatchable(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        for shard_id in range(ref.num_shards):
            shard_cid = ref.shard_id_of(shard_id)
            owner = router.shard_owner("ctx", shard_id)
            assert owner.db.store_registry.get(shard_cid).prefix_matchable is False


class TestFailover:
    def test_zero_shard_worker_cold_loads(self):
        """A worker that never saw a shard serves it straight from storage."""
        model = make_model()
        group = WorkerGroup(model, config=make_config(), num_workers=3)
        router = ShardedContextRouter(model, group=group)
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        before = generate(router)

        spare = group.worker(2)
        assert not spare.owned
        assert "ctx--shard000" not in spare.db.store_registry

        router.reassign_shard("ctx", 0, worker_id=2)
        assert router.shard_owner("ctx", 0) is spare
        assert spare.db.store_registry.get(ref.shard_id_of(0)).is_resident

        assert generate(router) == before

    def test_reassign_frees_previous_owner(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        old = router.shard_owner("ctx", 0)
        shard_cid = ref.shard_id_of(0)
        router.reassign_shard("ctx", 0, worker_id=1)
        assert shard_cid not in old.owned
        # the replica is spilled on the old owner, resident on the new one
        assert not old.db.store_registry.get(shard_cid).is_resident
        assert router.workers[1].db.store_registry.get(shard_cid).is_resident

    def test_serving_survives_spill_and_reload(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        before = generate(router)
        owner = router.shard_owner("ctx", 0)
        owner.db.store_registry.spill(ref.shard_id_of(0))
        assert generate(router) == before


class TestAdmission:
    def test_over_budget_request_rejected(self):
        config = make_config(scheduler_gpu_budget_bytes=64)
        router = ShardedContextRouter(make_model(), num_workers=2, config=config)
        router.ingest(DOC, context_id="ctx", num_shards=2)
        handle = router.service.submit(PROMPT, max_new_tokens=8)
        with pytest.raises(AdmissionRejectedError):
            handle.result()
        assert handle.status == RequestState.REJECTED
        assert router.service.scheduler.admission.committed_bytes == 0

    def test_reservation_released_after_request(self, router):
        router.ingest(DOC, context_id="ctx", num_shards=2)
        generate(router, max_new_tokens=2)
        assert router.service.scheduler.admission.committed_bytes == 0


class TestMemoryReport:
    def test_per_worker_and_per_shard_rows(self, router):
        ref = router.ingest(DOC, context_id="ctx", num_shards=4)
        report = router.memory_report()

        workers = report["workers"]
        assert set(workers) == {"worker-0", "worker-1"}
        for row in workers.values():
            assert row["num_owned_shards"] == 2
            assert row["resident_kv_bytes"] > 0
            assert row["resident_bytes"] >= row["resident_kv_bytes"]

        shards = report["shards"]
        assert set(shards) == {ref.shard_id_of(i) for i in range(4)}
        for shard_cid, row in shards.items():
            assert row["context_id"] == "ctx"
            assert row["kv_bytes"] > 0
            assert row["owner"] == f"worker-{row['shard_id'] % 2}"
            assert row["owner"] in row["resident_on"]

        assert report["router"]["num_contexts"] == 1
        assert report["router"]["num_placed_shards"] == 4
        assert report["router"]["admission_committed_bytes"] == 0

    def test_service_per_context_report(self):
        model = make_model()
        service = InferenceService(model, make_config())
        service.db.prefill_and_import(model, DOC, context_id="ctx")
        report = service.memory_report(per_context=True)
        assert report["contexts"]["ctx"]["resident"] is True
        assert report["contexts"]["ctx"]["kv_bytes"] > 0
        assert report["contexts"]["ctx"]["pin_count"] == 0
        assert report["contexts"]["ctx"]["prefix_matchable"] is True
        # the flat report keys stay intact alongside the per-context map
        assert report["resident_kv_bytes"] > 0
        assert "contexts" not in service.memory_report()


class TestWorkerGroup:
    def test_shared_backend_across_workers(self):
        backend = InMemoryBackend()
        group = WorkerGroup(make_model(), config=make_config(), backend=backend, num_workers=2)
        assert all(worker.db.store_registry.backend is backend for worker in group.workers)

    def test_refresh_adopts_new_manifest_entries(self):
        model = make_model()
        group = WorkerGroup(model, config=make_config(), num_workers=2)
        router = ShardedContextRouter(model, group=group)
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        group.refresh()
        for worker in group.workers:
            for shard_id in range(ref.num_shards):
                assert ref.shard_id_of(shard_id) in worker.db.store_registry


class TestSchedulerLifecycle:
    """A sharded context's requests are ordinary scheduler citizens."""

    def test_two_requests_on_one_sharded_context_form_one_group(self, router, monkeypatch):
        from repro.core import decode_round

        group_sizes = []
        real = decode_round.group_attention

        def spy(layer, members, queries, timings=None):
            if not members[0][1].prefill:  # prefill chunks take the same entry
                group_sizes.append(len(members))
            return real(layer, members, queries, timings)

        monkeypatch.setattr(decode_round, "group_attention", spy)
        router.ingest(DOC, context_id="ctx", num_shards=2)
        prompts = [PROMPT, DOC + "who packed the box, and why?"]
        handles = [router.service.submit(p, max_new_tokens=6) for p in prompts]
        router.service.drain()
        together = [router.service.result(h)[0].generated_tokens for h in handles]
        # both requests' decode steps stacked into S = 2 groups (same catalog
        # ref -> same owners' KV arrays -> one compatibility key)
        assert group_sizes and set(group_sizes) == {2}
        assert router.service.scheduler.stats.batched_decode_calls > 0

        solo = ShardedContextRouter(make_model(), num_workers=2, config=make_config())
        solo.ingest(DOC, context_id="ctx", num_shards=2)
        assert together == [generate(solo, prompt) for prompt in prompts]

    def test_preempt_reassign_resume_is_token_identical(self):
        config = make_config(
            gpu_memory_budget_bytes=1024,  # DIPR plans: flat + fine layers
            max_inflight_requests=1,
            scheduler_policy="slo",
            preemption=True,
        )
        model = make_model()
        group = WorkerGroup(model, config=config, num_workers=3)
        router = ShardedContextRouter(model, group=group)
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        service = router.service

        victim = service.submit(PROMPT, max_new_tokens=10, slo=BATCH_SLO)
        for _ in range(4):
            service.step()
        assert victim.status == RequestState.RUNNING
        assert len(service.generated_tokens(victim.request_id)) >= 2
        critical = service.submit(
            DOC + "urgent?", max_new_tokens=2, slo=SLO(ttft_seconds=0.001)
        )
        service.step()
        assert victim.status == RequestState.PREEMPTED
        # move a shard out from under the paused request: it must resume
        # against the new owner's replica
        router.reassign_shard("ctx", 0, worker_id=2)
        assert router.shard_owner("ctx", 0) is group.worker(2)
        service.drain()
        assert service.scheduler.stats.resumes >= 1
        assert group.worker(2).db.store_registry.get(ref.shard_id_of(0)).is_resident

        solo = ShardedContextRouter(make_model(), num_workers=2, config=config)
        solo.ingest(DOC, context_id="ctx", num_shards=2)
        assert victim.result()[0].generated_tokens == generate(solo, PROMPT, 10)
        assert critical.result()[0].generated_tokens == generate(solo, DOC + "urgent?", 2)
        assert service.scheduler.admission.committed_bytes == 0

    def test_whole_context_reuse_walks_unfiltered(self, monkeypatch):
        """A request reusing the whole sharded context plus a question plans no filter on
        any layer, so no range runs the filtered walk."""
        from repro.core import planner
        from repro.core.optimizer import RuleBasedOptimizer

        plans, filtered_walks, plain_walks = [], [], []
        real_plan_all = RuleBasedOptimizer.plan_all_layers
        real_filtered, real_plain = planner.filtered_diprs_search_group, planner.diprs_search_group

        def plan_all_layers(optimizer, query_context):
            layer_plans = real_plan_all(optimizer, query_context)
            plans.extend(layer_plans.values())
            return layer_plans

        def spy(calls, real):
            return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

        monkeypatch.setattr(RuleBasedOptimizer, "plan_all_layers", plan_all_layers)
        monkeypatch.setattr(planner, "filtered_diprs_search_group", spy(filtered_walks, real_filtered))
        monkeypatch.setattr(planner, "diprs_search_group", spy(plain_walks, real_plain))
        # a budget below the context's KV: DIPR plans, flat + fine layers
        router = ShardedContextRouter(make_model(), num_workers=2, config=make_config(gpu_memory_budget_bytes=1024))
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        _, record = router.service.submit(PROMPT, max_new_tokens=3).result()
        assert record.reused_tokens == ref.num_tokens
        assert any(plan.index_kind == IndexKind.FINE for plan in plans)
        assert all(plan.predicate is None for plan in plans)
        assert plain_walks and not filtered_walks


class TestStore:
    """``DB.store`` on a sharded session persists the *whole* context."""

    def test_store_keeps_the_sharded_prefix(self, router):
        """Regression: the sharded prefix used to be dropped — a 291-token
        session stored as its 20 local tokens under pad ids."""
        ref = router.ingest(DOC, context_id="ctx", num_shards=2)
        baseline = unsharded_service()
        tokens = router.db.tokenize(PROMPT)
        suffix = np.asarray(tokens[ref.num_tokens :], dtype=np.int64)
        sessions = {
            "sharded": (
                router.db,
                router.model,
                ShardedSession(
                    ref, router, config=router.config, reused_prefix_length=ref.num_tokens
                ),
            ),
            "unsharded": (baseline.db, baseline.model, baseline.db.create_session(tokens)[0]),
        }
        stored = {}
        for name, (db, model, session) in sessions.items():
            model.prefill(suffix, session)
            stored[name] = (db.store(session, tokens=tokens), db.store(session))
            session.close()
        for sharded, unsharded in zip(stored["sharded"], stored["unsharded"]):
            assert sharded.num_tokens == unsharded.num_tokens == len(tokens)
            assert sharded.tokens == unsharded.tokens  # prefix ids, then pads
            for layer in range(sharded.num_layers):
                np.testing.assert_allclose(
                    sharded.keys(layer), unsharded.keys(layer), rtol=0, atol=1e-5
                )
                np.testing.assert_allclose(
                    sharded.values(layer), unsharded.values(layer), rtol=0, atol=1e-5
                )

    def test_chat_turn_two_matches_unsharded_service(self, router):
        router.ingest(DOC, context_id="ctx", num_shards=2)
        turns = {}
        for name, service in {"sharded": router.service, "unsharded": unsharded_service()}.items():
            chat = service.chat(context_id="chat", max_new_tokens=4)
            turns[name] = [chat.ask(PROMPT), chat.ask(" and then what happened?")]
        for sharded, unsharded in zip(turns["sharded"], turns["unsharded"]):
            assert sharded.result.generated_tokens == unsharded.result.generated_tokens
            assert sharded.record.reused_tokens == unsharded.record.reused_tokens
        # turn 1 reused the sharded document; turn 2 the re-stored transcript,
        # which carries the document's KV gathered from the shard owners
        num_doc_tokens = router.ref("ctx").num_tokens
        assert turns["sharded"][0].record.reused_tokens == num_doc_tokens
        assert turns["sharded"][1].record.reused_tokens > num_doc_tokens


class TestMemoryBound:
    def test_busiest_worker_holds_a_quarter_of_the_unsharded_peak(self):
        """At N = 4 the busiest worker's peak ``ContextStore.resident_bytes``
        (KV + fine indexes) stays within (1/N + slack) of one unsharded
        server's, with identical token
        streams.  The slack covers block-aligned shard boundaries (the last
        shard absorbs the remainder) and per-shard index overhead."""
        num_shards, slack = 4, 0.18
        document = "the quick brown fox jumps over the lazy dog in the library. " * 10
        prompts = [document + suffix for suffix in ("what did the fox do?", " and then,")]
        overrides = dict(gpu_memory_budget_bytes=1024)  # the DIPR sparse-decode path

        model = make_model()
        unsharded = InferenceService(model, make_config(**overrides))
        unsharded.db.prefill_and_import(model, document, context_id="ctx")
        unsharded_peak, expected = unsharded.db.store_registry.resident_bytes, []
        for prompt in prompts:
            expected.append(unsharded.serve(prompt, max_new_tokens=3)[0].generated_tokens)
            unsharded_peak = max(unsharded_peak, unsharded.db.store_registry.resident_bytes)

        group = WorkerGroup(make_model(), config=make_config(**overrides), num_workers=num_shards)
        router = ShardedContextRouter(group.model, group=group)
        router.ingest(document, context_id="ctx", num_shards=num_shards)
        peaks = [worker.db.store_registry.resident_bytes for worker in group.workers]
        for prompt, tokens in zip(prompts, expected):
            assert generate(router, prompt, 3) == tokens
            peaks = [
                max(peak, worker.db.store_registry.resident_bytes)
                for peak, worker in zip(peaks, group.workers)
            ]
        assert all(peak > 0 for peak in peaks)  # the fleet served, not one box
        assert max(peaks) <= (1.0 / num_shards + slack) * unsharded_peak


class TestHttp:
    def test_sharded_context_streams_cancels_and_drains(self, router):
        """A sharded context behind ``AlayaDBServer``: one SSE stream runs to
        completion, another is cancelled mid-stream by ``DELETE``, and the
        drain invariants hold afterwards."""
        router.ingest(DOC, context_id="ctx", num_shards=2)
        solo = ShardedContextRouter(make_model(), num_workers=2, config=make_config())
        solo.ingest(DOC, context_id="ctx", num_shards=2)
        expected = generate(solo, PROMPT, 6)

        async def scenario():
            server = AlayaDBServer(router.service, port=0)
            await server.start()
            client = ServerClient(*server.address)

            stream, events = await client.collect_stream(prompt=PROMPT, max_new_tokens=6)
            assert stream.status == 200 and stream.done
            assert [e["token_id"] for e in events if "token_id" in e] == expected
            assert events[-1]["usage"]["reused_tokens"] == router.ref("ctx").num_tokens

            doomed = await client.stream_completion(prompt=PROMPT, max_new_tokens=5000)
            seen = []
            async for event in doomed.events():
                seen.append(event)
                if len(seen) == 2:
                    response = await client.cancel(doomed.request_id)
                    assert response.json()["cancelled"] is True
            assert seen[-1]["finish_reason"] == "cancelled"
            await doomed.close()
            await server.shutdown(drain=True)

        asyncio.run(scenario())
        assert router.service.stats.cancelled == 1
        check_drained(router.service)
