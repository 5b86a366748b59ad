"""Decode rounds: equivalence grid, stats honesty, timings.

What a request generates must not depend on who else is in its decode round:
every grid point here serves the same requests N at a time and one at a time
(``max_inflight_requests=1``, every round a group of one) and requires
token-identical generations plus identical per-request integer
``DecodeStepStats`` totals.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import groupby

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.decode_round import CrossRequestDecodeRound, StageTimings
from repro.core.service import InferenceService
from repro.core.session import Session
from repro.llm.model import ModelConfig, TransformerModel
from repro.scheduler import BATCH_SLO, SLO
from repro.sharding import ShardedContextRouter, ShardedSession

DOC = [2 + (i % 250) for i in range(158)]

#: config knobs routing the optimizer to each execution path (all layers of
#: ModelConfig.tiny have an index under each mix)
PLAN_MIXES = {
    "flat": dict(gpu_memory_budget_bytes=1, flat_index_layers=(0, 1)),
    "fine": dict(gpu_memory_budget_bytes=1, flat_index_layers=(0,)),
    "coarse": dict(gpu_memory_budget_bytes=10**18, topk_k=64, coarse_num_blocks=4),
    # every context is "short": full attention, the plan that skips retrieval
    "full": dict(short_context_threshold=10**6),
}

BASE_CONFIG = dict(
    short_context_threshold=64,
    window_initial_tokens=8,
    window_last_tokens=16,
    min_reuse_tokens=4,
)


@pytest.fixture(scope="module")
def model():
    return TransformerModel(ModelConfig.tiny(seed=7))


def _service(model, mix: str, **overrides) -> InferenceService:
    config = AlayaDBConfig(**{**BASE_CONFIG, **PLAN_MIXES[mix], **overrides})
    service = InferenceService(model, config)
    service.db.prefill_and_import(model, DOC, context_id="shared")
    return service


def _drain_outputs(service: InferenceService, prompts, max_new) -> dict[int, tuple]:
    """Each request's tokens plus its session's decode-step count and
    summed/last-step ``DecodeStepStats``, captured as the request finishes."""
    work = {}
    finish = service.finish_request

    def capture(inflight):
        session = inflight.session
        work[inflight.request.request_id] = (
            session.num_decode_steps,
            asdict(session.total_decode_stats),
            asdict(session.last_decode_stats),
        )
        finish(inflight)

    service.finish_request = capture
    handles = [
        service.submit(p, max_new_tokens=m) for p, m in zip(prompts, max_new)
    ]
    service.drain()
    outputs = {}
    for handle in handles:
        result, record = service.result(handle)
        outputs[handle.request_id] = (
            result.generated_tokens,
            record.generated_tokens,
            work[handle.request_id],
        )
    return outputs


def _solo_tokens(model, mix: str, prompts, max_new, **overrides) -> list[list[int]]:
    """Each request served alone (no scheduling interference), in order."""
    service = _service(model, mix, max_inflight_requests=1, **overrides)
    return [
        service.submit(p, max_new_tokens=m).result()[0].generated_tokens
        for p, m in zip(prompts, max_new)
    ]


class TestEquivalenceGrid:
    """N sessions per round must match one session per round token for token."""

    @pytest.mark.parametrize("mix", sorted(PLAN_MIXES))
    @pytest.mark.parametrize("num_sessions", [1, 2, 4, 8])
    def test_tokens_and_stats_match(self, model, mix, num_sessions):
        # unequal context lengths (suffixes of 1-3 tokens) and unequal
        # generation lengths (sessions finish mid-round while others decode)
        prompts = [DOC + [210 + i] * (1 + i % 3) for i in range(num_sessions)]
        max_new = [3 + i % 3 for i in range(num_sessions)]
        one_at_a_time = _drain_outputs(
            _service(model, mix, max_inflight_requests=1), prompts, max_new
        )
        together = _drain_outputs(
            _service(model, mix, max_inflight_requests=num_sessions), prompts, max_new
        )
        assert together == one_at_a_time

    def test_mixed_plan_kinds_in_one_round(self, model, monkeypatch):
        """Three sessions whose plans differ share decode rounds: full reuse
        under a DIPR plan, partial reuse short enough for full attention over
        the one range, and no reuse (full attention over no range).  A plan
        difference changes the group key, not the code path: every round runs
        three ``group_attention`` groups, and each request's tokens and
        integer stats equal its solo run."""
        from repro.core import decode_round

        calls = []
        real = decode_round.group_attention

        def spy(layer, members, queries, timings=None):
            inputs = members[0][1]
            key = (inputs.plan.query_kind, inputs.plan.index_kind, len(inputs.ranges), inputs.prefix)
            calls.append((layer, key))
            return real(layer, members, queries, timings)

        monkeypatch.setattr(decode_round, "group_attention", spy)
        prompts = [DOC + [211], DOC[:40] + [230, 231], [7, 8, 9, 10, 11]]

        def run(max_inflight):
            service = _service(model, "fine", max_inflight_requests=max_inflight)
            return _drain_outputs(service, prompts, [4, 4, 4])

        together = run(3)
        rounds = [
            (layer, {key for _, key in group})
            for layer, group in groupby(calls, key=lambda call: call[0])
        ]
        expected = {
            ("dipr", "fine", 1, len(DOC)),
            ("full", None, 1, 40),
            ("full", None, 0, 0),
        }
        assert sum(1 for layer, keys in rounds if layer == 1 and keys == expected) == 3
        assert together == run(1)

    def test_mid_round_cancel(self, model):
        prompts = [DOC + [220 + i] for i in range(4)]
        service = _service(model, "flat", max_inflight_requests=4)
        handles = [service.submit(p, max_new_tokens=6) for p in prompts]
        service.step()
        service.step()
        assert service.cancel(handles[1].request_id)
        service.drain()
        assert service.result(handles[1]) is None  # the cancelled request produced no result
        solo = _solo_tokens(model, "flat", prompts, [6] * 4)
        for i in (0, 2, 3):
            assert service.result(handles[i])[0].generated_tokens == solo[i]

    def test_mid_round_preemption(self, model):
        service = _service(
            model, "flat", max_inflight_requests=2, scheduler_policy="slo", preemption=True
        )
        prompts = [DOC + [230], DOC + [231], DOC + [240]]
        long_handles = [
            service.submit(prompt, max_new_tokens=24, slo=BATCH_SLO) for prompt in prompts[:2]
        ]
        for _ in range(3):
            service.step()
        critical = service.submit(prompts[2], max_new_tokens=2, slo=SLO(ttft_seconds=0.001))
        service.drain()
        assert service.scheduler.stats.preemptions >= 1
        together = [service.result(h)[0].generated_tokens for h in long_handles + [critical]]
        assert together == _solo_tokens(model, "flat", prompts, [24, 24, 2])


class TestDecodeStepStatsHonesty:
    """A round of three must attribute exactly what three sessions stepped alone record."""

    def _sessions(self, model, db, n):
        sessions = []
        for i in range(n):
            session, suffix = db.create_session(DOC + [210 + i])
            assert suffix == [210 + i]
            sessions.append(session)
        return sessions

    @staticmethod
    def _random_steps(model, num_sessions, num_steps=3):
        dims = model.config
        rng = np.random.default_rng(11)
        return [
            tuple(
                rng.normal(size=(heads, num_sessions, dims.head_dim)).astype(np.float32)
                for heads in (dims.num_query_heads, dims.num_kv_heads, dims.num_kv_heads)
            )
            for _ in range(num_steps * dims.num_layers)
        ]

    @staticmethod
    def _assert_round_equals_solo(model, steps, solo, grouped):
        """Feed ``steps`` to ``solo`` one session at a time and to ``grouped``
        through one decode round; every row and every stat must agree."""
        dims = model.config
        round_ = CrossRequestDecodeRound(grouped, [False] * len(grouped))
        for layer_step, (q, k, v) in enumerate(steps):
            layer = layer_step % dims.num_layers
            rows = round_.layer_attention(layer, q, k, v, grouped, [1] * len(grouped))
            for i, session in enumerate(solo):
                session.update_query(
                    q[:, i : i + 1, :], k[:, i : i + 1, :], v[:, i : i + 1, :], layer
                )
                solo_row = session.attention(q[:, i : i + 1, :], layer)[:, 0, :]
                round_row = rows[i].reshape(dims.num_query_heads, dims.head_dim)
                np.testing.assert_allclose(round_row, solo_row, atol=1e-5)
        for a, b in zip(solo, grouped):
            assert a.total_decode_stats == b.total_decode_stats
            assert a.num_decode_steps == b.num_decode_steps == len(steps) // dims.num_layers

    def test_round_matches_per_session_outputs_and_stats(self, model):
        config = AlayaDBConfig(**BASE_CONFIG, **PLAN_MIXES["flat"])
        db = DB(config)
        db.prefill_and_import(model, DOC)
        self._assert_round_equals_solo(
            model,
            self._random_steps(model, 3),
            solo=self._sessions(model, db, 3),
            grouped=self._sessions(model, db, 3),
        )

    @pytest.mark.parametrize("mix", sorted(PLAN_MIXES))
    def test_sharded_and_single_owner_sessions_share_a_round(self, model, mix):
        """One round over a sharded session (R = 2 ranges) and a single-owner
        one (R = 1): each row equals its solo run.  (A sharded session in a
        round used to raise ``AttributeError: 'NoneType' object has no
        attribute 'fine_indexes'``.)"""
        # 32-token blocks: shard boundaries are block-aligned, 158 tokens cut in two
        config = AlayaDBConfig(**{**BASE_CONFIG, **PLAN_MIXES[mix]}, coarse_block_size=32)
        db = DB(config)
        db.prefill_and_import(model, DOC)
        router = ShardedContextRouter(model, num_workers=2, config=config)
        ref = router.ingest(DOC, num_shards=2)
        assert ref.num_shards == 2

        def pair():
            sharded = ShardedSession(ref, router, config=config, reused_prefix_length=len(DOC))
            plain, _ = db.create_session(DOC + [211])
            return [sharded, plain]

        solo, grouped = pair(), pair()
        self._assert_round_equals_solo(model, self._random_steps(model, 2), solo, grouped)
        assert grouped[0].total_decode_stats.num_selected_tokens > 0

    def test_full_plan_round_over_two_ranges_one_range_and_none(self, model):
        """One round over a sharded session (R = 2), a single-owner one (R = 1) and an
        unconnected one (R = 0), all planned full attention: three groups through the one
        execution, each row and every integer stat equal to the session stepped alone."""
        config = AlayaDBConfig(**{**BASE_CONFIG, **PLAN_MIXES["full"]}, coarse_block_size=32)
        db = DB(config)
        db.prefill_and_import(model, DOC)
        router = ShardedContextRouter(model, num_workers=2, config=config)
        ref = router.ingest(DOC, num_shards=2)

        def trio():
            sharded = ShardedSession(ref, router, config=config, reused_prefix_length=len(DOC))
            plain, _ = db.create_session(DOC + [211])
            return [sharded, plain, Session(config, num_layers=model.config.num_layers)]

        solo, grouped = trio(), trio()
        num_steps = 3
        self._assert_round_equals_solo(model, self._random_steps(model, 3, num_steps), solo, grouped)
        for session, num_ranges in zip(grouped, (2, 1, 0)):
            inputs = session.layer_inputs(0)
            assert inputs.plan.is_full and len(inputs.ranges) == num_ranges
        sharded, plain, unconnected = (session.total_decode_stats for session in grouped)
        calls = num_steps * model.config.num_layers
        assert sharded.num_selected_tokens == plain.num_selected_tokens
        assert plain.num_selected_tokens == calls * model.config.num_query_heads * len(DOC)
        assert unconnected.num_selected_tokens == 0 < unconnected.num_local_tokens
        for stats in (sharded, plain, unconnected):
            assert stats.num_distance_computations == stats.num_graph_hops == stats.num_window_tokens == 0
            assert stats.num_heads == calls * model.config.num_query_heads


class TestStageTimings:
    def test_memory_report_exposes_decode_split(self, model):
        service = _service(model, "flat", max_inflight_requests=4)
        for i in range(4):
            service.submit(DOC + [210 + i], max_new_tokens=4)
        service.drain()
        report = service.memory_report()
        assert report["decode_rounds"] > 0
        assert report["decode_retrieval_seconds"] > 0.0
        assert report["decode_merge_seconds"] > 0.0
        assert report["decode_dense_seconds"] >= 0.0
        # the stats object and the service share one StageTimings instance
        assert service.stats.decode_timings is service.decode_timings
        assert service.decode_timings.sparse_seconds == (
            service.decode_timings.retrieval_seconds
            + service.decode_timings.merge_seconds
        )

    def test_timings_accrue_in_rounds_of_one_too(self, model):
        service = _service(model, "flat", max_inflight_requests=1)
        for i in range(2):
            service.submit(DOC + [210 + i], max_new_tokens=3)
        service.drain()
        assert service.scheduler.stats.batched_decode_calls == 0
        assert service.decode_timings.retrieval_seconds > 0.0
        assert service.decode_timings.merge_seconds > 0.0

    def test_stage_timings_dataclass(self):
        timings = StageTimings(retrieval_seconds=1.0, merge_seconds=2.0, dense_seconds=3.0)
        assert timings.sparse_seconds == 3.0
