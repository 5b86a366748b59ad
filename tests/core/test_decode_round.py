"""Decode rounds: equivalence grid, policy properties, timings.

What a request generates must not depend on who else is in its decode round:
every grid point here serves the same requests N at a time and one at a time
(``max_inflight_requests=1``, every round a group of one) and requires
token-identical generations plus identical per-request integer
``DecodeStepStats`` totals.  The
ALISA-style dense/sparse policy is a pure transition function, so its
hysteresis/dwell/monotonicity guarantees are checked property-style with
hypothesis.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.decode_round import (
    CrossRequestDecodeRound,
    DynamicAttentionPolicy,
    PolicyState,
    StageTimings,
)
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
    service.db.prefill_and_import(
        model, DOC, build_fine_indexes=(mix == "fine"), context_id="shared"
    )
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

    def test_mixed_plan_kinds_in_one_round(self, model):
        """Sessions on different contexts form two groups, still identical."""

        def run(max_inflight):
            service = _service(model, "flat", max_inflight_requests=max_inflight)
            # a second ingested context: two compatibility groups in flight
            other = [5 + (i % 240) for i in range(130)]
            service.db.prefill_and_import(
                model, other, build_fine_indexes=False, context_id="other"
            )
            prompts = [DOC + [211], DOC + [212], other + [213], other + [214]]
            return _drain_outputs(service, prompts, [4, 4, 4, 4])

        assert run(4) == run(1)

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
        round_ = CrossRequestDecodeRound(grouped)
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
        db.prefill_and_import(model, DOC, build_fine_indexes=False)
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


# --------------------------------------------------------------------------
# dynamic attention policy
# --------------------------------------------------------------------------

policies = st.builds(
    DynamicAttentionPolicy,
    dense_watermark=st.floats(min_value=0.0, max_value=0.8),
    sparse_watermark=st.floats(min_value=0.8, max_value=2.0),
    min_dwell_steps=st.integers(min_value=0, max_value=6),
)
states = st.builds(
    PolicyState,
    mode=st.sampled_from(["sparse", "dense"]),
    steps_in_mode=st.integers(min_value=0, max_value=12),
)
pressures = st.floats(min_value=0.0, max_value=3.0)


class TestDynamicAttentionPolicy:
    @settings(deadline=None, max_examples=80)
    @given(policy=policies, state=states, pressure=pressures)
    def test_step_is_pure_and_total(self, policy, state, pressure):
        first = policy.step(state, pressure)
        assert policy.step(state, pressure) == first
        assert first.mode in ("sparse", "dense")

    @settings(deadline=None, max_examples=80)
    @given(policy=policies, state=states, pressure=pressures)
    def test_hysteresis_band_keeps_mode(self, policy, state, pressure):
        if policy.dense_watermark < pressure < policy.sparse_watermark:
            assert policy.step(state, pressure).mode == state.mode

    @settings(deadline=None, max_examples=80)
    @given(policy=policies, state=states, p1=pressures, p2=pressures)
    def test_monotone_in_pressure(self, policy, state, p1, p2):
        """Higher pressure never flips the decision toward dense."""
        low, high = sorted((p1, p2))
        if policy.step(state, low).mode == "sparse":
            assert policy.step(state, high).mode == "sparse"

    @settings(deadline=None, max_examples=60)
    @given(
        policy=policies,
        seq=st.lists(pressures, min_size=1, max_size=40),
    )
    def test_dwell_bounds_switch_frequency(self, policy, seq):
        state = policy.initial()
        last_switch = None
        for i, pressure in enumerate(seq):
            nxt = policy.step(state, pressure)
            if nxt.mode != state.mode:
                if last_switch is not None:
                    assert i - last_switch >= policy.min_dwell_steps
                last_switch = i
            state = nxt

    @settings(deadline=None, max_examples=60)
    @given(policy=policies, state=states)
    def test_sustained_pressure_converges_to_sparse(self, policy, state):
        pressure = policy.sparse_watermark
        for _ in range(policy.min_dwell_steps + 1):
            state = policy.step(state, pressure)
        assert state.mode == "sparse"

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            DynamicAttentionPolicy(dense_watermark=0.8, sparse_watermark=0.5)
        with pytest.raises(ValueError):
            DynamicAttentionPolicy(min_dwell_steps=-1)

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            AlayaDBConfig(
                attention_policy_dense_watermark=0.9,
                attention_policy_sparse_watermark=0.5,
            )

    def test_policy_pins_low_pressure_sessions_dense(self, model):
        """Plentiful budget → dense override; forget() clears state on finish."""
        service = _service(
            model,
            "flat",
            max_inflight_requests=2,
            dynamic_attention_policy=True,
            scheduler_gpu_budget_bytes=10**15,
        )
        handles = [service.submit(DOC + [250 + i], max_new_tokens=3) for i in range(2)]
        service.step()
        service.step()
        live = [service._live[h.request_id].session for h in handles]
        assert all(s.decode_mode_override == "dense" for s in live)
        assert len(service._attention_policy._states) == 2
        service.drain()
        assert not service._attention_policy._states


    def test_policy_flip_changes_the_group_key_not_the_code_path(self, model, monkeypatch):
        """Pressure swings mid-request: two requests on one context go dense -> sparse -> dense
        together.  Every round is one S = 2 ``group_attention`` call whose plan flips with the
        policy, and the tokens equal the same requests with the override pinned by hand to the
        modes the policy chose, step for step."""
        from repro.core import decode_round

        groups = []
        real = decode_round.group_attention

        def spy(layer, members, queries, timings=None):
            if layer == 0:
                groups.append((len(members), members[0][1].plan.is_full))
            return real(layer, members, queries, timings)

        monkeypatch.setattr(decode_round, "group_attention", spy)
        prompts = [DOC + [250 + i] for i in range(2)]

        def run(choose_modes, **overrides):
            service = _service(model, "flat", max_inflight_requests=2, **overrides)
            service._apply_attention_policy = choose_modes(service)
            handles = [service.submit(prompt, max_new_tokens=9) for prompt in prompts]
            service.drain()
            return [service.result(handle)[0].generated_tokens for handle in handles]

        chosen = []

        def policy_under_swinging_pressure(service):
            apply_policy, admission = service._apply_attention_policy, service.scheduler.admission

            def choose(inflights):
                # rounds 2..4 run at pressure 1.0, the others at ~0
                admission.budget_bytes = admission.committed_bytes if 2 <= len(chosen) < 5 else 10**15
                apply_policy(inflights)
                chosen.append({fl.request.request_id: fl.session.decode_mode_override for fl in inflights})

            return choose

        flipped = run(
            policy_under_swinging_pressure,
            dynamic_attention_policy=True,
            scheduler_gpu_budget_bytes=10**15,
            attention_policy_min_dwell_steps=2,
        )
        modes = [set(round_.values()) for round_ in chosen]
        assert modes == [{"dense"}] * 2 + [{None}] * 3 + [{"dense"}] * 3
        # the first round is both requests' one-token prefill: a group of two
        # under the optimizer's plan (the policy steers decode rows only)
        assert groups == [(2, False)] + [(2, True)] * 2 + [(2, False)] * 3 + [(2, True)] * 3

        def pinned_by_hand(service):
            replay = iter(chosen)

            def choose(inflights):
                for fl, mode in zip(inflights, next(replay).values()):
                    fl.session.decode_mode_override = mode

            return choose

        assert run(pinned_by_hand) == flipped


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
