"""Tests of the synthetic workload generator, scoring and analysis tooling."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.critical_tokens import count_critical_tokens, window_max_coverage
from repro.analysis.recovery import dipr_selection_count, head_recovery_profile, required_k_for_accuracy
from repro.analysis.reporting import format_series, format_table
from repro.workloads.evaluation import GATE_TASKS, evaluate_strategy, score_quality_gate
from repro.workloads.generator import ScoringMode, WorkloadSpec, generate_workload
from repro.workloads.infinite_bench import INFINITE_BENCH_TASKS, infinite_bench_task
from repro.workloads.longbench import LONGBENCH_TASKS
from repro.workloads.scoring import needle_hit, recovery_ratio, softmax_weights, tokens_for_recovery
from repro.baselines.full_attention import FullAttentionStrategy


class TestScoring:
    def test_softmax_weights_sum_to_one(self):
        weights = softmax_weights(np.asarray([1.0, 2.0, 3.0]))
        assert weights.sum() == pytest.approx(1.0)

    def test_recovery_ratio_bounds(self):
        scores = np.asarray([10.0, 0.0, 0.0, 0.0])
        assert recovery_ratio(scores, np.asarray([0])) > 0.99
        assert recovery_ratio(scores, np.asarray([], dtype=np.int64)) == 0.0
        assert recovery_ratio(scores, np.arange(4)) == pytest.approx(1.0)

    def test_recovery_ratio_ignores_duplicates(self):
        scores = np.asarray([1.0, 1.0, 1.0, 1.0])
        assert recovery_ratio(scores, np.asarray([0, 0, 0])) == pytest.approx(0.25)

    def test_recovery_ratio_rejects_negative_positions(self):
        # regression: numpy fancy indexing wraps negative positions, silently
        # crediting the wrong token's probability mass to the selection
        scores = np.asarray([0.0, 0.0, 0.0, 100.0])
        with pytest.raises(ValueError, match="negative position"):
            recovery_ratio(scores, np.asarray([-1, 0]))

    def test_recovery_ratio_rejects_out_of_range_positions(self):
        scores = np.asarray([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="beyond the context length"):
            recovery_ratio(scores, np.asarray([0, 3]))

    def test_needle_hit_rejects_negative_positions(self):
        with pytest.raises(ValueError, match="evidence_positions"):
            needle_hit(np.asarray([-2]), np.asarray([1, 2]))
        with pytest.raises(ValueError, match="attended"):
            needle_hit(np.asarray([1]), np.asarray([-3, 1]))

    def test_needle_hit(self):
        assert needle_hit(np.asarray([3, 5]), np.asarray([1, 3, 5, 7]))
        assert not needle_hit(np.asarray([3, 5]), np.asarray([3]))

    def test_tokens_for_recovery_concentrated_vs_flat(self):
        concentrated = np.zeros(100)
        concentrated[7] = 20.0
        flat = np.zeros(100)
        assert tokens_for_recovery(concentrated, 0.9) == 1
        assert tokens_for_recovery(flat, 0.9) == 90

    @settings(deadline=None, max_examples=25)
    @given(target=st.floats(min_value=0.05, max_value=1.0), seed=st.integers(0, 100))
    def test_property_tokens_for_recovery_monotone_in_target(self, target, seed):
        scores = np.random.default_rng(seed).normal(size=200)
        smaller = tokens_for_recovery(scores, target * 0.5)
        larger = tokens_for_recovery(scores, target)
        assert smaller <= larger


class TestGenerator:
    def test_generated_shapes(self, small_workload):
        spec = small_workload.spec
        assert small_workload.context.keys(0).shape == (spec.num_kv_heads, spec.context_length, spec.head_dim)
        assert small_workload.decode_queries.shape == (
            spec.num_decode_steps, spec.num_layers, spec.num_query_heads, spec.head_dim
        )
        assert small_workload.evidence_positions.shape == (spec.num_decode_steps, spec.num_evidence_tokens)

    def test_determinism(self):
        spec = WorkloadSpec(name="det", context_length=512, seed=3)
        a = generate_workload(spec)
        b = generate_workload(spec)
        np.testing.assert_array_equal(a.context.keys(0), b.context.keys(0))
        np.testing.assert_array_equal(a.evidence_positions, b.evidence_positions)

    def test_evidence_positions_are_unique(self, small_workload):
        flat = small_workload.evidence_positions.reshape(-1)
        assert len(set(flat.tolist())) == flat.shape[0]

    def test_evidence_tokens_score_highest_for_evidence_head(self, small_workload):
        wl = small_workload
        for step in range(wl.spec.num_decode_steps):
            head = int(wl.evidence_heads[step])
            kv_head = head // wl.spec.gqa_group_size
            scores = wl.true_scores(step, 0, kv_head, head)
            evidence = wl.evidence_positions[step]
            threshold = np.sort(scores)[-(wl.spec.num_evidence_tokens + 5)]
            assert np.all(scores[evidence] >= threshold)

    def test_critical_counts_within_spec(self, recovery_workload):
        spec = recovery_workload.spec
        low = spec.critical_fraction_low * spec.context_length * 0.5
        high = spec.critical_fraction_high * spec.context_length * 2.0
        assert np.all(recovery_workload.critical_counts >= low)
        assert np.all(recovery_workload.critical_counts <= high)

    def test_query_samples_present_for_index_construction(self, small_workload):
        # grouped by KV head, the shape of a snapshot's query sample
        spec = small_workload.spec
        samples = small_workload.context.query_samples[0]
        assert samples.shape[0] == spec.num_kv_heads
        assert samples.shape[1] >= 16 * spec.gqa_group_size
        assert samples.shape[2] == spec.head_dim
        small_workload.context.snapshot.validate()


class TestTaskCatalogs:
    def test_infinite_bench_has_eight_tasks(self):
        assert len(INFINITE_BENCH_TASKS) == 8
        assert set(INFINITE_BENCH_TASKS) == {
            "Retr.KV", "Retr.P", "Retr.N", "Code.D", "En.MC", "En.QA", "En.Sum", "Math.F",
        }

    def test_task_override(self):
        spec = infinite_bench_task("Retr.P", context_length=2048)
        assert spec.context_length == 2048
        assert spec.name == "Retr.P"

    def test_longbench_matches_paper_proportions(self):
        for name, task in LONGBENCH_TASKS.items():
            implied = task.paper_k / task.spec.context_length
            assert implied == pytest.approx(task.paper_proportion, rel=0.05), name

    def test_longbench_has_six_tasks(self):
        assert len(LONGBENCH_TASKS) == 6


class TestEvaluation:
    def test_full_attention_scores_100(self, small_workload):
        result = evaluate_strategy(FullAttentionStrategy(), small_workload)
        assert result.quality == pytest.approx(100.0)

    def test_evaluation_records_work(self, small_workload):
        result = evaluate_strategy(FullAttentionStrategy(), small_workload)
        assert result.num_steps == small_workload.spec.num_decode_steps
        assert result.mean_selected_per_head == small_workload.spec.context_length

    def test_modeled_metrics(self, small_workload):
        from repro.scheduler import SLO
        from repro.simulator.cost_model import CostModel

        result = evaluate_strategy(FullAttentionStrategy(), small_workload)
        cost = CostModel()
        tpot = result.modeled_full_tpot_seconds(cost, 200_000)
        assert tpot > 0
        assert result.gpu_memory_bytes(cost) > cost.shape.weight_bytes
        assert isinstance(result.meets_slo(cost, SLO(), 200_000, is_full_attention=True), bool)

    def test_modeled_tpot_rounds_fractional_work_up(self):
        # regression: int() floored a 0.9-token mean selection to zero work,
        # which then triggered the dense fallback and charged full attention
        from repro.simulator.cost_model import CostModel
        from repro.workloads.evaluation import MethodEvaluation

        cost = CostModel()
        fractional = MethodEvaluation(
            method="m", workload="w", quality=0.0,
            mean_selected_per_head=0.9, mean_distance_computations=0.0,
            resident_tokens=0, gpu_tokens=0, num_steps=1,
        )
        one_token = MethodEvaluation(
            method="m", workload="w", quality=0.0,
            mean_selected_per_head=1.0, mean_distance_computations=0.0,
            resident_tokens=0, gpu_tokens=0, num_steps=1,
        )
        tpot = fractional.modeled_tpot_seconds(cost, context_length=200_000)
        assert tpot == pytest.approx(one_token.modeled_tpot_seconds(cost, context_length=200_000))
        assert tpot < cost.full_decode_seconds(200_000)

    def test_modeled_tpot_empty_selection_modes(self):
        # regression: a zero-work run silently substituted dense attention even
        # for strategies that legitimately attend nothing
        from repro.simulator.cost_model import CostModel
        from repro.workloads.evaluation import MethodEvaluation

        cost = CostModel()
        empty = MethodEvaluation(
            method="m", workload="w", quality=0.0,
            mean_selected_per_head=0.0, mean_distance_computations=0.0,
            resident_tokens=0, gpu_tokens=0, num_steps=1,
        )
        with pytest.raises(ValueError, match="dense"):
            empty.modeled_tpot_seconds(cost)  # dense fallback needs a length
        dense = empty.modeled_tpot_seconds(cost, context_length=100_000)
        none = empty.modeled_tpot_seconds(cost, empty_selection="none")
        assert dense > none
        with pytest.raises(ValueError, match="empty_selection"):
            empty.modeled_tpot_seconds(cost, empty_selection="bogus")


class TestAnalysis:
    def test_count_critical_tokens(self):
        scores = np.asarray([10.0, 9.9, 0.0, -5.0])
        assert count_critical_tokens(scores, alpha=0.5) == 2
        assert count_critical_tokens(scores, alpha=1e-9) == 4

    def test_dipr_selection_count_monotone_in_beta(self):
        scores = np.random.default_rng(0).normal(size=500)
        assert dipr_selection_count(scores, 0.5) <= dipr_selection_count(scores, 2.0)

    def test_head_recovery_profile(self, recovery_workload):
        profiles = head_recovery_profile(recovery_workload, beta=18.0)
        assert len(profiles) == recovery_workload.spec.num_kv_heads
        for profile in profiles:
            assert profile.tokens_for_90pct >= 1
            assert profile.dipr_selected >= 1

    def test_required_k_varies_with_critical_fraction(self):
        sparse_spec = WorkloadSpec(
            name="sparse", context_length=2048, critical_fraction_low=0.004,
            critical_fraction_high=0.006, scoring=ScoringMode.RECOVERY, seed=1,
        )
        dense_spec = WorkloadSpec(
            name="dense", context_length=2048, critical_fraction_low=0.06,
            critical_fraction_high=0.08, scoring=ScoringMode.RECOVERY, seed=1,
        )
        k_sparse = required_k_for_accuracy(generate_workload(sparse_spec))
        k_dense = required_k_for_accuracy(generate_workload(dense_spec))
        assert k_dense > k_sparse

    def test_window_coverage_high_for_window_friendly_task(self):
        spec = infinite_bench_task("Math.F", context_length=2048, num_decode_steps=4)
        workload = generate_workload(spec)
        coverage = window_max_coverage(workload, initial_tokens=32, last_tokens=32)
        assert 0.0 <= coverage.coverage <= 1.0
        assert coverage.num_queries == 4 * spec.num_kv_heads

    def test_reporting_formats(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", 0.0001]], title="T")
        assert "T" in table and "a" in table and "x" in table
        series = format_series("curve", [1, 2], [3.0, 4.0])
        assert "curve" in series and "(1, 3)" in series


class TestQualityGate:
    def test_gate_passes_for_sparse_path(self):
        gate = score_quality_gate(["Qasper", "Retr.KV"], context_length=1024, decode_steps=2)
        assert set(gate.per_task) == {"Qasper", "Retr.KV"}
        for row in gate.per_task.values():
            assert row["dense"] == pytest.approx(100.0)
            assert 0.0 <= row["sparse"] <= 100.0 + 1e-9
        assert gate.passes(threshold=0.95)
        assert gate.min_ratio <= gate.mean_ratio + 1e-12
        json.dumps(gate.to_dict())

    def test_gate_is_deterministic(self):
        a = score_quality_gate(["QMSum"], context_length=1024, decode_steps=2)
        b = score_quality_gate(["QMSum"], context_length=1024, decode_steps=2)
        assert a.to_dict() == b.to_dict()

    def test_empty_gate_fails(self):
        gate = score_quality_gate([])
        assert not gate.passes()
        assert len(GATE_TASKS) == 7 and all(
            name in LONGBENCH_TASKS or name in INFINITE_BENCH_TASKS for name in GATE_TASKS
        )
