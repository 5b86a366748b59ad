"""Synthetic long-context workloads and their evaluation harness."""

from .evaluation import (
    GATE_TASKS,
    MethodEvaluation,
    QualityGateResult,
    evaluate_strategy,
    score_quality_gate,
)
from .generator import ScoringMode, SyntheticWorkload, WorkloadSpec, generate_workload
from .infinite_bench import INFINITE_BENCH_TASKS, infinite_bench_names, infinite_bench_task
from .longbench import LONGBENCH_TASKS, LongBenchTask, longbench_names, longbench_task
from .scoring import needle_hit, recovery_ratio, softmax_weights, tokens_for_recovery

__all__ = [
    "GATE_TASKS",
    "INFINITE_BENCH_TASKS",
    "LONGBENCH_TASKS",
    "LongBenchTask",
    "MethodEvaluation",
    "QualityGateResult",
    "ScoringMode",
    "SyntheticWorkload",
    "WorkloadSpec",
    "evaluate_strategy",
    "generate_workload",
    "infinite_bench_names",
    "infinite_bench_task",
    "longbench_names",
    "longbench_task",
    "needle_hit",
    "recovery_ratio",
    "score_quality_gate",
    "softmax_weights",
    "tokens_for_recovery",
]
