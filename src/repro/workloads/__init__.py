"""Synthetic long-context workloads and their evaluation harness."""

from .engine import (
    QualityGateResult,
    ReplayEvent,
    ReplayReport,
    ReplayTrace,
    TenantMixSpec,
    WorkloadEngineSpec,
    generate_replay_trace,
    replay_http,
    replay_scheduler,
    score_quality_gate,
    tenant_specs,
)
from .evaluation import MethodEvaluation, evaluate_strategy
from .generator import ScoringMode, SyntheticWorkload, WorkloadSpec, generate_workload
from .infinite_bench import INFINITE_BENCH_TASKS, infinite_bench_names, infinite_bench_task
from .longbench import LONGBENCH_TASKS, LongBenchTask, longbench_names, longbench_task
from .scoring import needle_hit, recovery_ratio, softmax_weights, tokens_for_recovery
from .trace import (
    RequestTrace,
    TraceRequest,
    TraceSpec,
    diurnal_rate,
    generate_trace,
    heavy_tailed_lengths,
    sample_arrival_times,
)

__all__ = [
    "INFINITE_BENCH_TASKS",
    "LONGBENCH_TASKS",
    "LongBenchTask",
    "MethodEvaluation",
    "QualityGateResult",
    "ReplayEvent",
    "ReplayReport",
    "ReplayTrace",
    "RequestTrace",
    "ScoringMode",
    "SyntheticWorkload",
    "TenantMixSpec",
    "TraceRequest",
    "TraceSpec",
    "WorkloadEngineSpec",
    "WorkloadSpec",
    "diurnal_rate",
    "evaluate_strategy",
    "generate_replay_trace",
    "generate_trace",
    "generate_workload",
    "heavy_tailed_lengths",
    "infinite_bench_names",
    "infinite_bench_task",
    "longbench_names",
    "longbench_task",
    "needle_hit",
    "recovery_ratio",
    "replay_http",
    "replay_scheduler",
    "sample_arrival_times",
    "score_quality_gate",
    "softmax_weights",
    "tenant_specs",
    "tokens_for_recovery",
]
