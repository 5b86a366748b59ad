"""Trace-driven workload replay — the end-to-end serving panel.

One seeded trace from the workload engine — diurnal/bursty arrivals,
heavy-tailed context lengths, two tenants mixing chat sessions, RAG over a
shared Zipf document library, agent tool loops with mid-stream
cancellations — replayed against the full stack through both replay drivers:

* **scheduler**: ``InferenceService.submit`` + virtual-clock stepping;
* **http**: the asyncio SSE frontend over real TCP (cancels arrive as
  DELETEs and TCP aborts; shutdown verifies the drain invariants);
* **router**: the scheduler driver again, over a sharded router's front
  service — the library documents live on two shard owners and every RAG
  request is a scheduler-served session over their ranges.

Each replay reports TTFT/TPOT p50/p95/p99, SLO attainment, eviction/
preemption/throttle (429) rates, prefix-reuse hit ratio, and per-tenant
fairness rows.  The same run scores the **quality gate**: the trace's task
mix mapped to LongBench/∞-Bench specs, the sparse path (DIPRS) scored
against the dense path (full attention) — asserted to stay within 0.95× in
every mode, so a replay-path speedup can never silently cost quality.
Headline numbers land in ``BENCH_workload_replay.json``.

``BENCH_SMOKE=1`` shrinks the trace (CI sanity run); structure assertions
(accounting closure, determinism, gate threshold) hold in both modes.
"""

from __future__ import annotations

from benchmarks.common import emit, run_once, smoke_mode, write_bench_json
from repro.analysis.reporting import format_table
from repro.core.config import AlayaDBConfig
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.sharding.router import ShardedContextRouter
from repro.workloads.engine import (
    TenantMixSpec,
    WorkloadEngineSpec,
    generate_replay_trace,
    replay_http,
    replay_scheduler,
    score_quality_gate,
    tenant_specs,
)
from repro.workloads.trace import TraceSpec

EXPERIMENT = "Workload replay (trace-driven end-to-end serving + quality gate)"

SMOKE = smoke_mode()
DURATION_SECONDS = 25.0 if SMOKE else 90.0
BASE_RATE = 0.7 if SMOKE else 1.2
GATE_CONTEXT_LENGTH = 1024 if SMOKE else 2048
GATE_DECODE_STEPS = 2 if SMOKE else 4
GATE_THRESHOLD = 0.95
HTTP_TIME_SCALE = 0.004 if SMOKE else 0.01

SPEC = WorkloadEngineSpec(
    duration_seconds=DURATION_SECONDS,
    base_rate=BASE_RATE,
    diurnal_amplitude=0.6,
    diurnal_period_seconds=DURATION_SECONDS / 2,
    burstiness=0.8,
    tenants=(
        TenantMixSpec(name="finance", weight=2, rate_share=2.0,
                      chat_fraction=0.25, rag_fraction=0.5, agent_fraction=0.15),
        TenantMixSpec(name="legal", weight=1, rate_share=1.0,
                      chat_fraction=0.45, rag_fraction=0.2, agent_fraction=0.25,
                      max_queued=8),
    ),
    corpus=TraceSpec(
        num_documents=3,
        document_repeats=4 if SMOKE else 8,
        num_requests=1,
        fresh_request_fraction=0.0,
    ),
    chat_prompt_median_chars=250 if SMOKE else 500,
    chat_prompt_max_chars=1200 if SMOKE else 3000,
    cancel_fraction=0.15,
    disconnect_fraction=0.5,
    seed=2025,
)


def _model() -> TransformerModel:
    return TransformerModel(ModelConfig.tiny(seed=97))


def _config() -> AlayaDBConfig:
    return AlayaDBConfig(tenants=tenant_specs(SPEC))


def _service(model: TransformerModel) -> InferenceService:
    return InferenceService(model, _config())


def _sweep():
    trace = generate_replay_trace(SPEC)
    model = _model()
    reports = {
        "scheduler": replay_scheduler(trace, _service(model)),
        "http": replay_http(trace, _service(model), time_scale=HTTP_TIME_SCALE),
        "router": replay_scheduler(
            trace, ShardedContextRouter(model, num_workers=2, config=_config()).service
        ),
    }
    gate = score_quality_gate(
        trace.kinds_present(),
        context_length=GATE_CONTEXT_LENGTH,
        decode_steps=GATE_DECODE_STEPS,
    )
    return trace, reports, gate


def test_workload_replay(benchmark):
    trace, reports, gate = run_once(benchmark, _sweep)

    for name, report in reports.items():
        assert report.num_events == trace.num_events, name
        assert (
            report.completed + report.cancelled + report.failed == report.submitted
        ), name
        assert report.reuse_hit_requests > 0, name
    # the scheduler replay paces on a virtual clock: cancellations are
    # deterministic, every event lands — and sharding the library changes
    # none of the counts
    assert reports["scheduler"].submitted == trace.num_events
    assert reports["scheduler"].cancelled > 0
    assert (
        reports["router"].deterministic_summary()
        == reports["scheduler"].deterministic_summary()
    )
    # the quality gate is the hard floor: sparse within 0.95x of dense on
    # every task of this trace's mix, in smoke and full mode alike
    assert gate.passes(GATE_THRESHOLD), gate.to_dict()

    rows = [
        [
            name,
            r.submitted,
            r.completed,
            r.cancelled,
            r.throttled_429,
            round(r.ttft_seconds["p50"] * 1000, 2),
            round(r.ttft_seconds["p99"] * 1000, 2),
            round(r.tpot_seconds["p99"] * 1000, 2),
            f"{r.slo_attainment:.3f}",
            f"{r.reuse_hit_ratio:.2f}",
            round(r.wall_seconds, 2),
        ]
        for name, r in reports.items()
    ]
    gate_rows = [
        [task, row["kind"], round(row["sparse"], 2), round(row["dense"], 2),
         f"{row['ratio']:.4f}"]
        for task, row in gate.per_task.items()
    ]
    lines = [
        f"trace: {trace.num_events} events over {SPEC.duration_seconds:.0f}s "
        f"(kinds {trace.kind_counts()}, tenants {trace.tenant_counts()}, "
        f"digest {trace.digest()[:12]})",
        "",
        format_table(
            ["entry point", "sub", "done", "cancel", "429",
             "TTFT p50 (ms)", "TTFT p99 (ms)", "TPOT p99 (ms)",
             "SLO", "reuse", "wall (s)"],
            rows,
            title="--- one trace, two drivers (scheduler also over a sharded router) ---",
        ),
        "",
        format_table(
            ["task", "kind", "sparse", "dense", "ratio"],
            gate_rows,
            title=f"--- quality gate (threshold {GATE_THRESHOLD}) ---",
        ),
        f"gate: min ratio {gate.min_ratio:.4f}, mean {gate.mean_ratio:.4f} "
        f"-> {'PASS' if gate.passes(GATE_THRESHOLD) else 'FAIL'}",
    ]
    emit(EXPERIMENT, "\n".join(lines))
    write_bench_json(
        "workload_replay",
        metrics={
            "trace": {
                "num_events": trace.num_events,
                "digest": trace.digest(),
                "kind_counts": trace.kind_counts(),
                "tenant_counts": trace.tenant_counts(),
            },
            "replays": {name: r.to_dict() for name, r in reports.items()},
            "quality_gate": gate.to_dict(),
            "quality_gate_passes": gate.passes(GATE_THRESHOLD),
        },
        config={
            "duration_seconds": SPEC.duration_seconds,
            "base_rate": SPEC.base_rate,
            "burstiness": SPEC.burstiness,
            "cancel_fraction": SPEC.cancel_fraction,
            "gate_context_length": GATE_CONTEXT_LENGTH,
            "gate_threshold": GATE_THRESHOLD,
            "http_time_scale": HTTP_TIME_SCALE,
            "seed": SPEC.seed,
        },
    )
