"""Figure 9 — generation quality vs GPU memory under the SLO (En.MC, En.QA).

The paper varies the number of cached tokens for InfLLM and StreamingLLM and
plots quality against GPU memory consumption (model weights + resident KV);
DIPRS sits in the top-left corner: best quality at the lowest memory, while
the coarse methods need several extra GB to approach it.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import build_fine_indexes, emit, run_once
from repro.analysis.reporting import format_series
from repro.baselines import DIPRSStrategy, InfLLMStrategy, StreamingLLMStrategy, TopKRetrievalStrategy
from repro.query.types import beta_from_alpha
from repro.simulator.cost_model import CostModel
from repro.simulator.device import GIB
from repro.workloads.evaluation import evaluate_strategy
from repro.workloads.generator import generate_workload
from repro.workloads.infinite_bench import infinite_bench_task

EXPERIMENT = "Figure 9: quality vs GPU memory"

CONTEXT_LENGTH = 4096
DECODE_STEPS = 3

# Coarse methods must keep a constant *fraction* of the context resident to
# hold their quality (their selection is block/window structured), whereas the
# fine-grained retrieval methods keep a constant *count* of tokens (Table 3:
# the required k does not grow with the context).  GPU memory is therefore
# reported at paper scale: coarse residency is scaled by the ratio between the
# task's real context length and the synthetic one, retrieval residency is not.


def _evaluate_task(task_name: str):
    spec = infinite_bench_task(task_name, context_length=CONTEXT_LENGTH, num_decode_steps=DECODE_STEPS)
    workload = generate_workload(spec)
    context = workload.context
    context.fine_indexes, _ = build_fine_indexes(context)
    beta = beta_from_alpha(0.012, spec.head_dim)
    cost = CostModel()
    scale_to_paper = spec.paper_context_length / spec.context_length

    def gpu_gib(evaluation, scale_residency: bool) -> float:
        tokens = evaluation.gpu_tokens * (scale_to_paper if scale_residency else 1.0)
        return (tokens * cost.shape.kv_bytes_per_token + cost.shape.weight_bytes) / GIB

    curves = {}
    infllm_points = []
    for blocks in (2, 4, 8, 16):
        evaluation = evaluate_strategy(
            InfLLMStrategy(block_size=128, num_retrieved_blocks=blocks, initial_tokens=64, recent_tokens=256),
            workload,
        )
        infllm_points.append((gpu_gib(evaluation, True), evaluation.quality))
    curves["InfLLM"] = infllm_points

    streaming_points = []
    for window in (256, 512, 1024, 2048):
        evaluation = evaluate_strategy(
            StreamingLLMStrategy(initial_tokens=64, recent_tokens=window), workload
        )
        streaming_points.append((gpu_gib(evaluation, True), evaluation.quality))
    curves["StreamingLLM"] = streaming_points

    top100 = evaluate_strategy(
        TopKRetrievalStrategy(k=100, initial_tokens=128, recent_tokens=512, reuse_context_indexes=True), workload
    )
    curves["Top-100"] = [(gpu_gib(top100, False), top100.quality)]

    diprs = evaluate_strategy(
        DIPRSStrategy(beta=beta, capacity_threshold=256, initial_tokens=128, recent_tokens=512, reuse_context_indexes=True),
        workload,
    )
    curves["DIPRS"] = [(gpu_gib(diprs, False), diprs.quality)]
    return curves


def _run_both_tasks():
    return {task: _evaluate_task(task) for task in ("En.MC", "En.QA")}


def test_fig9_quality_vs_memory(benchmark):
    all_curves = run_once(benchmark, _run_both_tasks)

    lines = []
    for task, curves in all_curves.items():
        lines.append(f"--- {task} (x = modelled GPU memory in GiB at paper scale, y = quality) ---")
        for method, points in curves.items():
            lines.append(
                format_series(
                    f"{method:13s}",
                    [round(x, 2) for x, _ in points],
                    [round(y, 1) for _, y in points],
                )
            )
    emit(EXPERIMENT, "\n".join(lines))

    for task, curves in all_curves.items():
        diprs_memory, diprs_quality = curves["DIPRS"][0]
        # DIPRS uses the least GPU memory of every configuration tried
        for method, points in curves.items():
            if method == "DIPRS":
                continue
            for memory, _ in points:
                assert diprs_memory <= memory + 1e-6, (task, method)
        # any coarse configuration that approaches DIPRS's quality needs
        # substantially more GPU memory (the paper's top-left-corner claim)
        for method in ("InfLLM", "StreamingLLM"):
            for memory, quality in curves[method]:
                if quality >= diprs_quality - 2.0:
                    assert memory >= diprs_memory + 1.0, (task, method)
        # and at DIPRS's memory budget no coarse method comes close
        cheapest_coarse_quality = max(
            quality for points in (curves["InfLLM"], curves["StreamingLLM"]) for memory, quality in [points[0]]
        )
        assert diprs_quality > cheapest_coarse_quality + 10.0, task
