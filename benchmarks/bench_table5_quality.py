"""Table 5 — generation quality of sparse-attention methods on ∞-Bench.

The paper compares Full Attention, InfLLM, StreamingLLM, Top-100, Top-2000
and DIPRS on 8 ∞-Bench tasks under the TPOT SLO (0.24 s).  The reproduction
evaluates the same six methods on the synthetic task equivalents and reports

* the task quality score (evidence retrieval / recovery, 0-100),
* whether the method meets the SLO at the *paper-scale* context length
  (modelled with the Llama-3-8B cost model), and
* how many tokens per head the method retrieved.

Expected shape (matching the paper): StreamingLLM collapses on retrieval
tasks, InfLLM is mid-pack, Top-100 loses quality on token-hungry tasks,
Top-2000 matches DIPRS quality but violates the SLO, and DIPRS gets the best
average quality among SLO-compliant sparse methods while full attention
violates the SLO on the longest tasks.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import build_fine_indexes, emit, run_once
from repro.analysis.reporting import format_table
from repro.baselines import (
    DIPRSStrategy,
    FullAttentionStrategy,
    InfLLMStrategy,
    StreamingLLMStrategy,
    TopKRetrievalStrategy,
)
from repro.baselines.base import SelectionOutcome, SelectionStrategy
from repro.query.types import beta_from_alpha
from repro.scheduler import SLO
from repro.simulator.cost_model import CostModel
from repro.workloads.evaluation import evaluate_strategy
from repro.workloads.infinite_bench import infinite_bench_names, infinite_bench_task
from repro.workloads.generator import generate_workload

EXPERIMENT = "Table 5: generation quality on Infinity-Bench"

CONTEXT_LENGTH = 6144
DECODE_STEPS = 3

# The paper's method configurations are defined for ~44K-192K token contexts
# (window [128+512], InfLLM [128+4K]+4K, StreamingLLM [128]+8K).  The synthetic
# contexts are ~16x shorter, so window/block budgets that are *fractions* of
# the context (InfLLM's cached blocks, StreamingLLM's recent window) are scaled
# by the same factor, while budgets the paper argues are context-independent
# (the retrieval k, the [128+512] retrieval window) are kept absolute.
PAPER_REFERENCE_CONTEXT = 100_000
SCALE = CONTEXT_LENGTH / PAPER_REFERENCE_CONTEXT
WINDOW_INITIAL = 128
WINDOW_RECENT = 512


class _ExactTopK(SelectionStrategy):
    """Exact top-k over the stored keys (used for the k=2000 configuration,
    where any sensible executor scans instead of walking a graph)."""

    def __init__(self, k: int):
        self.k = k
        self.name = f"top{k}"
        self._keys = None
        self._group = 1

    def prepare(self, context, num_query_heads):
        self._keys = context.snapshot.keys
        self._group = num_query_heads // context.snapshot.keys[0].shape[0]

    def select(self, layer, query_head, query, context_length):
        keys = self._keys[layer][query_head // self._group]
        scores = keys @ query
        k = min(self.k, keys.shape[0])
        top = np.argpartition(-scores, k - 1)[:k]
        return SelectionOutcome(positions=top, num_distance_computations=keys.shape[0])

    def resident_positions(self, context_length):
        initial = np.arange(0, min(WINDOW_INITIAL, context_length), dtype=np.int64)
        recent = np.arange(max(0, context_length - WINDOW_RECENT), context_length, dtype=np.int64)
        return np.unique(np.concatenate([initial, recent]))

    def gpu_token_equivalent(self, context_length):
        return int(self.resident_positions(context_length).shape[0]) + self.k


def _methods(head_dim: int):
    beta = beta_from_alpha(0.012, head_dim)
    infllm_retrieved_blocks = max(2, int(round(4096 * SCALE / 128)))
    infllm_recent = max(64, int(round(4096 * SCALE)))
    streaming_recent = max(128, int(round(8192 * SCALE)))
    return {
        "Full Attention": FullAttentionStrategy(),
        "InfLLM": InfLLMStrategy(
            block_size=128,
            num_retrieved_blocks=infllm_retrieved_blocks,
            initial_tokens=WINDOW_INITIAL,
            recent_tokens=infllm_recent,
        ),
        "StreamingLLM": StreamingLLMStrategy(initial_tokens=WINDOW_INITIAL, recent_tokens=streaming_recent),
        "Top100": TopKRetrievalStrategy(
            k=100, initial_tokens=WINDOW_INITIAL, recent_tokens=WINDOW_RECENT, reuse_context_indexes=True
        ),
        "Top2000": _ExactTopK(k=2000),
        "DIPRS": DIPRSStrategy(
            beta=beta,
            capacity_threshold=256,
            initial_tokens=WINDOW_INITIAL,
            recent_tokens=WINDOW_RECENT,
            reuse_context_indexes=True,
        ),
    }


def _evaluate_all_tasks():
    cost = CostModel()
    slo = SLO()
    results: dict[str, dict[str, dict]] = {}
    for task_name in infinite_bench_names():
        spec = infinite_bench_task(task_name, context_length=CONTEXT_LENGTH, num_decode_steps=DECODE_STEPS)
        workload = generate_workload(spec)
        # build the fine-grained indexes once and share them across methods
        context = workload.context
        context.fine_indexes, _ = build_fine_indexes(context)
        results[task_name] = {}
        for method_name, strategy in _methods(spec.head_dim).items():
            evaluation = evaluate_strategy(strategy, workload)
            is_full = method_name == "Full Attention"
            if is_full:
                tpot = evaluation.modeled_full_tpot_seconds(cost, spec.paper_context_length)
            elif method_name == "Top2000":
                # modelled as a graph search for 2000 results (ef ~ 4k), the
                # paper's configuration; the scan dc measured here would be
                # even slower at paper scale.
                tpot = cost.sparse_decode_seconds(
                    num_selected_tokens=2000 + evaluation.resident_tokens,
                    num_distance_computations=4 * 2000,
                )
            else:
                tpot = evaluation.modeled_tpot_seconds(cost, spec.paper_context_length)
            results[task_name][method_name] = {
                "quality": evaluation.quality,
                "selected": evaluation.mean_selected_per_head,
                "tpot": tpot,
                "meets_slo": slo.check_tpot(tpot),
            }
    return results


def test_table5_quality(benchmark):
    results = run_once(benchmark, _evaluate_all_tasks)

    task_names = infinite_bench_names()
    method_names = ["Full Attention", "InfLLM", "StreamingLLM", "Top100", "Top2000", "DIPRS"]
    rows = []
    for method_name in method_names:
        qualities = [results[t][method_name]["quality"] for t in task_names]
        meets = all(results[t][method_name]["meets_slo"] for t in task_names)
        tpot = float(np.max([results[t][method_name]["tpot"] for t in task_names]))
        selected = float(np.mean([results[t][method_name]["selected"] for t in task_names]))
        rows.append(
            [method_name, "yes" if meets else "NO", round(tpot, 3), round(selected, 1)]
            + [round(q, 1) for q in qualities]
            + [round(float(np.mean(qualities)), 1)]
        )
    table = format_table(
        ["method", "SLO", "max TPOT (s)", "sel/head"] + task_names + ["Avg."],
        rows,
        title=(
            "Paper Table 5 shape: DIPRS meets the SLO with the best average quality among sparse methods; "
            "Top2000 matches quality but violates the SLO; Full Attention violates the SLO on long tasks; "
            "StreamingLLM collapses on retrieval tasks."
        ),
    )
    emit(EXPERIMENT, table)

    averages = {
        method: float(np.mean([results[t][method]["quality"] for t in task_names])) for method in method_names
    }
    slo_ok = {
        method: all(results[t][method]["meets_slo"] for t in task_names) for method in method_names
    }
    retrieval_tasks = ["Retr.KV", "Retr.P", "Retr.N"]

    # --- paper-shape assertions -------------------------------------------------
    # DIPRS: SLO met, best average among SLO-compliant sparse methods
    assert slo_ok["DIPRS"]
    assert averages["DIPRS"] >= averages["Top100"] - 2.0
    assert averages["DIPRS"] > averages["InfLLM"]
    assert averages["DIPRS"] > averages["StreamingLLM"] + 20
    # Top2000 reaches DIPRS-level quality but violates the SLO
    assert not slo_ok["Top2000"]
    assert averages["Top2000"] >= averages["Top100"]
    # Full attention has the best quality but violates the SLO at paper scale
    assert not slo_ok["Full Attention"]
    assert averages["Full Attention"] >= max(v for k, v in averages.items() if k != "Full Attention") - 1e-6
    # StreamingLLM fails the retrieval tasks (its window never reaches the evidence)
    streaming_retrieval = float(np.mean([results[t]["StreamingLLM"]["quality"] for t in retrieval_tasks]))
    assert streaming_retrieval < 40.0
    assert results["Retr.KV"]["StreamingLLM"]["quality"] < 10.0
    # DIPRS retrieves far fewer tokens than Top2000
    diprs_selected = float(np.mean([results[t]["DIPRS"]["selected"] for t in task_names]))
    assert diprs_selected < 2000 / 3
