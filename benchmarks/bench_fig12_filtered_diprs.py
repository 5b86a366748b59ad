"""Figure 12 — filter-based DIPRS for partial context reuse.

The paper fixes the reused prefix at 40K tokens and grows the stored context
(so the reuse ratio drops from 100% to 20%), then measures the recall and the
latency of the attribute-filtered DIPRS search: recall stays high and latency
grows only slightly with the index size.  The reproduction runs the same
micro-benchmark at a reduced scale and adds the naive predicate-pruning
baseline as an ablation (its recall collapses, which is why the 2-hop
expansion exists).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.common import build_fine_indexes, emit, run_once
from repro.analysis.reporting import format_table
from repro.query.dipr import exact_dipr
from repro.query.filtered import filtered_diprs_search, naive_filtered_diprs_search
from repro.query.types import FilterPredicate, beta_from_alpha
from repro.workloads.generator import ScoringMode, WorkloadSpec, generate_workload

EXPERIMENT = "Figure 12: filter-based DIPRS micro-benchmark"

PREFIX_LENGTH = 2048
REUSE_RATIOS = [1.0, 0.8, 0.6, 0.4, 0.2]
NUM_QUERIES = 8


def _run_micro_benchmark():
    beta = beta_from_alpha(0.012, 32)
    rows = []
    for ratio in REUSE_RATIOS:
        stored_length = int(round(PREFIX_LENGTH / ratio))
        spec = WorkloadSpec(
            name=f"fig12-{int(ratio * 100)}",
            context_length=stored_length,
            num_layers=1,
            num_query_heads=4,
            num_kv_heads=2,
            head_dim=32,
            num_decode_steps=NUM_QUERIES,
            critical_fraction_low=0.01,
            critical_fraction_high=0.04,
            scoring=ScoringMode.RECOVERY,
            seed=77,
        )
        workload = generate_workload(spec)
        context = workload.context
        fine, _ = build_fine_indexes(context)
        index = fine[0][0]
        keys = context.keys(0)[0]
        predicate = FilterPredicate(max_position=PREFIX_LENGTH)

        recalls, naive_recalls, latencies = [], [], []
        for step in range(NUM_QUERIES):
            query = workload.query_for(step, 0, 0)
            truth = set(exact_dipr(keys[:PREFIX_LENGTH], query, beta).indices.tolist())
            start = time.perf_counter()
            result, _ = filtered_diprs_search(
                keys, index.graph, query, beta, [index.entry_point], predicate, capacity_threshold=128
            )
            latencies.append((time.perf_counter() - start) * 1000)
            recalls.append(len(truth & set(result.indices.tolist())) / max(len(truth), 1))
            naive, _ = naive_filtered_diprs_search(
                keys, index.graph, query, beta, [index.entry_point], predicate, capacity_threshold=128
            )
            naive_recalls.append(len(truth & set(naive.indices.tolist())) / max(len(truth), 1))
        rows.append(
            {
                "ratio": ratio,
                "stored_length": stored_length,
                "recall": float(np.mean(recalls)),
                "naive_recall": float(np.mean(naive_recalls)),
                "latency_ms": float(np.mean(latencies)),
            }
        )
    return rows


def test_fig12_filtered_diprs(benchmark):
    rows = run_once(benchmark, _run_micro_benchmark)

    table_rows = [
        [
            f"{int(r['ratio'] * 100)}%",
            r["stored_length"],
            round(r["recall"], 3),
            round(r["naive_recall"], 3),
            round(r["latency_ms"], 2),
        ]
        for r in rows
    ]
    table = format_table(
        ["reuse ratio", "stored context len", "2-hop filtered recall", "naive-prune recall", "latency (ms)"],
        table_rows,
        title=(
            "Paper Figure 12 shape: filtered-DIPRS recall stays high as the reuse ratio drops and latency "
            "grows only slightly; the naive predicate-pruning ablation loses recall."
        ),
    )
    emit(EXPERIMENT, table)

    recalls = [r["recall"] for r in rows]
    latencies = [r["latency_ms"] for r in rows]
    # recall stays high across reuse ratios
    assert min(recalls) > 0.7
    assert recalls[-1] > recalls[0] - 0.25
    # latency grows sub-linearly even though the stored context is 5x larger
    assert latencies[-1] < latencies[0] * 5
    # the 2-hop expansion beats the naive pruning baseline on average
    assert float(np.mean(recalls)) >= float(np.mean([r["naive_recall"] for r in rows]))
