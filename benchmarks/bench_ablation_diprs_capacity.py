"""Ablation — the DIPRS capacity threshold l0 (Algorithm 1's exploration knob).

Algorithm 1 explores without pruning until the candidate list holds ``l0``
entries; afterwards only critical points are appended.  A small ``l0`` risks
stopping before the true maximum (and the far side of the critical cluster)
is reached; a large ``l0`` approaches an exhaustive search.  This ablation
sweeps ``l0`` on an En.QA-style workload and reports the DIPR recall against
the exact range query together with the search work, locating the knee that
the serving configuration (``AlayaDBConfig.dipr_capacity_threshold``) uses.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import build_fine_indexes, emit, run_once
from repro.analysis.reporting import format_table
from repro.index.flat import FlatIndex
from repro.query.dipr import diprs_search_group
from repro.query.types import beta_from_alpha
from repro.workloads.generator import generate_workload
from repro.workloads.infinite_bench import infinite_bench_task

EXPERIMENT = "Ablation: DIPRS capacity threshold l0"

CAPACITY_VALUES = [16, 32, 64, 128, 256, 512]
NUM_QUERIES = 6


def _sweep_capacity():
    spec = infinite_bench_task("En.QA", context_length=4096, num_decode_steps=NUM_QUERIES, seed=401)
    workload = generate_workload(spec)
    context = workload.context
    context.fine_indexes, _ = build_fine_indexes(context)
    beta = beta_from_alpha(0.012, spec.head_dim)
    index = context.fine_indexes[0][0]
    keys = context.keys(0)[0]
    flat = FlatIndex()
    flat.build(keys)

    rows = []
    for capacity in CAPACITY_VALUES:
        recalls, work, sizes = [], [], []
        for step in range(NUM_QUERIES):
            query = np.asarray(workload.query_for(step, 0, 0), dtype=np.float32)[None, :]
            (exact,) = flat.search_range_batch(query, beta)
            truth = set(exact.indices.tolist())
            (result,), stats = diprs_search_group(
                keys, index.graph, query, beta, [index.entry_point], capacity_threshold=capacity
            )
            recalls.append(len(truth & set(result.indices.tolist())) / max(len(truth), 1))
            work.append(stats.num_distance_computations)
            sizes.append(len(result))
        rows.append(
            {
                "capacity": capacity,
                "recall": float(np.mean(recalls)),
                "distance_computations": float(np.mean(work)),
                "selected": float(np.mean(sizes)),
            }
        )
    return rows


def test_ablation_diprs_capacity(benchmark):
    rows = run_once(benchmark, _sweep_capacity)

    table = format_table(
        ["l0 (capacity threshold)", "DIPR recall", "distance computations", "selected tokens"],
        [
            [r["capacity"], round(r["recall"], 3), round(r["distance_computations"], 1), round(r["selected"], 1)]
            for r in rows
        ],
        title=(
            "Algorithm 1's exploration knob: recall rises with l0 at the cost of more distance computations; "
            "the serving default (128-256) sits at the knee."
        ),
    )
    emit(EXPERIMENT, table)

    recalls = [r["recall"] for r in rows]
    work = [r["distance_computations"] for r in rows]
    # recall is (weakly) monotone in l0 and work strictly grows
    assert recalls[-1] >= recalls[0]
    assert all(b >= a * 0.95 for a, b in zip(recalls, recalls[1:]))
    assert work[-1] > work[0]
    # the serving default reaches high recall without exhaustive work
    default_row = next(r for r in rows if r["capacity"] == 128)
    assert default_row["recall"] > 0.8
    assert default_row["distance_computations"] < keys_count_upper_bound(rows)


def keys_count_upper_bound(rows) -> float:
    """The work of an exhaustive scan (upper bound for any sensible l0)."""
    return 4096.0
