"""Figure 11 — index construction acceleration (GPU build + GQA sharing).

The paper builds RoarGraph indexes over contexts of 40K-200K tokens and shows
(a) construction time: GPU kNN construction is 3-15x faster than the CPU
baseline, and GQA-based index sharing raises the total speedup to 12-62x;
(b) memory: sharing one index per KV-head group shrinks index memory ~4x.

The reproduction builds real indexes at reduced context lengths (the
substrate is pure Python) per query head and shared per KV-head group for
the *measured* wall-clock and memory columns.  There is no GPU to build on,
so the GPU speedup factors come from the calibrated cost model's
construction time at the paper's context lengths.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from benchmarks.common import build_per_query_head, emit, run_once, sample_planted
from repro.analysis.reporting import format_table
from repro.index.builder import ContextIndexBuilder
from repro.simulator.cost_model import CostModel

EXPERIMENT = "Figure 11: index construction time and memory"

MEASURED_LENGTHS = [2048, 4096, 8192]
PAPER_LENGTHS = [40_000, 80_000, 120_000, 160_000, 200_000]
NUM_KV_HEADS = 2
NUM_QUERY_HEADS = 8
HEAD_DIM = 32


def _build_variants():
    rng = np.random.default_rng(0)
    builder = ContextIndexBuilder()
    # variant -> (build, query-sample groups: one per index)
    variants = {
        "per query head": (partial(build_per_query_head, builder), NUM_QUERY_HEADS),
        "shared": (builder.build_layer, NUM_KV_HEADS),
    }
    measured = {name: [] for name in variants}
    for length in MEASURED_LENGTHS:
        keys = rng.normal(size=(NUM_KV_HEADS, length, HEAD_DIM)).astype(np.float32)
        queries = rng.normal(size=(NUM_QUERY_HEADS, max(64, length // 4), HEAD_DIM)).astype(np.float32)
        for name, (build, num_groups) in variants.items():
            sample = sample_planted(queries, num_groups, length)
            _, report = build(keys, sample)
            measured[name].append(report)

    # paper-scale modelled construction times (one layer of Llama-3-8B: 32
    # query heads, 8 KV heads, 40% query sampling)
    cost = CostModel()
    modelled = {name: [] for name in ("CPU (per query head)", "GPU (per query head)", "GPU + share")}
    for length in PAPER_LENGTHS:
        num_queries = int(0.4 * length)
        modelled["CPU (per query head)"].append(
            cost.index_build_seconds(length, num_queries, num_indexes=32, on_gpu=False)
        )
        modelled["GPU (per query head)"].append(
            cost.index_build_seconds(length, num_queries, num_indexes=32, on_gpu=True)
        )
        modelled["GPU + share"].append(
            cost.index_build_seconds(length, num_queries, num_indexes=8, on_gpu=True)
        )
    return measured, modelled


def test_fig11_index_construction(benchmark):
    measured, modelled = run_once(benchmark, _build_variants)

    rows = []
    for i, length in enumerate(MEASURED_LENGTHS):
        for name, reports in measured.items():
            report = reports[i]
            rows.append(
                [
                    length,
                    name,
                    report.num_indexes,
                    round(report.wall_clock_seconds, 2),
                    round(report.index_memory_bytes / 2**20, 1),
                ]
            )
    lines = [
        format_table(
            ["context len", "variant", "# indexes", "build wall-clock (s)", "index memory (MiB)"],
            rows,
            title="Measured (substrate scale): real RoarGraph builds per variant",
        )
    ]

    model_rows = []
    for i, length in enumerate(PAPER_LENGTHS):
        cpu = modelled["CPU (per query head)"][i]
        gpu = modelled["GPU (per query head)"][i]
        shared = modelled["GPU + share"][i]
        model_rows.append(
            [
                f"{length // 1000}K",
                round(cpu, 1),
                round(gpu, 1),
                round(shared, 1),
                f"{cpu / gpu:.1f}x",
                f"{cpu / shared:.1f}x",
            ]
        )
    lines.append("")
    lines.append(
        format_table(
            ["context", "CPU (s)", "GPU (s)", "GPU+share (s)", "GPU speedup", "GPU+share speedup"],
            model_rows,
            title="Modelled at paper scale (Llama-3-8B layer): paper reports 3-15x (GPU) and 12-62x (GPU+share)",
        )
    )
    emit(EXPERIMENT, "\n".join(lines))

    # memory: sharing reduces the number of indexes and their memory ~4x
    for i in range(len(MEASURED_LENGTHS)):
        per_head = measured["per query head"][i]
        shared = measured["shared"][i]
        assert shared.num_indexes * 4 == per_head.num_indexes
        assert shared.index_memory_bytes < per_head.index_memory_bytes / 2.5

    # modelled speedups land in the paper's ranges
    for i in range(len(PAPER_LENGTHS)):
        cpu = modelled["CPU (per query head)"][i]
        gpu = modelled["GPU (per query head)"][i]
        shared = modelled["GPU + share"][i]
        assert 3.0 <= cpu / gpu <= 15.0
        assert 12.0 <= cpu / shared <= 62.0
