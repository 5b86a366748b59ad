"""Shared helpers for the benchmark harnesses.

Every harness regenerates one table or figure of the paper.  Results are
(1) printed, (2) appended to the terminal summary shown after the pytest run
(so they survive output capturing), and (3) written to
``benchmarks/results/<experiment>.txt`` for later inspection.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.index.builder import BuildReport, ContextIndexBuilder
from repro.index.roargraph import RoarGraphIndex

RESULTS_DIR = Path(__file__).parent / "results"

#: lines queued for the pytest terminal summary (see benchmarks/conftest.py)
SUMMARY_LINES: list[str] = []


def emit(experiment: str, text: str) -> None:
    """Record one experiment's output: stdout + terminal summary + results file."""
    banner = f"\n================ {experiment} ================"
    block = f"{banner}\n{text}\n"
    print(block)
    SUMMARY_LINES.append(block)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    safe_name = experiment.lower().replace(" ", "_").replace("/", "-")
    (RESULTS_DIR / f"{safe_name}.txt").write_text(text + "\n")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def build_per_query_head(
    builder: ContextIndexBuilder, layer: int, keys: np.ndarray, queries: np.ndarray
) -> tuple[list[RoarGraphIndex], BuildReport]:
    """The layout GQA-based index sharing replaces (Section 7.2): one
    RoarGraph per *query head*, over its KV head's keys and built from that
    head's own query sample — the baseline the sharing benches measure.

    ``keys``/``queries`` are shaped as for ``builder.build_layer``; the
    sampler and its per-layer seed are the builder's.  Returns the indexes
    by query head and a report of the build.
    """
    keys = np.asarray(keys, dtype=np.float32)
    queries = np.asarray(queries, dtype=np.float32)
    num_keys = keys.shape[1]
    group_size = queries.shape[0] // keys.shape[0]
    rng = np.random.default_rng(builder.config.seed + layer)
    start = time.perf_counter()
    indexes, num_samples = [], 0
    for query_head in range(queries.shape[0]):
        sample = builder.sample_queries(queries[query_head : query_head + 1], num_keys, rng)
        num_samples += sample.shape[0]
        index = RoarGraphIndex(builder.config.roargraph)
        index.build(keys[query_head // group_size], query_sample=sample)
        indexes.append(index)
    report = BuildReport(
        num_indexes=len(indexes),
        num_keys=num_keys,
        num_query_samples=num_samples,
        wall_clock_seconds=time.perf_counter() - start,
        index_memory_bytes=sum(index.memory_bytes for index in indexes),
    )
    return indexes, report
