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

from repro.core.context_store import StoredContext
from repro.index.builder import BuildReport, ContextIndexBuilder, IndexBuildConfig
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


def sample_planted(queries: np.ndarray, num_groups: int, num_keys: int, layer: int = 0) -> np.ndarray:
    """The sampling rule over planted query rows, at the row count a context
    of ``num_keys`` tokens samples.

    ``queries`` is regrouped into ``num_groups`` groups of ``m`` rows (the
    KV heads, or the query heads for a per-query-head build), and the rows
    are sampled as positions ``[0, m)`` at rate ``min(1, ratio · num_keys /
    m)``: about ``ratio · num_keys`` rows per group, all of them when the
    group holds fewer.  Returns ``(num_groups, m', head_dim)``.
    """
    groups = np.asarray(queries, dtype=np.float32).reshape(num_groups, -1, queries.shape[-1])
    rate = min(1.0, IndexBuildConfig().query_sample_ratio * num_keys / groups.shape[1])
    return IndexBuildConfig(query_sample_ratio=rate).sample_queries(groups, num_groups, layer, 0)


def build_fine_indexes(context: StoredContext) -> tuple[dict[int, list[RoarGraphIndex]], BuildReport]:
    """A context's fine indexes as ``DB`` builds them: each layer's
    RoarGraphs over its keys, from the sampling rule over the context's
    planted historical queries (default :class:`IndexBuildConfig`)."""
    keys = context.snapshot.keys
    samples = {
        layer: sample_planted(queries, keys[layer].shape[0], context.num_tokens, layer)
        for layer, queries in context.query_samples.items()
    }
    return ContextIndexBuilder().build_context(keys, samples)


def build_per_query_head(
    builder: ContextIndexBuilder, keys: np.ndarray, sample: np.ndarray
) -> tuple[list[RoarGraphIndex], BuildReport]:
    """The layout GQA-based index sharing replaces (Section 7.2): one
    RoarGraph per *query head*, over its KV head's keys and built from that
    head's own query sample — the baseline the sharing benches measure.

    ``sample`` is ``(num_query_heads, m, head_dim)``: :func:`sample_planted`
    with a group per query head.  Returns the indexes by query head and a report of
    the build.
    """
    keys = np.asarray(keys, dtype=np.float32)
    group_size = sample.shape[0] // keys.shape[0]
    start = time.perf_counter()
    indexes = []
    for query_head, head_sample in enumerate(sample):
        index = RoarGraphIndex(builder.config.roargraph)
        index.build(keys[query_head // group_size], query_sample=head_sample)
        indexes.append(index)
    report = BuildReport(
        num_indexes=len(indexes),
        num_keys=keys.shape[1],
        num_query_samples=sample.shape[0] * sample.shape[1],
        wall_clock_seconds=time.perf_counter() - start,
        index_memory_bytes=sum(index.memory_bytes for index in indexes),
    )
    return indexes, report
