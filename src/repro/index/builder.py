"""Context index construction (Section 7.2 of the paper).

``ContextIndexBuilder`` turns the KV cache of a long context into the
fine-grained RoarGraph indexes AlayaDB searches at decode time, with the
paper's **GQA-based index sharing**: with grouped-query attention, the query
heads in one group all attend to the same KV head, so one RoarGraph per *KV
head*, built from query vectors sampled across the whole group, serves every
query head of that group.  That is the only layout: a layer's fine indexes
are a list indexed by KV head, and a query head reads the index of its KV
head.

The paper's other construction optimization, the GPU (cuVS) kNN stage, is
not executed here: the kNN stage runs on the CPU
(:mod:`repro.index.knn_graph`), and a :class:`BuildReport` carries only what
was measured — wall-clock time and index memory.  The Figure 11 benchmark
prices the GPU speedup at paper scale on its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .roargraph import RoarGraphConfig, RoarGraphIndex

__all__ = ["IndexBuildConfig", "BuildReport", "ContextIndexBuilder"]


@dataclass(frozen=True)
class IndexBuildConfig:
    """Options controlling index construction."""

    query_sample_ratio: float = 0.4
    """Fraction of query vectors (relative to the number of keys) sampled for
    the bipartite stage — the paper uses 40%."""

    roargraph: RoarGraphConfig = field(default_factory=RoarGraphConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.query_sample_ratio <= 1.0:
            raise ValueError(f"query_sample_ratio must be in (0, 1], got {self.query_sample_ratio}")


@dataclass
class BuildReport:
    """What one build produced and what it cost."""

    num_indexes: int
    num_keys: int
    num_query_samples: int
    wall_clock_seconds: float
    index_memory_bytes: int


class ContextIndexBuilder:
    """Builds one RoarGraph per KV head over the key vectors of a context."""

    def __init__(self, config: IndexBuildConfig | None = None):
        self.config = config or IndexBuildConfig()

    def sample_queries(self, queries: np.ndarray, num_keys: int, rng: np.random.Generator) -> np.ndarray:
        """Sample query vectors for the bipartite stage.

        ``queries`` is ``(num_heads_in_group, m, head_dim)``; samples are drawn
        uniformly across the group so a shared index still captures every
        query head's distribution.
        """
        flat = queries.reshape(-1, queries.shape[-1])
        target = max(1, int(self.config.query_sample_ratio * num_keys))
        if flat.shape[0] <= target:
            return flat
        chosen = rng.choice(flat.shape[0], size=target, replace=False)
        return flat[chosen]

    def build_layer(
        self,
        layer: int,
        keys: np.ndarray,
        queries: np.ndarray,
    ) -> tuple[list[RoarGraphIndex], BuildReport]:
        """Build the indexes of one layer, one per KV head.

        ``keys``: ``(num_kv_heads, n, head_dim)`` — the cached key vectors.
        ``queries``: ``(num_query_heads, m, head_dim)`` — historical query
        vectors of the same layer (the prefill queries in practice).
        """
        keys = np.asarray(keys, dtype=np.float32)
        queries = np.asarray(queries, dtype=np.float32)
        num_kv_heads, num_keys, _ = keys.shape
        num_query_heads = queries.shape[0]
        if num_query_heads % num_kv_heads != 0:
            raise ValueError(
                f"num_query_heads={num_query_heads} not a multiple of num_kv_heads={num_kv_heads}"
            )
        group_size = num_query_heads // num_kv_heads
        rng = np.random.default_rng(self.config.seed + layer)

        start = time.perf_counter()
        indexes: list[RoarGraphIndex] = []
        total_query_samples = 0
        for kv_head in range(num_kv_heads):
            group = queries[kv_head * group_size : (kv_head + 1) * group_size]
            sample = self.sample_queries(group, num_keys, rng)
            total_query_samples += sample.shape[0]
            index = RoarGraphIndex(self.config.roargraph)
            index.build(keys[kv_head], query_sample=sample)
            indexes.append(index)
        wall_clock = time.perf_counter() - start

        report = BuildReport(
            num_indexes=len(indexes),
            num_keys=num_keys,
            num_query_samples=total_query_samples,
            wall_clock_seconds=wall_clock,
            index_memory_bytes=sum(index.memory_bytes for index in indexes),
        )
        return indexes, report

    def build_context(
        self,
        keys_per_layer: dict[int, np.ndarray],
        queries_per_layer: dict[int, np.ndarray],
    ) -> tuple[dict[int, list[RoarGraphIndex]], BuildReport]:
        """Build indexes for every layer of a context; returns an aggregate report."""
        if set(keys_per_layer) != set(queries_per_layer):
            raise ValueError("keys and queries must cover the same layers")
        layer_indexes: dict[int, list[RoarGraphIndex]] = {}
        reports: list[BuildReport] = []
        for layer in sorted(keys_per_layer):
            built, report = self.build_layer(layer, keys_per_layer[layer], queries_per_layer[layer])
            layer_indexes[layer] = built
            reports.append(report)
        aggregate = BuildReport(
            num_indexes=sum(r.num_indexes for r in reports),
            num_keys=reports[0].num_keys if reports else 0,
            num_query_samples=sum(r.num_query_samples for r in reports),
            wall_clock_seconds=sum(r.wall_clock_seconds for r in reports),
            index_memory_bytes=sum(r.index_memory_bytes for r in reports),
        )
        return layer_indexes, aggregate
