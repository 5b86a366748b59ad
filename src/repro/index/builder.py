"""Context index construction (Section 7.2 of the paper).

``ContextIndexBuilder`` turns the KV cache of a long context into the
fine-grained RoarGraph indexes AlayaDB searches at decode time, with the
paper's **GQA-based index sharing**: with grouped-query attention, the query
heads in one group all attend to the same KV head, so one RoarGraph per *KV
head*, built from query vectors sampled across the whole group, serves every
query head of that group.  That is the only layout: a layer's fine indexes
are a list indexed by KV head, and a query head reads the index of its KV
head.  The query sample is drawn once, by :func:`draw_query_sample`, when a
snapshot is made; the builder reads the stored sample as it is.

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

__all__ = ["IndexBuildConfig", "BuildReport", "ContextIndexBuilder", "draw_query_sample"]


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

    def sample_rows(self, num_keys: int) -> int:
        """Query-sample rows per KV head that a fine build over ``num_keys``
        keys reads: ``max(1, ⌊query_sample_ratio · num_keys⌋)``.  The one
        rule the draw, the build and a shard's slice of its parent's sample
        all follow."""
        return max(1, int(self.query_sample_ratio * num_keys))


@dataclass
class BuildReport:
    """What one build produced and what it cost."""

    num_indexes: int
    num_keys: int
    num_query_samples: int
    wall_clock_seconds: float
    index_memory_bytes: int


def draw_query_sample(
    queries: np.ndarray, num_groups: int, num_keys: int, config: IndexBuildConfig, layer: int
) -> np.ndarray:
    """The query sample a fine build of ``layer`` reads — the one draw.

    ``queries`` lists historical query vectors by head, ``(num_heads, m,
    head_dim)``, in GQA order: the heads of one KV head are adjacent, or
    already concatenated per KV head.  They are split into ``num_groups``
    groups (the KV heads; the query heads for a per-query-head build), and
    from each group ``query_sample_ratio · num_keys`` vectors are drawn
    uniformly without replacement, all of them when the group has no more.
    The draw is seeded by ``config.seed + layer``.  Returns ``(num_groups,
    m', head_dim)`` float32.  Drawn rows come back in shuffled order, so a
    prefix of a drawn group is itself a uniform sample.
    """
    queries = np.asarray(queries, dtype=np.float32)
    num_heads = queries.shape[0]
    if num_heads % num_groups and num_groups % num_heads:
        raise ValueError(f"{num_heads} heads of queries do not form {num_groups} groups")
    groups = queries.reshape(num_groups, -1, queries.shape[-1])
    target = config.sample_rows(num_keys)
    if groups.shape[1] <= target:
        return groups
    rng = np.random.default_rng(config.seed + layer)
    return np.stack(
        [group[rng.choice(group.shape[0], size=target, replace=False)] for group in groups]
    )


class ContextIndexBuilder:
    """Builds one RoarGraph per KV head over the key vectors of a context."""

    def __init__(self, config: IndexBuildConfig | None = None):
        self.config = config or IndexBuildConfig()

    def build_layer(
        self, keys: np.ndarray, sample: np.ndarray
    ) -> tuple[list[RoarGraphIndex], BuildReport]:
        """Build the indexes of one layer, one per KV head.

        ``keys``: ``(num_kv_heads, n, head_dim)`` — the cached key vectors.
        ``sample``: ``(num_kv_heads, m, head_dim)`` — the layer's query
        sample (:func:`draw_query_sample`).  KV head ``h`` is built from
        ``sample[h][: config.sample_rows(n)]``: all of a context's own
        sample, and all of a shard's, which holds that prefix of its
        parent's.
        """
        keys = np.asarray(keys, dtype=np.float32)
        sample = np.asarray(sample, dtype=np.float32)
        num_kv_heads, num_keys, _ = keys.shape
        if sample.ndim != 3 or sample.shape[0] != num_kv_heads:
            raise ValueError(
                f"query sample of shape {sample.shape} is not one group per KV head "
                f"(num_kv_heads={num_kv_heads})"
            )
        rows = self.config.sample_rows(num_keys)

        start = time.perf_counter()
        indexes: list[RoarGraphIndex] = []
        for kv_head in range(num_kv_heads):
            index = RoarGraphIndex(self.config.roargraph)
            index.build(keys[kv_head], query_sample=sample[kv_head, :rows])
            indexes.append(index)
        wall_clock = time.perf_counter() - start

        report = BuildReport(
            num_indexes=len(indexes),
            num_keys=num_keys,
            num_query_samples=num_kv_heads * min(rows, sample.shape[1]),
            wall_clock_seconds=wall_clock,
            index_memory_bytes=sum(index.memory_bytes for index in indexes),
        )
        return indexes, report

    def build_context(
        self,
        keys_per_layer: dict[int, np.ndarray],
        samples_per_layer: dict[int, np.ndarray],
    ) -> tuple[dict[int, list[RoarGraphIndex]], BuildReport]:
        """Build indexes for every layer of a context; returns an aggregate report."""
        if set(keys_per_layer) != set(samples_per_layer):
            raise ValueError("keys and query samples must cover the same layers")
        layer_indexes: dict[int, list[RoarGraphIndex]] = {}
        reports: list[BuildReport] = []
        for layer in sorted(keys_per_layer):
            built, report = self.build_layer(keys_per_layer[layer], samples_per_layer[layer])
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
