"""Context index construction (Section 7.2 of the paper).

``ContextIndexBuilder`` turns the KV cache of a long context into the
fine-grained RoarGraph indexes AlayaDB searches at decode time, with the
paper's **GQA-based index sharing**: with grouped-query attention, the query
heads in one group all attend to the same KV head, so one RoarGraph per *KV
head*, built from query vectors sampled across the whole group, serves every
query head of that group.  That is the only layout: a layer's fine indexes
are a list indexed by KV head, and a query head reads the index of its KV
head.  Which historical queries form the sample is one rule, applied as
query rows arrive (:meth:`IndexBuildConfig.sampled_positions`): a stored
context keeps the sampled rows of its positions, and the builder reads that
sample whole.

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


_WEYL_STEP = np.uint64(0x9E3779B9)
"""``⌊2³² / φ⌋``: position ``x`` maps to ``frac(x / φ)`` in 32-bit fixed point."""
_LOW_32_BITS = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class IndexBuildConfig:
    """Options controlling index construction, and the one query-sample rule
    at their ratio."""

    query_sample_ratio: float = 0.4
    """Fraction of query vectors (relative to the number of keys) sampled for
    the bipartite stage — the paper uses 40%."""

    roargraph: RoarGraphConfig = field(default_factory=RoarGraphConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.query_sample_ratio <= 1.0:
            raise ValueError(f"query_sample_ratio must be in (0, 1], got {self.query_sample_ratio}")

    def sampled_positions(self, layer: int, start: int, stop: int) -> np.ndarray:
        """The sorted positions in ``[start, stop)`` whose query ``layer``
        samples — the one membership rule: ``i`` is sampled iff
        ``frac((i + 1 + 7919·layer) / φ) < query_sample_ratio``.  A pure
        function of ``(layer, i)``, so a row's membership is known when it
        arrives; the Weyl sequence has low discrepancy, so every window of
        ``w`` positions holds ``ratio · w`` of them to within a few."""
        offset = 1 + 7919 * layer
        codes = np.arange(start + offset, stop + offset, dtype=np.uint64) * _WEYL_STEP
        return ((codes & _LOW_32_BITS) < int(self.query_sample_ratio * 2**32)).nonzero()[0] + start

    def sample_queries(self, queries: np.ndarray, num_groups: int, layer: int, start: int) -> np.ndarray:
        """The rule's rows of ``queries``, ``(num_heads, r, head_dim)`` of
        positions ``[start, start + r)`` in GQA order (a group's heads
        adjacent): each sampled position gives one row per group, from
        in-group head ``position mod group_size``.  Returns ``(num_groups,
        m, head_dim)`` in position order."""
        num_heads, rows, head_dim = queries.shape
        group_size = num_heads // num_groups
        positions = self.sampled_positions(layer, start, start + rows)
        grouped = queries.reshape(num_groups, group_size, rows, head_dim)
        return grouped[:, positions % group_size, positions - start]

    def cut_sample(
        self, sample: np.ndarray, layer: int, num_tokens: int, start: int, stop: int
    ) -> np.ndarray | None:
        """The rows of ``sample`` — the rule's rows of positions ``[0,
        num_tokens)`` — whose positions fall in ``[start, stop)``.  A sample
        whose row count says it is not (stored under another ratio, or
        planted) has no positions to cut by: ``None``, and a build over the
        cut reads the keys."""
        if sample.shape[1] != self.sampled_positions(layer, 0, num_tokens).size:
            return None
        first = self.sampled_positions(layer, 0, start).size
        return sample[:, first : first + self.sampled_positions(layer, start, stop).size]


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

    def build_layer(
        self, keys: np.ndarray, sample: np.ndarray
    ) -> tuple[list[RoarGraphIndex], BuildReport]:
        """Build the indexes of one layer, one per KV head.

        ``keys``: ``(num_kv_heads, n, head_dim)`` — the cached key vectors.
        ``sample``: ``(num_kv_heads, m, head_dim)`` — the layer's query
        sample (:meth:`IndexBuildConfig.sample_queries`), read whole: KV
        head ``h`` is built from ``sample[h]``.
        """
        keys = np.asarray(keys, dtype=np.float32)
        sample = np.asarray(sample, dtype=np.float32)
        num_kv_heads, num_keys, _ = keys.shape
        if sample.ndim != 3 or sample.shape[0] != num_kv_heads:
            raise ValueError(
                f"query sample of shape {sample.shape} is not one group per KV head "
                f"(num_kv_heads={num_kv_heads})"
            )

        start = time.perf_counter()
        indexes: list[RoarGraphIndex] = []
        for kv_head in range(num_kv_heads):
            index = RoarGraphIndex(self.config.roargraph)
            index.build(keys[kv_head], query_sample=sample[kv_head])
            indexes.append(index)
        wall_clock = time.perf_counter() - start

        report = BuildReport(
            num_indexes=len(indexes),
            num_keys=num_keys,
            num_query_samples=num_kv_heads * sample.shape[1],
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
