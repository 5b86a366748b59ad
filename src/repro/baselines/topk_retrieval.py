"""Top-k retrieval baseline (RetrievalAttention-style fine-grained retrieval).

A RoarGraph index per KV head retrieves a *fixed* number of critical tokens
per head per step.  This is the strongest prior method in the paper's
comparison — the one DIPR improves on by making the number of retrieved
tokens dynamic (k=100 loses quality on token-hungry heads, k=2000 blows the
latency SLO; see Table 5).
"""

from __future__ import annotations

import numpy as np

from ..core.context_store import StoredContext
from ..index.roargraph import RoarGraphConfig, RoarGraphIndex
from ..query.topk import graph_topk_search
from .base import SelectionOutcome, SelectionStrategy

__all__ = ["TopKRetrievalStrategy"]


class TopKRetrievalStrategy(SelectionStrategy):
    """Fixed top-k retrieval over fine-grained graph indexes."""

    name = "topk"

    def __init__(
        self,
        k: int = 100,
        initial_tokens: int = 128,
        recent_tokens: int = 512,
        roargraph: RoarGraphConfig | None = None,
        reuse_context_indexes: bool = True,
    ):
        self.k = k
        self.initial_tokens = initial_tokens
        self.recent_tokens = recent_tokens
        self.roargraph = roargraph or RoarGraphConfig()
        self.reuse_context_indexes = reuse_context_indexes
        self._indexes: dict[tuple[int, int], RoarGraphIndex] = {}
        self._gqa_group_size = 1
        self.name = f"top{k}"

    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        self._indexes.clear()
        for layer, keys in context.snapshot.keys.items():
            num_kv_heads = keys.shape[0]
            self._gqa_group_size = max(1, num_query_heads // num_kv_heads)
            stored = context.fine_indexes.get(layer) if self.reuse_context_indexes else None
            for kv_head in range(num_kv_heads):
                if stored is not None:
                    self._indexes[(layer, kv_head)] = stored[kv_head]
                    continue
                sample = context.query_samples.get(layer)
                index = RoarGraphIndex(self.roargraph)
                index.build(keys[kv_head], query_sample=None if sample is None else sample[kv_head])
                self._indexes[(layer, kv_head)] = index

    def _window(self, context_length: int) -> np.ndarray:
        initial = np.arange(0, min(self.initial_tokens, context_length), dtype=np.int64)
        recent_start = max(0, context_length - self.recent_tokens)
        recent = np.arange(recent_start, context_length, dtype=np.int64)
        return np.unique(np.concatenate([initial, recent]))

    def select(self, layer: int, query_head: int, query: np.ndarray, context_length: int) -> SelectionOutcome:
        kv_head = query_head // self._gqa_group_size
        index = self._indexes.get((layer, kv_head))
        if index is None:
            return SelectionOutcome(positions=np.empty(0, dtype=np.int64))
        result = graph_topk_search(
            index.vectors, index.graph, query, self.k, [index.entry_point]
        )
        return SelectionOutcome(positions=result.indices, num_distance_computations=result.num_distance_computations)

    def resident_positions(self, context_length: int) -> np.ndarray:
        return self._window(context_length)

    def gpu_token_equivalent(self, context_length: int) -> int:
        return int(self._window(context_length).shape[0]) + self.k
