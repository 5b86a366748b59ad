"""DIPRS as a selection strategy.

This wraps AlayaDB's DIPR query processing in the same strategy interface as
the baselines so the benchmark harnesses can compare every method through one
code path.  End-to-end applications should use :class:`repro.core.DB` /
:class:`repro.core.Session`, which add the optimizer, context reuse and the
rest of the database machinery on top of the same search.
"""

from __future__ import annotations

import numpy as np

from ..core.context_store import StoredContext
from ..index.roargraph import RoarGraphConfig, RoarGraphIndex
from ..query.dipr import diprs_search_group
from .base import SelectionOutcome, SelectionStrategy

__all__ = ["DIPRSStrategy"]


class DIPRSStrategy(SelectionStrategy):
    """Dynamic critical-token retrieval via the DIPRS graph search."""

    name = "diprs"

    def __init__(
        self,
        beta: float = 50.0,
        capacity_threshold: int = 128,
        initial_tokens: int = 128,
        recent_tokens: int = 512,
        use_window_seed: bool = True,
        max_tokens: int | None = None,
        roargraph: RoarGraphConfig | None = None,
        reuse_context_indexes: bool = True,
    ):
        self.beta = beta
        self.capacity_threshold = capacity_threshold
        self.initial_tokens = initial_tokens
        self.recent_tokens = recent_tokens
        self.use_window_seed = use_window_seed
        self.max_tokens = max_tokens
        self.roargraph = roargraph or RoarGraphConfig()
        self.reuse_context_indexes = reuse_context_indexes
        self._indexes: dict[tuple[int, int], RoarGraphIndex] = {}
        self._keys: dict[int, np.ndarray] = {}
        self._gqa_group_size = 1

    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        self._indexes.clear()
        self._keys = context.snapshot.keys
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
        seeds = None
        if self.use_window_seed:
            window = self._window(context_length)
            keys = self._keys[layer][kv_head]
            if window.size:
                seeds = [float((keys[window] @ np.asarray(query, dtype=np.float32)).max())]
        (result,), stats = diprs_search_group(
            index.vectors,
            index.graph,
            np.asarray(query, dtype=np.float32)[None, :],
            self.beta,
            [index.entry_point],
            capacity_threshold=self.capacity_threshold,
            window_max_scores=seeds,
            max_tokens=self.max_tokens,
        )
        return SelectionOutcome(positions=result.indices, num_distance_computations=stats.num_distance_computations)

    def resident_positions(self, context_length: int) -> np.ndarray:
        return self._window(context_length)

    def gpu_token_equivalent(self, context_length: int) -> int:
        return int(self._window(context_length).shape[0])
