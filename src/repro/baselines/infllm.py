"""InfLLM baseline: coarse block retrieval with GPU-resident blocks.

The context is split into fixed-size blocks summarised by representative
vectors; at decode time the query scores the representatives and the top
blocks (all their tokens) join the window in the attention computation.
Block retrieval is cheap, but precision is block-granular and the selected
blocks must live in GPU memory — the memory/quality trade-off Figure 9 of the
paper explores by varying the number of cached blocks.
"""

from __future__ import annotations

import numpy as np

from ..core.context_store import StoredContext
from ..index.coarse import CoarseBlockIndex
from .base import SelectionOutcome, SelectionStrategy

__all__ = ["InfLLMStrategy"]


class InfLLMStrategy(SelectionStrategy):
    """Block-level retrieval (coarse-grained sparse attention)."""

    name = "infllm"

    def __init__(
        self,
        block_size: int = 128,
        num_retrieved_blocks: int = 32,
        initial_tokens: int = 128,
        recent_tokens: int = 4096,
        num_representatives: int = 4,
    ):
        self.block_size = block_size
        self.num_retrieved_blocks = num_retrieved_blocks
        self.initial_tokens = initial_tokens
        self.recent_tokens = recent_tokens
        self.num_representatives = num_representatives
        self._indexes: dict[tuple[int, int], CoarseBlockIndex] = {}
        self._gqa_group_size = 1

    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        self._indexes.clear()
        for layer, keys in context.snapshot.keys.items():
            num_kv_heads = keys.shape[0]
            self._gqa_group_size = max(1, num_query_heads // num_kv_heads)
            for kv_head in range(num_kv_heads):
                index = CoarseBlockIndex(block_size=self.block_size, num_representatives=self.num_representatives)
                index.build(keys[kv_head])
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
        block_scores = index.block_scores_batch(np.asarray(query, dtype=np.float32)[None, :])
        (top,) = index.top_blocks_from_scores(block_scores, self.num_retrieved_blocks)
        return SelectionOutcome(
            positions=index.positions_of_blocks(top),
            num_distance_computations=index.num_representative_vectors,
        )

    def resident_positions(self, context_length: int) -> np.ndarray:
        return self._window(context_length)

    def gpu_token_equivalent(self, context_length: int) -> int:
        window = int(self._window(context_length).shape[0])
        retrieved = self.num_retrieved_blocks * self.block_size
        representatives = 0
        if self._indexes:
            representatives = sum(index.num_representative_vectors for index in self._indexes.values())
            representatives //= max(len(self._indexes), 1)
        return window + retrieved + representatives
