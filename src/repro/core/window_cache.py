"""Window cache: the initial + last tokens kept in GPU memory (Section 7.1).

Sparse-attention systems keep a window of the first tokens (attention sinks)
and the most recent tokens resident because they carry disproportionately
large attention weight.  AlayaDB additionally exploits the window to tighten
DIPRS pruning: the maximum inner product between the query and the window
keys is a strong lower bound on the global maximum (the paper measures ~98%
coverage with a 32+32 window on Math.F), so it is fed into the search as the
initial best-so-far score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WindowCache"]


@dataclass
class WindowCache:
    """Tracks which token positions are held in the GPU-resident window."""

    initial_tokens: int
    last_tokens: int

    def __post_init__(self) -> None:
        self._positions_cache: dict[int, np.ndarray] = {}

    def positions(self, context_length: int) -> np.ndarray:
        """Window positions for a context of ``context_length`` tokens.

        The initial and last ranges may overlap for short contexts; the
        result is deduplicated and sorted.  Results are memoized per length
        (the decode hot path asks for the same window every layer) — callers
        must treat the returned array as read-only.
        """
        cached = self._positions_cache.get(context_length)
        if cached is not None:
            return cached
        if context_length <= 0:
            result = np.empty(0, dtype=np.int64)
        else:
            initial = np.arange(0, min(self.initial_tokens, context_length), dtype=np.int64)
            last_start = max(0, context_length - self.last_tokens)
            last = np.arange(last_start, context_length, dtype=np.int64)
            result = np.unique(np.concatenate([initial, last]))
        self._positions_cache[context_length] = result
        return result

    def covers(self, context_length: int) -> bool:
        """True when the window spans the whole context."""
        return context_length <= self.initial_tokens + self.last_tokens

    def num_positions(self, context_length: int) -> int:
        return int(self.positions(context_length).shape[0])

    def memory_bytes(self, context_length: int, num_kv_heads: int, head_dim: int, num_layers: int, bytes_per_value: int = 4) -> int:
        """GPU bytes used by the window's K and V across all layers."""
        tokens = self.num_positions(context_length)
        return 2 * tokens * num_kv_heads * head_dim * num_layers * bytes_per_value

    def max_window_scores(self, queries: np.ndarray, keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Per-head maximum inner products with the window keys.

        ``queries`` is ``(num_query_heads, d)``; ``keys`` is the full
        ``(num_kv_heads, n, d)`` key tensor of one layer (each KV head serves
        a GQA group of query heads).  The window gather is shared per KV head;
        each head's score is then its own ``window_keys @ query`` matvec, so
        row ``h`` does not depend on which other heads are in the call (the
        seed feeds DIPRS pruning decisions, where a ULP-level difference could
        flip a boundary node).  Returns ``(num_query_heads,)``; ``-inf`` rows
        for an empty window.
        """
        queries = np.asarray(queries, dtype=np.float32)
        num_heads = queries.shape[0]
        if positions.shape[0] == 0:
            return np.full(num_heads, -np.inf, dtype=np.float32)
        keys = np.asarray(keys, dtype=np.float32)
        num_kv_heads = keys.shape[0]
        gqa_group_size = num_heads // num_kv_heads
        scores = np.empty(num_heads, dtype=np.float32)
        for kv_head in range(num_kv_heads):
            window_keys = keys[kv_head][positions]
            for head in range(kv_head * gqa_group_size, (kv_head + 1) * gqa_group_size):
                scores[head] = (window_keys @ queries[head]).max()
        return scores
