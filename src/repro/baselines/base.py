"""Common machinery of the compared sparse-attention methods.

Every method in the paper's evaluation (Table 5, Figure 9) reduces to a
*selection strategy*: given the decode query vector of one head, choose which
cached token positions participate in attention.  ``SelectionStrategy``
captures that; ``RetrievalCache`` adapts any strategy into the cache protocol
the transformer substrate understands, so each baseline can also drive real
end-to-end generation, exactly like an AlayaDB :class:`~repro.core.Session`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.attention_engine import DataCentricAttentionEngine
from ..core.context_store import StoredContext
from ..kvcache.cache import LayerKVCache
from ..llm.attention import full_attention

__all__ = ["SelectionOutcome", "SelectionStrategy", "RetrievalCache"]


@dataclass
class SelectionOutcome:
    """Positions one strategy selected for one head, plus its search work."""

    positions: np.ndarray
    num_distance_computations: int = 0

    @property
    def num_selected(self) -> int:
        return int(self.positions.shape[0])


class SelectionStrategy(abc.ABC):
    """A sparse-attention method, reduced to its token-selection rule."""

    name: str = "strategy"

    @abc.abstractmethod
    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        """Build whatever per-context state the method needs (indexes, blocks)."""

    @abc.abstractmethod
    def select(self, layer: int, query_head: int, query: np.ndarray, context_length: int) -> SelectionOutcome:
        """Choose the stored-context positions this head attends to."""

    @abc.abstractmethod
    def resident_positions(self, context_length: int) -> np.ndarray:
        """Positions permanently resident in GPU memory (window / blocks)."""

    @abc.abstractmethod
    def gpu_token_equivalent(self, context_length: int) -> int:
        """How many tokens' worth of KV the method keeps on the GPU.

        Used for the quality-vs-memory trade-off of Figure 9: GPU bytes =
        tokens × kv-bytes-per-token (plus model weights, added by the bench).
        """

    def describe(self) -> str:
        return self.name


class RetrievalCache:
    """Adapts a :class:`SelectionStrategy` into the model's cache protocol."""

    def __init__(self, strategy: SelectionStrategy, context: StoredContext, num_query_heads: int):
        self.strategy = strategy
        self.context = context
        self.num_query_heads = num_query_heads
        self.engine = DataCentricAttentionEngine()
        self._local: dict[int, LayerKVCache] = {}
        self.total_selected = 0
        self.total_distance_computations = 0
        strategy.prepare(context, num_query_heads)

    # ------------------------------------------------------------------
    # cache protocol
    # ------------------------------------------------------------------
    def sequence_length(self, layer: int = 0) -> int:
        local = self._local.get(layer)
        return self.context.num_tokens + (len(local) if local is not None else 0)

    def update_query(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, layer: int) -> None:
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        cache = self._local.get(layer)
        if cache is None:
            cache = LayerKVCache(k.shape[0], k.shape[2])
            self._local[layer] = cache
        cache.append(k, v)

    def attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        q = np.asarray(q, dtype=np.float32)
        if q.shape[1] > 1:
            return self._prefill_attention(q, layer)
        return self._decode_attention(q, layer)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _materialized_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        stored_keys = self.context.keys(layer)
        stored_values = self.context.values(layer)
        local = self._local.get(layer)
        if local is None or len(local) == 0:
            return stored_keys, stored_values
        return (
            np.concatenate([stored_keys, local.keys], axis=1),
            np.concatenate([stored_values, local.values], axis=1),
        )

    def _prefill_attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        keys, values = self._materialized_kv(layer)
        return full_attention(q, keys, values, causal=True)

    def _decode_attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        local = self._local.get(layer)
        context_length = self.context.num_tokens
        queries = q[:, 0, :]
        retrieved = []
        for head in range(queries.shape[0]):
            outcome = self.strategy.select(layer, head, queries[head], context_length)
            self.total_selected += outcome.num_selected
            self.total_distance_computations += outcome.num_distance_computations
            # the engine wants duplicate-free rows; a strategy need not promise that
            retrieved.append(np.unique(outcome.positions))
        outputs, _ = self.engine.layer_output(
            queries,
            self.context.keys(layer),
            self.context.values(layer),
            window_positions=self.strategy.resident_positions(context_length),
            retrieved_positions=retrieved,
            local_keys=local.keys if local is not None else None,
            local_values=local.values if local is not None else None,
        )
        return outputs[:, None, :]
