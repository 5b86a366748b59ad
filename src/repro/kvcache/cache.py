"""KV cache abstractions.

``NativeAttentionCache`` is the one contract the transformer substrate
expects from a cache object: the model pushes each layer's Q/K/V into it and
gets the attention output back (Figure 4 of the paper).  An AlayaDB
``Session`` and ``DynamicCache`` both implement it, so swapping one for the
other is a one-line change.

``DynamicCache`` is the coupled-architecture cache: it concatenates new keys
and values per layer and answers with exact causal attention over all of
them — the baseline and the test oracle.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["NativeAttentionCache", "LayerKVCache", "DynamicCache"]


@runtime_checkable
class NativeAttentionCache(Protocol):
    """A cache that computes attention itself (AlayaDB Session, the coupled
    ``DynamicCache``): the model never touches the KV tensors."""

    def update_query(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, layer: int
    ) -> None:
        """Register the new query/key/value tensors for ``layer``."""
        ...

    def attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        """Return the attention output for query ``q`` at ``layer``."""
        ...

    def sequence_length(self, layer: int = 0) -> int:
        ...


class LayerKVCache:
    """Growable key/value storage for a single transformer layer.

    Keys and values are stored as ``(num_kv_heads, capacity, head_dim)``
    arrays that double in capacity when full, so appending a token is
    amortised O(1) and reads can return zero-copy views.
    """

    def __init__(self, num_kv_heads: int, head_dim: int, initial_capacity: int = 256):
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self._capacity = max(int(initial_capacity), 1)
        self._length = 0
        self._keys = np.zeros((num_kv_heads, self._capacity, head_dim), dtype=np.float32)
        self._values = np.zeros((num_kv_heads, self._capacity, head_dim), dtype=np.float32)

    def __len__(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        """View of the cached keys, shape ``(num_kv_heads, length, head_dim)``."""
        return self._keys[:, : self._length, :]

    @property
    def values(self) -> np.ndarray:
        """View of the cached values, shape ``(num_kv_heads, length, head_dim)``."""
        return self._values[:, : self._length, :]

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the *used* portion of the cache."""
        return int(self.keys.nbytes + self.values.nbytes)

    def _grow(self, needed: int) -> None:
        new_capacity = self._capacity
        while new_capacity < needed:
            new_capacity *= 2
        if new_capacity == self._capacity:
            return
        grown_keys = np.zeros((self.num_kv_heads, new_capacity, self.head_dim), dtype=np.float32)
        grown_values = np.zeros_like(grown_keys)
        grown_keys[:, : self._length, :] = self.keys
        grown_values[:, : self._length, :] = self.values
        self._keys, self._values = grown_keys, grown_values
        self._capacity = new_capacity

    def append(self, k: np.ndarray, v: np.ndarray) -> int:
        """Append new tokens; ``k``/``v`` shape ``(num_kv_heads, n, head_dim)``.
        Returns the index of the first appended token.  The buffers are
        float32: other dtypes are cast as they are copied in."""
        if k.shape != v.shape:
            raise ValueError(f"key shape {k.shape} != value shape {v.shape}")
        if k.shape[0] != self.num_kv_heads or k.shape[2] != self.head_dim:
            raise ValueError(
                f"expected ({self.num_kv_heads}, n, {self.head_dim}), got {k.shape}"
            )
        n = k.shape[1]
        if self._length + n > self._capacity:
            self._grow(self._length + n)
        self._keys[:, self._length : self._length + n, :] = k
        self._values[:, self._length : self._length + n, :] = v
        self._length += n
        return self._length - n

    def slice(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (keys, values) views for positions ``[start, stop)``."""
        return (
            self._keys[:, start : min(stop, self._length), :],
            self._values[:, start : min(stop, self._length), :],
        )

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (keys, values) copies for an arbitrary set of positions."""
        positions = np.asarray(positions, dtype=np.int64)
        return self.keys[:, positions, :], self.values[:, positions, :]


class DynamicCache:
    """The coupled-architecture KV cache (HuggingFace ``DynamicCache`` analogue).

    Keeps every layer's full K/V and answers each attention call with exact
    causal attention over all of it.
    """

    def __init__(self, initial_capacity: int = 256):
        self._layers: dict[int, LayerKVCache] = {}
        self._initial_capacity = initial_capacity

    def layer(self, layer: int) -> LayerKVCache | None:
        return self._layers.get(layer)

    def update_query(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, layer: int) -> None:
        """Append ``k``/``v`` for ``layer`` (the queries are not kept)."""
        k = np.asarray(k, dtype=np.float32)
        store = self._layers.get(layer)
        if store is None:
            store = LayerKVCache(k.shape[0], k.shape[2], self._initial_capacity)
            self._layers[layer] = store
        store.append(k, v)

    def attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        """Causal attention of ``q`` — the layer's last ``seq`` tokens — over
        every cached token."""
        # imported here: repro.llm imports this module
        from ..llm.attention import full_attention

        store = self._layers[layer]
        return full_attention(q, store.keys, store.values, causal=True)

    def sequence_length(self, layer: int = 0) -> int:
        store = self._layers.get(layer)
        return len(store) if store is not None else 0

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    @property
    def nbytes(self) -> int:
        return sum(store.nbytes for store in self._layers.values())

    def keys(self, layer: int) -> np.ndarray:
        store = self._layers[layer]
        return store.keys

    def values(self, layer: int) -> np.ndarray:
        store = self._layers[layer]
        return store.values
