"""The unfused reference block: an oracle for ``TransformerModel.forward_rows``.

The model holds one fused Q|K|V weight and one fused gate|up weight, folds
its all-ones RMSNorm gains into them, rotates q and k in one call and runs
SiLU as a tanh.  This module writes the same substrate out the long way, as
Llama's block reads: seven per-projection weights drawn from the same seed
in the same order (q, k, v, o, gate, up, down per layer), RMSNorm as a mean
with a gain, separate q and k rotations, SiLU through ``exp``, and each
cache answering its own rows' attention.  ``forward_rows`` must equal
:meth:`ReferenceModel.forward_rows` up to float32 rounding.
"""

from __future__ import annotations

import numpy as np

from repro.llm.model import ModelConfig
from repro.llm.rope import RotaryEmbedding


def _linear(rng: np.random.Generator, in_features: int, out_features: int) -> np.ndarray:
    """An ``(out, in)`` projection weight; ``x @ w.T`` applies it."""
    return rng.normal(0.0, 1.0 / np.sqrt(in_features), size=(out_features, in_features)).astype(np.float32)


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain


def _silu(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only: no overflow for large |x|
    exp_neg = np.exp(-np.abs(x))
    return np.where(x >= 0, x / (1.0 + exp_neg), x * exp_neg / (1.0 + exp_neg))


class ReferenceModel:
    """Per-projection weights, drawn in the model's rng order."""

    def __init__(self, config: ModelConfig):
        self.config = config
        dim, hidden = config.dim, config.hidden_dim
        q_width = config.num_query_heads * config.head_dim
        kv_width = config.num_kv_heads * config.head_dim
        rng = np.random.default_rng(config.seed)
        self.embedding = rng.normal(0.0, 0.02, size=(config.vocab_size, dim)).astype(np.float32)
        self.layers = []
        for _ in range(config.num_layers):
            layer = {}
            for name, in_features, out_features in (
                ("q", dim, q_width),
                ("k", dim, kv_width),
                ("v", dim, kv_width),
                ("o", q_width, dim),
                ("gate", dim, hidden),
                ("up", dim, hidden),
                ("down", hidden, dim),
            ):
                layer[name] = _linear(rng, in_features, out_features)
            layer["input_norm"] = np.ones(dim, dtype=np.float32)
            layer["post_attention_norm"] = np.ones(dim, dtype=np.float32)
            self.layers.append(layer)
        self.final_norm = np.ones(dim, dtype=np.float32)
        self.lm_head = _linear(rng, dim, config.vocab_size)
        self.rope = RotaryEmbedding(config.head_dim, config.max_positions, config.rope_base)

    def _arrays(self) -> list[np.ndarray]:
        return [self.embedding, self.final_norm, self.lm_head] + [
            array for layer in self.layers for array in layer.values()
        ]

    @property
    def num_parameters(self) -> int:
        return sum(int(array.size) for array in self._arrays())

    @property
    def num_bytes(self) -> int:
        return sum(int(array.nbytes) for array in self._arrays())

    def _heads(self, x: np.ndarray, num_heads: int) -> np.ndarray:
        return np.transpose(x.reshape(x.shape[0], num_heads, self.config.head_dim), (1, 0, 2))

    def forward_rows(self, token_ids, caches, rows) -> np.ndarray:
        """Logits ``(sum(rows), vocab_size)``; ``rows[i]`` tokens extend ``caches[i]``."""
        config = self.config
        token_ids = np.asarray(token_ids, dtype=np.int64)
        positions = np.concatenate([cache.sequence_length(0) + np.arange(n) for cache, n in zip(caches, rows)])
        hidden = self.embedding[token_ids]
        for index, layer in enumerate(self.layers):
            normed = _rms_norm(hidden, layer["input_norm"])
            q = self.rope.rotate(self._heads(normed @ layer["q"].T, config.num_query_heads), positions)
            k = self.rope.rotate(self._heads(normed @ layer["k"].T, config.num_kv_heads), positions)
            v = self._heads(normed @ layer["v"].T, config.num_kv_heads)
            attn = np.empty((hidden.shape[0], config.num_query_heads * config.head_dim), dtype=np.float32)
            start = 0
            for cache, n in zip(caches, rows):
                span = slice(start, start + n)
                cache.update_query(q[:, span], k[:, span], v[:, span], index)
                attn[span] = np.transpose(cache.attention(q[:, span], index), (1, 0, 2)).reshape(n, -1)
                start += n
            hidden = hidden + attn @ layer["o"].T
            normed = _rms_norm(hidden, layer["post_attention_norm"])
            hidden = hidden + (_silu(normed @ layer["gate"].T) * (normed @ layer["up"].T)) @ layer["down"].T
        return _rms_norm(hidden, self.final_norm) @ self.lm_head.T
