"""A from-scratch NumPy decoder-only transformer with GQA.

This is the substrate that replaces Llama-3-8B-Instruct-262k in the paper's
experiments (see ARCHITECTURE.md, layer map).  Architecturally it mirrors
Llama: RMSNorm → GQA self-attention with RoPE → RMSNorm → SwiGLU, residual
connections around both, tied to a byte-level vocabulary.  Weights are drawn
from a seeded RNG so runs are deterministic.

The model runs no attention kernel.  Every forward pass is
:meth:`TransformerModel.forward_rows` over a ragged batch — a prefill chunk
is many rows of one cache, a decode round one row of each — and each layer
hands its Q/K/V to a :class:`~repro.kvcache.cache.NativeAttentionCache` (an
AlayaDB ``Session`` or the coupled ``DynamicCache``) or to a round hook, and
receives the attention output back (Figure 4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..kvcache.cache import DynamicCache, NativeAttentionCache
from .layers import draw_weight, rms_norm, silu
from .rope import RotaryEmbedding, apply_rotary

__all__ = ["ModelConfig", "TransformerLayer", "TransformerModel"]


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the NumPy transformer substrate.

    The defaults describe a small model that runs comfortably on CPU while
    keeping the same head structure ratios as Llama-3-8B (query heads a
    multiple of KV heads, even head dimension for RoPE).
    """

    vocab_size: int = 259
    dim: int = 64
    num_layers: int = 4
    num_query_heads: int = 8
    num_kv_heads: int = 2
    hidden_dim: int = 128
    max_positions: int = 8192
    rope_base: float = 10000.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.dim % self.num_query_heads != 0:
            raise ConfigError(
                f"dim={self.dim} must be divisible by num_query_heads={self.num_query_heads}"
            )
        if self.num_query_heads % self.num_kv_heads != 0:
            raise ConfigError(
                f"num_query_heads={self.num_query_heads} must be a multiple of "
                f"num_kv_heads={self.num_kv_heads}"
            )
        if (self.dim // self.num_query_heads) % 2 != 0:
            raise ConfigError("head_dim must be even for rotary embeddings")

    @property
    def head_dim(self) -> int:
        return self.dim // self.num_query_heads

    @property
    def gqa_group_size(self) -> int:
        """Number of query heads sharing one KV head."""
        return self.num_query_heads // self.num_kv_heads

    @classmethod
    def tiny(cls, seed: int = 1234) -> "ModelConfig":
        """A minimal configuration for fast unit tests."""
        return cls(dim=32, num_layers=2, num_query_heads=4, num_kv_heads=2, hidden_dim=64, seed=seed)

    @classmethod
    def llama_like(cls, seed: int = 1234) -> "ModelConfig":
        """A configuration with Llama-3-8B's head structure at reduced width.

        32 query heads and 8 KV heads per layer (the real ratios), 8 layers
        instead of 32 and head_dim 16 instead of 128 to stay CPU-friendly.
        """
        return cls(
            dim=512,
            num_layers=8,
            num_query_heads=32,
            num_kv_heads=8,
            hidden_dim=1024,
            seed=seed,
        )


def cache_attention(
    layer: int,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    caches: list[NativeAttentionCache],
    rows: list[int],
) -> np.ndarray:
    """The default attention hook: every cache appends its rows' K/V and
    answers its rows' queries.

    ``q``/``k``/``v`` are ``(heads, sum(rows), head_dim)``; returns the
    attention rows ``(sum(rows), num_query_heads * head_dim)``.
    """
    num_heads, total, head_dim = q.shape
    attn = np.empty((total, num_heads * head_dim), dtype=np.float32)
    start = 0
    for cache, n in zip(caches, rows):
        span = slice(start, start + n)
        cache.update_query(q[:, span], k[:, span], v[:, span], layer)
        attn[span] = np.transpose(cache.attention(q[:, span], layer), (1, 0, 2)).reshape(n, -1)
        start += n
    return attn


class TransformerLayer:
    """One decoder block: attention + feed-forward with pre-norm residuals.

    Four weights, one matmul each: ``w_qkv`` ``(dim, q + 2·kv)`` gives
    Q|K|V, ``w_o`` projects the attention rows back, ``w_gate_up``
    ``(dim, 2·hidden)`` gives the SwiGLU gate|up and ``w_down`` closes the
    MLP.  They are drawn per projection in Llama's order — q, k, v, o, gate,
    up, down — so a seed gives the same model as separate projections would.
    Both RMSNorm gains are all ones, folded into ``w_qkv`` and
    ``w_gate_up``; they still count as parameters.
    """

    def __init__(self, config: ModelConfig, layer_index: int, rng: np.random.Generator):
        self.config = config
        self.layer_index = layer_index
        dim, hidden_dim = config.dim, config.hidden_dim
        q_width = config.num_query_heads * config.head_dim
        kv_width = config.num_kv_heads * config.head_dim
        q, k, v = (draw_weight(rng, dim, width) for width in (q_width, kv_width, kv_width))
        self.w_o = draw_weight(rng, q_width, dim)
        gate, up = draw_weight(rng, dim, hidden_dim), draw_weight(rng, dim, hidden_dim)
        self.w_down = draw_weight(rng, hidden_dim, dim)
        self.w_qkv = np.concatenate([q, k, v], axis=1)
        self.w_gate_up = np.concatenate([gate, up], axis=1)
        self._qkv_shape = (config.num_query_heads + 2 * config.num_kv_heads, config.head_dim)

    def forward(
        self,
        hidden: np.ndarray,
        caches: list[NativeAttentionCache],
        rows: list[int],
        cos: np.ndarray,
        sin: np.ndarray,
        attention_round=None,
    ) -> np.ndarray:
        """Run the block over a ragged batch of ``sum(rows)`` token rows.

        ``hidden`` is ``(sum(rows), dim)``: ``rows[i]`` consecutive rows
        belong to ``caches[i]``; ``cos``/``sin`` are the rotary tables at
        each row's cache position (:meth:`RotaryEmbedding.tables`).  Norms,
        projections and the MLP run once over every row, and one rotation
        covers the query and key heads together.  Attention goes to the
        ``attention_round`` hook (``layer_attention(layer, q, k, v, caches,
        rows)``, each ``(heads, sum(rows), head_dim)``) when one is given,
        else to each cache's own ``update_query`` + ``attention``.
        """
        num_q, num_kv = self.config.num_query_heads, self.config.num_kv_heads
        qkv = (rms_norm(hidden) @ self.w_qkv).reshape(hidden.shape[0], *self._qkv_shape).transpose(1, 0, 2)
        qk = apply_rotary(qkv[: num_q + num_kv], cos, sin)
        attend = cache_attention if attention_round is None else attention_round.layer_attention
        attn = attend(self.layer_index, qk[:num_q], qk[num_q:], qkv[num_q + num_kv :], caches, rows)
        hidden = hidden + attn @ self.w_o
        gate_up = rms_norm(hidden) @ self.w_gate_up
        hidden_dim = self.config.hidden_dim
        return hidden + (silu(gate_up[:, :hidden_dim]) * gate_up[:, hidden_dim:]) @ self.w_down

    @property
    def num_parameters(self) -> int:
        weights = self.w_qkv.size + self.w_o.size + self.w_gate_up.size + self.w_down.size
        return int(weights) + 2 * self.config.dim

    @property
    def num_bytes(self) -> int:
        """Bytes of the block's parameters (float32)."""
        return 4 * self.num_parameters


class TransformerModel:
    """The decoder-only model: embeddings, a stack of layers, an LM head.

    The embedding table is ``(vocab_size, dim)``, the LM head ``(dim,
    vocab_size)``, and the final RMSNorm's all-ones gain is folded into the
    head.
    """

    def __init__(self, config: ModelConfig | None = None):
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        self.embedding = rng.normal(0.0, 0.02, size=(self.config.vocab_size, self.config.dim)).astype(np.float32)
        self.layers = [TransformerLayer(self.config, i, rng) for i in range(self.config.num_layers)]
        self.lm_head = draw_weight(rng, self.config.dim, self.config.vocab_size)
        self.rope = RotaryEmbedding(self.config.head_dim, self.config.max_positions, self.config.rope_base)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def forward_rows(
        self,
        token_ids: np.ndarray | list[int],
        caches: list[NativeAttentionCache],
        rows: list[int],
        attention_round=None,
    ) -> np.ndarray:
        """One forward pass over a ragged batch: ``rows[i]`` consecutive
        tokens of ``token_ids`` extend ``caches[i]``.

        Each cache's tokens take the positions that continue it.  Embedding,
        every layer's projections and MLP, and the LM head run once over all
        ``sum(rows)`` rows; attention goes through the caches or the
        ``attention_round`` hook (see :meth:`TransformerLayer.forward`), so a
        prefill chunk and a decode token are the same thing with a different
        row count.  Returns logits ``(sum(rows), vocab_size)``.

        The cos/sin tables are gathered once, for every row, and shared by
        all layers.  A row's logits equal those of the same tokens run alone
        up to the float32 rounding of the four dense matmuls per layer.
        Their bits depend on the row count: one row takes OpenBLAS's gemv
        path, and up to 2-9 rows (by weight shape) its small-gemm kernels.
        The difference is a few 1e-6 absolute on this substrate, which
        leaves greedy tokens in place.  Attention rows are bit-identical
        either way.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 1:
            raise ValueError(f"token_ids must be 1-D, got shape {token_ids.shape}")
        rows = [int(n) for n in rows]
        if len(rows) != len(caches) or sum(rows) != token_ids.shape[0] or min(rows, default=1) < 1:
            raise ValueError(
                f"rows {rows} must give each of {len(caches)} caches >= 1 of "
                f"the {token_ids.shape[0]} tokens"
            )
        if not rows:
            return np.empty((0, self.config.vocab_size), dtype=np.float32)
        positions = np.concatenate([cache.sequence_length(0) + np.arange(n) for cache, n in zip(caches, rows)])
        cos, sin = self.rope.tables(positions)
        hidden = self.embedding[token_ids]
        for layer in self.layers:
            hidden = layer.forward(hidden, caches, rows, cos, sin, attention_round)
        return rms_norm(hidden) @ self.lm_head

    # one-call views of forward_rows: DB.prefill_and_import drives prefill,
    # and the serving benchmark's trace spans are attached to all three
    def prefill(
        self, token_ids: np.ndarray | list[int], cache: NativeAttentionCache | None = None
    ) -> tuple[np.ndarray, NativeAttentionCache]:
        """Process a prompt, filling ``cache``; returns (last-token logits, cache)."""
        cache = cache if cache is not None else DynamicCache()
        return self.forward_rows(token_ids, [cache], [len(token_ids)])[-1], cache

    def decode_step(self, token_id: int, cache: NativeAttentionCache) -> np.ndarray:
        """Logits for a single new token appended to ``cache``."""
        return self.forward_rows([token_id], [cache], [1])[-1]

    def decode_batch(
        self,
        token_ids: np.ndarray | list[int],
        caches: list[NativeAttentionCache],
        attention_round=None,
    ) -> np.ndarray:
        """One decode token per cache: :meth:`forward_rows` with one row each."""
        return self.forward_rows(token_ids, caches, [1] * len(caches), attention_round)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Every weight plus the folded RMSNorm gains."""
        layers = sum(layer.num_parameters for layer in self.layers)
        return int(self.embedding.size + self.lm_head.size) + layers + self.config.dim

    @property
    def num_bytes(self) -> int:
        """Bytes of model weights (float32)."""
        return 4 * self.num_parameters

    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache stored per token across all layers (float32)."""
        config = self.config
        per_layer = 2 * config.num_kv_heads * config.head_dim * 4
        return per_layer * config.num_layers
