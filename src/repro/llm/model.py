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
from .layers import Embedding, Linear, RMSNorm, SwiGLU
from .rope import RotaryEmbedding

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
    """One decoder block: attention + feed-forward with pre-norm residuals."""

    def __init__(self, config: ModelConfig, layer_index: int, rng: np.random.Generator):
        self.config = config
        self.layer_index = layer_index
        dim, head_dim = config.dim, config.head_dim
        self.input_norm = RMSNorm(dim)
        self.post_attention_norm = RMSNorm(dim)
        self.q_proj = Linear(dim, config.num_query_heads * head_dim, rng)
        self.k_proj = Linear(dim, config.num_kv_heads * head_dim, rng)
        self.v_proj = Linear(dim, config.num_kv_heads * head_dim, rng)
        self.o_proj = Linear(config.num_query_heads * head_dim, dim, rng)
        self.mlp = SwiGLU(dim, config.hidden_dim, rng)

    def project_qkv(
        self, hidden: np.ndarray, rope: RotaryEmbedding, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project the (normalised) hidden states into rotated Q/K and V.

        ``hidden``: ``(seq, dim)``.  Returns arrays shaped
        ``(heads, seq, head_dim)``.
        """
        config = self.config
        seq_len = hidden.shape[0]
        head_dim = config.head_dim
        q = self.q_proj(hidden).reshape(seq_len, config.num_query_heads, head_dim)
        k = self.k_proj(hidden).reshape(seq_len, config.num_kv_heads, head_dim)
        v = self.v_proj(hidden).reshape(seq_len, config.num_kv_heads, head_dim)
        q = np.transpose(q, (1, 0, 2))
        k = np.transpose(k, (1, 0, 2))
        v = np.transpose(v, (1, 0, 2))
        q = rope.rotate(q, positions)
        k = rope.rotate(k, positions)
        return q.astype(np.float32), k.astype(np.float32), v.astype(np.float32)

    def forward(
        self,
        hidden: np.ndarray,
        caches: list[NativeAttentionCache],
        rows: list[int],
        rope: RotaryEmbedding,
        positions: np.ndarray,
        attention_round=None,
    ) -> np.ndarray:
        """Run the block over a ragged batch of ``sum(rows)`` token rows.

        ``hidden`` is ``(sum(rows), dim)``: ``rows[i]`` consecutive rows
        belong to ``caches[i]``, ``positions`` holds each row's cache
        position.  Norms, Q/K/V/O projections and the MLP run once over every
        row; attention goes to the ``attention_round`` hook
        (``layer_attention(layer, q, k, v, caches, rows)``) when one is given,
        else to each cache's own ``update_query`` + ``attention``.
        """
        normed = self.input_norm(hidden)
        q, k, v = self.project_qkv(normed, rope, positions)
        attend = cache_attention if attention_round is None else attention_round.layer_attention
        attn = attend(self.layer_index, q, k, v, caches, rows)
        hidden = hidden + self.o_proj(attn)
        hidden = hidden + self.mlp(self.post_attention_norm(hidden))
        return hidden

    @property
    def num_parameters(self) -> int:
        return (
            self.q_proj.num_parameters
            + self.k_proj.num_parameters
            + self.v_proj.num_parameters
            + self.o_proj.num_parameters
            + self.mlp.num_parameters
            + self.input_norm.num_parameters
            + self.post_attention_norm.num_parameters
        )

    @property
    def num_bytes(self) -> int:
        return (
            self.q_proj.num_bytes
            + self.k_proj.num_bytes
            + self.v_proj.num_bytes
            + self.o_proj.num_bytes
            + self.mlp.num_bytes
            + self.input_norm.num_bytes
            + self.post_attention_norm.num_bytes
        )


class TransformerModel:
    """The decoder-only model: embeddings, a stack of layers, an LM head."""

    def __init__(self, config: ModelConfig | None = None):
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        self.embedding = Embedding(self.config.vocab_size, self.config.dim, rng)
        self.layers = [TransformerLayer(self.config, i, rng) for i in range(self.config.num_layers)]
        self.final_norm = RMSNorm(self.config.dim)
        self.lm_head = Linear(self.config.dim, self.config.vocab_size, rng)
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

        A row's logits equal those of the same tokens run alone up to the
        float32 rounding of the dense matmuls, whose bits depend on how many
        rows they multiply (numpy/OpenBLAS sgemm for up to ~9 rows): about
        1e-5 absolute on this substrate, which leaves greedy tokens in
        place.  Attention rows are bit-identical either way.
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
        hidden = self.embedding(token_ids)
        for layer in self.layers:
            hidden = layer.forward(hidden, caches, rows, self.rope, positions, attention_round)
        hidden = self.final_norm(hidden)
        return self.lm_head(hidden)

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
        return (
            self.embedding.num_parameters
            + sum(layer.num_parameters for layer in self.layers)
            + self.final_norm.num_parameters
            + self.lm_head.num_parameters
        )

    @property
    def num_bytes(self) -> int:
        """Bytes of model weights (float32)."""
        return (
            self.embedding.num_bytes
            + sum(layer.num_bytes for layer in self.layers)
            + self.final_norm.num_bytes
            + self.lm_head.num_bytes
        )

    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache stored per token across all layers (float32)."""
        config = self.config
        per_layer = 2 * config.num_kv_heads * config.head_dim * 4
        return per_layer * config.num_layers
