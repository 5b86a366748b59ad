"""Exact attention kernels and the partial-attention merge.

This module is the NumPy equivalent of the flash-attention kernels used by
the paper.  It provides:

* numerically-stable softmax and full (causal) attention,
* single-query decode attention (the hot path during token generation),
* *partial attention*: attention restricted to a subset of keys, returned
  together with its log-sum-exp statistics so that several partial results
  computed on different devices (GPU window cache vs CPU-resident index
  blocks) can be merged exactly — the "data-centric attention engine" of
  Section 7.2 of the paper,
* sparse attention over an explicit list of selected token indices.

All kernels operate on ``float32`` arrays.  Shapes follow the convention
``(num_heads, seq_len, head_dim)`` for K/V and ``(num_heads, head_dim)`` or
``(num_heads, seq_q, head_dim)`` for queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "softmax",
    "attention_logits",
    "attention_weights",
    "full_attention",
    "decode_attention",
    "sparse_attention",
    "PartialAttention",
    "partial_attention",
    "merge_partial_attention",
    "combine_partial_attention",
    "repeat_kv",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def repeat_kv(kv: np.ndarray, num_query_heads: int) -> np.ndarray:
    """Expand grouped key/value heads to match the number of query heads.

    ``kv`` has shape ``(num_kv_heads, seq, head_dim)``.  With GQA each KV head
    serves ``num_query_heads // num_kv_heads`` query heads.
    """
    num_kv_heads = kv.shape[0]
    if num_query_heads == num_kv_heads:
        return kv
    if num_query_heads % num_kv_heads != 0:
        raise ValueError(
            f"num_query_heads={num_query_heads} is not a multiple of num_kv_heads={num_kv_heads}"
        )
    group = num_query_heads // num_kv_heads
    return np.repeat(kv, group, axis=0)


def attention_logits(q: np.ndarray, k: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Pre-softmax attention logits ``q @ k^T / sqrt(d)``.

    ``q``: ``(..., seq_q, d)``; ``k``: ``(..., seq_k, d)``.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    return np.matmul(q, np.swapaxes(k, -1, -2)) * np.float32(scale)


def attention_weights(
    q: np.ndarray, k: np.ndarray, scale: float | None = None, causal: bool = False
) -> np.ndarray:
    """Softmax attention weights, optionally with a causal mask."""
    logits = attention_logits(q, k, scale)
    if causal:
        seq_q, seq_k = logits.shape[-2], logits.shape[-1]
        offset = seq_k - seq_q
        mask = np.triu(np.ones((seq_q, seq_k), dtype=bool), k=offset + 1)
        logits = np.where(mask, np.float32(-np.inf), logits)
    return softmax(logits, axis=-1)


def full_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    causal: bool = True,
    scale: float | None = None,
) -> np.ndarray:
    """Exact multi-head attention.

    ``q``: ``(h, seq_q, d)``; ``k``/``v``: ``(h_kv, seq_k, d)`` where ``h_kv``
    divides ``h`` (GQA).  Returns ``(h, seq_q, d)``.
    """
    q = np.asarray(q, dtype=np.float32)
    k = repeat_kv(np.asarray(k, dtype=np.float32), q.shape[0])
    v = repeat_kv(np.asarray(v, dtype=np.float32), q.shape[0])
    weights = attention_weights(q, k, scale=scale, causal=causal)
    return np.matmul(weights, v)


def decode_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float | None = None,
) -> np.ndarray:
    """Single-token decode attention.

    ``q``: ``(h, d)``; ``k``/``v``: ``(h_kv, seq, d)``.  Returns ``(h, d)``.
    The query attends to every cached key (no mask is needed because all
    cached positions precede the query).
    """
    q3 = np.asarray(q, dtype=np.float32)[:, None, :]
    out = full_attention(q3, k, v, causal=False, scale=scale)
    return out[:, 0, :]


def sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    selected: np.ndarray,
    scale: float | None = None,
) -> np.ndarray:
    """Decode attention restricted to ``selected`` token indices.

    ``selected`` is a 1-D integer array of token positions; the same subset is
    used for every head.  Returns ``(h, d)``.
    """
    selected = np.asarray(selected, dtype=np.int64)
    return decode_attention(q, k[:, selected, :], v[:, selected, :], scale=scale)


@dataclass
class PartialAttention:
    """Attention over a subset of keys plus its softmax statistics.

    ``output`` is the *normalised* attention output over the subset,
    ``max_logit`` the per-head maximum pre-softmax logit and ``sum_exp`` the
    per-head sum of ``exp(logit - max_logit)``.  Two partials can be merged
    exactly with :func:`combine_partial_attention` — the same decomposition
    flash-attention uses across KV blocks.
    """

    output: np.ndarray  # (h, d)
    max_logit: np.ndarray  # (h,)
    sum_exp: np.ndarray  # (h,)

    @property
    def num_heads(self) -> int:
        return int(self.output.shape[0])

    @classmethod
    def empty(cls, num_heads: int, head_dim: int) -> "PartialAttention":
        """A neutral element for the merge (attends to nothing)."""
        return cls(
            output=np.zeros((num_heads, head_dim), dtype=np.float32),
            max_logit=np.full((num_heads,), -np.inf, dtype=np.float32),
            sum_exp=np.zeros((num_heads,), dtype=np.float32),
        )

    def is_empty(self) -> bool:
        return bool(np.all(np.isneginf(self.max_logit)))


def partial_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float | None = None,
) -> PartialAttention:
    """Compute decode attention over a KV subset, keeping merge statistics.

    ``q``: ``(h, d)``; ``k``/``v``: ``(h_kv, m, d)``.  An empty subset
    (``m == 0``) yields the neutral element.
    """
    q = np.asarray(q, dtype=np.float32)
    num_heads, head_dim = q.shape
    if k.shape[1] == 0:
        return PartialAttention.empty(num_heads, head_dim)
    if scale is None:
        scale = 1.0 / np.sqrt(head_dim)
    k = repeat_kv(np.asarray(k, dtype=np.float32), num_heads)
    v = repeat_kv(np.asarray(v, dtype=np.float32), num_heads)
    logits = np.einsum("hd,hmd->hm", q, k) * np.float32(scale)
    max_logit = logits.max(axis=1)
    exps = np.exp(logits - max_logit[:, None])
    sum_exp = exps.sum(axis=1)
    output = np.einsum("hm,hmd->hd", exps, v) / sum_exp[:, None]
    return PartialAttention(output=output.astype(np.float32), max_logit=max_logit, sum_exp=sum_exp)


def merge_partial_attention(parts: list[PartialAttention]) -> np.ndarray:
    """Exact attention output ``(h, d)`` over the union of disjoint KV subsets.

    The output-only view of :func:`combine_partial_attention`, as if a single
    softmax had been computed over all subsets; heads that are empty in every
    partial come back as zeros.
    """
    return combine_partial_attention(parts).output


def combine_partial_attention(parts: list[PartialAttention]) -> PartialAttention:
    """Merge partials computed over disjoint KV subsets, keeping the statistics.

    The one log-sum-exp merge: window/retrieved/local partials of a decode
    step, the partials of several shards, and a shard's own partials collapsed
    into a single one to ship across the (simulated) wire all go through it —
    the result carries the (``max_logit``, ``sum_exp``) of the union subset,
    so it can itself be merged again exactly.  A partial may be empty for
    some heads only (a head that retrieved nothing, a shard holding nothing
    for it); heads that are empty in every input stay the neutral element
    (zero output, ``max_logit=-inf``, ``sum_exp=0``).
    """
    if not parts:
        raise ValueError("cannot combine an empty list of partial attentions")
    live = [p for p in parts if not p.is_empty()]
    if not live:
        return PartialAttention.empty(*parts[0].output.shape)
    if len(live) == 1:
        part = live[0]
        return PartialAttention(
            output=part.output.copy(),
            max_logit=part.max_logit.copy(),
            sum_exp=part.sum_exp.copy(),
        )
    global_max = np.max(np.stack([p.max_logit for p in live], axis=0), axis=0)
    safe_max = np.where(np.isneginf(global_max), np.float32(0.0), global_max)
    total_weight = np.zeros_like(live[0].sum_exp)
    accumulated = np.zeros_like(live[0].output)
    for part in live:
        # a head empty in this partial has sum_exp == 0 and max_logit == -inf:
        # against the finite safe_max its weight is 0 * exp(-inf) == 0
        weight = part.sum_exp * np.exp(part.max_logit - safe_max)
        accumulated += part.output * weight[:, None]
        total_weight += weight
    denom = np.where(total_weight == 0.0, np.float32(1.0), total_weight)
    return PartialAttention(
        output=(accumulated / denom[:, None]).astype(np.float32),
        max_logit=global_max.astype(np.float32),
        sum_exp=total_weight.astype(np.float32),
    )
