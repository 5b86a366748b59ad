"""Exact attention kernels and the partial-attention merge.

This module is the NumPy equivalent of the flash-attention kernels used by
the paper.  It provides:

* numerically-stable softmax and full (causal) attention,
* single-query decode attention (the hot path during token generation),
* *partial attention*: attention restricted to a subset of keys, returned
  together with its log-sum-exp statistics so that several partial results
  computed on different devices (GPU window cache vs CPU-resident index
  blocks) can be merged exactly — the "data-centric attention engine" of
  Section 7.2 of the paper.

All kernels operate on ``float32`` arrays.  Shapes follow the convention
``(num_heads, seq_len, head_dim)`` for K/V and ``(num_heads, head_dim)`` or
``(num_heads, seq_q, head_dim)`` for queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "softmax",
    "attention_logits",
    "attention_weights",
    "full_attention",
    "decode_attention",
    "PartialAttention",
    "partial_attention",
    "combine_partial_attention",
    "repeat_kv",
]


_FLOAT32_MIN = np.finfo(np.float32).min
_FLOAT32_TINY = np.finfo(np.float32).tiny
"""Guards for rows that attend to nothing: a max logit of ``-inf`` is floored
to the most negative finite value before it is subtracted, a zero softmax
denominator is raised to the smallest normal value before it divides.  No
row that attends to anything is changed — its max logit is finite and its
sum of exponentials at least 1."""


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

    @classmethod
    def concatenate(cls, parts: list["PartialAttention"]) -> "PartialAttention":
        """Stack partials over disjoint row sets (one per session) into one."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            output=np.concatenate([part.output for part in parts]),
            max_logit=np.concatenate([part.max_logit for part in parts]),
            sum_exp=np.concatenate([part.sum_exp for part in parts]),
        )


def partial_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float | None = None,
    mask: np.ndarray | None = None,
) -> PartialAttention:
    """Softmax statistics of GQA-grouped query rows over one KV slab.

    The one "attention over a contiguous KV array" primitive: a stored
    range's visible slice, the gathered window and a session's local KV —
    a prefill chunk's causally masked included — all go through it.  ``q``
    is the float32 ``(..., num_kv_heads, rows, d)`` — the rows each KV head
    serves (a GQA group's query heads for one decode token; ``group * seq``
    rows for a prefill chunk), any leading axes (stacked sessions) riding
    matmul's batch dimension; ``k``/``v`` are ``(num_kv_heads, m, d)``,
    never repeated per query head.  ``mask`` is an optional boolean
    ``(r, w)`` with ``r`` dividing ``rows`` and ``w <= m``: True where the
    row may attend among the *last* ``w`` keys (every row attends the first
    ``m - w``), repeated over each block of ``r`` rows: a prefill chunk's
    local partial passes its ``(seq, seq)`` causal triangle once per group.
    The result's rows are ``q``'s leading axes flattened; a row that attends
    to nothing (``m == 0``, or masked out everywhere) is the merge's neutral
    element.

    Each ``(..., kv_head)`` batch entry is its own gemm, so a row's bits do
    not depend on how many sessions are stacked ahead of it — a single
    ``(sessions * rows, m)`` gemm would not keep that promise.
    """
    head_dim = q.shape[-1]
    num_rows = q.size // head_dim
    if k.shape[1] == 0:
        return PartialAttention.empty(num_rows, head_dim)
    if scale is None:
        scale = 1.0 / math.sqrt(head_dim)
    logits = np.matmul(q, k.mT)
    logits *= np.float32(scale)
    if mask is not None:
        # logits is a fresh C-ordered array, so the reshape is a view
        rows, width = mask.shape
        num_keys = k.shape[1]
        np.copyto(
            logits.reshape(-1, rows, num_keys)[..., num_keys - width :], np.float32(-np.inf), where=~mask
        )
    max_logit = np.maximum.reduce(logits, axis=-1)
    # a row masked out everywhere has max -inf: the finite floor makes its
    # exps and sum 0 instead of nan and leaves every other row's bits alone.
    # Unmasked, every row's max is finite and its sum at least 1, so the
    # floors would change nothing and are skipped
    logits -= (max_logit if mask is None else np.maximum(max_logit, _FLOAT32_MIN))[..., None]
    exps = np.exp(logits, out=logits)
    sum_exp = np.add.reduce(exps, axis=-1)
    output = np.matmul(exps, v)
    output /= (sum_exp if mask is None else np.maximum(sum_exp, _FLOAT32_TINY))[..., None]
    return PartialAttention(
        output=output.reshape(num_rows, head_dim),
        max_logit=max_logit.reshape(num_rows),
        sum_exp=sum_exp.reshape(num_rows),
    )


def combine_partial_attention(parts: list[PartialAttention]) -> PartialAttention:
    """Merge partials computed over disjoint KV subsets, keeping the statistics.

    The one log-sum-exp merge: the per-range and local partials of a decode
    step or a prefill chunk, whatever the plan and however many ranges hold
    the context, all go through it — the result carries the (``max_logit``,
    ``sum_exp``) of the union subset, so it can itself be merged again
    exactly.  A partial may be empty for some rows only (a head that
    retrieved nothing, a session without local KV); rows that are empty in
    every input stay the neutral element (zero output, ``max_logit=-inf``,
    ``sum_exp=0``).  Every row is merged by the same arithmetic whatever the
    other rows hold, so stacking sessions never changes a row's bits.
    """
    if not parts:
        raise ValueError("cannot combine an empty list of partial attentions")
    global_max = parts[0].max_logit
    for part in parts[1:]:
        global_max = np.maximum(global_max, part.max_logit)
    # a row empty in one partial has sum_exp == 0 and max_logit == -inf:
    # against the finite shift its weight is 0 * exp(-inf) == 0
    shift = np.maximum(global_max, _FLOAT32_MIN)
    accumulated = total_weight = None
    for part in parts:
        weight = part.sum_exp * np.exp(part.max_logit - shift)
        weighted = part.output * weight[:, None]
        if accumulated is None:
            accumulated, total_weight = weighted, weight
        else:
            accumulated += weighted
            total_weight = total_weight + weight
    accumulated /= np.maximum(total_weight, _FLOAT32_TINY)[:, None]
    return PartialAttention(output=accumulated, max_logit=global_max, sum_exp=total_weight)
