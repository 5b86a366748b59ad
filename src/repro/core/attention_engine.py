"""Data-centric attention engine (Section 7.2 of the paper).

Instead of gathering every retrieved key/value onto one device and running a
single kernel, AlayaDB computes *partial attention where the data lives* —
one partial over the GPU-resident window, one over the CPU-resident retrieved
tokens — and merges the partials with the exact flash-attention
decomposition.  Only the per-partial outputs and their log-sum-exp statistics
cross devices, never the KV tensors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.attention import PartialAttention, combine_partial_attention

__all__ = ["AttentionBreakdown", "DataCentricAttentionEngine"]


@dataclass
class AttentionBreakdown:
    """Where the tokens that contributed to one head's output came from."""

    num_window_tokens: int = 0
    num_retrieved_tokens: int = 0
    num_local_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.num_window_tokens + self.num_retrieved_tokens + self.num_local_tokens


class DataCentricAttentionEngine:
    """Computes sparse attention outputs by merging per-location partials."""

    def __init__(self, scale: float | None = None):
        self.scale = scale

    def layer_output(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        window_positions: np.ndarray,
        retrieved_positions: list[np.ndarray],
        local_keys: np.ndarray | None = None,
        local_values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[AttentionBreakdown]]:
        """Sparse attention outputs for all query heads of one session's layer.

        The one-session, one-range view of :meth:`stacked_layer_output`:
        ``queries`` is ``(num_query_heads, head_dim)``, ``keys``/``values`` the
        whole stored context, ``local_keys``/``local_values`` the session's
        ``(num_kv_heads, m, head_dim)`` unmaterialised KV or None.  Returns
        ``(num_query_heads, head_dim)`` outputs and one breakdown per head.
        """
        outputs, breakdowns = self.stacked_layer_output(
            np.asarray(queries, dtype=np.float32)[None],
            [(0, keys, values)],
            window_positions,
            retrieved_positions,
            [local_keys],
            [local_values],
        )
        return outputs[0], breakdowns

    def stacked_layer_output(
        self,
        queries: np.ndarray,
        ranges: list[tuple[int, np.ndarray, np.ndarray]],
        window_positions: np.ndarray,
        retrieved_positions: list[np.ndarray],
        local_keys: list[np.ndarray | None],
        local_values: list[np.ndarray | None],
    ) -> tuple[np.ndarray, list[AttentionBreakdown]]:
        """Sparse attention for ``S >= 1`` sessions over ``R >= 1`` stored-KV ranges.

        Every session in a compatibility group reads the *same* stored
        context with the same window positions.  Partials are computed where
        the data lives — per range one over its slice of the window and one
        over its slice of the retrieved tokens, per session one over its
        local KV — and merge with one log-sum-exp combine, which equals a
        single softmax over everything attended.  Row ``(s, h)`` of the
        output (and entry ``s * num_heads + h`` of the breakdown list) does
        not depend on which other sessions are stacked; heads that attend to
        nothing come back as zeros.

        Parameters
        ----------
        queries:
            ``(num_sessions, num_query_heads, head_dim)`` decode queries.
        ranges:
            ``(start, keys, values)`` per token range of the stored context:
            ``keys``/``values`` are ``(num_kv_heads, n_r, head_dim)`` and hold
            global tokens ``[start, start + n_r)``.  A single-owner context is
            the one range ``(0, keys, values)``.
        window_positions:
            Window-cache positions in global token space (identical across
            the group by the compatibility key).
        retrieved_positions:
            One global position array per stacked head, session-major
            (``num_sessions * num_query_heads`` entries, each duplicate-free —
            retrieval outcomes are).  Deduplication against the window
            happens here.
        local_keys / local_values:
            Per-session unmaterialised KV ``(num_kv_heads, m_s, head_dim)``
            or ``None``; lengths ``m_s`` may differ.
        """
        queries = np.asarray(queries, dtype=np.float32)
        num_sessions, num_heads, head_dim = queries.shape
        num_kv_heads = ranges[0][1].shape[0]
        total = num_sessions * num_heads
        scale = np.float32(self.scale if self.scale is not None else 1.0 / np.sqrt(head_dim))
        grouped_q = queries.reshape(num_sessions, num_kv_heads, num_heads // num_kv_heads, head_dim)
        window_positions = np.asarray(window_positions, dtype=np.int64)
        num_positions = max(start + keys.shape[1] for start, keys, _ in ranges)
        in_window = np.zeros(num_positions, dtype=bool)
        in_window[window_positions] = True

        breakdowns = [AttentionBreakdown() for _ in range(total)]
        partials: list[PartialAttention] = []
        for start, keys, values in ranges:
            partials.extend(
                self._range_partials(
                    grouped_q, scale, start, keys, values, window_positions, in_window,
                    retrieved_positions, breakdowns,
                )
            )

        local_lengths = [0 if lk is None else int(lk.shape[1]) for lk in local_keys]
        max_local = max(local_lengths, default=0)
        if max_local > 0:
            padded_keys = np.zeros((num_sessions, num_kv_heads, max_local, head_dim), dtype=np.float32)
            padded_values = np.zeros_like(padded_keys)
            local_mask = np.zeros((num_sessions, max_local), dtype=bool)
            for s, (lk, lv, length) in enumerate(zip(local_keys, local_values, local_lengths)):
                if length:
                    padded_keys[s, :, :length, :] = lk
                    padded_values[s, :, :length, :] = lv
                    local_mask[s, :length] = True
            logits = np.einsum("skgd,skmd->skgm", grouped_q, padded_keys) * scale
            logits = np.where(local_mask[:, None, None, :], logits, np.float32(-np.inf))
            max_logit = logits.max(axis=3)
            safe_max = np.where(np.isneginf(max_logit), np.float32(0.0), max_logit)
            exps = np.where(
                local_mask[:, None, None, :],
                np.exp(logits - safe_max[..., None]),
                np.float32(0.0),
            )
            sum_exp = exps.sum(axis=3)
            denom = np.where(sum_exp == 0.0, np.float32(1.0), sum_exp)
            output = np.einsum("skgm,skmd->skgd", exps, padded_values) / denom[..., None]
            partials.append(
                PartialAttention(
                    output=output.reshape(total, head_dim).astype(np.float32),
                    max_logit=max_logit.reshape(total).astype(np.float32),
                    sum_exp=sum_exp.reshape(total).astype(np.float32),
                )
            )
            for s, length in enumerate(local_lengths):
                for head in range(num_heads):
                    breakdowns[s * num_heads + head].num_local_tokens = length
        if not partials:
            return np.zeros_like(queries), breakdowns
        return combine_partial_attention(partials).output.reshape(queries.shape), breakdowns

    def _range_partials(
        self,
        grouped_q: np.ndarray,
        scale: np.float32,
        start: int,
        keys: np.ndarray,
        values: np.ndarray,
        window_positions: np.ndarray,
        in_window: np.ndarray,
        retrieved_positions: list[np.ndarray],
        breakdowns: list[AttentionBreakdown],
    ) -> list[PartialAttention]:
        """The window and retrieved partials of one stored-KV range.

        ``grouped_q`` is the ``(sessions, kv_heads, group, d)`` query stack.
        The window partial is one einsum against the un-copied ``(kv_heads,
        window, d)`` gather of the range's slice of the window; the retrieved
        partial pads the per-head sets (minus the window, minus what other
        ranges hold) into one gather with a session-aware KV-head mapping.
        Each is over ``sessions * heads`` rows, session-major, and is left
        out when the range holds nothing of its kind; ``breakdowns``
        accumulate the token counts.
        """
        num_sessions, num_kv_heads, group, head_dim = grouped_q.shape
        num_heads = num_kv_heads * group
        total = num_sessions * num_heads
        stop = start + keys.shape[1]
        partials: list[PartialAttention] = []

        window_local = window_positions[(window_positions >= start) & (window_positions < stop)] - start
        if window_local.size:
            window_keys = keys[:, window_local, :]
            window_values = values[:, window_local, :]
            logits = np.einsum("skgd,kmd->skgm", grouped_q, window_keys) * scale
            max_logit = logits.max(axis=3)
            exps = np.exp(logits - max_logit[..., None])
            sum_exp = exps.sum(axis=3)
            output = np.einsum("skgm,kmd->skgd", exps, window_values) / sum_exp[..., None]
            partials.append(
                PartialAttention(
                    output=output.reshape(total, head_dim).astype(np.float32),
                    max_logit=max_logit.reshape(total).astype(np.float32),
                    sum_exp=sum_exp.reshape(total).astype(np.float32),
                )
            )
            for breakdown in breakdowns:
                breakdown.num_window_tokens += int(window_local.size)

        # a retrieved token belongs to this range's partial when it lies in
        # the range and outside the window
        excluded = np.ones(in_window.shape[0], dtype=bool)
        excluded[start:stop] = in_window[start:stop]
        dedup = self._dedup_and_pad(retrieved_positions, excluded, total, start)
        if dedup is not None:
            padded, mask, counts = dedup
            kv_of_head = np.tile(np.arange(num_heads, dtype=np.int64) // group, num_sessions)
            partials.append(
                self._masked_retrieved_partial(
                    grouped_q.reshape(total, head_dim),
                    keys,
                    values,
                    padded,
                    mask,
                    kv_of_head,
                )
            )
            for row, breakdown in enumerate(breakdowns):
                breakdown.num_retrieved_tokens += int(counts[row])
        return partials

    @staticmethod
    def _dedup_and_pad(
        positions_per_row: list[np.ndarray],
        excluded: np.ndarray,
        num_rows: int,
        offset: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Filter the per-row retrieved sets and pad them to one batch.

        ``excluded`` marks the positions to drop (the window, and whatever
        another range holds).  One concatenated mask filter plus one
        composite-key argsort replace a per-row ``setdiff1d``: each row comes
        out sorted by position with the excluded positions removed.  Rows
        must be duplicate-free on input (retrieval outcomes are).  Returns
        ``(padded (rows, max_len), mask (rows, max_len), counts (rows,))``
        with the surviving positions shifted down by ``offset`` (a range's
        start: global in, range-local out), or ``None`` when nothing survives.
        """
        lengths = np.fromiter(
            (p.size for p in positions_per_row), dtype=np.int64, count=num_rows
        )
        if int(lengths.sum()) == 0:
            return None
        cat = np.concatenate([np.asarray(p, dtype=np.int64) for p in positions_per_row])
        row_ids = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)
        keep = ~excluded[cat]
        cat, row_ids = cat[keep], row_ids[keep]
        if cat.size == 0:
            return None
        order = np.argsort(row_ids * np.int64(excluded.shape[0]) + cat)
        cat, row_ids = cat[order], row_ids[order]
        counts = np.bincount(row_ids, minlength=num_rows)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        cols = np.arange(cat.size, dtype=np.int64) - starts[row_ids]
        max_len = int(counts.max())
        padded = np.zeros((num_rows, max_len), dtype=np.int64)
        mask = np.zeros((num_rows, max_len), dtype=bool)
        padded[row_ids, cols] = cat - np.int64(offset)
        mask[row_ids, cols] = True
        return padded, mask, counts

    def _masked_retrieved_partial(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        padded: np.ndarray,
        mask: np.ndarray,
        kv_of_head: np.ndarray,
    ) -> PartialAttention:
        """Partial attention over padded per-row retrieved sets.

        ``padded``/``mask`` come from :meth:`_dedup_and_pad`; ``kv_of_head``
        maps each row to its KV head (session-major when rows stack several
        sessions over one shared context).  Rows with nothing retrieved come
        back as the per-head neutral element (``max_logit=-inf``,
        ``sum_exp=0``).
        """
        num_heads, head_dim = queries.shape
        gathered_keys = keys[kv_of_head[:, None], padded, :]
        gathered_values = values[kv_of_head[:, None], padded, :]
        scale = self.scale if self.scale is not None else 1.0 / np.sqrt(head_dim)
        logits = np.matmul(gathered_keys, queries[:, :, None])[..., 0] * np.float32(scale)
        logits = np.where(mask, logits, np.float32(-np.inf))
        max_logit = logits.max(axis=1)
        empty = np.isneginf(max_logit)
        safe_max = np.where(empty, np.float32(0.0), max_logit)
        exps = np.where(mask, np.exp(logits - safe_max[:, None]), np.float32(0.0))
        sum_exp = exps.sum(axis=1)
        denom = np.where(sum_exp == 0.0, np.float32(1.0), sum_exp)
        output = np.matmul(exps[:, None, :], gathered_values)[:, 0, :] / denom[:, None]
        return PartialAttention(
            output=output.astype(np.float32),
            max_logit=max_logit.astype(np.float32),
            sum_exp=sum_exp.astype(np.float32),
        )
