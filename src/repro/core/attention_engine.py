"""Data-centric attention engine (Section 7.2 of the paper).

Instead of gathering every attended key/value onto one device and running a
single kernel, AlayaDB computes *partial attention where the data lives* —
one partial per stored-KV range, one over the session's local KV — and merges
the partials with the exact flash-attention decomposition.  Only the
per-partial outputs and their log-sum-exp statistics cross devices, never the
KV tensors themselves.  Full attention is the plan whose partials cover every
stored token: it takes the same route as the sparse plans, minus retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.attention import PartialAttention, combine_partial_attention, partial_attention

__all__ = ["AttentionBreakdown", "DataCentricAttentionEngine"]


@dataclass
class AttentionBreakdown:
    """Where the tokens that contributed to one head's output came from."""

    num_window_tokens: int = 0
    num_retrieved_tokens: int = 0
    """Stored tokens attended outside the window: the retrieved set, or the
    whole visible range under a full-attention plan."""
    num_local_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        return self.num_window_tokens + self.num_retrieved_tokens + self.num_local_tokens


class DataCentricAttentionEngine:
    """Computes attention outputs by merging per-location partials."""

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
        retrieved_positions: list[np.ndarray] | None,
        local_keys: list[np.ndarray | None],
        local_values: list[np.ndarray | None],
    ) -> tuple[np.ndarray, list[AttentionBreakdown]]:
        """One decode token's attention for ``S >= 1`` sessions over ``R >= 0``
        stored-KV ranges.

        Every session in a compatibility group reads the *same* stored
        context under the same plan.  Partials are computed where the data
        lives — per range one over everything it holds (a full-attention
        plan) or one over its slice of the window and one over its slice of
        the retrieved tokens (a sparse plan), per session one over its local
        KV — and merge with one log-sum-exp combine, which equals a single
        softmax over everything attended.  Row ``(s, h)`` of the output (and
        entry ``s * num_heads + h`` of the breakdown list) is bit-for-bit
        independent of which other sessions are stacked; heads that attend
        to nothing come back as zeros.

        Parameters
        ----------
        queries:
            ``(num_sessions, num_query_heads, head_dim)`` decode queries.
        ranges:
            ``(start, keys, values)`` per token range of the stored context:
            ``keys``/``values`` are ``(num_kv_heads, n_r, head_dim)`` and hold
            global tokens ``[start, start + n_r)`` — only what the sessions
            may see (the caller cuts a range at the reused prefix).  A
            single-owner context is the one range ``(0, keys, values)``; an
            unconnected session has none.
        window_positions:
            Window-cache positions in global token space (identical across
            the group by the compatibility key); unread under a
            full-attention plan.
        retrieved_positions:
            ``None`` for a full-attention plan: every token of every range is
            attended, un-gathered.  Otherwise one global position array per
            stacked head, session-major (``num_sessions * num_query_heads``
            entries, each duplicate-free — retrieval outcomes are);
            deduplication against the window happens here.
        local_keys / local_values:
            Per-session unmaterialised KV ``(num_kv_heads, m_s, head_dim)``
            or ``None``; lengths ``m_s`` may differ.  Each session's local
            partial is computed on its own arrays — padding them to a common
            length would change the summation order with the group.
        """
        queries = np.asarray(queries, dtype=np.float32)
        num_sessions, num_heads, head_dim = queries.shape
        # window / retrieved / local tokens attended per stacked row
        counts = np.zeros((3, num_sessions * num_heads), dtype=np.int64)
        window_counts, retrieved_counts, local_counts = counts
        slabs = [keys for _, keys, _ in ranges] + [lk for lk in local_keys if lk is not None]
        if not slabs:
            return np.zeros_like(queries), [AttentionBreakdown() for _ in counts.T]
        num_kv_heads = slabs[0].shape[0]
        grouped_q = queries.reshape(num_sessions, num_kv_heads, num_heads // num_kv_heads, head_dim)

        partials: list[PartialAttention] = []
        if retrieved_positions is None:
            for _, keys, values in ranges:
                partials.append(partial_attention(grouped_q, keys, values, self.scale))
                retrieved_counts += keys.shape[1]
        elif ranges:
            window_positions = np.asarray(window_positions, dtype=np.int64)
            num_positions = max(start + keys.shape[1] for start, keys, _ in ranges)
            in_window = np.zeros(num_positions, dtype=bool)
            in_window[window_positions] = True
            for start, keys, values in ranges:
                partials.extend(
                    self._sparse_range_partials(
                        grouped_q, start, keys, values, window_positions, in_window,
                        retrieved_positions, window_counts, retrieved_counts,
                    )
                )

        local = []
        for s, (lk, lv) in enumerate(zip(local_keys, local_values)):
            if lk is None:
                local.append(PartialAttention.empty(num_heads, head_dim))
                continue
            local.append(partial_attention(grouped_q[s], lk, lv, self.scale))
            local_counts[s * num_heads : (s + 1) * num_heads] = lk.shape[1]
        partials.append(PartialAttention.concatenate(local))
        breakdowns = [AttentionBreakdown(*row) for row in counts.T.tolist()]
        return combine_partial_attention(partials).output.reshape(queries.shape), breakdowns

    def causal_output(
        self,
        queries: np.ndarray,
        ranges: list[tuple[int, np.ndarray, np.ndarray]],
        local_keys: np.ndarray,
        local_values: np.ndarray,
    ) -> np.ndarray:
        """Exact causal attention for a multi-token chunk (prefill of a suffix).

        The same merge as a full-attention decode step with rows in place of
        sessions: ``queries`` is ``(num_query_heads, seq, head_dim)``, the
        chunk's tokens are the last ``seq`` entries of ``local_keys``.  Every
        stored token precedes the chunk, so each of the ``ranges`` (as in
        :meth:`stacked_layer_output`) contributes one unmasked partial for
        all ``seq`` rows; causality only bites inside the local KV.
        """
        queries = np.asarray(queries, dtype=np.float32)
        num_heads, seq, head_dim = queries.shape
        num_kv_heads, num_local, _ = local_keys.shape
        group = num_heads // num_kv_heads
        rows = queries.reshape(num_kv_heads, group * seq, head_dim)
        partials = [partial_attention(rows, keys, values, self.scale) for _, keys, values in ranges]
        visible = np.tile(np.tri(seq, num_local, num_local - seq, dtype=bool), (group, 1))
        partials.append(partial_attention(rows, local_keys, local_values, self.scale, mask=visible))
        return combine_partial_attention(partials).output.reshape(queries.shape)

    def _sparse_range_partials(
        self,
        grouped_q: np.ndarray,
        start: int,
        keys: np.ndarray,
        values: np.ndarray,
        window_positions: np.ndarray,
        in_window: np.ndarray,
        retrieved_positions: list[np.ndarray],
        window_counts: np.ndarray,
        retrieved_counts: np.ndarray,
    ) -> list[PartialAttention]:
        """The window and retrieved partials of one stored-KV range.

        ``grouped_q`` is the ``(sessions, kv_heads, group, d)`` query stack.
        The window partial is the slab primitive over the ``(kv_heads,
        window, d)`` gather of the range's slice of the window; the retrieved
        partial dedups the per-head sets (minus the window, minus what other
        ranges hold) in one batch and gathers them session by session.  Each
        is over ``sessions * heads`` rows, session-major, and is left out
        when the range holds nothing of its kind; the per-row ``*_counts``
        accumulate the tokens attended.
        """
        num_sessions, num_kv_heads, group, head_dim = grouped_q.shape
        num_heads = num_kv_heads * group
        total = num_sessions * num_heads
        stop = start + keys.shape[1]
        partials: list[PartialAttention] = []

        window_local = window_positions[(window_positions >= start) & (window_positions < stop)] - start
        if window_local.size:
            partials.append(
                partial_attention(
                    grouped_q, keys[:, window_local, :], values[:, window_local, :], self.scale
                )
            )
            window_counts += window_local.size

        # a retrieved token belongs to this range's partial when it lies in
        # the range and outside the window
        excluded = np.ones(in_window.shape[0], dtype=bool)
        excluded[start:stop] = in_window[start:stop]
        dedup = self._dedup_and_pad(retrieved_positions, excluded, total, start)
        if dedup is not None:
            padded, mask, counts = dedup
            kv_of_head = np.arange(num_heads, dtype=np.int64) // group
            session_q = grouped_q.reshape(num_sessions, num_heads, head_dim)
            retrieved = []
            for s in range(num_sessions):
                # cut the padding at the session's own longest set: a row
                # padded to the stack's longest would sum in another order
                rows = slice(s * num_heads, (s + 1) * num_heads)
                longest = int(counts[rows].max())
                retrieved.append(
                    self._masked_retrieved_partial(
                        session_q[s], keys, values, padded[rows, :longest], mask[rows, :longest], kv_of_head
                    )
                    if longest
                    else PartialAttention.empty(num_heads, head_dim)
                )
            partials.append(PartialAttention.concatenate(retrieved))
            retrieved_counts += counts
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

        ``padded``/``mask`` are one session's rows of :meth:`_dedup_and_pad`'s
        batch; ``kv_of_head`` maps each row to its KV head.  Rows with
        nothing retrieved come back as the per-head neutral element
        (``max_logit=-inf``, ``sum_exp=0``).
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
