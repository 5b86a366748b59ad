"""Tests of the exact attention kernels and the partial-attention merge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.attention import (
    PartialAttention,
    attention_weights,
    combine_partial_attention,
    decode_attention,
    full_attention,
    partial_attention,
    repeat_kv,
    softmax,
)


def _random_qkv(num_heads=4, num_kv_heads=2, seq=32, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(num_heads, dim)).astype(np.float32)
    k = rng.normal(size=(num_kv_heads, seq, dim)).astype(np.float32)
    v = rng.normal(size=(num_kv_heads, seq, dim)).astype(np.float32)
    return q, k, v


def partial(q, k, v, **kwargs):
    """The slab primitive for one decode token: ``q`` ``(h, d)`` grouped per KV head."""
    return partial_attention(q.reshape(k.shape[0], -1, q.shape[-1]), k, v, **kwargs)


def merged(parts):
    return combine_partial_attention(parts).output


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(3, 7)).astype(np.float32)
        w = softmax(x)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-5)

    def test_shift_invariance(self):
        x = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_handles_large_values_without_overflow(self):
        x = np.asarray([1e4, 1e4 - 1.0], dtype=np.float32)
        w = softmax(x)
        assert np.isfinite(w).all()


class TestRepeatKV:
    def test_identity_when_heads_match(self):
        kv = np.zeros((4, 3, 2), dtype=np.float32)
        assert repeat_kv(kv, 4) is kv

    def test_expansion_factor(self):
        kv = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2)
        out = repeat_kv(kv, 6)
        assert out.shape == (6, 3, 2)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(out[3], kv[1])

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            repeat_kv(np.zeros((3, 2, 2), dtype=np.float32), 4)


class TestCausalAttention:
    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(1, 4, 8)).astype(np.float32)
        k = rng.normal(size=(1, 4, 8)).astype(np.float32)
        w = attention_weights(q, k, causal=True)
        upper = np.triu_indices(4, k=1)
        assert np.allclose(w[0][upper], 0.0)

    def test_causal_offset_for_cached_prefix(self):
        # 2 new queries attending over 6 cached keys: the first query sees 5
        # keys (its own position), the second all 6.
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 2, 8)).astype(np.float32)
        k = rng.normal(size=(1, 6, 8)).astype(np.float32)
        w = attention_weights(q, k, causal=True)
        assert w[0, 0, 5] == 0.0
        assert w[0, 1, 5] > 0.0

    def test_full_attention_matches_manual(self):
        q, k, v = _random_qkv()
        out = decode_attention(q, k, v)
        k_r, v_r = repeat_kv(k, 4), repeat_kv(v, 4)
        for head in range(4):
            logits = k_r[head] @ q[head] / np.sqrt(8)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            expected = weights @ v_r[head]
            np.testing.assert_allclose(out[head], expected, rtol=1e-4)

    def test_gqa_equivalence_with_repeated_heads(self):
        q, k, v = _random_qkv(num_heads=4, num_kv_heads=2)
        grouped = decode_attention(q, k, v)
        expanded = decode_attention(q, repeat_kv(k, 4), repeat_kv(v, 4))
        np.testing.assert_allclose(grouped, expanded, rtol=1e-5)


class TestPartialAttentionMerge:
    def test_two_way_split_matches_full(self):
        q, k, v = _random_qkv(seq=50, seed=3)
        full = decode_attention(q, k, v)
        parts = [
            partial(q, k[:, :20], v[:, :20]),
            partial(q, k[:, 20:], v[:, 20:]),
        ]
        np.testing.assert_allclose(merged(parts), full, atol=1e-5)

    def test_many_way_split_matches_full(self):
        q, k, v = _random_qkv(seq=60, seed=4)
        full = decode_attention(q, k, v)
        parts = [partial(q, k[:, i : i + 7], v[:, i : i + 7]) for i in range(0, 60, 7)]
        np.testing.assert_allclose(merged(parts), full, atol=1e-5)

    def test_empty_parts_are_ignored(self):
        q, k, v = _random_qkv(seq=10, seed=5)
        full = decode_attention(q, k, v)
        parts = [
            PartialAttention.empty(4, 8),
            partial(q, k, v),
        ]
        np.testing.assert_allclose(merged(parts), full, atol=1e-5)

    def test_all_empty_is_zeros_and_stays_neutral(self):
        combined = combine_partial_attention([PartialAttention.empty(2, 4), PartialAttention.empty(2, 4)])
        assert np.isneginf(combined.max_logit).all() and not combined.sum_exp.any() and not combined.output.any()
        assert not merged([PartialAttention.empty(2, 4)]).any()
        with pytest.raises(ValueError):
            combine_partial_attention([])  # no shape to return zeros of

    def test_head_empty_in_every_partial_is_zeros_not_nan(self):
        """Regression: ``exp(-inf - (-inf))`` made such a head NaN while its neighbour was fine."""
        q, k, v = _random_qkv(num_heads=2, num_kv_heads=2, seq=12, seed=8)
        parts = [partial(q, k[:, :5], v[:, :5]), partial(q, k[:, 5:], v[:, 5:])]
        for part in parts:  # head 1 attends to nothing anywhere
            part.output[1], part.max_logit[1], part.sum_exp[1] = 0.0, -np.inf, 0.0
        out = merged(parts)
        np.testing.assert_allclose(out[0], decode_attention(q, k, v)[0], atol=1e-5)
        assert not out[1].any()
        combined = combine_partial_attention(parts)
        assert np.isneginf(combined.max_logit[1]) and combined.sum_exp[1] == 0.0

    def test_head_empty_in_some_partials_only(self):
        q, k, v = _random_qkv(num_heads=2, num_kv_heads=2, seq=12, seed=9)
        parts = [partial(q, k[:, :5], v[:, :5]), partial(q, k[:, 5:], v[:, 5:])]
        parts[0].output[1], parts[0].max_logit[1], parts[0].sum_exp[1] = 0.0, -np.inf, 0.0
        out = merged(parts)
        np.testing.assert_allclose(out[0], decode_attention(q, k, v)[0], atol=1e-5)
        np.testing.assert_allclose(out[1], parts[1].output[1], atol=1e-6)

    @pytest.mark.parametrize("magnitude", [1e4, 3e37])
    def test_large_logits_of_either_sign_stay_finite(self, magnitude):
        rng = np.random.default_rng(10)
        parts = [
            PartialAttention(
                output=rng.normal(size=(2, 4)).astype(np.float32),
                max_logit=np.array([sign * magnitude, -sign * magnitude], dtype=np.float32),
                sum_exp=np.array([3.0, 5.0], dtype=np.float32),
            )
            for sign in (1.0, -1.0)
        ]
        combined = combine_partial_attention(parts)
        assert np.isfinite(combined.output).all() and np.isfinite(combined.sum_exp).all()
        # the partial holding a head's far larger logit decides that head
        np.testing.assert_allclose(combined.output[0], parts[0].output[0], atol=1e-6)
        np.testing.assert_allclose(combined.output[1], parts[1].output[1], atol=1e-6)

    def test_combined_statistics_merge_again_exactly(self):
        """A shard's collapsed partial merges with the others as its pieces would have."""
        q, k, v = _random_qkv(seq=30, seed=11)
        a, b, c = (partial(q, k[:, i : i + 10], v[:, i : i + 10]) for i in (0, 10, 20))
        nested = combine_partial_attention([combine_partial_attention([a, b]), c])
        flat = combine_partial_attention([a, b, c])
        np.testing.assert_allclose(nested.output, flat.output, atol=1e-5)
        np.testing.assert_allclose(nested.max_logit, flat.max_logit)
        np.testing.assert_allclose(nested.sum_exp, flat.sum_exp, rtol=1e-5)
        np.testing.assert_allclose(flat.output, decode_attention(q, k, v), atol=1e-5)

    def test_single_part_is_copied(self):
        q, k, v = _random_qkv(seq=10, seed=6)
        part = partial(q, k, v)
        out = merged([part])
        np.testing.assert_allclose(out, part.output, atol=1e-6)
        out[0, 0] = 42.0
        assert part.output[0, 0] != 42.0

    @settings(deadline=None, max_examples=30)
    @given(
        seq=st.integers(min_value=2, max_value=64),
        split=st.integers(min_value=1, max_value=63),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_split_anywhere_matches_full(self, seq, split, seed):
        split = min(split, seq - 1)
        q, k, v = _random_qkv(seq=seq, seed=seed)
        full = decode_attention(q, k, v)
        parts = [
            partial(q, k[:, :split], v[:, :split]),
            partial(q, k[:, split:], v[:, split:]),
        ]
        np.testing.assert_allclose(merged(parts), full, atol=1e-4)

    def test_prefill_full_attention_shapes(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(4, 5, 8)).astype(np.float32)
        k = rng.normal(size=(2, 5, 8)).astype(np.float32)
        v = rng.normal(size=(2, 5, 8)).astype(np.float32)
        out = full_attention(q, k, v, causal=True)
        assert out.shape == (4, 5, 8)


class TestSlabPrimitive:
    """``partial_attention``: grouped query rows over one un-repeated KV slab."""

    def test_one_token_matches_decode_attention(self):
        q, k, v = _random_qkv(num_heads=8, num_kv_heads=2, seq=40, seed=12)
        part = partial(q, k, v)
        assert part.output.shape == (8, 8) and part.max_logit.shape == part.sum_exp.shape == (8,)
        np.testing.assert_allclose(part.output, decode_attention(q, k, v), atol=1e-5)

    def test_empty_slab_is_the_neutral_element(self):
        q, k, v = _random_qkv(seq=0)
        part = partial(q, k, v)
        assert np.isneginf(part.max_logit).all() and not part.sum_exp.any() and not part.output.any()

    def test_stacked_sessions_ride_the_batch_axis_bit_for_bit(self):
        rng = np.random.default_rng(13)
        k = rng.normal(size=(2, 700, 16)).astype(np.float32)
        v = rng.normal(size=(2, 700, 16)).astype(np.float32)
        stack = rng.normal(size=(9, 2, 4, 16)).astype(np.float32)
        together = partial_attention(stack, k, v)
        for s in range(9):
            alone = partial_attention(stack[s], k, v)
            rows = slice(s * 8, (s + 1) * 8)
            np.testing.assert_array_equal(together.output[rows], alone.output)
            np.testing.assert_array_equal(together.max_logit[rows], alone.max_logit)
            np.testing.assert_array_equal(together.sum_exp[rows], alone.sum_exp)

    @pytest.mark.parametrize("cached", [0, 6])
    def test_causal_mask_over_chunk_rows_matches_full_attention(self, cached):
        """A prefill chunk: ``group * seq`` rows per KV head, row ``t`` sees ``cached + t + 1`` keys."""
        rng = np.random.default_rng(14)
        seq, total = 5, cached + 5
        q = rng.normal(size=(4, seq, 8)).astype(np.float32)
        k = rng.normal(size=(2, total, 8)).astype(np.float32)
        v = rng.normal(size=(2, total, 8)).astype(np.float32)
        mask = np.tile(np.tri(seq, total, cached, dtype=bool), (2, 1))
        part = partial_attention(q.reshape(2, 2 * seq, 8), k, v, mask=mask)
        np.testing.assert_allclose(
            part.output.reshape(4, seq, 8), full_attention(q, k, v, causal=True), atol=1e-5
        )

    @pytest.mark.parametrize("cached", [0, 6])
    def test_mask_narrower_than_the_keys_covers_the_last_ones(self, cached):
        """A ``(seq, seq)`` triangle over the chunk's own keys is bitwise the
        ``(seq, cached + seq)`` causal mask: the keys before it are attended by every row."""
        rng = np.random.default_rng(16)
        seq, total = 5, cached + 5
        q = rng.normal(size=(2, 2 * seq, 8)).astype(np.float32)
        k = rng.normal(size=(2, total, 8)).astype(np.float32)
        v = rng.normal(size=(2, total, 8)).astype(np.float32)
        narrow = partial_attention(q, k, v, mask=np.tri(seq, dtype=bool))
        wide = partial_attention(q, k, v, mask=np.tri(seq, total, cached, dtype=bool))
        for got, want in zip(
            (narrow.output, narrow.max_logit, narrow.sum_exp), (wide.output, wide.max_logit, wide.sum_exp)
        ):
            np.testing.assert_array_equal(got, want)

    def test_fully_masked_row_is_neutral_not_nan(self):
        q, k, v = _random_qkv(num_heads=2, num_kv_heads=2, seq=6, seed=15)
        mask = np.ones((1, 6), dtype=bool)
        part = partial(q, k, v, mask=np.zeros((1, 6), dtype=bool))
        assert np.isneginf(part.max_logit).all() and not part.sum_exp.any() and not part.output.any()
        np.testing.assert_array_equal(partial(q, k, v, mask=mask).output, partial(q, k, v).output)
