"""Tests of the transformer substrate, RoPE, tokenizer, sampling, generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kvcache.cache import DynamicCache
from repro.core.service import InferenceService
from repro.llm.generation import GenerationResult
from repro.llm.model import ModelConfig, TransformerModel
from repro.llm.rope import RotaryEmbedding, apply_rotary
from repro.llm.sampling import SamplingConfig, greedy, sample_token
from repro.llm.tokenizer import ByteTokenizer


class TestRotaryEmbedding:
    def test_rotation_preserves_norm(self):
        rope = RotaryEmbedding(head_dim=8, max_positions=16)
        x = np.random.default_rng(0).normal(size=(2, 5, 8)).astype(np.float32)
        rotated = rope.rotate(x, np.arange(5))
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-4
        )

    def test_position_zero_is_identity(self):
        rope = RotaryEmbedding(head_dim=8)
        x = np.random.default_rng(1).normal(size=(1, 1, 8)).astype(np.float32)
        rotated = rope.rotate(x, np.asarray([0]))
        np.testing.assert_allclose(rotated, x, atol=1e-6)

    def test_relative_position_property(self):
        # q(m) . k(n) depends only on (m - n): rotating both by the same
        # offset leaves the inner product unchanged.
        rope = RotaryEmbedding(head_dim=16)
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 1, 16)).astype(np.float32)
        k = rng.normal(size=(1, 1, 16)).astype(np.float32)
        q5, k3 = rope.rotate(q, np.asarray([5])), rope.rotate(k, np.asarray([3]))
        q15, k13 = rope.rotate(q, np.asarray([15])), rope.rotate(k, np.asarray([13]))
        np.testing.assert_allclose(
            float(q5[0, 0] @ k3[0, 0]), float(q15[0, 0] @ k13[0, 0]), rtol=1e-4
        )

    def test_table_grows_on_demand(self):
        rope = RotaryEmbedding(head_dim=4, max_positions=4)
        cos, sin = rope.tables(np.asarray([100]))
        assert cos.shape == (1, 2) and sin.shape == (1, 2)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=7)

    def test_apply_rotary_shape(self):
        cos = np.ones((3, 2), dtype=np.float32)
        sin = np.zeros((3, 2), dtype=np.float32)
        x = np.random.default_rng(3).normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_allclose(apply_rotary(x, cos, sin), x, atol=1e-6)


class TestTokenizer:
    def test_roundtrip(self):
        tok = ByteTokenizer()
        text = "AlayaDB stores KV caches. Ünïcödé too."
        assert tok.decode(tok.encode(text)) == text

    def test_bos_eos(self):
        tok = ByteTokenizer()
        ids = tok.encode("hi", add_bos=True, add_eos=True)
        assert ids[0] == tok.bos_id and ids[-1] == tok.eos_id

    def test_vocab_size(self):
        assert ByteTokenizer().vocab_size == 259

    def test_batch_encode(self):
        tok = ByteTokenizer()
        batch = tok.encode_batch(["a", "bc"])
        assert len(batch) == 2 and len(batch[1]) == 3  # bos + 2 bytes


class TestSampling:
    def test_greedy_picks_argmax(self):
        logits = np.asarray([0.1, 5.0, -2.0])
        assert greedy(logits) == 1

    def test_zero_temperature_is_greedy(self):
        logits = np.asarray([0.1, 5.0, -2.0])
        assert sample_token(logits, SamplingConfig(temperature=0.0)) == 1

    def test_sampling_is_deterministic_with_seed(self):
        logits = np.random.default_rng(0).normal(size=50)
        config = SamplingConfig(temperature=1.0, seed=42)
        assert sample_token(logits, config) == sample_token(logits, config)

    def test_top_k_restricts_support(self):
        logits = np.asarray([10.0, 9.0, -50.0, -50.0])
        config = SamplingConfig(temperature=1.0, top_k=2, seed=0)
        tokens = {sample_token(logits, config, np.random.default_rng(i)) for i in range(20)}
        assert tokens.issubset({0, 1})

    def test_top_p_restricts_support(self):
        logits = np.asarray([10.0, 1.0, 0.0, -1.0])
        config = SamplingConfig(temperature=1.0, top_p=0.5, seed=0)
        tokens = {sample_token(logits, config, np.random.default_rng(i)) for i in range(20)}
        assert tokens == {0}


class TestModelConfig:
    def test_head_dim(self):
        assert ModelConfig(dim=64, num_query_heads=8).head_dim == 8

    def test_invalid_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=65, num_query_heads=8)

    def test_invalid_gqa_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_query_heads=8, num_kv_heads=3)

    def test_llama_like_ratios(self):
        config = ModelConfig.llama_like()
        assert config.num_query_heads == 32 and config.num_kv_heads == 8
        assert config.gqa_group_size == 4


class TestTransformerModel:
    def test_deterministic_weights(self):
        a = TransformerModel(ModelConfig.tiny(seed=5))
        b = TransformerModel(ModelConfig.tiny(seed=5))
        np.testing.assert_array_equal(a.lm_head, b.lm_head)

    def test_forward_shape(self, tiny_model):
        logits = tiny_model.forward_rows([1, 2, 3], [DynamicCache()], [3])
        assert logits.shape == (3, tiny_model.config.vocab_size)

    def test_incremental_decode_matches_full_forward(self, tiny_model):
        tokens = [10, 20, 30, 40, 50]
        full_logits = tiny_model.forward_rows(np.asarray(tokens), [DynamicCache()], [len(tokens)])
        cache = DynamicCache()
        _, cache = tiny_model.prefill(tokens[:3], cache)
        l4 = tiny_model.decode_step(tokens[3], cache)
        l5 = tiny_model.decode_step(tokens[4], cache)
        np.testing.assert_allclose(l4, full_logits[3], atol=1e-4)
        np.testing.assert_allclose(l5, full_logits[4], atol=1e-4)

    def test_rejects_2d_input(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward_rows(np.zeros((2, 3), dtype=np.int64), [DynamicCache()], [6])

    def test_kv_bytes_per_token(self, tiny_model):
        config = tiny_model.config
        expected = 2 * config.num_kv_heads * config.head_dim * 4 * config.num_layers
        assert tiny_model.kv_bytes_per_token() == expected

    def test_parameter_count_positive(self, tiny_model):
        assert tiny_model.num_parameters > 0
        assert tiny_model.num_bytes == pytest.approx(tiny_model.num_parameters * 4, rel=0.01)


class TestBatchedDecode:
    def test_matches_per_request_decode(self, tiny_model):
        """decode_batch row i matches decode_step on request i's own cache
        (up to the row-count-dependent rounding of the dense matmuls)."""
        prompts = [[1, 2, 3, 4], [5, 6, 7], [8, 9, 10, 11, 12], [1, 2]]
        next_tokens = [20, 21, 22, 23]
        sequential, seq_caches = [], []
        for prompt in prompts:
            cache = DynamicCache()
            tiny_model.prefill(prompt, cache)
            seq_caches.append(cache)
        for token, cache in zip(next_tokens, seq_caches):
            sequential.append(tiny_model.decode_step(token, cache))
        batch_caches = []
        for prompt in prompts:
            cache = DynamicCache()
            tiny_model.prefill(prompt, cache)
            batch_caches.append(cache)
        batched = tiny_model.decode_batch(next_tokens, batch_caches)
        assert batched.shape == (len(prompts), tiny_model.config.vocab_size)
        for i in range(len(prompts)):
            np.testing.assert_allclose(batched[i], sequential[i], atol=1e-4)
        # each request's KV cache advanced exactly as in the sequential path
        for seq_cache, batch_cache in zip(seq_caches, batch_caches):
            for layer in range(tiny_model.config.num_layers):
                assert batch_cache.sequence_length(layer) == seq_cache.sequence_length(layer)
                np.testing.assert_allclose(
                    batch_cache.keys(layer), seq_cache.keys(layer), atol=1e-5
                )

    def test_caches_at_different_positions(self, tiny_model):
        """Each batch member is rotated by its own cache position."""
        reference_cache = DynamicCache()
        tiny_model.prefill([1, 2, 3, 4, 5, 6, 7, 8], reference_cache)
        reference = tiny_model.decode_step(9, reference_cache)

        short, long = DynamicCache(), DynamicCache()
        tiny_model.prefill([1, 2], short)
        tiny_model.prefill([1, 2, 3, 4, 5, 6, 7, 8], long)
        batched = tiny_model.decode_batch([9, 9], [short, long])
        np.testing.assert_allclose(batched[1], reference, atol=1e-4)
        assert short.sequence_length(0) == 3
        assert long.sequence_length(0) == 9

    def test_ragged_rows_match_each_cache_alone(self, tiny_model):
        """A prefill chunk, a first prefill and a decode token in one pass:
        each cache's rows match the same tokens run on it alone."""
        histories = [[1, 2, 3], [], [4, 5, 6, 7, 8]]
        new_tokens = [[9, 10, 11, 12], [13, 14], [15]]

        def caches():
            made = []
            for history in histories:
                cache = DynamicCache()
                if history:
                    tiny_model.prefill(history, cache)
                made.append(cache)
            return made

        solo_caches = caches()
        solo = [
            tiny_model.forward_rows(tokens, [cache], [len(tokens)])
            for tokens, cache in zip(new_tokens, solo_caches)
        ]
        ragged_caches = caches()
        logits = tiny_model.forward_rows(
            sum(new_tokens, []), ragged_caches, [len(tokens) for tokens in new_tokens]
        )
        assert logits.shape == (7, tiny_model.config.vocab_size)
        np.testing.assert_allclose(logits, np.concatenate(solo), atol=1e-4)
        for ragged, alone in zip(ragged_caches, solo_caches):
            assert ragged.sequence_length(0) == alone.sequence_length(0)
            np.testing.assert_allclose(ragged.keys(1), alone.keys(1), atol=1e-5)

    def test_prefill_and_decode_step_are_one_cache_forward_rows(self, tiny_model):
        """prefill and decode_step are forward_rows over one cache, bit for bit."""
        a, b = DynamicCache(), DynamicCache()
        np.testing.assert_array_equal(
            tiny_model.forward_rows([5, 6, 7], [a], [3])[-1], tiny_model.prefill([5, 6, 7], b)[0]
        )
        np.testing.assert_array_equal(
            tiny_model.forward_rows([8], [a], [1])[-1], tiny_model.decode_step(8, b)
        )

    def test_rows_must_split_the_tokens(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward_rows([1, 2, 3], [DynamicCache(), DynamicCache()], [1, 1])
        with pytest.raises(ValueError):
            tiny_model.forward_rows([1, 2], [DynamicCache(), DynamicCache()], [2, 0])
        with pytest.raises(ValueError):
            tiny_model.forward_rows([1, 2], [DynamicCache()], [1, 1])

    def test_empty_batch(self, tiny_model):
        logits = tiny_model.decode_batch([], [])
        assert logits.shape == (0, tiny_model.config.vocab_size)

    def test_mismatched_lengths_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.decode_batch([1, 2], [DynamicCache()])
        with pytest.raises(ValueError):
            tiny_model.decode_batch(np.zeros((2, 2), dtype=np.int64), [DynamicCache()] * 2)


class TestGeneration:
    """The one generation loop, ``InferenceService``, end to end."""

    def test_generates_requested_tokens(self, tiny_model):
        result, _ = InferenceService(tiny_model).serve("hello", max_new_tokens=5)
        assert result.num_generated <= 5
        assert result.ttft_seconds > 0

    def test_generation_is_deterministic(self, tiny_model):
        a, _ = InferenceService(tiny_model).serve("hello", max_new_tokens=5)
        b, _ = InferenceService(tiny_model).serve("hello", max_new_tokens=5)
        assert a.generated_tokens == b.generated_tokens

    def test_pretokenised_prompt(self, tiny_model):
        result, _ = InferenceService(tiny_model).serve([1, 2, 3, 4], max_new_tokens=3)
        assert result.prompt_tokens == [1, 2, 3, 4]
        assert len(result.decode_seconds) <= 2

    def test_tpot_property(self, tiny_model):
        result, _ = InferenceService(tiny_model).serve("abcdef", max_new_tokens=4)
        assert result.decode_seconds
        assert result.tpot_seconds == pytest.approx(float(np.mean(result.decode_seconds)))
        assert GenerationResult([1], [2], "", 0.1).tpot_seconds == 0.0

    def test_zero_max_new_tokens_generates_nothing(self, tiny_model):
        service = InferenceService(tiny_model)
        handle = service.submit([1, 2, 3], max_new_tokens=0, store_context_id="prefilled")
        result, record = handle.result()
        assert result.generated_tokens == []
        assert result.text == ""
        assert not result.finished_by_eos
        # the prefill still ran and filled the session's KV
        assert service.db.get_context(record.stored_context_id).num_tokens == 3
        assert result.ttft_seconds > 0

    def test_one_max_new_token(self, tiny_model):
        result, _ = InferenceService(tiny_model).serve([1, 2, 3], max_new_tokens=1)
        assert result.num_generated == 1
        assert result.decode_seconds == []

    def test_negative_max_new_tokens_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            InferenceService(tiny_model).serve([1, 2, 3], max_new_tokens=-1)
