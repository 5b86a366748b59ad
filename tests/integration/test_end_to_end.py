"""Integration tests: the whole stack working together.

These tests follow the paper's usage pattern end to end: import a long
context into AlayaDB, create sessions that reuse it (fully and partially),
generate with the NumPy transformer through the decoupled attention path, and
compare against the coupled full-attention baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DIPRSStrategy,
    FullAttentionStrategy,
    InfLLMStrategy,
    StreamingLLMStrategy,
    TopKRetrievalStrategy,
)
from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.kvcache.cache import DynamicCache
from repro.llm.attention import decode_attention
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import beta_from_alpha
from repro.scheduler import SLO
from repro.simulator.cost_model import CostModel
from repro.workloads.evaluation import evaluate_strategy
from repro.workloads.generator import WorkloadSpec, generate_workload
from repro.workloads.infinite_bench import infinite_bench_task
from tests.reference_generation import reference_generate


@pytest.fixture(scope="module")
def serving_stack():
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=24,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        topk_k=16,
    )
    db = DB(config)
    document = "Long documents need long context inference support in databases. " * 20
    context = db.prefill_and_import(model, document)
    return model, db, document, context


class TestDecoupledInference:
    def test_sparse_attention_output_close_to_full(self, serving_stack):
        """The decoupled sparse path approximates the coupled full path."""
        model, db, document, context = serving_stack
        prompt = document + "Question: why?"

        session, truncated = db.create_session(prompt)
        sparse = reference_generate(model, truncated, cache=session, max_new_tokens=4)

        full = reference_generate(model, db._tokenize(prompt), cache=DynamicCache(), max_new_tokens=4)
        # greedy first token must match; later tokens may diverge slightly
        assert sparse[0] == full[0]

    def test_memory_savings_vs_full_cache(self, serving_stack):
        model, db, document, context = serving_stack
        prompt = document + "Q"
        session, truncated = db.create_session(prompt)
        reference_generate(model, truncated, cache=session, max_new_tokens=2)

        full_cache = DynamicCache()
        reference_generate(model, db._tokenize(prompt), cache=full_cache, max_new_tokens=2)

        assert session.gpu_memory_bytes() < full_cache.nbytes

    def test_store_then_reuse_round_trip(self, serving_stack):
        model, db, document, _ = serving_stack
        prompt = document + "First question?"
        session, truncated = db.create_session(prompt)
        reference_generate(model, truncated, cache=session, max_new_tokens=2)
        stored = db.store(session, context_id="conversation-1")

        # a second session over the stored conversation reuses all of it
        follow_up, truncated2 = db.create_session(stored.tokens)
        assert follow_up.reused_prefix_length == stored.num_tokens
        assert truncated2 == []


class TestMethodComparison:
    """The Table 5-style comparison at test scale: orderings must hold."""

    @pytest.fixture(scope="class")
    def results(self):
        spec = infinite_bench_task("En.QA", context_length=2048, num_decode_steps=3)
        workload = generate_workload(spec)
        beta = beta_from_alpha(0.012, spec.head_dim)
        methods = {
            "full": FullAttentionStrategy(),
            "streaming": StreamingLLMStrategy(initial_tokens=32, recent_tokens=128),
            "infllm": InfLLMStrategy(block_size=64, num_retrieved_blocks=4, initial_tokens=32, recent_tokens=128),
            "top50": TopKRetrievalStrategy(k=50, initial_tokens=32, recent_tokens=128, reuse_context_indexes=False),
            "diprs": DIPRSStrategy(beta=beta, capacity_threshold=128, initial_tokens=32, recent_tokens=128, reuse_context_indexes=False),
        }
        return {name: evaluate_strategy(m, workload) for name, m in methods.items()}

    def test_full_attention_is_best_quality(self, results):
        assert results["full"].quality >= max(r.quality for r in results.values()) - 1e-6

    def test_streaming_llm_is_worst_quality(self, results):
        others = [r.quality for name, r in results.items() if name != "streaming"]
        assert results["streaming"].quality <= min(others)

    def test_diprs_beats_fixed_topk_with_fewer_tokens(self, results):
        assert results["diprs"].quality >= results["top50"].quality - 5.0
        assert results["diprs"].mean_selected_per_head < 4 * results["top50"].mean_selected_per_head

    def test_diprs_meets_slo_while_full_violates_at_paper_scale(self, results):
        cost = CostModel()
        slo = SLO()
        paper_context = 192_600
        assert results["diprs"].meets_slo(cost, slo, paper_context)
        assert not results["full"].meets_slo(cost, slo, paper_context, is_full_attention=True)

    def test_diprs_uses_less_gpu_memory_than_infllm(self, results):
        cost = CostModel()
        assert results["diprs"].gpu_memory_bytes(cost) < results["infllm"].gpu_memory_bytes(cost)


class TestSessionAttentionCorrectness:
    def test_session_full_plan_matches_exact_attention(self):
        """When the optimizer picks full attention the session output is exact."""
        config = AlayaDBConfig(short_context_threshold=10_000)
        db = DB(config)
        model = TransformerModel(ModelConfig.tiny())
        document = "abcdefgh " * 30
        context = db.prefill_and_import(model, document)
        session, truncated = db.create_session(document + "tail")
        rng = np.random.default_rng(0)
        head_dim = model.config.head_dim
        q = rng.normal(size=(4, 1, head_dim)).astype(np.float32)
        k = rng.normal(size=(2, 1, head_dim)).astype(np.float32)
        v = rng.normal(size=(2, 1, head_dim)).astype(np.float32)
        session.update_query(q, k, v, layer=0)
        out = session.attention(q, layer=0)
        keys = np.concatenate([context.keys(0), k], axis=1)
        values = np.concatenate([context.values(0), v], axis=1)
        expected = decode_attention(q[:, 0, :], keys, values)
        np.testing.assert_allclose(out[:, 0, :], expected, atol=1e-4)
