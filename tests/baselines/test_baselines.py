"""Tests of the baseline sparse-attention methods and the LMCache baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.alayadb_ttft import AlayaDBTTFTModel
from repro.baselines.diprs import DIPRSStrategy
from repro.baselines.full_attention import FullAttentionStrategy
from repro.baselines.infllm import InfLLMStrategy
from repro.baselines.lmcache import LMCacheStore, NoReusePrefill
from repro.baselines.streaming_llm import StreamingLLMStrategy
from repro.baselines.topk_retrieval import TopKRetrievalStrategy
from repro.errors import ContextNotFoundError
from repro.kvcache.serialization import KVSnapshot
from repro.simulator.cost_model import CostModel
from repro.workloads.evaluation import evaluate_strategy
from tests.conftest import make_context


class TestFullAttentionStrategy:
    def test_selects_everything(self, small_workload):
        strategy = FullAttentionStrategy()
        strategy.prepare(small_workload.context, 4)
        outcome = strategy.select(0, 0, small_workload.query_for(0, 0, 0), 1024)
        assert outcome.num_selected == 1024
        assert strategy.gpu_token_equivalent(1024) == 1024


class TestStreamingLLM:
    def test_window_only(self):
        strategy = StreamingLLMStrategy(initial_tokens=4, recent_tokens=8)
        resident = strategy.resident_positions(100)
        np.testing.assert_array_equal(resident, [0, 1, 2, 3, 92, 93, 94, 95, 96, 97, 98, 99])
        outcome = strategy.select(0, 0, np.zeros(16, dtype=np.float32), 100)
        assert outcome.num_selected == 0

    def test_fails_needle_task(self, small_workload):
        strategy = StreamingLLMStrategy(initial_tokens=16, recent_tokens=32)
        result = evaluate_strategy(strategy, small_workload)
        assert result.quality < 50.0


class TestInfLLM:
    def test_selects_block_multiples(self, small_workload):
        strategy = InfLLMStrategy(block_size=32, num_retrieved_blocks=4, initial_tokens=8, recent_tokens=16)
        strategy.prepare(small_workload.context, 4)
        outcome = strategy.select(0, 0, small_workload.query_for(0, 0, 0), 1024)
        assert outcome.num_selected == 4 * 32

    def test_gpu_tokens_include_blocks(self):
        strategy = InfLLMStrategy(block_size=32, num_retrieved_blocks=4, initial_tokens=8, recent_tokens=16)
        assert strategy.gpu_token_equivalent(1024) >= 4 * 32

    def test_quality_beats_streaming_on_needles(self, small_workload):
        infllm = evaluate_strategy(
            InfLLMStrategy(block_size=32, num_retrieved_blocks=8, initial_tokens=8, recent_tokens=16),
            small_workload,
        )
        streaming = evaluate_strategy(
            StreamingLLMStrategy(initial_tokens=8, recent_tokens=16), small_workload
        )
        assert infllm.quality >= streaming.quality


class TestTopKAndDIPRS:
    def test_topk_selects_fixed_count(self, small_workload):
        strategy = TopKRetrievalStrategy(k=20, initial_tokens=8, recent_tokens=16, reuse_context_indexes=False)
        strategy.prepare(small_workload.context, 4)
        outcome = strategy.select(0, 1, small_workload.query_for(0, 0, 1), 1024)
        assert outcome.num_selected == 20

    def test_diprs_selects_dynamic_count(self, recovery_workload):
        strategy = DIPRSStrategy(beta=18.0, initial_tokens=8, recent_tokens=16, reuse_context_indexes=False)
        strategy.prepare(recovery_workload.context, 4)
        sizes = {
            kv_head: strategy.select(0, kv_head * 2, recovery_workload.query_for(0, 0, kv_head * 2), 1024).num_selected
            for kv_head in range(2)
        }
        assert len(set(sizes.values())) > 1 or all(s > 0 for s in sizes.values())

    def test_diprs_quality_close_to_full(self, recovery_workload):
        diprs = evaluate_strategy(
            DIPRSStrategy(beta=18.0, capacity_threshold=128, initial_tokens=8, recent_tokens=16, reuse_context_indexes=False),
            recovery_workload,
        )
        assert diprs.quality > 70.0

    def test_diprs_selects_fewer_tokens_than_topk_at_same_quality_scale(self, recovery_workload):
        topk = evaluate_strategy(
            TopKRetrievalStrategy(k=100, initial_tokens=8, recent_tokens=16, reuse_context_indexes=False),
            recovery_workload,
        )
        diprs = evaluate_strategy(
            DIPRSStrategy(beta=18.0, capacity_threshold=128, initial_tokens=8, recent_tokens=16, reuse_context_indexes=False),
            recovery_workload,
        )
        assert diprs.mean_selected_per_head < topk.mean_selected_per_head

    def test_strategies_reuse_context_fine_indexes(self):
        from repro.index.builder import ContextIndexBuilder, IndexBuildConfig
        from repro.workloads.generator import WorkloadSpec, generate_workload

        workload = generate_workload(
            WorkloadSpec(name="reuse", context_length=512, num_query_heads=4, num_kv_heads=2, head_dim=16, seed=21)
        )
        context = workload.context
        builder = ContextIndexBuilder(IndexBuildConfig())
        per_layer, _ = builder.build_context(
            context.snapshot.keys, {0: context.query_samples[0]}
        )
        context.fine_indexes = per_layer
        strategy = TopKRetrievalStrategy(k=10, reuse_context_indexes=True)
        strategy.prepare(context, 4)
        assert strategy._indexes[(0, 0)] is per_layer[0][0]


class TestLMCache:
    def _snapshot(self, num_tokens=64):
        context = make_context(num_tokens=num_tokens)
        return context.snapshot

    def test_store_and_load_roundtrip(self):
        store = LMCacheStore()
        snapshot = self._snapshot()
        stored_bytes = store.store("ctx", snapshot)
        assert 0 < stored_bytes < snapshot.nbytes
        keys, values, seconds = store.load("ctx")
        assert keys[0].shape == snapshot.keys[0].shape
        assert seconds > 0

    def test_missing_context(self):
        store = LMCacheStore()
        with pytest.raises(ContextNotFoundError):
            store.load("missing")

    def test_ttft_grows_with_context_length(self):
        store = LMCacheStore()
        short = store.ttft_for_length(40_000)
        long = store.ttft_for_length(200_000)
        assert long.load_seconds > 4 * short.load_seconds

    def test_alayadb_ttft_nearly_constant(self):
        model = AlayaDBTTFTModel()
        short = model.ttft_for_length(40_000)
        long = model.ttft_for_length(200_000)
        assert long.total_seconds < 2 * short.total_seconds

    def test_relative_ordering_matches_paper(self):
        cost = CostModel()
        length = 120_000
        no_reuse = NoReusePrefill(cost).ttft_for_length(length).total_seconds
        lmcache = LMCacheStore(cost).ttft_for_length(length).total_seconds
        alayadb = AlayaDBTTFTModel(cost).ttft_for_length(length).total_seconds
        assert alayadb < lmcache < no_reuse
        assert lmcache / alayadb > 5          # paper: 19-42x
        assert no_reuse / alayadb > 100       # paper: 2-3 orders of magnitude
