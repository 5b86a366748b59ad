"""Tests of the core components: window cache, attention engine, optimizer,
planner, context store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attention_engine import DataCentricAttentionEngine
from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore, StoredContext
from repro.core.optimizer import QueryContext, RuleBasedOptimizer
from repro.core.planner import ExecutionPlan, LayerIndexData, PlanExecutor
from repro.core.window_cache import WindowCache
from repro.errors import ConfigError, ContextNotFoundError, DuplicateContextError, UnsupportedQueryError
from repro.index.coarse import CoarseBlockIndex
from repro.index.roargraph import RoarGraphIndex
from repro.kvcache.serialization import KVSnapshot
from repro.llm.attention import decode_attention
from repro.query.types import DIPRQuery, IndexKind, QueryKind, TopKQuery
from tests.conftest import make_context
from tests.reference_attention import reference_retrieve


class TestAlayaDBConfig:
    def test_defaults_valid(self):
        config = AlayaDBConfig()
        assert config.window_total_tokens == 640

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            AlayaDBConfig(window_initial_tokens=-1)
        with pytest.raises(ConfigError):
            AlayaDBConfig(dipr_beta=-5)
        with pytest.raises(ConfigError):
            AlayaDBConfig(topk_k=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retrieved_tokens", -1),
            ("max_retrieved_tokens", 0),
            ("dipr_capacity_threshold", 0),
            ("coarse_block_size", 0),
            ("coarse_num_blocks", 0),
            ("scheduler_gpu_budget_bytes", 0),
        ],
        ids=str,
    )
    def test_retrieval_knobs_rejected_at_construction(self, field, value):
        """Regression: these used to pass construction — a negative cap sliced
        ``order[:-1]`` and silently dropped a token, a zero block count was
        clamped to one block, and the others failed only later (at the first
        plan, at ingest, or when the service built its admission control)."""
        with pytest.raises(ConfigError, match=field):
            AlayaDBConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("short_context_threshold", -1),
            ("max_inflight_requests", 0),
            ("prefill_chunk_tokens", 0),
            ("scheduler_policy", "lifo"),
            ("preemption_slack_seconds", -1.0),
            ("http_port", 65536),
            ("http_max_body_bytes", 0),
            ("num_shards", 0),
        ],
        ids=str,
    )
    def test_serving_knobs_rejected_at_construction(self, field, value):
        """Each serving, storage and sharding knob is checked where the config
        is built, and the error names the offending field."""
        with pytest.raises(ConfigError, match=field):
            AlayaDBConfig(**{field: value})

    def test_beta_scaling(self):
        """``dipr_beta`` is read at the paper's 128-dim calibration."""
        config = AlayaDBConfig(dipr_beta=50.0)
        assert config.scaled_beta(128) == pytest.approx(50.0)
        assert config.scaled_beta(32) == pytest.approx(25.0)
        assert AlayaDBConfig(dipr_beta=16.0).scaled_beta(8) == 4.0


class TestWindowCache:
    def test_positions_cover_initial_and_last(self):
        window = WindowCache(initial_tokens=4, last_tokens=4)
        positions = window.positions(100)
        np.testing.assert_array_equal(positions, [0, 1, 2, 3, 96, 97, 98, 99])

    def test_short_context_fully_covered(self):
        window = WindowCache(initial_tokens=8, last_tokens=8)
        assert window.covers(12)
        assert window.num_positions(12) == 12

    def test_empty_context(self):
        window = WindowCache(4, 4)
        assert window.positions(0).size == 0

    def test_memory_bytes(self):
        window = WindowCache(initial_tokens=2, last_tokens=2)
        nbytes = window.memory_bytes(100, num_kv_heads=2, head_dim=8, num_layers=3)
        assert nbytes == 2 * 4 * 2 * 8 * 3 * 4

    def test_max_window_scores_batches_all_heads(self):
        window = WindowCache(4, 4)
        rng = np.random.default_rng(3)
        num_kv_heads, group_size, n, dim = 2, 3, 30, 8
        keys = rng.normal(size=(num_kv_heads, n, dim)).astype(np.float32)
        queries = rng.normal(size=(num_kv_heads * group_size, dim)).astype(np.float32)
        positions = window.positions(n)
        batched = window.max_window_scores(queries, keys, positions)
        assert batched.shape == (num_kv_heads * group_size,)
        for head in range(queries.shape[0]):
            expected = (keys[head // group_size][positions] @ queries[head]).max()
            assert batched[head] == pytest.approx(expected)
        empty = window.max_window_scores(queries, keys, np.empty(0, dtype=np.int64))
        assert np.all(np.isneginf(empty))


class TestAttentionEngine:
    def test_merged_output_matches_exact(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(1, 60, 8)).astype(np.float32)
        values = rng.normal(size=(1, 60, 8)).astype(np.float32)
        local_k = rng.normal(size=(1, 5, 8)).astype(np.float32)
        local_v = rng.normal(size=(1, 5, 8)).astype(np.float32)
        queries = rng.normal(size=(1, 8)).astype(np.float32)
        engine = DataCentricAttentionEngine()
        window = np.arange(0, 10)
        retrieved = np.arange(30, 45)
        outputs, breakdowns = engine.layer_output(queries, keys, values, window, [retrieved], local_k, local_v)
        # exact attention over the union of attended tokens
        attended = np.concatenate([window, retrieved])
        all_k = np.concatenate([keys[:, attended], local_k], axis=1)
        all_v = np.concatenate([values[:, attended], local_v], axis=1)
        np.testing.assert_allclose(outputs, decode_attention(queries, all_k, all_v), atol=1e-5)
        assert breakdowns[0].total_tokens == 10 + 15 + 5

    def test_overlapping_positions_not_double_counted(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(1, 40, 8)).astype(np.float32)
        values = rng.normal(size=(1, 40, 8)).astype(np.float32)
        queries = rng.normal(size=(1, 8)).astype(np.float32)
        engine = DataCentricAttentionEngine()
        window = np.arange(0, 20)
        retrieved = np.arange(10, 30)  # overlaps the window
        outputs, breakdowns = engine.layer_output(queries, keys, values, window, [retrieved])
        expected = decode_attention(queries, keys[:, :30], values[:, :30])
        np.testing.assert_allclose(outputs, expected, atol=1e-5)
        assert breakdowns[0].num_retrieved_tokens == 10

    def test_empty_everything_returns_zeros(self):
        engine = DataCentricAttentionEngine()
        outputs, breakdowns = engine.layer_output(
            np.ones((2, 4), dtype=np.float32),
            np.zeros((1, 0, 4), dtype=np.float32),
            np.zeros((1, 0, 4), dtype=np.float32),
            np.empty(0, dtype=np.int64),
            [np.empty(0, dtype=np.int64)] * 2,
        )
        assert outputs.shape == (2, 4) and np.allclose(outputs, 0.0)
        assert all(breakdown.total_tokens == 0 for breakdown in breakdowns)

    def test_whole_context_window_matches_decode_attention(self):
        rng = np.random.default_rng(2)
        keys = rng.normal(size=(2, 30, 8)).astype(np.float32)
        values = rng.normal(size=(2, 30, 8)).astype(np.float32)
        queries = rng.normal(size=(4, 8)).astype(np.float32)
        engine = DataCentricAttentionEngine()
        nothing = [np.empty(0, dtype=np.int64)] * 4
        outputs, _ = engine.layer_output(queries, keys, values, np.arange(30), nothing)
        np.testing.assert_allclose(outputs, decode_attention(queries, keys, values), atol=1e-5)


class TestContextStore:
    def test_add_get_remove(self, random_context):
        store = ContextStore()
        store.add(random_context)
        assert len(store) == 1
        assert store.get("ctx-test") is random_context
        store.remove("ctx-test")
        assert len(store) == 0

    def test_duplicate_rejected(self, random_context):
        store = ContextStore()
        store.add(random_context)
        with pytest.raises(DuplicateContextError):
            store.add(random_context)
        store.add(random_context, overwrite=True)

    def test_missing_context_raises(self):
        store = ContextStore()
        with pytest.raises(ContextNotFoundError):
            store.get("missing")

    def test_longest_prefix_match(self):
        store = ContextStore()
        context_a = make_context(num_tokens=16, seed=1, context_id="a")
        context_a.snapshot.tokens[:] = list(range(16))
        context_b = make_context(num_tokens=16, seed=2, context_id="b")
        context_b.snapshot.tokens[:] = list(range(8)) + [99] * 8
        store.add(context_a)
        store.add(context_b)
        match = store.find_longest_prefix(list(range(12)) + [1000])
        assert match.context.context_id == "a"
        assert match.prefix_length == 12
        miss = store.find_longest_prefix([777, 888])
        assert not miss.is_hit

    def test_full_reuse_detection(self):
        store = ContextStore()
        context = make_context(num_tokens=8, context_id="full")
        context.snapshot.tokens[:] = list(range(8))
        store.add(context)
        match = store.find_longest_prefix(list(range(8)) + [42])
        assert match.is_full_reuse

    def test_persist_and_load(self, tmp_path):
        store = ContextStore.open(tmp_path)
        context = make_context(context_id="persisted")
        store.add(context)  # a store with a backend persists on add
        fresh_store = ContextStore.open(tmp_path)
        loaded = fresh_store.ensure_resident("persisted")
        assert loaded.num_tokens == context.num_tokens
        np.testing.assert_array_equal(loaded.keys(0), context.keys(0))

    def test_spill_without_backend_raises(self, random_context):
        store = ContextStore()
        store.add(random_context)
        with pytest.raises(ValueError):
            store.spill("ctx-test")


class TestOptimizer:
    def _query_context(self, **kwargs):
        defaults = dict(
            context_length=100_000,
            layer=1,
            head_dim=128,
            num_kv_heads=8,
            num_layers=32,
        )
        defaults.update(kwargs)
        return QueryContext(**defaults)

    @staticmethod
    def _optimizer(budget: int, **kwargs) -> RuleBasedOptimizer:
        return RuleBasedOptimizer(AlayaDBConfig(gpu_memory_budget_bytes=budget, **kwargs))

    def test_short_context_full_attention(self):
        optimizer = RuleBasedOptimizer(AlayaDBConfig(short_context_threshold=1024))
        plan = optimizer.plan(self._query_context(context_length=512))
        assert plan.is_full

    def test_large_budget_selects_coarse_topk(self):
        plan = self._optimizer(10**15).plan(self._query_context())
        assert plan.query_kind == QueryKind.TOP_K
        assert plan.index_kind == IndexKind.COARSE

    def test_small_budget_selects_dipr(self):
        plan = self._optimizer(1).plan(self._query_context())
        assert plan.query_kind == QueryKind.DIPR
        assert plan.index_kind == IndexKind.FINE

    def test_first_layer_uses_flat_index(self):
        plan = self._optimizer(1).plan(self._query_context(layer=0))
        assert plan.index_kind == IndexKind.FLAT

    def test_partial_reuse_adds_predicate(self):
        plan = self._optimizer(1).plan(self._query_context(reused_prefix_length=40_000))
        assert plan.predicate is not None
        assert plan.predicate.max_position == 40_000

    def test_beta_scaled_to_head_dim(self):
        plan = self._optimizer(1, dipr_beta=50.0).plan(self._query_context(head_dim=32))
        assert plan.query.beta == pytest.approx(25.0)

    def test_plan_all_layers(self):
        plans = self._optimizer(1).plan_all_layers(self._query_context(num_layers=4))
        assert set(plans) == {0, 1, 2, 3}
        assert plans[0].index_kind == IndexKind.FLAT
        assert plans[3].index_kind == IndexKind.FINE

    def test_plan_all_layers_carries_every_field(self):
        # per-layer contexts are dataclasses.replace copies: non-layer fields
        # (here the partial-reuse prefix driving the predicate) must survive
        plans = self._optimizer(1).plan_all_layers(
            self._query_context(num_layers=3, reused_prefix_length=40_000)
        )
        for plan in plans.values():
            assert plan.predicate is not None
            assert plan.predicate.max_position == 40_000

    def test_derives_bytes_from_model_shape(self):
        # 100k tokens x (2 * 8 kv heads * 128 dim * 4 bytes * 32 layers) =
        # ~13 GB of KV: far beyond a 2 GiB budget, so the plan is DIPR; the
        # coarse index is chosen exactly when the derived footprint fits
        required = 100_000 * 2 * 8 * 128 * 4 * 32
        cases = [(2 * 2**30, QueryKind.DIPR), (required - 1, QueryKind.DIPR), (required, QueryKind.TOP_K)]
        for budget, kind in cases:
            assert self._optimizer(budget).plan(self._query_context()).query_kind == kind

    def test_custom_rule_takes_priority(self):
        optimizer = RuleBasedOptimizer()
        sentinel = ExecutionPlan(query_kind=QueryKind.FULL, index_kind=None)
        optimizer.register_rule(lambda qc, cfg: sentinel, priority=0)
        assert optimizer.plan(self._query_context()) is sentinel

    def test_plan_describe(self):
        plan = ExecutionPlan(
            query_kind=QueryKind.DIPR, index_kind=IndexKind.FINE, query=DIPRQuery(beta=25.0)
        )
        assert "dipr" in plan.describe()
        assert "beta=25.00" in plan.describe()


class TestPlanExecutor:
    def _layer_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(2, n, 16)).astype(np.float32)
        fine = []
        coarse = []
        for kv_head in range(2):
            index = RoarGraphIndex()
            index.build(keys[kv_head])
            fine.append(index)
            block = CoarseBlockIndex(block_size=64)
            block.build(keys[kv_head])
            coarse.append(block)
        return LayerIndexData(keys=keys, fine_indexes=fine, coarse_indexes=coarse), keys

    def test_flat_dipr_path(self):
        data, keys = self._layer_data()
        executor = PlanExecutor()
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.FLAT, query=DIPRQuery(beta=5.0))
        queries = np.random.default_rng(1).normal(size=(4, 16)).astype(np.float32)
        outcomes = executor.retrieve_heads(plan, data, queries)
        for head, outcome in enumerate(outcomes):
            scores = keys[head // 2] @ queries[head]
            assert np.all(scores[outcome.positions] >= scores.max() - 5.0 - 1e-4)

    def test_fine_topk_path(self):
        data, _ = self._layer_data()
        executor = PlanExecutor()
        plan = ExecutionPlan(QueryKind.TOP_K, IndexKind.FINE, query=TopKQuery(k=10))
        queries = np.random.default_rng(2).normal(size=(4, 16)).astype(np.float32)
        outcomes = executor.retrieve_heads(plan, data, queries)
        assert [outcome.num_selected for outcome in outcomes] == [10] * 4

    def test_coarse_topk_path(self):
        data, _ = self._layer_data()
        executor = PlanExecutor(coarse_num_blocks=2)
        plan = ExecutionPlan(QueryKind.TOP_K, IndexKind.COARSE, query=TopKQuery(k=10))
        queries = np.random.default_rng(3).normal(size=(4, 16)).astype(np.float32)
        outcomes = executor.retrieve_heads(plan, data, queries)
        # 2 blocks of 64 tokens, or the 16-token tail block of the 400-token context plus a full one
        assert outcomes[0].num_selected == 128
        assert {outcome.num_selected for outcome in outcomes} <= {128, 80}

    def test_coarse_rejects_dipr(self):
        data, _ = self._layer_data()
        executor = PlanExecutor()
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.COARSE, query=DIPRQuery(beta=5.0))
        with pytest.raises(UnsupportedQueryError):
            executor.retrieve_heads(plan, data, np.zeros((4, 16), dtype=np.float32))

    @pytest.mark.parametrize(
        "plan",
        [
            ExecutionPlan(QueryKind.DIPR, IndexKind.FLAT, query=DIPRQuery(beta=5.0)),
            ExecutionPlan(QueryKind.TOP_K, IndexKind.FLAT, query=TopKQuery(k=12)),
            ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=5.0)),
            ExecutionPlan(QueryKind.TOP_K, IndexKind.FINE, query=TopKQuery(k=10)),
            ExecutionPlan(QueryKind.TOP_K, IndexKind.COARSE, query=TopKQuery(k=10)),
        ],
        ids=["flat-dipr", "flat-topk", "fine-dipr", "fine-topk", "coarse-topk"],
    )
    def test_retrieve_heads_matches_reference(self, plan):
        """The executor against the public index/query primitives called head by head
        (one shared group walk per KV head for fine DIPR)."""
        data, keys = self._layer_data()
        executor = PlanExecutor(coarse_num_blocks=2)
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(4, 16)).astype(np.float32)
        seeds = np.full(4, -np.inf, dtype=np.float32)
        outcomes = executor.retrieve_heads(plan, data, queries, window_max_scores=seeds)
        assert len(outcomes) == 4
        for kv_head in range(2):
            heads = [2 * kv_head, 2 * kv_head + 1]
            expected = reference_retrieve(
                plan,
                keys[kv_head],
                data.fine_indexes[kv_head],
                data.coarse_indexes[kv_head],
                queries[heads],
                seeds[heads],
                coarse_num_blocks=2,
                shared_walk=True,
            )
            for head, (positions, distance_computations, hops) in zip(heads, expected):
                np.testing.assert_array_equal(outcomes[head].positions, positions)
                assert outcomes[head].num_distance_computations == distance_computations
                assert outcomes[head].num_hops == hops
