"""Equivalence suite for the group-frontier DIPRS traversal.

``diprs_search_group`` walks one shared frontier for a whole GQA group while
keeping per-head candidate lists, thresholds and masks.  Its contract against
the scalar oracle ``tests.reference_attention.reference_diprs``:

* the walk **is** the oracle's group walk, bit for bit — ranked indices,
  scores and the four work counters of every head;
* each head's returned (threshold-filtered) set is a **superset** of the
  head's own ``g = 1`` walk — the union expansion policy means a head scores
  at least every node its own walk would have scored;
* on clustered attention-like data the traversals align and the filtered top
  sets match **exactly** (ids, and scores up to gemm-vs-matvec rounding);
* the shared walk's distance computations are counted once per group, so at
  GQA ratios >= 4:1 the group does strictly less scoring work than the sum
  of the per-head walks.

The grid below sweeps GQA ratios x beta x ``allowed`` masks x window seeds x
capacity thresholds, plus degenerate graphs (single node, disconnected
components, all-masked) and the executor/session wiring.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlayaDBConfig
from repro.core.context_store import StoredContext
from repro.core.planner import ExecutionPlan, LayerIndexData, PlanExecutor
from repro.core.session import DecodeStepStats, Session
from repro.index.graph import NeighborGraph
from repro.index.roargraph import RoarGraphIndex
from repro.kvcache.serialization import KVSnapshot
from repro.query.dipr import diprs_search_group
from repro.query.filtered import filtered_diprs_search_group
from repro.query.types import DIPRQuery, FilterPredicate, IndexKind, QueryKind
from tests.reference_attention import reference_diprs, reference_sparse_attention

MAX_GROUP = 8


@lru_cache(maxsize=8)
def _group_data(n=600, dim=16, num_critical=35, seed=0):
    """Clustered keys + RoarGraph + MAX_GROUP query heads chasing the cluster."""
    rng = np.random.default_rng(seed)
    keys = rng.normal(0.0, 0.35, size=(n, dim)).astype(np.float32)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    critical = rng.choice(n, size=num_critical, replace=False)
    keys[critical] += (6.0 * direction).astype(np.float32)
    query_sample = (
        direction[None, :] * np.sqrt(dim) + rng.normal(0, 0.8, size=(300, dim))
    ).astype(np.float32)
    index = RoarGraphIndex()
    index.build(keys, query_sample=query_sample)
    queries = (
        direction[None, :] * np.sqrt(dim) + rng.normal(0, 0.5, size=(MAX_GROUP, dim))
    ).astype(np.float32)
    return keys, index, queries


def _mask(kind: str, n: int, seed: int) -> np.ndarray | None:
    if kind == "none":
        return None
    rng = np.random.default_rng(1000 + seed)
    fraction = 0.25 if kind == "sparse" else 0.9
    mask = rng.random(n) < fraction
    mask[:4] = True  # keep a toehold so masked runs are not trivially empty
    return mask


def _window_seeds(keys, queries, allowed, beta):
    """Realistic per-head seeds: a bit below each head's best allowed score."""
    scores = queries @ keys.T
    if allowed is not None:
        scores = np.where(allowed[None, :], scores, -np.inf)
    return (scores.max(axis=1) - beta / 2).astype(np.float32)


def _solo_oracle(vectors, graph, query, beta, entry_points, seed=None, **kwargs):
    """The scalar oracle's ``(SearchResult, DIPRSearchStats)`` for one query head walking alone."""
    seeds = None if seed is None else [seed]
    return reference_diprs(vectors, graph, query[None], beta, entry_points, window_max_scores=seeds, **kwargs)[0]


def _assert_walk_is_oracle(results, stats, oracle):
    """Bit for bit: every head's ranked result and its four work counters."""
    assert len(results) == len(oracle) == stats.num_heads
    for result, head_stats, (expected, expected_stats) in zip(results, stats.per_head, oracle):
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.scores, expected.scores)
        assert head_stats == expected_stats
    assert stats.num_distance_computations == oracle[0][1].num_distance_computations
    assert stats.num_hops == oracle[0][1].num_hops


def _assert_head_matches(group_result, per_head_result):
    np.testing.assert_array_equal(
        np.sort(group_result.indices), np.sort(per_head_result.indices)
    )
    np.testing.assert_allclose(
        np.sort(group_result.scores), np.sort(per_head_result.scores), atol=1e-5
    )


class TestGroupFrontierGrid:
    """The headline grid: the walk is the oracle's group walk, and its top sets equal each
    head's own walk."""

    @pytest.mark.parametrize("capacity", [8, 64])
    @pytest.mark.parametrize("seeded", [False, True], ids=["no-seed", "per-head-seed"])
    @pytest.mark.parametrize("mask_kind", ["none", "sparse", "dense"])
    @pytest.mark.parametrize("beta", [3.0, 9.0])
    @pytest.mark.parametrize("gqa", [1, 4, 8])
    def test_filtered_top_set_matches_per_head(self, gqa, beta, mask_kind, seeded, capacity):
        keys, index, all_queries = _group_data()
        queries = all_queries[:gqa]
        allowed = _mask(mask_kind, keys.shape[0], seed=gqa)
        seeds = _window_seeds(keys, queries, allowed, beta) if seeded else None

        group_results, group_stats = diprs_search_group(
            keys,
            index.graph,
            queries,
            beta,
            [index.entry_point],
            capacity_threshold=capacity,
            window_max_scores=seeds,
            allowed=allowed,
        )
        oracle = reference_diprs(
            keys, index.graph, queries, beta, [index.entry_point],
            capacity_threshold=capacity, window_max_scores=seeds, allowed=allowed,
        )
        _assert_walk_is_oracle(group_results, group_stats, oracle)
        per_head_distance = 0
        for head in range(gqa):
            per_head_result, per_head_stats = _solo_oracle(
                keys,
                index.graph,
                queries[head],
                beta,
                [index.entry_point],
                None if seeds is None else float(seeds[head]),
                capacity_threshold=capacity,
                allowed=allowed,
            )
            per_head_distance += per_head_stats.num_distance_computations
            # superset by the union expansion policy...
            assert set(per_head_result.indices.tolist()) <= set(group_results[head].indices.tolist())
            # ...and on clustered data the filtered top sets match exactly
            _assert_head_matches(group_results[head], per_head_result)
            if allowed is not None:
                assert np.all(allowed[group_results[head].indices])
            scores = group_results[head].scores
            if scores.size:
                assert np.all(scores >= scores.max() - beta - 1e-4)
        if gqa >= 4:
            # the shared walk scores each node once for the whole group
            assert group_stats.num_distance_computations < per_head_distance
        else:
            assert group_stats.num_distance_computations <= per_head_distance

    def test_max_tokens_cap_is_per_head(self):
        keys, index, queries = _group_data()
        results, _ = diprs_search_group(
            keys, index.graph, queries[:4], 20.0, [index.entry_point], max_tokens=5
        )
        for result in results:
            assert len(result) <= 5

    def test_group_scores_are_true_inner_products(self):
        keys, index, queries = _group_data()
        results, _ = diprs_search_group(keys, index.graph, queries[:4], 8.0, [index.entry_point])
        for head, result in enumerate(results):
            expected = keys[result.indices] @ queries[head]
            np.testing.assert_allclose(result.scores, expected, atol=1e-5)


class TestGroupFrontierDegenerate:
    def test_single_node_graph(self):
        vectors = np.ones((1, 4), dtype=np.float32)
        graph = NeighborGraph.from_lists([[]])
        queries = np.asarray([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]], dtype=np.float32)
        results, stats = diprs_search_group(vectors, graph, queries, 2.0, [0])
        _assert_walk_is_oracle(results, stats, reference_diprs(vectors, graph, queries, 2.0, [0]))
        for head, result in enumerate(results):
            per_head, _ = _solo_oracle(vectors, graph, queries[head], 2.0, [0])
            _assert_head_matches(result, per_head)
        assert stats.num_distance_computations == 1

    def test_disconnected_components_stay_unreached(self):
        # two 3-cliques with no edges between them; entries sit in the first
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(6, 8)).astype(np.float32)
        vectors[3:] += 10.0  # the unreachable component scores far higher
        adjacency = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
        graph = NeighborGraph.from_lists(adjacency)
        queries = rng.normal(size=(4, 8)).astype(np.float32)
        results, stats = diprs_search_group(vectors, graph, queries, 50.0, [0])
        _assert_walk_is_oracle(results, stats, reference_diprs(vectors, graph, queries, 50.0, [0]))
        for head, result in enumerate(results):
            assert np.all(result.indices < 3)
            per_head, _ = _solo_oracle(vectors, graph, queries[head], 50.0, [0])
            _assert_head_matches(result, per_head)
        assert stats.num_distance_computations <= 3

    def test_all_masked_returns_empty_everywhere(self):
        keys, index, queries = _group_data()
        allowed = np.zeros(keys.shape[0], dtype=bool)
        results, _ = diprs_search_group(
            keys, index.graph, queries[:4], 8.0, [index.entry_point], allowed=allowed
        )
        for result in results:
            assert len(result) == 0

    @pytest.mark.parametrize("seeded", [False, True], ids=["no-seed", "seed"])
    @pytest.mark.parametrize("walk", ["plain", "filtered", "filtered-fallback"])
    def test_one_to_one_group_is_the_scalar_walk(self, walk, seeded):
        """g=1 shares nothing: a (1, d) batch walks the scalar Algorithm 1 — ranked indices,
        scores and all four work counters (the fallback case filters its entry point out, so
        the walk restarts from the first allowed positions)."""
        keys, index, queries = _group_data()
        query, beta = queries[0], 8.0
        seed = float((keys @ query).max()) - beta / 2 if seeded else None
        seeds = None if seed is None else [seed]
        entry = [keys.shape[0] - 1] if walk == "filtered-fallback" else [index.entry_point]
        predicate = None if walk == "plain" else FilterPredicate(max_position=450 if walk == "filtered" else 50)
        if predicate is None:
            group = diprs_search_group(keys, index.graph, query[None], beta, entry, 16, seeds)
        else:
            group = filtered_diprs_search_group(keys, index.graph, query[None], beta, entry, predicate, 16, seeds)
        expected, expected_stats = _solo_oracle(
            keys, index.graph, query, beta, entry, seed, capacity_threshold=16, predicate=predicate
        )
        assert len(expected) > 0
        _assert_walk_is_oracle(*group, [(expected, expected_stats)])

    def test_rejects_mismatched_seed_count(self):
        keys, index, queries = _group_data()
        with pytest.raises(ValueError):
            diprs_search_group(
                keys, index.graph, queries[:4], 8.0, [index.entry_point],
                window_max_scores=np.zeros(3, dtype=np.float32),
            )


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 40),
    gqa=st.sampled_from([1, 2, 4, 8]),
    beta=st.floats(min_value=2.0, max_value=15.0),
    capacity=st.integers(min_value=4, max_value=64),
    mask_kind=st.sampled_from(["none", "sparse", "dense"]),
    seeded=st.booleans(),
)
def test_group_frontier_properties(seed, gqa, beta, capacity, mask_kind, seeded):
    """Property suite: the oracle's walk, superset, threshold respect, mask respect, shared work."""
    keys, index, all_queries = _group_data(seed=seed % 4)
    rng = np.random.default_rng(seed)
    queries = all_queries[:gqa] + rng.normal(0, 0.05, size=(gqa, keys.shape[1])).astype(np.float32)
    allowed = _mask(mask_kind, keys.shape[0], seed=seed)
    seeds = _window_seeds(keys, queries, allowed, beta) if seeded else None

    results, stats = diprs_search_group(
        keys,
        index.graph,
        queries,
        beta,
        [index.entry_point],
        capacity_threshold=capacity,
        window_max_scores=seeds,
        allowed=allowed,
    )
    oracle = reference_diprs(
        keys, index.graph, queries, beta, [index.entry_point],
        capacity_threshold=capacity, window_max_scores=seeds, allowed=allowed,
    )
    _assert_walk_is_oracle(results, stats, oracle)
    per_head_distance = 0
    for head in range(gqa):
        per_head_result, per_head_stats = _solo_oracle(
            keys,
            index.graph,
            queries[head],
            beta,
            [index.entry_point],
            None if seeds is None else float(seeds[head]),
            capacity_threshold=capacity,
            allowed=allowed,
        )
        per_head_distance += per_head_stats.num_distance_computations
        assert set(per_head_result.indices.tolist()) <= set(results[head].indices.tolist())
        scores = results[head].scores
        if scores.size:
            assert np.all(scores >= scores.max() - beta - 1e-4)
        if allowed is not None:
            assert np.all(allowed[results[head].indices])
    assert stats.num_distance_computations <= per_head_distance
    assert stats.num_heads == gqa


@lru_cache(maxsize=1)
def _bench_shape_data(n=2048, dim=16, group=4, seed=11):
    """A RoarGraph over ``n`` keys at the serving benchmark's fine-layer shape (head_dim 16,
    GQA group 4): keys with a weak shared direction, a query sample and one group of queries."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    keys = (rng.normal(size=(n, dim)) + 0.5 * direction).astype(np.float32)
    sample = (direction * 2.0 + rng.normal(size=(256, dim))).astype(np.float32)
    index = RoarGraphIndex()
    index.build(keys, query_sample=sample)
    queries = (direction * 2.0 + rng.normal(size=(group, dim))).astype(np.float32)
    return keys, index, queries


class TestLevelStep:
    """The walk expands its frontier one BFS level per step; these cases pin that it is still
    the node-at-a-time oracle bit for bit where the level step has something to get wrong."""

    @staticmethod
    def _tree():
        """Entry 0 -> level 1 {1..4}; each of those -> three private children (level 2, four
        hops of three fresh nodes); each child -> one grandchild (level 3)."""
        adjacency = [[1, 2, 3, 4]] + [[0] + [5 + 3 * i + j for j in range(3)] for i in range(4)]
        adjacency += [[1 + i // 3, 17 + i] for i in range(12)] + [[5 + i] for i in range(12)]
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(len(adjacency), 8)).astype(np.float32)
        queries = rng.normal(size=(2, 8)).astype(np.float32)
        return vectors, NeighborGraph.from_lists(adjacency), queries

    @pytest.mark.parametrize("masked", [False, True], ids=["all-allowed", "masked"])
    @pytest.mark.parametrize("capacity", [6, 7, 9, 10, 11, 13])
    def test_capacity_fills_mid_level(self, capacity, masked):
        """Level 2 starts with 5 candidates and scores four hops of 3: a threshold in 6..13
        closes the heads' capacity inside a hop or on a hop boundary in the middle of the level,
        after which a small beta prunes."""
        vectors, graph, queries = self._tree()
        allowed = None
        if masked:
            allowed = np.ones(graph.num_nodes, dtype=bool)
            allowed[[6, 9, 14, 20]] = False  # shifts the grant inside level 2
        args = (vectors, graph, queries, 0.5, [0])
        limits = dict(capacity_threshold=capacity, allowed=allowed)
        results, stats = diprs_search_group(*args, **limits)
        _assert_walk_is_oracle(results, stats, reference_diprs(*args, **limits))
        assert stats.num_hops > 5  # the walk reached level 2's nodes
        assert any(head.num_pruned > (0 if allowed is None else 4) for head in stats.per_head)

    @pytest.mark.parametrize("walk", ["plain", "filtered", "window-seeded"])
    def test_roargraph_at_bench_shape(self, walk):
        """Over 2k keys at d = 16, g = 4, beta = 10 * sqrt(16 / 128) and l0 = 32, where levels
        hold dozens of hops: plain, filtered (2-hop expansion) and window-seeded walks."""
        keys, index, queries = _bench_shape_data()
        beta = 10.0 * (16 / 128) ** 0.5
        args = (keys, index.graph, queries, beta, [index.entry_point])
        seeds = _window_seeds(keys, queries, None, beta) if walk == "window-seeded" else None
        if walk == "filtered":
            predicate = FilterPredicate(max_position=1500)
            results, stats = filtered_diprs_search_group(*args, predicate, 32)
            oracle = reference_diprs(*args, 32, predicate=predicate)
        else:
            results, stats = diprs_search_group(*args, 32, seeds)
            oracle = reference_diprs(*args, 32, window_max_scores=seeds)
        _assert_walk_is_oracle(results, stats, oracle)
        assert stats.num_hops > 32 and all(len(result) > 0 for result in results)


class TestFilteredGroupFrontier:
    def test_matches_per_head_filtered_search(self):
        keys, index, queries = _group_data()
        predicate = FilterPredicate(max_position=450)
        results, stats = filtered_diprs_search_group(
            keys, index.graph, queries[:4], 8.0, [index.entry_point], predicate,
            capacity_threshold=32,
        )
        oracle = reference_diprs(
            keys, index.graph, queries[:4], 8.0, [index.entry_point], 32, predicate=predicate
        )
        _assert_walk_is_oracle(results, stats, oracle)
        per_head_distance = 0
        for head, result in enumerate(results):
            assert np.all(result.indices < 450)
            per_head, per_head_stats = _solo_oracle(
                keys, index.graph, queries[head], 8.0, [index.entry_point],
                capacity_threshold=32, predicate=predicate,
            )
            per_head_distance += per_head_stats.num_distance_computations
            assert set(per_head.indices.tolist()) <= set(result.indices.tolist())
            _assert_head_matches(result, per_head)
        assert stats.num_distance_computations < per_head_distance

    def test_filtered_out_entry_point_falls_back(self):
        keys, index, queries = _group_data()
        predicate = FilterPredicate(max_position=50)
        results, stats = filtered_diprs_search_group(
            keys, index.graph, queries[:4], 10.0, [keys.shape[0] - 1], predicate
        )
        oracle = reference_diprs(keys, index.graph, queries[:4], 10.0, [keys.shape[0] - 1], predicate=predicate)
        _assert_walk_is_oracle(results, stats, oracle)
        for result in results:
            assert np.all(result.indices < 50)


class TestExecutorGroupWiring:
    def _layer_data(self, num_kv_heads=2, group_size=4, n=400, seed=3):
        rng = np.random.default_rng(seed)
        keys = rng.normal(0, 0.35, size=(num_kv_heads, n, 16)).astype(np.float32)
        queries = np.empty((num_kv_heads * group_size, 16), dtype=np.float32)
        fine = []
        for kv_head in range(num_kv_heads):
            direction = rng.normal(size=16)
            direction /= np.linalg.norm(direction)
            cluster = rng.choice(n, size=25, replace=False)
            keys[kv_head, cluster] += (5.0 * direction).astype(np.float32)
            sample = (
                direction[None, :] * 4.0 + rng.normal(0, 0.8, size=(200, 16))
            ).astype(np.float32)
            index = RoarGraphIndex()
            index.build(keys[kv_head], query_sample=sample)
            fine.append(index)
            for slot in range(group_size):
                queries[kv_head * group_size + slot] = (
                    direction * 4.0 + rng.normal(0, 0.4, 16)
                ).astype(np.float32)
        return LayerIndexData(keys=keys, fine_indexes=fine), queries

    @staticmethod
    def _per_head_walks(data, queries, beta=6.0):
        """The scalar oracle's walk per query head over its own index."""
        walks = []
        group_size = len(queries) // data.keys.shape[0]
        for head, query in enumerate(queries):
            index = data.fine_indexes[head // group_size]
            walks.append(_solo_oracle(index.vectors, index.graph, query, beta, [index.entry_point]))
        return walks

    def test_group_path_matches_per_head_walks(self):
        data, queries = self._layer_data()
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=6.0))
        grouped = PlanExecutor().retrieve_heads(plan, data, queries)
        per_head = self._per_head_walks(data, queries)
        assert sum(o.num_distance_computations for o in grouped) < sum(
            stats.num_distance_computations for _, stats in per_head
        )
        for group_outcome, (result, _) in zip(grouped, per_head):
            np.testing.assert_array_equal(
                np.sort(group_outcome.positions), np.sort(result.indices)
            )

    def test_group_path_threads_window_seeds(self):
        data, queries = self._layer_data()
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=6.0))
        executor = PlanExecutor()
        num_heads = queries.shape[0]
        # a seed far above every score prunes everything, proving delivery
        huge = np.full(num_heads, 1e9, dtype=np.float32)
        outcomes = executor.retrieve_heads(plan, data, queries, window_max_scores=huge)
        assert all(outcome.num_selected == 0 for outcome in outcomes)

    def test_group_of_one_is_the_scalar_walk(self):
        """One query head per KV head: each walk is that head's scalar Algorithm 1,
        its work counted on the head itself."""
        data, queries = self._layer_data(num_kv_heads=2, group_size=1)
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=6.0))
        outcomes = PlanExecutor().retrieve_heads(plan, data, queries)
        for outcome, (result, stats) in zip(outcomes, self._per_head_walks(data, queries)):
            np.testing.assert_array_equal(outcome.positions, result.indices)
            assert outcome.num_distance_computations == stats.num_distance_computations
            assert outcome.num_hops == stats.num_hops

    @pytest.mark.parametrize("bad_shape", [(4, 1), (1, 4), (5,), ()], ids=str)
    def test_window_max_scores_shape_is_validated(self, bad_shape):
        """Regression: a (g, 1) seed array used to index as 1-element rows."""
        data, queries = self._layer_data()
        plan = ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=6.0))
        executor = PlanExecutor()
        heads = queries[:4]
        seeds = np.zeros(bad_shape, dtype=np.float32)
        with pytest.raises(ValueError, match="window_max_scores"):
            executor.retrieve_heads(plan, data, heads, window_max_scores=seeds)


class TestSessionGroupFrontier:
    def _context(self, rng, num_kv_heads=2, num_tokens=192, head_dim=8):
        keys = rng.normal(0, 0.35, size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
        values = rng.normal(size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
        directions = []
        indexes = []
        for kv_head in range(num_kv_heads):
            direction = rng.normal(size=head_dim)
            direction /= np.linalg.norm(direction)
            cluster = rng.choice(num_tokens, size=16, replace=False)
            keys[kv_head, cluster] += (4.0 * direction).astype(np.float32)
            directions.append(direction)
            sample = (
                direction[None, :] * 3.0 + rng.normal(0, 0.8, size=(96, head_dim))
            ).astype(np.float32)
            index = RoarGraphIndex()
            index.build(keys[kv_head], query_sample=sample)
            indexes.append(index)
        snapshot = KVSnapshot(tokens=list(range(num_tokens)), keys={0: keys}, values={0: values})
        context = StoredContext(context_id="group-frontier", snapshot=snapshot)
        context.fine_indexes[0] = indexes
        return context, directions

    def test_session_outputs_match_per_head_walks(self):
        """End-to-end decode: the group walk changes work counters, not outputs."""
        rng = np.random.default_rng(17)
        group_size, num_kv_heads, head_dim = 4, 2, 8
        num_heads = group_size * num_kv_heads
        context, directions = self._context(rng, num_kv_heads)
        config = AlayaDBConfig(
            short_context_threshold=16,
            window_initial_tokens=4,
            window_last_tokens=8,
            # beta 5 at head_dim 8: dipr_beta is read at the 128-dim calibration
            dipr_beta=20.0,
            dipr_capacity_threshold=16,
            gpu_memory_budget_bytes=1,
            flat_index_layers=(),
        )
        session = Session(
            config, context=context, reused_prefix_length=context.num_tokens, num_layers=1
        )
        assert session.plan_for_layer(0).index_kind == IndexKind.FINE
        step_rng = np.random.default_rng(29)
        per_head_stats = DecodeStepStats()
        for _ in range(3):
            q = np.stack(
                [
                    directions[head // group_size] * 3.0 + step_rng.normal(0, 0.4, head_dim)
                    for head in range(num_heads)
                ]
            ).astype(np.float32)[:, None, :]
            k = step_rng.normal(0, 0.35, size=(num_kv_heads, 1, head_dim)).astype(np.float32)
            v = step_rng.normal(size=(num_kv_heads, 1, head_dim)).astype(np.float32)
            session.update_query(q, k, v, layer=0)
            group_output = session.attention(q, layer=0)
            # the scalar oracle with one walk per query head
            per_head_output, step_stats = reference_sparse_attention(
                session, q[:, 0, :], 0, shared_walk=False
            )
            np.testing.assert_allclose(group_output[:, 0, :], per_head_output, atol=1e-4)
            per_head_stats.merge(step_stats)
        group_stats = session.total_decode_stats
        assert group_stats.num_selected_tokens == per_head_stats.num_selected_tokens
        assert group_stats.num_distance_computations < per_head_stats.num_distance_computations
        assert group_stats.num_graph_hops <= per_head_stats.num_graph_hops
        assert group_stats.num_heads == per_head_stats.num_heads
