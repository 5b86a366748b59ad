"""Tests of the query types, DIPRS, top-k and filtered search.

Every search is batched; a single query runs as a ``(1, d)`` batch."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_fig12_filtered_diprs import naive_filtered_diprs_search
from repro.baselines.topk_retrieval import beam_search
from repro.index.flat import FlatIndex
from repro.index.roargraph import RoarGraphIndex
from repro.query.dipr import diprs_search_group
from repro.query.filtered import filtered_diprs_search_group, predicate_mask
from repro.query.types import (
    DIPRQuery,
    FilterPredicate,
    TopKQuery,
    alpha_from_beta,
    beta_from_alpha,
)
from tests.reference_attention import reference_diprs


def _clustered_keys(n=1200, dim=16, num_critical=60, seed=0):
    """Keys with a planted critical cluster (mimics attention key structure)."""
    rng = np.random.default_rng(seed)
    keys = rng.normal(0.0, 0.35, size=(n, dim)).astype(np.float32)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    critical = rng.choice(n, size=num_critical, replace=False)
    keys[critical] += (8.0 * direction).astype(np.float32)
    query = (direction * np.sqrt(dim) + rng.normal(0, 0.1, dim)).astype(np.float32)
    queries = (
        direction[None, :] * np.sqrt(dim)
        + rng.normal(0, 0.8, size=(400, dim))
    ).astype(np.float32)
    return keys, query, queries, critical


def _exact_dipr(keys, query, beta, allowed=None):
    """Ground-truth DIPR of one query: the flat scan over a batch of one."""
    index = FlatIndex()
    index.build(keys)
    return index.search_range_batch(query[None], beta, allowed=allowed)[0]


class TestQueryTypes:
    def test_beta_alpha_roundtrip(self):
        beta = beta_from_alpha(0.01, 128)
        assert alpha_from_beta(beta, 128) == pytest.approx(0.01, rel=1e-6)

    def test_theorem1_constant(self):
        # beta = -sqrt(d) * ln(alpha)
        assert beta_from_alpha(0.012, 128) == pytest.approx(-math.sqrt(128) * math.log(0.012))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            beta_from_alpha(0.0, 16)
        with pytest.raises(ValueError):
            beta_from_alpha(1.5, 16)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            TopKQuery(k=0)
        with pytest.raises(ValueError):
            DIPRQuery(beta=-1.0)
        for cap in (-1, 0):  # a negative cap used to slice order[:-1]
            with pytest.raises(ValueError, match="max_tokens"):
                DIPRQuery(beta=1.0, max_tokens=cap)
        with pytest.raises(ValueError):
            FilterPredicate(max_position=0)

    def test_dipr_from_alpha(self):
        query = DIPRQuery.from_alpha(0.05, 64)
        assert query.beta == pytest.approx(beta_from_alpha(0.05, 64))


class TestExactDIPR:
    def test_always_contains_maximum(self):
        keys, query, _, _ = _clustered_keys()
        result = _exact_dipr(keys, query, beta=0.0)
        assert len(result) >= 1
        assert result.indices[0] == int(np.argmax(keys @ query))

    def test_larger_beta_is_superset(self):
        keys, query, _, _ = _clustered_keys()
        small = set(_exact_dipr(keys, query, 5.0).indices.tolist())
        large = set(_exact_dipr(keys, query, 20.0).indices.tolist())
        assert small.issubset(large)

    def test_critical_cluster_selected(self):
        keys, query, _, critical = _clustered_keys()
        result = _exact_dipr(keys, query, beta=15.0)
        assert set(critical.tolist()).issubset(set(result.indices.tolist()))


class TestDIPRS:
    def test_high_recall_on_clustered_data(self):
        keys, query, queries, _ = _clustered_keys()
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        truth = _exact_dipr(keys, query, 15.0)
        (approx,), stats = diprs_search_group(
            keys, index.graph, query[None], 15.0, [index.entry_point], capacity_threshold=128
        )
        recall = len(set(truth.indices.tolist()) & set(approx.indices.tolist())) / len(truth)
        assert recall > 0.85
        assert stats.num_distance_computations < keys.shape[0]

    def test_results_respect_threshold(self):
        keys, query, queries, _ = _clustered_keys(seed=3)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        (result,), _ = diprs_search_group(keys, index.graph, query[None], 10.0, [index.entry_point])
        assert np.all(result.scores >= result.scores.max() - 10.0 - 1e-4)

    def test_window_seed_tightens_pruning(self):
        keys, query, queries, _ = _clustered_keys(seed=4)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        true_max = float((keys @ query).max())
        _, without_seed = diprs_search_group(keys, index.graph, query[None], 12.0, [index.entry_point])
        _, with_seed = diprs_search_group(
            keys, index.graph, query[None], 12.0, [index.entry_point], window_max_scores=[true_max]
        )
        assert with_seed.per_head[0].num_appended <= without_seed.per_head[0].num_appended

    def test_max_tokens_cap(self):
        keys, query, queries, _ = _clustered_keys()
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        (result,), _ = diprs_search_group(keys, index.graph, query[None], 30.0, [index.entry_point], max_tokens=5)
        assert len(result) <= 5

    def test_dynamic_size_varies_with_cluster_size(self):
        sizes = []
        for num_critical in (10, 80):
            keys, query, queries, _ = _clustered_keys(num_critical=num_critical, seed=5)
            index = RoarGraphIndex()
            index.build(keys, query_sample=queries)
            (result,), _ = diprs_search_group(
                keys, index.graph, query[None], 15.0, [index.entry_point], capacity_threshold=128
            )
            sizes.append(len(result))
        assert sizes[1] > sizes[0]


def _decoy_setup(seed=11, n=600, dim=16, beta=6.0):
    """Keys where the *dominant* cluster is disallowed and a moderate one is allowed.

    The decoy cluster (positions >= 500) scores far above the allowed critical
    cluster — ``max_disallowed - beta > max_allowed`` — so any search that
    lets disallowed nodes set the DIPR threshold prunes every valid result.
    """
    rng = np.random.default_rng(seed)
    keys = rng.normal(0.0, 0.35, size=(n, dim)).astype(np.float32)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    cluster = rng.choice(500, size=30, replace=False)
    keys[cluster] += (4.0 * direction).astype(np.float32)
    decoys = np.arange(500, n)
    keys[decoys] += (6.0 * direction).astype(np.float32)
    query = (direction * np.sqrt(dim)).astype(np.float32)
    queries = (
        direction[None, :] * np.sqrt(dim) + rng.normal(0, 0.8, size=(300, dim))
    ).astype(np.float32)
    allowed = np.zeros(n, dtype=bool)
    allowed[:500] = True
    index = RoarGraphIndex()
    index.build(keys, query_sample=queries)
    entry_points = np.flatnonzero(allowed)[:8].tolist()
    return keys, query, index, allowed, entry_points, beta


def _legacy_masked_diprs(vectors, graph, query, beta, entry_points, capacity_threshold, allowed):
    """The pre-fix masked DIPRS semantics, kept as the regression foil.

    Disallowed nodes were skipped as candidates but still ran the
    ``best_score = max(best_score, score)`` update, tightening the final
    keep-threshold with scores of nodes that can never be returned.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    query = np.asarray(query, dtype=np.float32)
    visited = np.zeros(graph.num_nodes, dtype=bool)
    candidate_ids: list[int] = []
    candidate_scores: list[float] = []
    best_score = -np.inf

    def try_append(node, score):
        nonlocal best_score
        if len(candidate_ids) < capacity_threshold or score >= best_score - beta:
            if allowed[node]:
                candidate_ids.append(int(node))
                candidate_scores.append(float(score))
            best_score = max(best_score, score)

    for entry in entry_points:
        entry = int(entry)
        if not visited[entry]:
            visited[entry] = True
            try_append(entry, float(vectors[entry] @ query))
    cursor = 0
    while cursor < len(candidate_ids):
        node = candidate_ids[cursor]
        cursor += 1
        neighbors = graph.neighbors(int(node))
        fresh = neighbors[~visited[neighbors]]
        if fresh.shape[0] == 0:
            continue
        visited[fresh] = True
        for neighbor, score in zip(fresh, vectors[fresh] @ query):
            try_append(int(neighbor), float(score))

    indices = np.asarray(candidate_ids, dtype=np.int64)
    scores = np.asarray(candidate_scores, dtype=np.float32)
    keep = scores >= best_score - beta
    return indices[keep]


class TestDIPRSMaskedThreshold:
    """Regression: disallowed nodes must not tighten the DIPRS prune threshold.

    The masked walk used to run the ``best_score = max(...)`` update even for
    nodes failing the ``allowed`` mask, so the final keep-threshold was defined
    over tokens that can never be returned and every valid candidate got
    pruned.  The filtered walk always had the correct semantics; these tests
    pin ``diprs_search_group`` with an ``allowed`` mask (and through it
    ``naive_filtered_diprs_search``, the Figure 12 ablation baseline) to it.
    """

    def test_masked_search_recovers_results_the_old_threshold_pruned(self):
        keys, query, index, allowed, entries, beta = _decoy_setup()
        (result,), _ = diprs_search_group(
            keys, index.graph, query[None], beta, entries,
            capacity_threshold=128, allowed=allowed,
        )
        # the pre-fix semantics prune every valid candidate on this data
        legacy = _legacy_masked_diprs(
            keys, index.graph, query, beta, entries,
            capacity_threshold=128, allowed=allowed,
        )
        assert legacy.shape[0] == 0
        assert len(result) >= 10
        assert np.all(allowed[result.indices])
        # the recovered results all sit below the *disallowed* maximum minus
        # beta: under the old threshold semantics every one of them was pruned
        decoy_max = float((keys[~allowed] @ query).max())
        assert float(result.scores.max()) < decoy_max - beta
        # and they substantially agree with the ground-truth masked DIPR
        truth = _exact_dipr(keys, query, beta, allowed=allowed)
        recall = len(set(truth.indices.tolist()) & set(result.indices.tolist())) / len(truth)
        assert recall > 0.4

    def test_results_respect_threshold_over_allowed_tokens_only(self):
        keys, query, index, allowed, entries, beta = _decoy_setup(seed=12)
        (result,), _ = diprs_search_group(
            keys, index.graph, query[None], beta, entries,
            capacity_threshold=128, allowed=allowed,
        )
        assert len(result) > 0
        assert np.all(result.scores >= result.scores.max() - beta - 1e-4)

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 30),
        beta=st.floats(min_value=2.0, max_value=20.0),
        capacity=st.integers(min_value=4, max_value=64),
        mask=st.sampled_from(["none", "allowed", "predicate"]),
        seeded=st.booleans(),
    )
    def test_hop_vectorization_matches_scalar_reference(self, seed, beta, capacity, mask, seeded):
        """The vectorized hop appends reproduce the scalar loop exactly, for the plain walk
        (masked or not) and the filtered 2-hop walk."""
        keys, query, queries, _ = _clustered_keys(n=400, num_critical=25, seed=seed)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries[:80])
        allowed = predicate = None
        if mask == "allowed":
            allowed = np.zeros(keys.shape[0], dtype=bool)
            allowed[: keys.shape[0] // 2] = True
        elif mask == "predicate":
            predicate = FilterPredicate(max_position=keys.shape[0] // 2)
        seeds = [float((keys @ query).max()) * 0.9] if seeded else None
        walk = (keys, index.graph, query[None], beta, [index.entry_point])
        if predicate is None:
            (result,), stats = diprs_search_group(
                *walk, capacity_threshold=capacity, window_max_scores=seeds, allowed=allowed
            )
        else:
            (result,), stats = filtered_diprs_search_group(
                *walk, predicate, capacity_threshold=capacity, window_max_scores=seeds
            )
        [(expected, expected_stats)] = reference_diprs(
            keys, index.graph, query[None], beta, [index.entry_point],
            capacity_threshold=capacity, window_max_scores=seeds, allowed=allowed, predicate=predicate,
        )
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.scores, expected.scores)
        assert stats.per_head[0] == expected_stats


class TestTopKSearch:
    def test_flat_topk(self):
        keys, query, _, _ = _clustered_keys()
        index = FlatIndex()
        index.build(keys)
        (result,) = index.search_topk_batch(query[None], 10)
        expected = np.argsort(-(keys @ query))[:10]
        np.testing.assert_array_equal(result.indices, expected)

    def test_graph_topk_recall(self):
        keys, query, queries, _ = _clustered_keys()
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        truth = set(np.argsort(-(keys @ query))[:20].tolist())
        indices, _, _ = beam_search(keys, index.graph, query, 80, [index.entry_point])
        found = set(indices[:20].tolist())
        assert len(truth & found) / 20 > 0.8


class TestFilteredSearch:
    def test_predicate_mask(self):
        mask = predicate_mask(10, FilterPredicate(max_position=4))
        assert mask.sum() == 4
        assert predicate_mask(10, None) is None

    def test_filtered_results_respect_predicate(self):
        keys, query, queries, _ = _clustered_keys()
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        predicate = FilterPredicate(max_position=600)
        (result,), _ = filtered_diprs_search_group(
            keys, index.graph, query[None], 15.0, [index.entry_point], predicate, capacity_threshold=128
        )
        assert np.all(result.indices < 600)

    def test_two_hop_beats_naive_pruning(self):
        keys, query, queries, _ = _clustered_keys(seed=6)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        predicate = FilterPredicate(max_position=500)
        truth = set(_exact_dipr(keys[:500], query, 15.0).indices.tolist())
        (two_hop,), _ = filtered_diprs_search_group(
            keys, index.graph, query[None], 15.0, [index.entry_point], predicate, capacity_threshold=128
        )
        naive = naive_filtered_diprs_search(
            keys, index.graph, query, 15.0, [index.entry_point], predicate, capacity_threshold=128
        )
        recall_two_hop = len(truth & set(two_hop.indices.tolist())) / max(len(truth), 1)
        recall_naive = len(truth & set(naive.indices.tolist())) / max(len(truth), 1)
        assert recall_two_hop >= recall_naive

    def test_filtered_out_entry_point_falls_back(self):
        keys, query, queries, _ = _clustered_keys(seed=7)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries)
        predicate = FilterPredicate(max_position=50)
        entry = keys.shape[0] - 1  # definitely filtered out
        (result,), _ = filtered_diprs_search_group(keys, index.graph, query[None], 15.0, [entry], predicate)
        assert np.all(result.indices < 50)

    @settings(deadline=None, max_examples=15)
    @given(max_position=st.integers(min_value=50, max_value=1100), seed=st.integers(0, 20))
    def test_property_filter_never_leaks(self, max_position, seed):
        keys, query, queries, _ = _clustered_keys(seed=seed)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries[:100])
        (result,), _ = filtered_diprs_search_group(
            keys, index.graph, query[None], 12.0, [index.entry_point], FilterPredicate(max_position=max_position)
        )
        assert np.all(result.indices < max_position)
