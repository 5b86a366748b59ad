"""Tests of the vector indexes: flat, graph, RoarGraph, coarse, builder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexNotBuiltError
from repro.index.base import SearchResult
from repro.index.builder import ContextIndexBuilder, IndexBuildConfig, draw_query_sample
from repro.index.coarse import CoarseBlockIndex
from repro.index.flat import FlatIndex
from repro.index.graph import NeighborGraph, beam_search
from repro.index.knn_graph import cross_knn, exact_knn
from repro.index.roargraph import RoarGraphConfig, RoarGraphIndex


def _vectors(n=500, dim=16, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)


class TestNeighborGraph:
    def test_from_lists_roundtrip(self):
        lists = [[1, 2], [0], [0, 1], []]
        graph = NeighborGraph.from_lists(lists)
        assert graph.num_nodes == 4
        assert graph.num_edges == 5
        assert graph.to_lists() == lists

    def test_neighbors_slice(self):
        graph = NeighborGraph.from_lists([[1], [0, 2], [1]])
        np.testing.assert_array_equal(graph.neighbors(1), [0, 2])
        assert graph.degree(1) == 2

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            NeighborGraph(np.asarray([1, 2]), np.asarray([1, 2]))

    def test_beam_search_finds_best_on_connected_graph(self):
        vectors = _vectors(200, 8)
        knn = exact_knn(vectors, 8)
        graph = NeighborGraph.from_lists([list(row) for row in knn])
        query = np.random.default_rng(1).normal(size=8).astype(np.float32)
        truth = int(np.argmax(vectors @ query))
        indices, scores, stats = beam_search(vectors, graph, query, ef=32, entry_points=[0])
        assert truth in indices[:5]
        assert stats.num_distance_computations > 0


class TestKNNConstruction:
    def test_exact_knn_correct(self):
        vectors = _vectors(50, 8)
        neighbors = exact_knn(vectors, 3)
        scores = vectors @ vectors.T
        np.fill_diagonal(scores, -np.inf)
        for node in range(50):
            expected = set(np.argsort(-scores[node])[:3].tolist())
            assert set(neighbors[node].tolist()) == expected

    def test_exact_knn_blocked_matches_unblocked(self):
        vectors = _vectors(100, 8)
        np.testing.assert_array_equal(exact_knn(vectors, 5, block_size=7), exact_knn(vectors, 5))
        # past 512 keys the default block (sized from a fixed score budget)
        # holds fewer rows than there are vectors
        vectors, queries = _vectors(1200, 8), _vectors(700, 8, seed=1)
        np.testing.assert_array_equal(exact_knn(vectors, 5), exact_knn(vectors, 5, block_size=1200))
        np.testing.assert_array_equal(cross_knn(queries, vectors, 5), cross_knn(queries, vectors, 5, block_size=700))
        assert exact_knn(_vectors(1, 8), 3).shape == (1, 0)

    def test_cross_knn_correct(self):
        base = _vectors(80, 8, seed=1)
        queries = _vectors(10, 8, seed=2)
        links = cross_knn(queries, base, 4)
        scores = queries @ base.T
        for i in range(10):
            assert set(links[i].tolist()) == set(np.argsort(-scores[i])[:4].tolist())


class TestFlatIndex:
    def test_topk_matches_numpy(self):
        vectors = _vectors()
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(3).normal(size=16).astype(np.float32)
        result = index.search_topk(query, 10)
        expected = np.argsort(-(vectors @ query))[:10]
        np.testing.assert_array_equal(result.indices, expected)

    def test_range_query_semantics(self):
        vectors = _vectors()
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(4).normal(size=16).astype(np.float32)
        beta = 2.0
        result = index.search_range(query, beta)
        scores = vectors @ query
        expected = np.flatnonzero(scores >= scores.max() - beta)
        assert set(result.indices.tolist()) == set(expected.tolist())

    def test_batch_searches_match_per_query(self):
        vectors = _vectors()
        index = FlatIndex()
        index.build(vectors)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(4, 16)).astype(np.float32)
        allowed = np.arange(vectors.shape[0]) < vectors.shape[0] // 2
        for masked in (None, allowed):
            range_results = index.search_range_batch(queries, 2.0, allowed=masked)
            topk_results = index.search_topk_batch(queries, 10, allowed=masked)
            for i, query in enumerate(queries):
                expected_range = index.search_range(query, 2.0, allowed=masked)
                np.testing.assert_array_equal(range_results[i].indices, expected_range.indices)
                assert range_results[i].num_distance_computations == vectors.shape[0]
                expected_topk = index.search_topk(query, 10, allowed=masked)
                np.testing.assert_array_equal(topk_results[i].indices, expected_topk.indices)

    def test_batch_rejects_bad_shape(self):
        index = FlatIndex()
        index.build(_vectors())
        with pytest.raises(ValueError):
            index.search_range_batch(np.zeros((2, 3), dtype=np.float32), 1.0)

    def test_allowed_mask_restricts_results(self):
        vectors = _vectors(100)
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(5).normal(size=16).astype(np.float32)
        allowed = np.zeros(100, dtype=bool)
        allowed[:30] = True
        result = index.search_topk(query, 10, allowed=allowed)
        assert (result.indices < 30).all()

    def test_append(self):
        index = FlatIndex()
        index.build(_vectors(10))
        index.append(_vectors(5, seed=9))
        assert index.num_vectors == 15

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            FlatIndex().search_topk(np.zeros(4, dtype=np.float32), 1)

    @settings(deadline=None, max_examples=25)
    @given(beta=st.floats(min_value=0.0, max_value=10.0), seed=st.integers(0, 50))
    def test_property_range_results_within_beta(self, beta, seed):
        vectors = _vectors(128, 8, seed=seed)
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(seed + 1).normal(size=8).astype(np.float32)
        result = index.search_range(query, beta)
        scores = vectors @ query
        assert len(result) >= 1
        assert np.all(result.scores >= scores.max() - beta - 1e-5)
        # every non-returned vector is below the threshold
        excluded = np.setdiff1d(np.arange(128), result.indices)
        if excluded.size:
            assert np.all(scores[excluded] < scores.max() - beta + 1e-5)


class TestRoarGraph:
    def test_recall_with_ood_queries(self):
        rng = np.random.default_rng(0)
        keys = rng.normal(size=(1000, 16)).astype(np.float32)
        queries = (rng.normal(size=(300, 16)) + 0.8).astype(np.float32)
        index = RoarGraphIndex()
        index.build(keys, query_sample=queries[:200])
        assert index.recall_at_k(queries[200:220], 10) > 0.8

    def test_builds_without_query_sample(self):
        index = RoarGraphIndex()
        index.build(_vectors(200))
        assert index.graph.num_nodes == 200
        result = index.search_topk(np.random.default_rng(1).normal(size=16).astype(np.float32), 5)
        assert len(result) == 5

    def test_max_degree_respected(self):
        config = RoarGraphConfig(max_degree=8)
        index = RoarGraphIndex(config)
        index.build(_vectors(300), query_sample=_vectors(100, seed=2))
        degrees = [index.graph.degree(node) for node in range(index.graph.num_nodes)]
        assert max(degrees) <= 8

    def test_entry_point_is_max_norm(self):
        vectors = _vectors(100)
        vectors[42] *= 10.0
        index = RoarGraphIndex()
        index.build(vectors)
        assert index.entry_point == 42

    def test_graph_has_no_self_loops_after_prune(self):
        index = RoarGraphIndex(RoarGraphConfig(max_degree=6))
        index.build(_vectors(150))
        for node in range(index.graph.num_nodes):
            assert node not in set(index.graph.neighbors(node).tolist())


class TestCoarseIndex:
    def test_block_partitioning(self):
        index = CoarseBlockIndex(block_size=32)
        index.build(_vectors(100))
        assert index.num_blocks == 4
        assert index.blocks[-1].num_tokens == 4

    def test_selected_positions_are_block_aligned(self):
        index = CoarseBlockIndex(block_size=25)
        index.build(_vectors(100))
        query = np.random.default_rng(6).normal(size=16).astype(np.float32)
        positions = index.selected_positions(query, 2)
        assert positions.shape[0] == 50

    def test_batch_selected_positions_match_per_query(self):
        index = CoarseBlockIndex(block_size=25)
        index.build(_vectors(100))
        queries = np.random.default_rng(7).normal(size=(5, 16)).astype(np.float32)
        batched = index.selected_positions_batch(queries, 2)
        assert len(batched) == 5
        for i, query in enumerate(queries):
            np.testing.assert_array_equal(batched[i], index.selected_positions(query, 2))

    def test_topk_covers_best_token_when_block_found(self):
        vectors = _vectors(256)
        query = np.random.default_rng(8).normal(size=16).astype(np.float32)
        # plant an extreme token so its block is certainly selected
        vectors[100] = query * 10
        index = CoarseBlockIndex(block_size=32, num_representatives=4)
        index.build(vectors)
        result = index.search_topk(query, 5)
        assert 100 in result.indices

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            CoarseBlockIndex(block_size=0)


class TestContextIndexBuilder:
    def _layer_data(self, num_kv=2, num_q=4, n=300, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(num_kv, n, dim)).astype(np.float32)
        queries = rng.normal(size=(num_q, 64, dim)).astype(np.float32)
        return keys, queries

    def _sample(self, queries, n=300, num_kv=2, **config):
        return draw_query_sample(queries, num_kv, n, IndexBuildConfig(**config), layer=0)

    def test_one_index_per_kv_head_over_its_keys(self):
        """GQA sharing is the only layout: a layer's indexes are a list by KV
        head, each built over (a view of) that head's keys."""
        keys, queries = self._layer_data()
        indexes, report = ContextIndexBuilder().build_layer(keys, self._sample(queries))
        assert len(indexes) == report.num_indexes == 2
        for kv_head, index in enumerate(indexes):
            assert np.shares_memory(index.vectors, keys[kv_head])
        assert report.index_memory_bytes == sum(index.memory_bytes for index in indexes)

    def test_query_heads_must_fill_whole_groups(self):
        keys, queries = self._layer_data(num_q=3)
        with pytest.raises(ValueError, match="do not form 2 groups"):
            self._sample(queries)
        with pytest.raises(ValueError, match="one group per KV head"):
            ContextIndexBuilder().build_layer(keys, self._sample(queries, num_kv=3))

    def test_the_draw_is_per_kv_head_without_replacement(self):
        """Each KV head gets ``query_sample_ratio · n`` distinct queries of its
        own group, and the draw is seeded by ``seed + layer``."""
        _, queries = self._layer_data()
        sample = self._sample(queries)
        assert sample.shape == (2, int(0.4 * 300), 16) and sample.dtype == np.float32
        for kv_head in range(2):
            group = queries[2 * kv_head : 2 * kv_head + 2].reshape(-1, 16)
            rows = [int(np.flatnonzero((group == row).all(axis=1))[0]) for row in sample[kv_head]]
            assert len(set(rows)) == len(rows)
        np.testing.assert_array_equal(sample, self._sample(queries))
        assert not np.array_equal(sample, self._sample(queries, seed=1))
        # a group with no more rows than the target is kept whole
        assert self._sample(queries, n=1000).shape == (2, 128, 16)

    def test_the_builder_draws_nothing(self):
        """A build reads ``sample[h][: max(1, int(ratio · n))]`` and nothing
        else: its seed does not matter, and a build over fewer keys (a shard)
        equals a build from that prefix of the sample."""
        keys, queries = self._layer_data()
        sample = self._sample(queries)

        def graphs(indexes):
            return [(i.graph.neighbor_ids.tobytes(), i.graph.offsets.tobytes(), i.entry_point) for i in indexes]

        full = graphs(ContextIndexBuilder().build_layer(keys, sample)[0])
        assert full == graphs(ContextIndexBuilder(IndexBuildConfig(seed=7)).build_layer(keys, sample)[0])
        shard_keys = np.ascontiguousarray(keys[:, :100])
        shard, report = ContextIndexBuilder().build_layer(shard_keys, sample)
        assert report.num_query_samples == 2 * 40
        assert graphs(shard) == graphs(ContextIndexBuilder().build_layer(shard_keys, sample[:, :40])[0])

    def test_build_context_aggregates_layers(self):
        keys, queries = self._layer_data()
        builder = ContextIndexBuilder()
        sample = self._sample(queries)
        layer_indexes, report = builder.build_context({0: keys, 1: keys}, {0: sample, 1: sample})
        assert set(layer_indexes) == {0, 1}
        assert report.num_indexes == 4

    def test_search_result_top(self):
        result = SearchResult(indices=np.arange(10), scores=np.arange(10, 0, -1).astype(np.float32))
        top = result.top(3)
        assert len(top) == 3
        np.testing.assert_array_equal(top.indices, [0, 1, 2])
