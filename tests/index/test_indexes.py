"""Tests of the vector indexes: flat, graph, RoarGraph, coarse, builder.

Index searches are batched; a single query runs as a ``(1, d)`` batch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.topk_retrieval import beam_search
from repro.errors import IndexNotBuiltError
from repro.index.base import SearchResult
from repro.index.builder import ContextIndexBuilder, IndexBuildConfig
from repro.index.coarse import CoarseBlockIndex
from repro.index.flat import FlatIndex
from repro.index.graph import NeighborGraph
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
        (result,) = index.search_topk_batch(query[None], 10)
        expected = np.argsort(-(vectors @ query))[:10]
        np.testing.assert_array_equal(result.indices, expected)

    def test_range_query_semantics(self):
        vectors = _vectors()
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(4).normal(size=16).astype(np.float32)
        beta = 2.0
        (result,) = index.search_range_batch(query[None], beta)
        scores = vectors @ query
        expected = np.flatnonzero(scores >= scores.max() - beta)
        assert set(result.indices.tolist()) == set(expected.tolist())

    def test_batch_rows_match_batches_of_one(self):
        vectors = _vectors()
        index = FlatIndex()
        index.build(vectors)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(4, 16)).astype(np.float32)
        allowed = np.arange(vectors.shape[0]) < vectors.shape[0] // 2
        for masked in (None, allowed):
            range_results = index.search_range_batch(queries, 2.0, allowed=masked)
            topk_results = index.search_topk_batch(queries, 10, allowed=masked)
            for i in range(queries.shape[0]):
                (expected_range,) = index.search_range_batch(queries[i : i + 1], 2.0, allowed=masked)
                np.testing.assert_array_equal(range_results[i].indices, expected_range.indices)
                assert range_results[i].num_distance_computations == vectors.shape[0]
                (expected_topk,) = index.search_topk_batch(queries[i : i + 1], 10, allowed=masked)
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
        (result,) = index.search_topk_batch(query[None], 10, allowed=allowed)
        assert (result.indices < 30).all()

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            FlatIndex().search_topk_batch(np.zeros((1, 4), dtype=np.float32), 1)

    @settings(deadline=None, max_examples=25)
    @given(beta=st.floats(min_value=0.0, max_value=10.0), seed=st.integers(0, 50))
    def test_property_range_results_within_beta(self, beta, seed):
        vectors = _vectors(128, 8, seed=seed)
        index = FlatIndex()
        index.build(vectors)
        query = np.random.default_rng(seed + 1).normal(size=8).astype(np.float32)
        (result,) = index.search_range_batch(query[None], beta)
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
        hits = 0
        for query in queries[200:220]:
            truth = set(np.argsort(-(keys @ query))[:10].tolist())
            found, _, _ = beam_search(keys, index.graph, query, 40, [index.entry_point])
            hits += len(truth & set(found[:10].tolist()))
        assert hits / 200 > 0.8

    def test_builds_without_query_sample(self):
        index = RoarGraphIndex()
        index.build(_vectors(200))
        assert index.graph.num_nodes == 200
        query = np.random.default_rng(1).normal(size=16).astype(np.float32)
        found, _, _ = beam_search(index.vectors, index.graph, query, 20, [index.entry_point])
        assert len(found[:5]) == 5

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
        starts, stops = index.block_bounds
        assert stops[-1] - starts[-1] == 4

    def test_selected_positions_are_block_aligned(self):
        index = CoarseBlockIndex(block_size=25)
        index.build(_vectors(100))
        query = np.random.default_rng(6).normal(size=16).astype(np.float32)
        (top,) = index.top_blocks_from_scores(index.block_scores_batch(query[None]), 2)
        positions = index.positions_of_blocks(top)
        assert positions.shape[0] == 50
        np.testing.assert_array_equal(np.unique(positions // 25), np.sort(top))

    def test_batch_rows_match_batches_of_one(self):
        index = CoarseBlockIndex(block_size=25)
        index.build(_vectors(100))
        queries = np.random.default_rng(7).normal(size=(5, 16)).astype(np.float32)
        batched = index.top_blocks_from_scores(index.block_scores_batch(queries), 2)
        assert batched.shape == (5, 2)
        for i in range(queries.shape[0]):
            single = index.top_blocks_from_scores(index.block_scores_batch(queries[i : i + 1]), 2)
            np.testing.assert_array_equal(batched[i], single[0])

    def test_top_block_holds_the_planted_token(self):
        vectors = _vectors(256)
        query = np.random.default_rng(8).normal(size=16).astype(np.float32)
        # plant an extreme token so its block is certainly selected
        vectors[100] = query * 10
        index = CoarseBlockIndex(block_size=32, num_representatives=4)
        index.build(vectors)
        (top,) = index.top_blocks_from_scores(index.block_scores_batch(query[None]), 1)
        assert 100 in index.positions_of_blocks(top)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            CoarseBlockIndex(block_size=0)


class TestContextIndexBuilder:
    def _layer_data(self, num_kv=2, num_q=4, n=300, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(num_kv, n, dim)).astype(np.float32)
        queries = rng.normal(size=(num_q, 64, dim)).astype(np.float32)
        return keys, queries

    def _sample(self, queries, num_kv=2):
        """The rule over the 64 query rows, at a rate that keeps about 40 %
        of the 300 keys' worth (all of them)."""
        return IndexBuildConfig(query_sample_ratio=1.0).sample_queries(queries, num_kv, 0, 0)

    def test_one_index_per_kv_head_over_its_keys(self):
        """GQA sharing is the only layout: a layer's indexes are a list by KV
        head, each built over (a view of) that head's keys."""
        keys, queries = self._layer_data()
        indexes, report = ContextIndexBuilder().build_layer(keys, self._sample(queries))
        assert len(indexes) == report.num_indexes == 2
        for kv_head, index in enumerate(indexes):
            assert np.shares_memory(index.vectors, keys[kv_head])
        assert report.index_memory_bytes == sum(index.memory_bytes for index in indexes)

    def test_the_sample_must_hold_one_group_per_kv_head(self):
        keys, queries = self._layer_data()
        with pytest.raises(ValueError, match="one group per KV head"):
            ContextIndexBuilder().build_layer(keys, self._sample(queries, num_kv=4))

    def test_the_builder_reads_the_sample_whole(self):
        """A build over any number of keys reads every row of the sample it
        is handed: KV head ``h`` is exactly a RoarGraph over its keys built
        from ``sample[h]``."""
        keys, queries = self._layer_data()
        sample = IndexBuildConfig().sample_queries(queries, 2, 0, 0)

        def graphs(indexes):
            return [(i.graph.neighbor_ids.tobytes(), i.graph.offsets.tobytes(), i.entry_point) for i in indexes]

        shard_keys = np.ascontiguousarray(keys[:, :100])
        for layer_keys in (keys, shard_keys):
            built, report = ContextIndexBuilder().build_layer(layer_keys, sample)
            assert report.num_query_samples == 2 * sample.shape[1]
            direct = []
            for kv_head in range(2):
                index = RoarGraphIndex(IndexBuildConfig().roargraph)
                index.build(layer_keys[kv_head], query_sample=sample[kv_head])
                direct.append(index)
            assert graphs(built) == graphs(direct)

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
