"""Tests of the versioned index serialization: a loaded index must be
*bit-identical* under search to the index that was saved — deserialization
reattaches the stored graph/vectors, it never re-runs a build."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ContextLoadError, IndexNotBuiltError
from repro.index.builder import ContextIndexBuilder, IndexBuildConfig
from repro.index.coarse import CoarseBlockIndex
from repro.index.roargraph import RoarGraphConfig, RoarGraphIndex
from repro.index.serialization import (
    INDEX_FORMAT_VERSION,
    deserialize_context_indexes,
    load_coarse,
    load_roargraph,
    save_coarse,
    save_roargraph,
    serialize_context_indexes,
)
from tests.record_corruption import CORRUPTIONS, split


def _vectors(n, dim, seed):
    return np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)


def _built_roargraph(n=200, dim=16, seed=0):
    index = RoarGraphIndex(RoarGraphConfig(num_query_links=4, max_degree=8))
    index.build(_vectors(n, dim, seed), query_sample=_vectors(32, dim, seed + 1))
    return index


def _assert_search_identical(original, loaded, queries, k=10):
    """Exact (bitwise) agreement on ids *and* scores over a query grid."""
    for query in queries:
        a = original.search_topk(query, k=k)
        b = loaded.search_topk(query, k=k)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestRoarGraphSerialization:
    def test_roundtrip_search_bit_identical(self, tmp_path):
        index = _built_roargraph()
        path = save_roargraph(index, tmp_path / "rg.npz")
        loaded = load_roargraph(path)
        # the graph itself round-trips exactly
        np.testing.assert_array_equal(index.graph.neighbor_ids, loaded.graph.neighbor_ids)
        np.testing.assert_array_equal(index.graph.offsets, loaded.graph.offsets)
        np.testing.assert_array_equal(index.vectors, loaded.vectors)
        assert index.entry_point == loaded.entry_point
        assert index.config == loaded.config
        _assert_search_identical(index, loaded, _vectors(25, 16, 99))

    def test_index_save_load_methods(self, tmp_path):
        index = _built_roargraph(seed=3)
        index.save(tmp_path / "idx.npz")
        loaded = RoarGraphIndex.load(tmp_path / "idx.npz")
        _assert_search_identical(index, loaded, _vectors(10, 16, 42))

    def test_unbuilt_index_refuses_save(self, tmp_path):
        with pytest.raises(IndexNotBuiltError):
            save_roargraph(RoarGraphIndex(), tmp_path / "x.npz")

    def test_missing_file_raises_clean_error(self, tmp_path):
        with pytest.raises(ContextLoadError):
            load_roargraph(tmp_path / "nope.npz")

    def test_truncated_file_raises_clean_error(self, tmp_path):
        path = save_roargraph(_built_roargraph(n=80), tmp_path / "rg.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(ContextLoadError):
            load_roargraph(path)

    def test_kind_mismatch_raises(self, tmp_path):
        coarse = CoarseBlockIndex(block_size=16)
        coarse.build(_vectors(64, 8, 0))
        path = save_coarse(coarse, tmp_path / "cb.npz")
        with pytest.raises(ContextLoadError):
            load_roargraph(path)


class TestCoarseSerialization:
    def test_roundtrip_search_bit_identical(self, tmp_path):
        index = CoarseBlockIndex(block_size=16, num_representatives=3)
        index.build(_vectors(130, 8, 5))  # ragged tail block on purpose
        loaded = load_coarse(save_coarse(index, tmp_path / "cb.npz"))
        for query in _vectors(20, 8, 6):
            a_blocks = [b.block_id for b in index.search_blocks(query, num_blocks=4)]
            b_blocks = [b.block_id for b in loaded.search_blocks(query, num_blocks=4)]
            assert a_blocks == b_blocks
            a = index.search_topk(query, k=8)
            b = loaded.search_topk(query, k=8)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_kind_mismatch_raises(self, tmp_path):
        path = save_roargraph(_built_roargraph(n=60, dim=8), tmp_path / "rg.npz")
        with pytest.raises(ContextLoadError):
            load_coarse(path)


class TestContextIndexBlob:
    """A whole context's indexes (fine + coarse) in one blob; the query
    samples a rebuild reads live in the KV snapshot, not here."""

    @pytest.fixture()
    def built(self):
        rng = np.random.default_rng(11)
        num_layers, num_kv_heads, n, dim = 2, 2, 96, 8
        keys = {
            layer: rng.normal(size=(num_kv_heads, n, dim)).astype(np.float32)
            for layer in range(num_layers)
        }
        queries = {
            layer: rng.normal(size=(4, 24, dim)).astype(np.float32)
            for layer in range(num_layers)
        }
        builder = ContextIndexBuilder(IndexBuildConfig())
        fine, _ = builder.build_context(keys, queries)
        coarse = {}
        for layer in range(num_layers):
            per_head = []
            for head in range(num_kv_heads):
                index = CoarseBlockIndex(block_size=16)
                index.build(keys[layer][head])
                per_head.append(index)
            coarse[layer] = per_head
        return fine, coarse, dim

    def test_roundtrip(self, built):
        fine, coarse, dim = built
        blob = serialize_context_indexes(fine, coarse)
        fine2, coarse2 = deserialize_context_indexes(blob)

        assert set(fine2) == set(fine)
        probes = _vectors(10, dim, 77)
        for layer, layer_indexes in fine.items():
            restored = fine2[layer]
            assert restored.shared == layer_indexes.shared
            assert restored.gqa_group_size == layer_indexes.gqa_group_size
            assert len(restored.indexes) == len(layer_indexes.indexes)
            for a, b in zip(layer_indexes.indexes, restored.indexes):
                _assert_search_identical(a, b, probes, k=5)

        assert set(coarse2) == set(coarse)
        for layer in coarse:
            assert len(coarse2[layer]) == len(coarse[layer])
            for a, b in zip(coarse[layer], coarse2[layer]):
                for query in probes:
                    ra = a.search_topk(query, k=6)
                    rb = b.search_topk(query, k=6)
                    np.testing.assert_array_equal(ra.indices, rb.indices)

    def test_loaded_arrays_are_exact_read_only_views(self, built):
        fine, coarse, _ = built
        fine2, coarse2 = deserialize_context_indexes(serialize_context_indexes(fine, coarse))
        for a, b in zip(fine[0].indexes, fine2[0].indexes):
            for original, loaded in (
                (a.vectors, b.vectors),
                (a.graph.neighbor_ids, b.graph.neighbor_ids),
                (a.graph.offsets, b.graph.offsets),
            ):
                assert loaded.dtype == original.dtype
                assert loaded.tobytes() == original.tobytes()
                assert loaded.flags.writeable is False
            assert b.entry_point == a.entry_point

    def test_blob_holds_no_query_samples(self, built):
        fine, coarse, _ = built
        header, _ = split(serialize_context_indexes(fine, coarse))
        names = [entry["name"] for entry in header["arrays"]]
        assert names and not [name for name in names if name.startswith("q")]

    def test_empty_context_roundtrips(self):
        fine, coarse = deserialize_context_indexes(serialize_context_indexes({}, {}))
        assert fine == {} and coarse == {}

    def test_truncated_blob_raises_clean_error(self, built):
        fine, coarse, _ = built
        blob = serialize_context_indexes(fine, coarse)
        with pytest.raises(ContextLoadError, match="ctx.indexes"):
            deserialize_context_indexes(blob[: len(blob) // 2], source="ctx.indexes")

    def test_version_one_npz_is_named(self):
        with pytest.raises(ContextLoadError, match=f"version-1 .*version {INDEX_FORMAT_VERSION}"):
            deserialize_context_indexes(CORRUPTIONS["version_one_npz"](b""))

    def test_garbage_blob_raises_clean_error(self):
        with pytest.raises(ContextLoadError):
            deserialize_context_indexes(b"definitely not an npz archive")
