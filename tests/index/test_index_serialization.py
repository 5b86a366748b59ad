"""Tests of the versioned index serialization: a loaded index must be
*bit-identical* under search to the index that was saved — deserialization
re-attaches the stored graph to the snapshot's keys, it never re-runs a
build, and the blob holds no copy of those keys."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ContextLoadError, IndexNotBuiltError
from repro.index.builder import ContextIndexBuilder, IndexBuildConfig, draw_query_sample
from repro.index.coarse import CoarseBlockIndex
from repro.index.roargraph import RoarGraphIndex
from repro.index.serialization import (
    INDEX_FORMAT_VERSION,
    deserialize_context_indexes,
    serialize_context_indexes,
)
from repro.storage import record
from tests.record_corruption import CORRUPTIONS, split

NUM_LAYERS, NUM_KV_HEADS, NUM_TOKENS, DIM = 2, 2, 100, 8


def _vectors(n, dim, seed):
    return np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)


def _assert_search_identical(original, loaded, queries, k=10):
    """Exact (bitwise) agreement on ids *and* scores over a query grid."""
    for query in queries:
        a = original.search_topk(query, k=k)
        b = loaded.search_topk(query, k=k)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.scores, b.scores)


def _coarse_layers(keys):
    coarse = {}
    for layer, layer_keys in keys.items():
        per_head = []
        for head in range(layer_keys.shape[0]):
            # 100 tokens in blocks of 16: a ragged tail block on purpose
            index = CoarseBlockIndex(block_size=16, num_representatives=3)
            index.build(layer_keys[head])
            per_head.append(index)
        coarse[layer] = per_head
    return coarse


def _keys(num_tokens=NUM_TOKENS, seed=11):
    rng = np.random.default_rng(seed)
    return {
        layer: rng.normal(size=(NUM_KV_HEADS, num_tokens, DIM)).astype(np.float32)
        for layer in range(NUM_LAYERS)
    }


class TestContextIndexBlob:
    """A whole context's indexes (fine + coarse, one per KV head) in one
    blob; the keys they index and the query samples a rebuild reads live in
    the KV snapshot, not here."""

    @pytest.fixture()
    def built(self):
        keys = _keys()
        rng = np.random.default_rng(12)
        config = IndexBuildConfig()
        samples = {
            layer: draw_query_sample(
                rng.normal(size=(4, 24, DIM)), NUM_KV_HEADS, NUM_TOKENS, config, layer
            )
            for layer in range(NUM_LAYERS)
        }
        fine, _ = ContextIndexBuilder(config).build_context(keys, samples)
        return fine, _coarse_layers(keys), keys

    @staticmethod
    def _reloaded_keys(keys):
        """The keys as a reload sees them: copies at other addresses."""
        return {layer: layer_keys.copy() for layer, layer_keys in keys.items()}

    def test_roundtrip(self, built):
        fine, coarse, keys = built
        blob = serialize_context_indexes(fine, coarse)
        fine2, coarse2 = deserialize_context_indexes(blob, self._reloaded_keys(keys))

        assert set(fine2) == set(fine)
        probes = _vectors(10, DIM, 77)
        for layer, per_head in fine.items():
            assert len(fine2[layer]) == len(per_head) == NUM_KV_HEADS
            for a, b in zip(per_head, fine2[layer]):
                _assert_search_identical(a, b, probes, k=5)

        assert set(coarse2) == set(coarse)
        for layer in coarse:
            assert len(coarse2[layer]) == len(coarse[layer])
            for a, b in zip(coarse[layer], coarse2[layer]):
                for query in probes:
                    a_blocks = [block.block_id for block in a.search_blocks(query, num_blocks=4)]
                    b_blocks = [block.block_id for block in b.search_blocks(query, num_blocks=4)]
                    assert a_blocks == b_blocks
                    ra, rb = a.search_topk(query, k=6), b.search_topk(query, k=6)
                    np.testing.assert_array_equal(ra.indices, rb.indices)
                    np.testing.assert_array_equal(ra.scores, rb.scores)

    def test_loaded_indexes_view_the_given_keys(self, built):
        fine, coarse, keys = built
        reloaded = self._reloaded_keys(keys)
        fine2, coarse2 = deserialize_context_indexes(serialize_context_indexes(fine, coarse), reloaded)
        for per_layer in (fine2, coarse2):
            for layer, per_head in per_layer.items():
                for head, index in enumerate(per_head):
                    assert np.shares_memory(index.vectors, reloaded[layer][head])
                    np.testing.assert_array_equal(index.vectors, reloaded[layer][head])

    def test_loaded_graph_arrays_are_exact_read_only_views(self, built):
        fine, coarse, keys = built
        fine2, _ = deserialize_context_indexes(serialize_context_indexes(fine, coarse), keys)
        for a, b in zip(fine[0], fine2[0]):
            for original, loaded in (
                (a.graph.neighbor_ids, b.graph.neighbor_ids),
                (a.graph.offsets, b.graph.offsets),
            ):
                assert loaded.dtype == original.dtype
                assert loaded.tobytes() == original.tobytes()
                assert loaded.flags.writeable is False
            assert b.entry_point == a.entry_point

    def test_blob_holds_no_key_vectors_and_no_query_samples(self, built):
        fine, coarse, _ = built
        header, _ = split(serialize_context_indexes(fine, coarse))
        arrays = header["arrays"]
        assert arrays
        assert not [entry for entry in arrays if entry["name"].startswith("q")]
        key_shaped = [
            entry["name"] for entry in arrays
            if entry["shape"] == [NUM_TOKENS, DIM] and np.dtype(entry["dtype"]) == np.float32
        ]
        assert key_shaped == []

    def test_empty_context_roundtrips(self):
        fine, coarse = deserialize_context_indexes(serialize_context_indexes({}, {}), {})
        assert fine == {} and coarse == {}

    def test_unbuilt_index_refuses_serialization(self):
        with pytest.raises(IndexNotBuiltError):
            serialize_context_indexes({0: [RoarGraphIndex()]})
        with pytest.raises(IndexNotBuiltError):
            serialize_context_indexes({}, {0: [CoarseBlockIndex()]})

    @pytest.mark.parametrize("kind", ["fine", "coarse"])
    def test_other_token_count_raises(self, built, kind):
        fine, coarse, _ = built
        blob = serialize_context_indexes(fine, {}) if kind == "fine" else serialize_context_indexes({}, coarse)
        with pytest.raises(ContextLoadError, match="snapshot"):
            deserialize_context_indexes(blob, _keys(num_tokens=NUM_TOKENS - 20))

    def test_other_head_count_raises(self, built):
        fine, coarse, keys = built
        blob = serialize_context_indexes(fine, coarse)
        with pytest.raises(ContextLoadError, match="KV heads"):
            deserialize_context_indexes(blob, {layer: k[:1] for layer, k in keys.items()})

    def test_layer_missing_from_the_keys_raises(self, built):
        fine, coarse, keys = built
        with pytest.raises(ContextLoadError, match="layer 1"):
            deserialize_context_indexes(serialize_context_indexes(fine, coarse), {0: keys[0]})

    def test_version_two_blob_is_refused(self, built):
        """A version-2 blob (it repeated the keys as ``*_vectors``) is refused by
        its version stamp, so a reload rebuilds instead of misreading it."""
        fine, _, keys = built
        arrays = {}
        for head, index in enumerate(fine[0]):
            arrays[f"f0_i{head}_vectors"] = index.vectors
            arrays[f"f0_i{head}_neighbor_ids"] = index.graph.neighbor_ids
            arrays[f"f0_i{head}_offsets"] = index.graph.offsets
        meta = {
            "fine": {"0": {"shared": True, "gqa_group_size": 2, "indexes": [
                {"entry_point": index.entry_point, "config": {}} for index in fine[0]
            ]}},
            "coarse": {},
        }
        blob = record.pack("context-indexes", 2, meta, arrays)
        with pytest.raises(ContextLoadError, match=f"version {INDEX_FORMAT_VERSION}"):
            deserialize_context_indexes(blob, keys)

    def test_truncated_blob_raises_clean_error(self, built):
        fine, coarse, keys = built
        blob = serialize_context_indexes(fine, coarse)
        with pytest.raises(ContextLoadError, match="ctx.indexes"):
            deserialize_context_indexes(blob[: len(blob) // 2], keys, source="ctx.indexes")

    def test_version_one_npz_is_named(self):
        with pytest.raises(ContextLoadError, match=f"version-1 .*version {INDEX_FORMAT_VERSION}"):
            deserialize_context_indexes(CORRUPTIONS["version_one_npz"](b""), {})

    def test_garbage_blob_raises_clean_error(self):
        with pytest.raises(ContextLoadError):
            deserialize_context_indexes(b"definitely not an npz archive", {})

    def test_other_record_kind_raises(self):
        blob = record.pack("snapshot", INDEX_FORMAT_VERSION, {}, {})
        with pytest.raises(ContextLoadError):
            deserialize_context_indexes(blob, {})
