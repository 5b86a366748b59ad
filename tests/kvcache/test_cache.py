"""Tests of the KV cache implementations and serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ContextLoadError, StorageError
from repro.kvcache.cache import DynamicCache, LayerKVCache
from repro.kvcache.compression import compress_kv, decompress_kv, dequantize_tensor, quantize_tensor
from repro.llm.attention import full_attention
from repro.kvcache.serialization import (
    SNAPSHOT_FORMAT_VERSION,
    KVSnapshot,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_from_cache,
    snapshot_to_bytes,
)
from repro.storage import record
from tests.record_corruption import CORRUPTIONS


def _kv(num_heads=2, n=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(num_heads, n, dim)).astype(np.float32),
        rng.normal(size=(num_heads, n, dim)).astype(np.float32),
    )


class TestLayerKVCache:
    def test_append_and_read(self):
        cache = LayerKVCache(2, 8, initial_capacity=2)
        k1, v1 = _kv(n=3)
        cache.append(k1, v1)
        assert len(cache) == 3
        np.testing.assert_array_equal(cache.keys, k1)
        k2, v2 = _kv(n=5, seed=1)
        cache.append(k2, v2)
        assert len(cache) == 8
        np.testing.assert_array_equal(cache.keys[:, 3:], k2)

    def test_capacity_growth_is_amortised(self):
        cache = LayerKVCache(1, 4, initial_capacity=1)
        for i in range(20):
            k, v = _kv(num_heads=1, n=1, dim=4, seed=i)
            cache.append(k, v)
        assert len(cache) == 20
        assert cache._capacity >= 20

    def test_shape_mismatch_rejected(self):
        cache = LayerKVCache(2, 8)
        k, v = _kv(num_heads=3)
        with pytest.raises(ValueError):
            cache.append(k, v)

    def test_gather_and_slice(self):
        cache = LayerKVCache(2, 8)
        k, v = _kv(n=10)
        cache.append(k, v)
        gk, gv = cache.gather(np.asarray([0, 5, 9]))
        np.testing.assert_array_equal(gk, k[:, [0, 5, 9], :])
        sk, _ = cache.slice(2, 4)
        np.testing.assert_array_equal(sk, k[:, 2:4, :])

    def test_nbytes_tracks_used_portion(self):
        cache = LayerKVCache(1, 4, initial_capacity=128)
        k, v = _kv(num_heads=1, n=2, dim=4)
        cache.append(k, v)
        assert cache.nbytes == 2 * 2 * 4 * 4


def _q(n, num_heads=4, dim=8, seed=2):
    return np.random.default_rng(seed).normal(size=(num_heads, n, dim)).astype(np.float32)


class TestDynamicCache:
    def test_update_query_accumulates_full_kv(self):
        cache = DynamicCache()
        k1, v1 = _kv(n=3)
        cache.update_query(_q(3), k1, v1, layer=0)
        assert cache.keys(0).shape == (2, 3, 8)
        k2, v2 = _kv(n=2, seed=1)
        cache.update_query(_q(2), k2, v2, layer=0)
        assert cache.keys(0).shape == (2, 5, 8)
        np.testing.assert_array_equal(cache.values(0), np.concatenate([v1, v2], axis=1))

    def test_attention_is_causal_over_everything_cached(self):
        cache = DynamicCache()
        k1, v1 = _kv(n=3)
        cache.update_query(_q(3), k1, v1, layer=0)
        k2, v2 = _kv(n=2, seed=1)
        q = _q(2)
        cache.update_query(q, k2, v2, layer=0)
        out = cache.attention(q, layer=0)
        assert out.shape == (4, 2, 8)
        np.testing.assert_array_equal(
            out, full_attention(q, cache.keys(0), cache.values(0), causal=True)
        )
        # the chunk's last row attends every cached token
        np.testing.assert_allclose(
            out[:, 1], full_attention(q[:, 1:], cache.keys(0), cache.values(0), causal=False)[:, 0], atol=1e-6
        )

    def test_layers_are_independent(self):
        cache = DynamicCache()
        k, v = _kv(n=3)
        cache.update_query(_q(3), k, v, layer=0)
        cache.update_query(_q(3), k, v, layer=2)
        assert cache.sequence_length(0) == 3
        assert cache.sequence_length(1) == 0
        assert cache.sequence_length(2) == 3

    def test_nbytes(self):
        cache = DynamicCache()
        k, v = _kv(n=4)
        cache.update_query(_q(4), k, v, layer=0)
        assert cache.nbytes == k.nbytes + v.nbytes


class TestCompression:
    def test_quantise_roundtrip_error_is_bounded(self):
        x = np.random.default_rng(0).normal(size=(4, 100, 16)).astype(np.float32)
        q = quantize_tensor(x)
        restored = dequantize_tensor(q)
        max_per_channel = np.abs(x).max(axis=(0, 1))
        assert np.all(np.abs(restored - x) <= max_per_channel / 127.0 + 1e-6)

    def test_compression_reduces_size(self):
        x = np.random.default_rng(0).normal(size=(4, 256, 32)).astype(np.float32)
        q = quantize_tensor(x)
        assert q.nbytes < x.nbytes / 3

    def test_compress_kv_roundtrip(self):
        k, v = _kv(n=32)
        compressed = compress_kv({0: k}, {0: v})
        keys, values = decompress_kv(compressed)
        assert keys[0].shape == k.shape
        assert np.abs(keys[0] - k).max() < 0.1

    def test_layer_mismatch_rejected(self):
        k, v = _kv(n=4)
        with pytest.raises(ValueError):
            compress_kv({0: k}, {1: v})


class TestSerialization:
    def test_snapshot_roundtrip(self, tmp_path):
        k, v = _kv(n=6)
        snapshot = KVSnapshot(tokens=list(range(6)), keys={0: k}, values={0: v})
        save_snapshot(snapshot, tmp_path, "ctx")
        loaded = load_snapshot(tmp_path, "ctx")
        assert loaded.tokens == list(range(6))
        np.testing.assert_allclose(loaded.keys[0], k, atol=1e-6)

    def test_validation_rejects_token_mismatch(self):
        k, v = _kv(n=6)
        snapshot = KVSnapshot(tokens=[1, 2], keys={0: k}, values={0: v})
        with pytest.raises(StorageError):
            snapshot.validate()

    def test_snapshot_from_cache(self):
        cache = DynamicCache()
        k, v = _kv(n=4)
        cache.update_query(_q(4), k, v, layer=0)
        cache.update_query(_q(4), k, v, layer=1)
        snapshot = snapshot_from_cache(list(range(4)), cache)
        assert snapshot.num_layers == 2
        assert snapshot.num_tokens == 4

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_snapshot(tmp_path, "nope")


class TestCrashSafety:
    """A crash mid-save or a torn file must never surface as a raw numpy
    traceback — always a clean :class:`ContextLoadError`."""

    def _snapshot(self, n=6):
        k, v = _kv(n=n)
        return KVSnapshot(tokens=list(range(n)), keys={0: k}, values={0: v})

    def test_save_leaves_no_temp_files(self, tmp_path):
        for _ in range(3):
            save_snapshot(self._snapshot(), tmp_path, "ctx")
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        assert (tmp_path / "ctx.npz").exists()
        assert (tmp_path / "ctx.json").exists()  # human-readable sidecar

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        save_snapshot(self._snapshot(n=4), tmp_path, "ctx")
        save_snapshot(self._snapshot(n=8), tmp_path, "ctx")
        assert load_snapshot(tmp_path, "ctx").num_tokens == 8

    def test_truncated_snapshot_raises_context_load_error(self, tmp_path):
        path = save_snapshot(self._snapshot(), tmp_path, "ctx")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ContextLoadError):
            load_snapshot(tmp_path, "ctx")

    def test_garbage_snapshot_raises_context_load_error(self, tmp_path):
        (tmp_path / "ctx.npz").write_bytes(b"not an npz archive at all")
        with pytest.raises(ContextLoadError):
            load_snapshot(tmp_path, "ctx")

    def test_unknown_format_version_raises(self):
        meta = {"num_tokens": 0, "num_layers": 0, "metadata": {}}
        blob = record.pack(
            "kv-snapshot", 999, meta, {"tokens": np.asarray([], dtype=np.int64)}
        )
        with pytest.raises(ContextLoadError, match="version 999"):
            snapshot_from_bytes(blob)

    def test_version_one_npz_is_named(self):
        blob = CORRUPTIONS["version_one_npz"](b"")
        with pytest.raises(ContextLoadError, match=f"version-1 .*version {SNAPSHOT_FORMAT_VERSION}"):
            snapshot_from_bytes(blob)

    def test_bytes_roundtrip(self):
        snapshot = self._snapshot()
        snapshot.metadata = {"origin": "unit-test"}
        snapshot.query_samples = {0: np.ones((2, 3, 8), dtype=np.float32)}
        loaded = snapshot_from_bytes(snapshot_to_bytes(snapshot))
        assert loaded.tokens == snapshot.tokens
        assert loaded.metadata == {"origin": "unit-test"}
        for original, restored in (
            (snapshot.keys[0], loaded.keys[0]),
            (snapshot.values[0], loaded.values[0]),
            (snapshot.query_samples[0], loaded.query_samples[0]),
        ):
            assert restored.dtype == original.dtype
            np.testing.assert_array_equal(restored, original)
            # stored contexts are immutable: loads are read-only views
            assert restored.flags.writeable is False

    def test_context_load_error_is_storage_error(self):
        # callers catching the historic StorageError keep working
        assert issubclass(ContextLoadError, StorageError)
