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
    snapshot_from_bytes,
    snapshot_from_cache,
    snapshot_to_bytes,
)
from repro.storage import record
from repro.storage.backend import FilesystemBackend
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


def _save(backend: FilesystemBackend, snapshot: KVSnapshot, key: str = "ctx.npz") -> None:
    backend.write_bytes(key, snapshot_to_bytes(snapshot))


def _load(backend: FilesystemBackend, key: str = "ctx.npz") -> KVSnapshot:
    return snapshot_from_bytes(backend.read_bytes(key), source=key)


class TestSerialization:
    """A snapshot on disk is its record under a backend key; the backend's
    write is the atomic one (tests/storage/test_backend.py)."""

    def test_snapshot_roundtrip(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        k, v = _kv(n=6)
        _save(backend, KVSnapshot(tokens=list(range(6)), keys={0: k}, values={0: v}))
        loaded = _load(backend)
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
        with pytest.raises(ContextLoadError):
            _load(FilesystemBackend(tmp_path), "nope.npz")


class TestCrashSafety:
    """A torn or garbage record must never surface as a raw numpy
    traceback — always a clean :class:`ContextLoadError`."""

    def _snapshot(self, n=6):
        k, v = _kv(n=n)
        return KVSnapshot(tokens=list(range(n)), keys={0: k}, values={0: v})

    def test_overwrite_replaces_the_record(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        _save(backend, self._snapshot(n=4))
        _save(backend, self._snapshot(n=8))
        assert _load(backend).num_tokens == 8

    def test_truncated_snapshot_raises_context_load_error(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        blob = snapshot_to_bytes(self._snapshot())
        backend.write_bytes("ctx.npz", blob[: len(blob) // 2])
        with pytest.raises(ContextLoadError, match="ctx.npz"):
            _load(backend)

    def test_garbage_snapshot_raises_context_load_error(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.write_bytes("ctx.npz", b"not an npz archive at all")
        with pytest.raises(ContextLoadError):
            _load(backend)

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

    def _record(self, version=SNAPSHOT_FORMAT_VERSION, **extra_arrays):
        """A snapshot record packed by hand, past ``snapshot_to_bytes``'s
        validation."""
        snapshot = self._snapshot()
        arrays = {
            "tokens": np.asarray(snapshot.tokens, dtype=np.int64),
            "key_0": snapshot.keys[0],
            "value_0": snapshot.values[0],
            **extra_arrays,
        }
        meta = {"num_tokens": snapshot.num_tokens, "num_layers": 1, "metadata": {}}
        return record.pack("kv-snapshot", version, meta, arrays)

    def test_version_two_record_raises(self):
        # format 2 kept every prefill query of every query head, per layer
        blob = self._record(version=2, qsample_0=np.ones((4, 6, 8), dtype=np.float32))
        with pytest.raises(ContextLoadError, match="format version 2 is not supported"):
            snapshot_from_bytes(blob)

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("qsample_1", (2, 3, 8)),  # a layer the snapshot does not hold
            ("qsample_0", (4, 3, 8)),  # one group per query head, not per KV head
            ("qsample_0", (2, 3, 4)),  # another head_dim
            ("qsample_0", (2, 24)),  # not grouped at all
        ],
        ids=["unknown-layer", "query-heads", "head-dim", "flat"],
    )
    def test_a_malformed_query_sample_fails_the_load(self, name, shape):
        blob = self._record(**{name: np.ones(shape, dtype=np.float32)})
        with pytest.raises(ContextLoadError, match="query sample"):
            snapshot_from_bytes(blob)
        assert snapshot_from_bytes(self._record(qsample_0=np.ones((2, 3, 8), dtype=np.float32)))

    def test_context_load_error_is_storage_error(self):
        # callers catching the historic StorageError keep working
        assert issubclass(ContextLoadError, StorageError)
