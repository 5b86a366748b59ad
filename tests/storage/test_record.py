"""Tests of the raw record codec every persisted context object goes through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ContextLoadError
from repro.storage import record
from tests.record_corruption import CORRUPTIONS, PREFIX, frame, split


def _arrays():
    rng = np.random.default_rng(3)
    return {
        "keys": rng.normal(size=(2, 37, 8)).astype(np.float32),
        "ids": np.arange(11, dtype=np.int32),
        "offsets": np.arange(5, dtype=np.int64)[::-1],  # non-contiguous on purpose
        "empty": np.zeros((0, 8), dtype=np.float32),
        "flags": np.array([True, False, True]),
        "scalar": np.array(7, dtype=np.int64),
    }


def test_roundtrip_is_exact_and_read_only():
    arrays = _arrays()
    meta, loaded = record.unpack(
        record.pack("unit", 2, {"note": "x", "n": [1, 2]}, arrays), "blob", "unit", 2
    )
    assert meta == {"note": "x", "n": [1, 2]}
    assert list(loaded) == list(arrays)
    for name, array in arrays.items():
        assert loaded[name].dtype == array.dtype
        assert loaded[name].shape == array.shape
        np.testing.assert_array_equal(loaded[name], array)
        assert loaded[name].flags.writeable is False


def test_layout_is_aligned_and_endian_explicit():
    blob = record.pack("unit", 2, {}, _arrays())
    magic, version, _, total = PREFIX.unpack_from(blob)
    assert (magic, version, total) == (b"ALAYAREC", 2, len(blob))
    header, _ = split(blob)
    assert header["kind"] == "unit"
    assert [entry["dtype"] for entry in header["arrays"][:3]] == ["<f4", "<i4", "<i8"]
    assert all(entry["offset"] % 64 == 0 for entry in header["arrays"])


def test_views_share_the_blob():
    blob = record.pack("unit", 2, {}, {"a": np.arange(16, dtype=np.float32)})
    _, loaded = record.unpack(blob, "blob", "unit", 2)
    assert np.shares_memory(loaded["a"], np.frombuffer(blob, dtype=np.uint8))


def test_object_arrays_are_refused():
    with pytest.raises(TypeError):
        record.pack("unit", 2, {}, {"o": np.array([object()])})


def test_version_and_kind_are_checked():
    blob = record.pack("unit", 3, {}, {"a": np.arange(3)})
    with pytest.raises(ContextLoadError, match="version 3"):
        record.unpack(blob, "blob", "unit", 2)
    with pytest.raises(ContextLoadError, match="'unit' record"):
        record.unpack(blob, "blob", "other", 3)


def test_helper_frame_matches_the_codec():
    blob = record.pack("unit", 2, {"k": 1}, _arrays())
    header, data = split(blob)
    assert frame(header, data, 2) == blob


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_corruption_raises_context_load_error(corrupt):
    blob = record.pack("unit", 2, {}, _arrays())
    with pytest.raises(ContextLoadError, match="my-source"):
        record.unpack(corrupt(blob), "my-source", "unit", 2)


def test_npz_blob_is_named_as_version_one():
    with pytest.raises(ContextLoadError, match="version-1"):
        record.unpack(CORRUPTIONS["version_one_npz"](b""), "old", "unit", 2)


def test_garbage_and_empty_blobs_raise():
    for blob in (b"", b"short", b"x" * 200):
        with pytest.raises(ContextLoadError):
            record.unpack(blob, "junk", "unit", 2)
