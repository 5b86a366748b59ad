"""Tests of the durable-tier storage backends and the persistent manifest."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.errors import ContextLoadError, StorageError
from repro.storage.backend import FilesystemBackend, InMemoryBackend
from repro.storage.manifest import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_KEY,
    ContextManifest,
    ManifestEntry,
)


@pytest.fixture(params=["filesystem", "memory"])
def backend(request, tmp_path):
    if request.param == "filesystem":
        return FilesystemBackend(tmp_path / "db")
    return InMemoryBackend()


class TestBackendContract:
    """Both backends must satisfy the same blob-store contract."""

    def test_write_read_roundtrip(self, backend):
        backend.write_bytes("a.npz", b"hello")
        assert backend.read_bytes("a.npz") == b"hello"
        assert backend.exists("a.npz")
        assert backend.size_bytes("a.npz") == 5

    def test_overwrite_replaces(self, backend):
        backend.write_bytes("k", b"old")
        backend.write_bytes("k", b"newer")
        assert backend.read_bytes("k") == b"newer"

    def test_missing_key_raises_context_load_error(self, backend):
        with pytest.raises(ContextLoadError):
            backend.read_bytes("absent")
        assert not backend.exists("absent")
        assert backend.size_bytes("absent") == 0

    def test_delete(self, backend):
        backend.write_bytes("k", b"x")
        assert backend.delete("k")
        assert not backend.exists("k")
        assert not backend.delete("k")  # idempotent no-op

    def test_list_keys_prefix_and_order(self, backend):
        for key in ("ctx-2.npz", "ctx-1.npz", "ctx-1.indexes.npz", "manifest.json"):
            backend.write_bytes(key, b"x")
        assert backend.list_keys("ctx-") == ["ctx-1.indexes.npz", "ctx-1.npz", "ctx-2.npz"]
        assert backend.list_keys() == sorted(backend.list_keys())

    def test_total_bytes(self, backend):
        backend.write_bytes("a", b"12")
        backend.write_bytes("b", b"3456")
        backend.write_bytes("other", b"7")
        assert backend.total_bytes() == 7
        assert backend.total_bytes("a") == 2


class TestFilesystemBackend:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        for i in range(5):
            backend.write_bytes("blob", b"v%d" % i)
        backend.flush()  # the directory is read directly below
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert backend.read_bytes("blob") == b"v4"

    def test_list_keys_skips_temp_files(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        backend.write_bytes("real", b"x")
        (tmp_path / ".real.abc123.tmp").write_bytes(b"torn write")
        assert backend.list_keys() == ["real"]

    def test_key_escape_rejected(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "root")
        with pytest.raises(StorageError):
            backend.write_bytes("../escape", b"x")


class TestListKeysPrefixContract:
    """``prefix`` is a string prefix of the *key*, never a directory filter."""

    def test_prefix_spans_directory_boundaries(self, backend):
        backend.write_bytes("ctx-1.npz", b"a")
        backend.write_bytes("ctx-1/part-0.npz", b"b")
        backend.write_bytes("ctx-10.npz", b"c")
        backend.write_bytes("ctx-2.npz", b"d")
        assert backend.list_keys("ctx-1") == [
            "ctx-1.npz",
            "ctx-1/part-0.npz",
            "ctx-10.npz",
        ]
        assert backend.total_bytes("ctx-1") == 3

    def test_nested_keys_listed_with_posix_separators(self, backend):
        backend.write_bytes("a/b/c.bin", b"xy")
        backend.write_bytes("a/b.bin", b"z")
        assert backend.list_keys("a/") == ["a/b.bin", "a/b/c.bin"]
        assert backend.list_keys("a/b/") == ["a/b/c.bin"]
        assert backend.total_bytes("a/") == 3

    def test_key_merely_ending_in_tmp_stays_visible(self, backend):
        # only the atomic-write temps (".<name>.*.tmp") are hidden
        backend.write_bytes("snapshot.tmp", b"legit")
        assert backend.list_keys() == ["snapshot.tmp"]
        assert backend.total_bytes() == 5

    def test_empty_prefix_lists_everything(self, backend):
        backend.write_bytes("x", b"1")
        backend.write_bytes("dir/y", b"2")
        assert backend.list_keys() == ["dir/y", "x"]

    def test_escaping_keys_rejected_not_listed(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "root")
        (tmp_path / "outside.bin").write_bytes(b"secret")
        with pytest.raises(StorageError):
            backend.write_bytes("../outside2.bin", b"x")
        with pytest.raises(StorageError):
            backend.read_bytes("../outside.bin")
        backend.write_bytes("inside.bin", b"ok")
        assert backend.list_keys() == ["inside.bin"]


def _entry(cid="ctx-0000", tokens=(1, 2, 3)):
    return ManifestEntry(
        context_id=cid,
        tokens=list(tokens),
        num_layers=2,
        kv_bytes=4096,
        snapshot_key=f"{cid}.npz",
        index_key=f"{cid}.indexes.npz",
        index_bytes=512,
        metadata={"source": "test"},
    )


class TestManifest:
    def test_roundtrip(self, backend):
        manifest = ContextManifest()
        manifest.upsert(_entry("ctx-0000", [1, 2, 3]))
        manifest.upsert(_entry("ctx-0001", [4, 5]))
        manifest.save(backend)

        loaded = ContextManifest.load(backend)
        assert len(loaded) == 2
        entry = loaded.get("ctx-0000")
        assert entry.tokens == [1, 2, 3]
        assert entry.num_layers == 2
        assert entry.snapshot_key == "ctx-0000.npz"
        assert entry.index_key == "ctx-0000.indexes.npz"
        assert entry.metadata == {"source": "test"}
        assert entry.num_tokens == 3

    def test_generation_bumps_and_survives_reopen(self, backend):
        manifest = ContextManifest()
        manifest.upsert(_entry())
        assert manifest.save(backend) == 1
        assert manifest.save(backend) == 2
        reopened = ContextManifest.load(backend)
        assert reopened.generation == 2
        # the reopened manifest continues the sequence, not resets it
        assert reopened.save(backend) == 3

    def test_load_or_empty_on_fresh_storage(self, backend):
        manifest = ContextManifest.load_or_empty(backend)
        assert len(manifest) == 0
        assert manifest.generation == 0

    def test_corrupted_manifest_raises(self, backend):
        backend.write_bytes(MANIFEST_KEY, b"{not json")
        with pytest.raises(ContextLoadError):
            ContextManifest.load(backend)
        with pytest.raises(ContextLoadError):
            ContextManifest.load_or_empty(backend)  # corruption is not "empty"

    def test_unknown_format_version_raises(self, backend):
        payload = {"format_version": MANIFEST_FORMAT_VERSION + 1, "generation": 1, "contexts": []}
        backend.write_bytes(MANIFEST_KEY, json.dumps(payload).encode())
        with pytest.raises(ContextLoadError):
            ContextManifest.load(backend)

    def test_malformed_entry_raises(self):
        with pytest.raises(ContextLoadError):
            ManifestEntry.from_json({"context_id": "x"})  # missing required fields

    def test_remove(self, backend):
        manifest = ContextManifest()
        manifest.upsert(_entry("gone"))
        assert manifest.remove("gone")
        assert not manifest.remove("gone")
        assert "gone" not in manifest


def _persisted(backend):
    return json.loads(backend.read_bytes(MANIFEST_KEY).decode("utf-8"))


def _snapshot(backend):
    return {key: bytes(backend.read_bytes(key)) for key in backend.list_keys()}


class TestPackedCatalog:
    """Format 2 stores a row's tokens as one base64 string of little-endian
    int32, so a save encodes only the rows it changed."""

    @pytest.mark.parametrize("tokens", [[], [0, 258, 2**31 - 1]], ids=["empty", "edge-ids"])
    def test_exact_roundtrip(self, backend, tokens):
        manifest = ContextManifest()
        manifest.upsert(_entry("ctx", tokens))
        manifest.save(backend)
        loaded = ContextManifest.load(backend).get("ctx")
        assert loaded.tokens == tokens
        assert all(type(token) is int for token in loaded.tokens)

    def test_id_outside_int32_raises_before_any_write(self, backend):
        manifest = ContextManifest()
        manifest.upsert(_entry("ok", [1, 2, 3]))
        manifest.save(backend)
        before = _snapshot(backend)
        manifest.upsert(_entry("too-big", [5, 2**31]))
        with pytest.raises(ValueError):
            manifest.save(backend)
        assert _snapshot(backend) == before

    @pytest.mark.parametrize(
        "packed",
        ["not base64!", "AAA", base64.b64encode(b"\x01\x02\x03\x04\x05\x06").decode(), 17],
        ids=["not-base64", "bad-padding", "six-bytes", "not-a-string"],
    )
    def test_malformed_packed_tokens_raise_context_load_error(self, backend, packed):
        manifest = ContextManifest()
        manifest.upsert(_entry("ctx", [1, 2, 3]))
        manifest.save(backend)
        payload = _persisted(backend)
        payload["contexts"][0]["tokens"] = packed
        backend.write_bytes(MANIFEST_KEY, json.dumps(payload).encode("utf-8"))
        with pytest.raises(ContextLoadError):
            ContextManifest.load(backend)

    def test_every_persisted_tokens_field_is_a_string(self, backend):
        manifest = ContextManifest()
        for i, tokens in enumerate([[], [7], list(range(300))]):
            manifest.upsert(_entry(f"ctx-{i}", tokens))
        manifest.save(backend)
        manifest.upsert(_entry("ctx-1", [8, 9]))
        manifest.save(backend)
        payload = _persisted(backend)
        assert payload["format_version"] == MANIFEST_FORMAT_VERSION == 2
        assert len(payload["contexts"]) == 3
        assert all(isinstance(row["tokens"], str) for row in payload["contexts"])

    def test_one_row_save_encodes_one_row_of_a_large_catalog(self, monkeypatch):
        """256 rows of ~1k tokens: a save that changes one row encodes that
        row only, decodes none, and the catalog costs at most 6 bytes per
        stored token (the indented token lists of format 1 cost ~8.6)."""
        backend = InMemoryBackend()
        rng = np.random.default_rng(0)
        writer = ContextManifest()
        for i in range(256):
            length = int(rng.integers(900, 1100))
            writer.upsert(_entry(f"ctx-{i:04d}", rng.integers(0, 32000, size=length).tolist()))
        writer.save(backend)

        calls = {"to_json": 0, "from_json": 0}
        to_json, from_json = ManifestEntry.to_json, ManifestEntry.from_json.__func__

        def counting_to_json(self):
            calls["to_json"] += 1
            return to_json(self)

        def counting_from_json(cls, payload):
            calls["from_json"] += 1
            return from_json(cls, payload)

        monkeypatch.setattr(ManifestEntry, "to_json", counting_to_json)
        monkeypatch.setattr(ManifestEntry, "from_json", classmethod(counting_from_json))
        writer.upsert(_entry("ctx-0100", [1, 2, 3]))
        writer.save(backend)
        assert calls == {"to_json": 1, "from_json": 0}

        monkeypatch.undo()
        loaded = ContextManifest.load(backend)
        assert len(loaded) == 256
        num_tokens = sum(entry.num_tokens for entry in loaded.entries.values())
        assert len(backend.read_bytes(MANIFEST_KEY)) / num_tokens <= 6
