"""Tests of the memory-governed context store: byte budget, LRU spill to
disk, transparent reload on prefix hits, and the token-trie prefix match."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore, StoredContext
from repro.core.db import DB
from repro.errors import ConfigError, ContextEvictedError
from repro.index.builder import ContextIndexBuilder, draw_query_sample
from repro.kvcache.serialization import KVSnapshot, snapshot_from_bytes, snapshot_to_bytes
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
from repro.storage.backend import FilesystemBackend
from tests.reference_generation import reference_generate


def _context(context_id, tokens, num_layers=1, num_kv_heads=1, head_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    n = len(tokens)
    keys = {l: rng.normal(size=(num_kv_heads, n, head_dim)).astype(np.float32) for l in range(num_layers)}
    values = {l: rng.normal(size=(num_kv_heads, n, head_dim)).astype(np.float32) for l in range(num_layers)}
    return StoredContext(context_id=context_id, snapshot=KVSnapshot(tokens=list(tokens), keys=keys, values=values))


class TestTrieMatching:
    def test_matches_linear_scan(self):
        """The trie must agree with a brute-force scan on random stores."""
        rng = np.random.default_rng(7)
        store = ContextStore()
        stored_tokens = {}
        for i in range(12):
            tokens = [int(t) for t in rng.integers(0, 5, size=rng.integers(3, 20))]
            cid = f"ctx-{i}"
            store.add(_context(cid, tokens, seed=i))
            stored_tokens[cid] = tokens
        for _ in range(50):
            probe = [int(t) for t in rng.integers(0, 5, size=rng.integers(1, 25))]
            match = store.find_longest_prefix(probe)
            best = 0
            for tokens in stored_tokens.values():
                shared = 0
                for a, b in zip(probe, tokens):
                    if a != b:
                        break
                    shared += 1
                best = max(best, shared)
            assert match.prefix_length == best
            if best > 0:
                expected = stored_tokens[match.context.context_id]
                assert probe[:best] == expected[:best]

    def test_removed_context_no_longer_matches(self):
        store = ContextStore()
        store.add(_context("gone", [1, 2, 3, 4]))
        assert store.find_longest_prefix([1, 2, 3]).is_hit
        store.remove("gone")
        assert not store.find_longest_prefix([1, 2, 3]).is_hit

    def test_overwrite_updates_trie(self):
        store = ContextStore()
        store.add(_context("ctx", [1, 2, 3, 4]))
        store.add(_context("ctx", [9, 8, 7], seed=1), overwrite=True)
        assert not store.find_longest_prefix([1, 2, 3]).is_hit
        match = store.find_longest_prefix([9, 8, 0])
        assert match.prefix_length == 2
        assert match.context.context_id == "ctx"

    def test_shared_prefix_prefers_longest(self):
        store = ContextStore()
        store.add(_context("short", [5, 5, 5]))
        store.add(_context("long", [5, 5, 5, 5, 5], seed=1))
        match = store.find_longest_prefix([5] * 10)
        assert match.prefix_length == 5
        assert match.context.context_id == "long"

    def test_overwrite_preserves_pins(self, tmp_path):
        """Pins are held by id (live sessions unpin on close); overwriting a
        context — as every chat turn does — must not zero them, or a later
        close would steal another session's pin and allow a spill."""
        store = ContextStore.open(tmp_path)
        store.add(_context("ctx", [1] * 8))
        store.pin("ctx")  # session A
        store.add(_context("ctx", [1] * 12, seed=2), overwrite=True)
        store.pin("ctx")  # session B, on the overwritten context
        store.unpin("ctx")  # session A closes
        with pytest.raises(ValueError):
            store.spill("ctx")  # session B still pins it
        store.unpin("ctx")  # session B closes
        store.spill("ctx")
        assert not store.get("ctx").is_resident


class TestBudgetedResidency:
    def test_budget_requires_storage_dir(self):
        with pytest.raises(ValueError):
            ContextStore(kv_budget_bytes=1024)

    def test_config_rejects_non_positive_budget(self):
        with pytest.raises(ConfigError):
            AlayaDBConfig(context_store_budget_bytes=0)

    def test_lru_spill_and_reload_roundtrip(self, tmp_path):
        context_a = _context("a", [1] * 32, seed=1)
        budget = context_a.kv_bytes + context_a.kv_bytes // 2
        store = ContextStore.open(tmp_path, kv_budget_bytes=budget)
        original_keys = context_a.keys(0).copy()
        store.add(context_a)
        store.add(_context("b", [2] * 32, seed=2))
        # budget fits ~1.5 contexts: the LRU one (a) spilled to disk
        assert not store.get("a").is_resident
        assert store.get("b").is_resident
        assert store.spill_count == 1
        assert (tmp_path / "a.npz").exists()
        assert store.resident_kv_bytes <= budget
        # tokens still matchable while spilled
        assert store.find_longest_prefix([1, 1, 1]).context.context_id == "a"
        # KV access without reload is an explicit error
        with pytest.raises(ContextEvictedError):
            store.get("a").keys(0)
        # reload restores identical KV and evicts the now-cold "b"
        reloaded = store.ensure_resident("a")
        assert reloaded.is_resident
        assert store.reload_count == 1
        np.testing.assert_allclose(reloaded.keys(0), original_keys, atol=1e-7)
        assert not store.get("b").is_resident

    def test_pinned_context_not_spilled(self, tmp_path):
        context_a = _context("a", [1] * 32, seed=1)
        store = ContextStore.open(tmp_path, kv_budget_bytes=context_a.kv_bytes)
        store.add(context_a)
        store.pin("a")
        store.add(_context("b", [2] * 32, seed=2))
        # "a" is pinned, "b" is protected as the incoming context: over budget
        assert store.get("a").is_resident
        assert store.get("b").is_resident
        # releasing the pin lets the budget be enforced again
        store.unpin("a")
        assert not store.get("a").is_resident

    def test_explicit_spill_refuses_pinned_context(self, tmp_path):
        store = ContextStore.open(tmp_path)
        store.add(_context("live", [1, 2, 3]))
        store.pin("live")
        with pytest.raises(ValueError):
            store.spill("live")
        store.unpin("live")
        store.spill("live")
        assert not store.get("live").is_resident

    def test_full_planned_context_reloads_index_free(self, tmp_path):
        """A context whose plans read no index stays index-free across a
        spill/reload cycle (no surprise rebuild), and the reload counts as
        a deserialize: nothing the catalog named was lost."""
        config = AlayaDBConfig(context_store_budget_bytes=1, short_context_threshold=64)
        db = DB(config, backend=FilesystemBackend(tmp_path))
        snapshot_a = _context("plain", [1] * 24, seed=3).snapshot
        db.import_context([1] * 24, snapshot_a, context_id="plain")
        snapshot_b = _context("other", [2] * 24, seed=4).snapshot
        db.import_context([2] * 24, snapshot_b, context_id="other")
        assert not db.get_context("plain").is_resident  # spilled by the budget
        session, _ = db.create_session([1] * 24 + [7])
        assert not session.plans_index(IndexKind.FINE)
        session.close()
        context = db.get_context("plain")
        assert not context.has_fine_indexes and not context.coarse_indexes
        store = db.store_registry
        assert (store.reload_deserialized_count, store.reload_rebuilt_count) == (1, 0)

    def test_remove_spilled_context(self, tmp_path):
        store = ContextStore.open(tmp_path, kv_budget_bytes=1)
        store.add(_context("a", [1, 2, 3]))
        store.add(_context("b", [4, 5, 6], seed=1))
        assert not store.get("a").is_resident
        store.remove("a")
        assert "a" not in store
        assert not store.find_longest_prefix([1, 2]).is_hit

    def test_remove_deletes_spill_files(self, tmp_path):
        """Regression: a spilled context left ``<id>.npz`` and
        ``<id>.indexes.npz`` behind on remove, so ingest/remove churn grew
        the disk without bound.  Only the (now empty) manifest stays."""
        model = TransformerModel(ModelConfig.tiny(seed=101))
        # plans that read an index, so the context has an index blob
        config = AlayaDBConfig(short_context_threshold=64, gpu_memory_budget_bytes=1)
        db = DB(config, backend=FilesystemBackend(tmp_path))
        db.prefill_and_import(model, "leaky spill files " * 12, context_id="doc")
        store = db.store_registry
        store.spill("doc")
        assert store.backend.list_keys() == ["doc.indexes.npz", "doc.npz", "manifest.json"]
        store.remove("doc")
        assert store.backend.list_keys() == ["manifest.json"]


class TestDBBudgetIntegration:
    @pytest.fixture(scope="class")
    def budgeted(self, tmp_path_factory):
        model = TransformerModel(ModelConfig.tiny(seed=71))
        probe_db = DB(AlayaDBConfig())
        document_a = "first corpus about transactions and recovery. " * 20
        context = probe_db.prefill_and_import(model, document_a, context_id="probe")
        budget = int(context.kv_bytes * 1.5)
        config = AlayaDBConfig(
            window_initial_tokens=8,
            window_last_tokens=16,
            short_context_threshold=64,
            gpu_memory_budget_bytes=1,
            max_retrieved_tokens=64,
            context_store_budget_bytes=budget,
        )
        db = DB(config, backend=FilesystemBackend(tmp_path_factory.mktemp("spill")))
        document_b = "second corpus about vector search indexes!! " * 20
        db.prefill_and_import(model, document_a, context_id="a")
        db.prefill_and_import(model, document_b, context_id="b")
        return model, db, document_a, document_b

    def test_ingest_beyond_budget_spills(self, budgeted):
        _, db, _, _ = budgeted
        store = db.store_registry
        assert store.spill_count >= 1
        assert store.resident_kv_bytes <= db.config.context_store_budget_bytes

    def test_prefix_hit_reloads_and_generates(self, budgeted):
        model, db, document_a, _ = budgeted
        reloads_before = db.store_registry.reload_count
        session, truncated = db.create_session(document_a + " question?")
        assert session.is_connected
        assert session.context.is_resident
        generated = reference_generate(model, truncated, cache=session, max_new_tokens=2)
        session.close()
        assert len(generated) == 2
        # "a" was the cold context after "b" was ingested, so this was a reload
        assert db.store_registry.reload_count > reloads_before

    def test_context_hits_track_residency(self, budgeted):
        _, db, document_a, _ = budgeted
        store = db.store_registry
        accesses = store.hit_count + store.reload_count
        db.create_session(document_a + " again")[0].close()
        # a session on a stored prefix is exactly one access: a hit or a reload
        assert store.hit_count + store.reload_count == accesses + 1
        assert store.reload_count > 0  # "a" was spilled by "b"'s ingest once
        assert store.hit_ratio == store.hit_count / (accesses + 1)


class TestResidentHitAccounting:
    def test_prefix_hit_on_resident_indexed_context_is_one_hit(self, tmp_path):
        """Regression: under a budget the old DB-side residency mirror was
        capped at the KV budget yet held KV + fine-index bytes, so it evicted
        blocks of contexts the store still kept resident — a prefix hit on a
        resident, fine-indexed context then counted as two misses."""
        model = TransformerModel(ModelConfig.tiny(seed=71))
        document_0 = "first corpus about transactions and recovery. " * 20
        document_1 = "second corpus about vector search indexes!! " * 20
        probe = DB(AlayaDBConfig()).prefill_and_import(model, document_0, context_id="probe")
        config = AlayaDBConfig(
            context_store_budget_bytes=int(probe.kv_bytes * 2.5),
            short_context_threshold=64,
            gpu_memory_budget_bytes=1,  # plans read the fine index
        )
        db = DB(config, backend=FilesystemBackend(tmp_path))
        db.prefill_and_import(model, document_0, context_id="d0")
        db.prefill_and_import(model, document_1, context_id="d1")
        store = db.store_registry
        assert sorted(store.resident_ids()) == ["d0", "d1"]
        assert db.get_context("d0").has_fine_indexes
        assert store.resident_bytes > store.kv_budget_bytes > store.resident_kv_bytes

        hits, misses = store.hit_count, store.reload_count
        session, _ = db.create_session(document_0 + " question?")
        session.close()
        assert session.reused_prefix_length > 0
        assert (store.hit_count - hits, store.reload_count - misses) == (1, 0)


class TestQuerySamplePersistence:
    """Spilled contexts must carry their prefill query samples to disk, so a
    reload rebuilds fine indexes from the same OOD sample — not the keys."""

    def test_samples_survive_spill_and_reload(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=101))
        db = DB(AlayaDBConfig(), backend=FilesystemBackend(tmp_path))
        document = "query samples should survive the round trip. " * 12
        context = db.prefill_and_import(model, document, context_id="doc")
        original = {layer: s.copy() for layer, s in context.query_samples.items()}
        assert original and all(s.size for s in original.values())

        db.store_registry.spill("doc")
        assert not context.query_samples  # dropped from memory with the KV
        reloaded = db.store_registry.ensure_resident("doc")
        assert set(reloaded.query_samples) == set(original)
        for layer, sample in original.items():
            np.testing.assert_allclose(reloaded.query_samples[layer], sample, atol=1e-7)

    def test_rebuild_after_reload_keeps_ood_sample(self, tmp_path):
        """The post-reload rebuild must index with the persisted query
        sample: the rebuilt index equals a fresh build from those samples,
        not the keys-only fallback.  (The spilled index blob is deleted, so
        the reload cannot deserialize and exercises the rebuild path.)"""
        model = TransformerModel(ModelConfig.tiny(seed=103))
        # a budget below the context's KV: the session plans fine layers
        db = DB(
            AlayaDBConfig(short_context_threshold=64, gpu_memory_budget_bytes=1),
            backend=FilesystemBackend(tmp_path),
        )
        document = "the ood benefit must survive reloads too. " * 12
        context = db.prefill_and_import(model, document, context_id="doc")
        db.store_registry.spill("doc")
        assert db.store_registry.backend.delete("doc.indexes.npz")
        db.store_registry.ensure_resident("doc")
        # the reload left the fine rebuild to the next session whose plans
        # read the fine index; that session pays it and re-persists it
        assert db.store_registry.reload_rebuilt_count == 1
        assert not db.get_context("doc").has_fine_indexes
        session, _ = db.create_session(document + "why?")
        session.close()
        rebuilt = db.get_context("doc")
        assert rebuilt.has_fine_indexes
        assert db.store_registry.backend.exists("doc.indexes.npz")
        # layer 1 is the one fine layer (layer 0 is flat and keeps no sample);
        # its graphs are exactly a build from the persisted sample, which is
        # not what the keys-only fallback builds
        config = db.config.index_build
        keys = rebuilt.keys(1)
        sample = rebuilt.query_samples[1]
        assert sorted(rebuilt.query_samples) == [1]
        assert sample.shape == (2, int(0.4 * rebuilt.num_tokens), 8)

        def graphs(indexes):
            return [(i.graph.neighbor_ids.tobytes(), i.entry_point) for i in indexes]

        from_sample, _ = ContextIndexBuilder(config).build_layer(keys, sample)
        from_keys, _ = ContextIndexBuilder(config).build_layer(
            keys, draw_query_sample(keys, 2, rebuilt.num_tokens, config, 1)
        )
        assert graphs(rebuilt.fine_indexes[1]) == graphs(from_sample)
        assert graphs(from_sample) != graphs(from_keys)

    def test_snapshot_serialization_roundtrips_samples(self, tmp_path):
        rng = np.random.default_rng(5)
        backend = FilesystemBackend(tmp_path)
        snapshot = _context("x", [1, 2, 3, 4], num_layers=2, seed=9).snapshot
        snapshot.query_samples = {
            0: rng.normal(size=(1, 3, 4)).astype(np.float32),
            1: rng.normal(size=(1, 5, 4)).astype(np.float32),
        }
        backend.write_bytes("x.npz", snapshot_to_bytes(snapshot))
        loaded = snapshot_from_bytes(backend.read_bytes("x.npz"))
        assert set(loaded.query_samples) == {0, 1}
        for layer in (0, 1):
            np.testing.assert_array_equal(loaded.query_samples[layer], snapshot.query_samples[layer])

    def test_chat_restored_context_keeps_merged_samples(self, tmp_path):
        """A stored chat turn merges the reused prefix's samples with the
        session's own, so the grown context keeps a full-transcript sample."""
        from repro.core.service import InferenceService

        model = TransformerModel(ModelConfig.tiny(seed=107))
        config = AlayaDBConfig(
            window_initial_tokens=8, window_last_tokens=16, short_context_threshold=1 << 20
        )
        service = InferenceService(model, config, backend=FilesystemBackend(tmp_path))
        chat = service.chat(max_new_tokens=3)
        chat.ask("the first turn writes history " * 6)
        first = service.db.get_context(chat.context_id)
        first_samples = {layer: s.copy() for layer, s in first.query_samples.items()}
        chat.ask("the second turn extends it")
        context = service.db.get_context(chat.context_id)
        assert context.num_tokens > first.num_tokens
        assert sorted(context.query_samples) == sorted(first_samples) == [1]
        for layer, sample in context.query_samples.items():
            # the prefix's sample, then a draw sized to the turn's own tokens
            prefix = first_samples[layer]
            assert prefix.shape[1] == int(0.4 * first.num_tokens)
            assert prefix.shape[1] < sample.shape[1] <= int(0.4 * context.num_tokens)
            np.testing.assert_array_equal(sample[:, : prefix.shape[1]], prefix)
