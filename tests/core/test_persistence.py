"""Tests of the durable context database: restart-and-reuse.

The headline property: a :class:`ContextStore`/:class:`DB`/:class:`InferenceService`
opened over a directory (or shared backend) a *previous* instance populated
serves those contexts — prefix matching, KV reuse, and retrieval over
deserialized indexes all work without re-prefilling or re-indexing — and the
reloaded indexes search bit-identically to the originals."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.errors import ContextLoadError, DuplicateContextError, StorageError
from repro.kvcache.serialization import snapshot_to_bytes
from repro.llm.model import ModelConfig, TransformerModel
from repro.storage.backend import FilesystemBackend, InMemoryBackend
from repro.storage.manifest import MANIFEST_KEY
from tests.conftest import make_context
from tests.record_corruption import CORRUPTIONS


DOC = "the durable context database must survive a restart. " * 14
QUESTION = " what survives a restart?"
#: config knobs whose plans over DOC read a fine index (DIPR, every layer but
#: the flat layer 0) or a coarse one; the default config plans DOC FULL and
#: gives it no index at all
FINE_PLANS = dict(short_context_threshold=64, gpu_memory_budget_bytes=1)
COARSE_PLANS = dict(short_context_threshold=64)


def _service(tmp_path, seed=113, **config_kwargs):
    model = TransformerModel(ModelConfig.tiny(seed=seed))
    config = AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=64,
        context_db_path=str(tmp_path / "ctxdb"),
        **config_kwargs,
    )
    return InferenceService(model, config)


class TestDurableContextStore:
    def test_open_recovers_population_cold(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        context = make_context(context_id="ctx-0007", seed=3)
        original_keys = context.keys(0).copy()
        tokens = list(context.tokens)
        store.add(context)
        assert store.manifest_generation >= 1

        reopened = ContextStore.open(tmp_path / "db")
        assert "ctx-0007" in reopened
        recovered = reopened.get("ctx-0007")
        # recovered cold: prefix-matchable now, KV loaded on first use
        assert not recovered.is_resident
        assert recovered.tokens == tokens
        match = reopened.find_longest_prefix(tokens + [9999])
        assert match.context.context_id == "ctx-0007"
        assert match.prefix_length == len(tokens)
        reopened.ensure_resident("ctx-0007")
        np.testing.assert_array_equal(recovered.keys(0), original_keys)

    def test_generation_continues_across_reopen(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="a", seed=1))
        first = store.manifest_generation
        reopened = ContextStore.open(tmp_path / "db")
        assert reopened.manifest_generation == first
        reopened.add(make_context(context_id="b", num_tokens=32, seed=2))
        assert reopened.manifest_generation > first

    def test_two_stores_share_a_backend(self, tmp_path):
        """A second store opened over the same storage serves contexts the
        first one stored — the two-process sharing model."""
        backend = InMemoryBackend()
        writer = ContextStore.open(backend)
        context = make_context(context_id="shared", seed=5)
        tokens = list(context.tokens)
        writer.add(context)

        reader = ContextStore.open(backend)
        assert reader.find_longest_prefix(tokens).prefix_length == len(tokens)
        loaded = reader.ensure_resident("shared")
        np.testing.assert_array_equal(loaded.keys(0), writer.get("shared").keys(0))

    def test_remove_deletes_blobs_and_manifest_row(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="gone", seed=7))
        assert store.backend.exists("gone.npz")
        store.remove("gone")
        assert not store.backend.exists("gone.npz")
        reopened = ContextStore.open(tmp_path / "db")
        assert "gone" not in reopened

    def test_corrupted_manifest_raises_clean_error(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="x", seed=9))
        store.backend.write_bytes(MANIFEST_KEY, b"\x00torn")
        with pytest.raises(ContextLoadError):
            ContextStore.open(tmp_path / "db")

    def test_corrupted_snapshot_raises_clean_error(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="x", seed=9))
        blob = store.backend.read_bytes("x.npz")
        store.backend.write_bytes("x.npz", blob[: len(blob) // 3])
        reopened = ContextStore.open(tmp_path / "db")
        with pytest.raises(ContextLoadError):
            reopened.ensure_resident("x")

    def test_corrupted_index_blob_degrades_to_rebuild(self, tmp_path):
        """A torn index blob must not fail the reload — the context comes
        back without its fine index, which the next session rebuilds."""
        model = TransformerModel(ModelConfig.tiny(seed=31))
        config = AlayaDBConfig(context_db_path=str(tmp_path / "db"), **FINE_PLANS)
        db = DB(config)
        db.prefill_and_import(model, DOC, context_id="doc")
        db.store_registry.backend.write_bytes("doc.indexes.npz", b"garbage")
        db2 = DB(config)
        context = db2.store_registry.ensure_resident("doc")
        assert context.is_resident
        assert db2.store_registry.reload_rebuilt_count == 1
        assert not context.has_fine_indexes  # no graph build inside a reload
        db2.create_session(DOC + QUESTION)[0].close()
        assert context.has_fine_indexes  # the session whose plans read it built it


class TestDBRestart:
    def test_restart_reuses_prefix_and_deserializes_indexes(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=29))
        config = AlayaDBConfig(context_db_path=str(tmp_path / "db"), **FINE_PLANS)
        db = DB(config)
        original = db.prefill_and_import(model, DOC, context_id="doc")
        assert original.has_fine_indexes
        doc_tokens = db.tokenize(DOC)

        db2 = DB(config)
        assert db2.num_contexts == 1
        session, truncated = db2.create_session(DOC + QUESTION)
        assert session.is_connected
        assert session.reused_prefix_length == len(doc_tokens)
        assert len(truncated) == len(db2.tokenize(DOC + QUESTION)) - len(doc_tokens)
        # the reload was a deserialize, not a rebuild
        assert db2.store_registry.reload_deserialized_count == 1
        assert db2.store_registry.reload_rebuilt_count == 0
        reloaded = db2.get_context("doc")
        assert reloaded.has_fine_indexes
        session.close()

        # retrieval equivalence: the deserialized fine index searches
        # bit-identically to the one the first DB built
        rng = np.random.default_rng(17)
        for layer, layer_indexes in original.fine_indexes.items():
            restored = reloaded.fine_indexes[layer]
            for a, b in zip(layer_indexes, restored):
                for _ in range(5):
                    query = rng.normal(size=a.vectors.shape[1]).astype(np.float32)
                    ra, rb = a.search_topk(query, k=8), b.search_topk(query, k=8)
                    np.testing.assert_array_equal(ra.indices, rb.indices)
                    np.testing.assert_array_equal(ra.scores, rb.scores)

    def test_restart_continues_context_id_sequence(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=37))
        db = DB(AlayaDBConfig(context_db_path=str(tmp_path / "db")))
        first = db.prefill_and_import(model, "alpha " * 30)
        db2 = DB(AlayaDBConfig(context_db_path=str(tmp_path / "db")))
        second = db2.prefill_and_import(model, "beta " * 30)
        assert first.context_id != second.context_id
        assert first.context_id in db2.store_registry

    def test_missing_index_blob_falls_back_to_rebuild(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=41))
        config = AlayaDBConfig(context_db_path=str(tmp_path / "db"), **FINE_PLANS)
        db = DB(config)
        db.prefill_and_import(model, DOC, context_id="doc")
        assert db.store_registry.backend.delete("doc.indexes.npz")
        db2 = DB(config)
        context = db2.store_registry.ensure_resident("doc")
        assert db2.store_registry.reload_rebuilt_count == 1
        assert not context.has_fine_indexes  # left to the next session that plans it
        db2.create_session(DOC + QUESTION)[0].close()
        assert context.has_fine_indexes

    def test_torn_index_blob_rebuilds_the_same_index(self, tmp_path):
        """The snapshot's query samples are all a rebuild needs: a context
        reloaded with a torn index blob rebuilds byte-identical CSR arrays
        and the same entry points as the index built before the spill."""
        model = TransformerModel(ModelConfig.tiny(seed=67))
        db = DB(
            AlayaDBConfig(short_context_threshold=64, gpu_memory_budget_bytes=1),
            backend=InMemoryBackend(),
        )
        built = db.prefill_and_import(model, DOC, context_id="doc")
        before = {
            layer: [
                (index.graph.neighbor_ids.tobytes(), index.graph.offsets.tobytes(), index.entry_point)
                for index in layer_indexes
            ]
            for layer, layer_indexes in built.fine_indexes.items()
        }
        assert before
        store = db.store_registry
        store.spill("doc")
        blob = store.backend.read_bytes("doc.indexes.npz")
        store.backend.write_bytes("doc.indexes.npz", blob[: len(blob) // 2])
        store.ensure_resident("doc")
        assert store.reload_rebuilt_count == 1
        session, _ = db.create_session(DOC + QUESTION)  # its plan reads the fine index
        session.close()
        rebuilt = db.get_context("doc")
        after = {
            layer: [
                (index.graph.neighbor_ids.tobytes(), index.graph.offsets.tobytes(), index.entry_point)
                for index in layer_indexes
            ]
            for layer, layer_indexes in rebuilt.fine_indexes.items()
        }
        assert after == before

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_damaged_snapshot_fails_the_reload_cleanly(self, corrupt):
        store = ContextStore.open(InMemoryBackend())
        store.add(make_context(context_id="x", seed=9))
        store.backend.write_bytes("x.npz", corrupt(store.backend.read_bytes("x.npz")))
        reopened = ContextStore.open(store.backend)
        with pytest.raises(ContextLoadError, match="x.npz"):
            reopened.ensure_resident("x")

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_damaged_index_blob_degrades_to_rebuild(self, corrupt):
        model = TransformerModel(ModelConfig.tiny(seed=71))
        backend = InMemoryBackend()
        config = AlayaDBConfig(**COARSE_PLANS)
        DB(config, backend=backend).prefill_and_import(model, DOC, context_id="doc")
        backend.write_bytes("doc.indexes.npz", corrupt(backend.read_bytes("doc.indexes.npz")))
        db = DB(config, backend=backend)
        context = db.store_registry.ensure_resident("doc")
        assert db.store_registry.reload_rebuilt_count == 1
        assert context.coarse_indexes  # rebuilt by the reload hook
        assert not context.has_fine_indexes  # no plan reads one

    def test_memory_backend_database(self, tmp_path):
        """An injected backend wins over ``context_db_path``: the database
        runs over the in-memory backend (no files under the path)."""
        model = TransformerModel(ModelConfig.tiny(seed=43))
        config = AlayaDBConfig(context_db_path=str(tmp_path / "db"))
        db = DB(config, backend=InMemoryBackend())
        db.prefill_and_import(model, "ephemeral " * 20, context_id="doc")
        db.store_registry.spill("doc")
        assert not (tmp_path / "db").exists() or not any((tmp_path / "db").iterdir())
        assert db.store_registry.ensure_resident("doc").is_resident


class TestExportImportBundle:
    def test_bundle_moves_context_between_dbs(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=47))
        source = DB(AlayaDBConfig(**FINE_PLANS))
        context = source.prefill_and_import(model, DOC, context_id="doc")
        source.export_context("doc", tmp_path / "bundle")

        target = DB(AlayaDBConfig(**FINE_PLANS))  # no shared storage at all
        imported = target.import_context_bundle(tmp_path / "bundle")
        assert imported.context_id == "doc"
        assert imported.tokens == context.tokens
        assert imported.has_fine_indexes
        np.testing.assert_array_equal(imported.keys(0), context.keys(0))
        # imported indexes search bit-identically to the exporter's
        rng = np.random.default_rng(23)
        for layer, layer_indexes in context.fine_indexes.items():
            for a, b in zip(layer_indexes, imported.fine_indexes[layer]):
                query = rng.normal(size=a.vectors.shape[1]).astype(np.float32)
                ra, rb = a.search_topk(query, k=8), b.search_topk(query, k=8)
                np.testing.assert_array_equal(ra.indices, rb.indices)
        # and the prompt prefix-matches through the imported context
        match = target.store_registry.find_longest_prefix(target.tokenize(DOC + "?"))
        assert match.context.context_id == "doc"
        # a bundle is a context database holding one context
        assert ContextStore.open(tmp_path / "bundle").list_ids() == ["doc"]

    def test_import_under_new_id(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=53))
        source = DB(AlayaDBConfig())
        source.prefill_and_import(model, "renamed on import " * 10, context_id="doc")
        source.export_context("doc", tmp_path / "bundle")
        target = DB(AlayaDBConfig())
        imported = target.import_context_bundle(tmp_path / "bundle", context_id="copy")
        assert imported.context_id == "copy"
        assert "copy" in target.store_registry

    def test_import_over_an_existing_id_needs_overwrite(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=53))
        source = DB(AlayaDBConfig())
        exported = source.prefill_and_import(model, "imported twice " * 10, context_id="doc")
        source.export_context("doc", tmp_path / "bundle")
        target = DB(AlayaDBConfig())
        target.prefill_and_import(model, "already here " * 10, context_id="doc")
        with pytest.raises(DuplicateContextError):
            target.import_context_bundle(tmp_path / "bundle")
        imported = target.import_context_bundle(tmp_path / "bundle", overwrite=True)
        assert target.store_registry.get("doc") is imported
        assert imported.tokens == exported.tokens

    def test_export_finishes_a_deferred_fine_build(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=59))
        source = DB(AlayaDBConfig(lazy_index_build=True, **FINE_PLANS))
        context = source.prefill_and_import(model, DOC, context_id="doc")
        assert not context.has_fine_indexes
        source.export_context("doc", tmp_path / "bundle")
        assert context.has_fine_indexes
        bundle = ContextStore.open(tmp_path / "bundle")
        assert bundle.ensure_resident("doc").has_fine_indexes
        assert bundle.reload_rebuilt_count == 0

    def test_torn_index_blob_in_bundle_falls_back_to_rebuild(self, tmp_path):
        model = TransformerModel(ModelConfig.tiny(seed=61))
        source = DB(AlayaDBConfig(**COARSE_PLANS))
        context = source.prefill_and_import(model, DOC, context_id="doc")
        source.export_context("doc", tmp_path / "bundle")
        (tmp_path / "bundle" / "doc.indexes.npz").write_bytes(b"garbage")
        target = DB(AlayaDBConfig(**COARSE_PLANS))
        imported = target.import_context_bundle(tmp_path / "bundle")
        np.testing.assert_array_equal(imported.keys(0), context.keys(0))
        assert imported.coarse_indexes  # rebuilt by the reload hook
        assert not imported.has_fine_indexes  # no plan reads one

    def test_corrupted_bundle_raises_clean_error(self, tmp_path):
        (tmp_path / "bundle").mkdir()
        (tmp_path / "bundle" / MANIFEST_KEY).write_bytes(b"{nope")
        with pytest.raises(ContextLoadError):
            DB(AlayaDBConfig()).import_context_bundle(tmp_path / "bundle")

    def test_old_format_bundle_raises_clean_error(self, tmp_path):
        """A ``bundle.json``-only directory has no manifest: no context."""
        (tmp_path / "bundle").mkdir()
        (tmp_path / "bundle" / "bundle.json").write_bytes(b'{"format_version": 1}')
        with pytest.raises(ContextLoadError, match="0 contexts"):
            DB(AlayaDBConfig()).import_context_bundle(tmp_path / "bundle")

    def test_multi_context_directory_is_not_a_bundle(self, tmp_path):
        store = ContextStore.open(tmp_path / "db")
        store.add(make_context(context_id="a", seed=1))
        store.add(make_context(context_id="b", seed=2))
        with pytest.raises(ContextLoadError, match="2 contexts"):
            DB(AlayaDBConfig()).import_context_bundle(tmp_path / "db")


class TestServiceRestart:
    def test_restarted_service_serves_token_identical(self, tmp_path):
        """Ingest + serve, drop the service, reopen the same directory:
        the restarted service prefix-matches the recovered context and
        generates the *same tokens* with the same reuse."""
        service1 = _service(tmp_path)
        service1.ingest(DOC, context_id="doc")
        result1, record1 = service1.serve(DOC + QUESTION, max_new_tokens=6)
        assert record1.reused_tokens > 0

        service2 = _service(tmp_path)  # fresh model object, same weights seed
        assert service2.num_contexts >= 1
        result2, record2 = service2.serve(DOC + QUESTION, max_new_tokens=6)
        assert record2.reused_tokens == record1.reused_tokens
        assert result2.generated_tokens == result1.generated_tokens
        report = service2.memory_report()
        assert report["context_reloads_deserialized"] >= 1
        assert report["context_reloads_rebuilt"] == 0

    def test_a_remove_that_fails_midway_leaves_no_dangling_row(self):
        """``remove`` uncatalogs before it deletes: a delete that fails
        leaves an orphan object, and a reopened service neither lists the
        context nor fails on a prompt that prefix-matches it."""

        class FailingDeleteBackend(InMemoryBackend):
            fail_index_deletes = False

            def delete(self, key):
                if self.fail_index_deletes and key.endswith(".indexes.npz"):
                    raise StorageError(f"injected failure deleting {key!r}")
                return super().delete(key)

        def service_over(backend):
            model = TransformerModel(ModelConfig.tiny(seed=113))
            config = AlayaDBConfig(
                window_initial_tokens=8,
                window_last_tokens=16,
                max_retrieved_tokens=64,
                **FINE_PLANS,
            )
            return InferenceService(model, config, backend=backend)

        backend = FailingDeleteBackend()
        service = service_over(backend)
        service.ingest(DOC, context_id="doc")
        service.ingest("an unrelated stored note. " * 10, context_id="note")
        assert backend.exists("doc.indexes.npz")
        backend.fail_index_deletes = True
        with pytest.raises(StorageError):
            service.db.store_registry.remove("doc")
        backend.fail_index_deletes = False

        restarted = service_over(backend)
        assert restarted.db.store_registry.list_ids() == ["note"]
        result, record = restarted.serve(DOC + QUESTION, max_new_tokens=4)
        assert record.reused_tokens == 0
        expected, _ = service_over(None).serve(DOC + QUESTION, max_new_tokens=4)
        assert result.generated_tokens == expected.generated_tokens

    def test_restart_ttft_benefits_from_reuse(self, tmp_path):
        """The restarted service's prefill only covers the question suffix —
        the recovered context absorbs the document, like a warm service."""
        service1 = _service(tmp_path)
        service1.ingest(DOC, context_id="doc")
        _, warm = service1.serve(DOC + QUESTION, max_new_tokens=2)

        service2 = _service(tmp_path)
        _, restarted = service2.serve(DOC + QUESTION, max_new_tokens=2)
        assert restarted.reused_tokens == warm.reused_tokens
        prompt_tokens = len(service2.db.tokenize(DOC + QUESTION))
        assert restarted.reused_tokens >= prompt_tokens - len(
            service2.db.tokenize(QUESTION)
        ) - 1

    def test_chat_session_resumes_after_restart(self, tmp_path):
        service1 = _service(tmp_path)
        chat1 = service1.chat(max_new_tokens=3)
        chat1.ask("the first turn writes durable history " * 6)
        context_id = chat1.context_id
        stored_tokens = chat1.transcript_tokens()
        assert stored_tokens

        service2 = _service(tmp_path)
        chat2 = service2.chat(context_id=context_id, max_new_tokens=3)
        assert chat2.transcript_tokens() == stored_tokens  # recovered cold
        turn = chat2.ask("and the second turn continues it")
        assert turn.record.reused_tokens > 0
        assert len(chat2.transcript_tokens()) > len(stored_tokens)

    def test_memory_report_exposes_disk_tier(self, tmp_path):
        service = _service(tmp_path)
        service.ingest(DOC, context_id="doc")
        service.db.store_registry.spill("doc")
        report = service.memory_report()
        assert report["disk_kv_bytes"] > 0
        assert report["disk_index_bytes"] > 0
        assert report["spilled_kv_bytes"] > 0
        assert report["manifest_generation"] >= 1
        service.db.store_registry.ensure_resident("doc")
        service.db.store_registry.ensure_resident("doc")
        report = service.memory_report()
        assert report["context_reloads_deserialized"] == 1
        assert report["spilled_kv_bytes"] == 0
        assert (report["context_hits"], report["context_reloads"]) == (1, 1)
        assert report["context_hit_ratio"] == 0.5


class TestDatabaseWithIndexPolicyRows:
    """Manifests written before index construction followed the plans
    carried a per-context index policy (``wants_fine_indexes`` /
    ``wants_coarse_indexes``) on every row, in manifest format 1: token ids
    as JSON lists, indented.  Such a database still opens: the keys are
    ignored, each context gets the indexes its plans read, and the first
    save rewrites the catalog in format 2 without losing a row."""

    @staticmethod
    def _write_database(directory, contexts, wants: bool) -> None:
        backend = FilesystemBackend(directory)
        rows = []
        for context in contexts:
            backend.write_bytes(f"{context.context_id}.npz", snapshot_to_bytes(context.snapshot))
            rows.append({
                "context_id": context.context_id,
                "tokens": list(context.tokens),
                "num_layers": context.num_layers,
                "kv_bytes": context.kv_bytes,
                "snapshot_key": f"{context.context_id}.npz",
                "index_key": None,
                "index_bytes": 0,
                "wants_fine_indexes": wants,
                "wants_coarse_indexes": wants,
                "prefix_matchable": True,
                "metadata": {},
            })
        payload = {"format_version": 1, "generation": 3, "contexts": rows}
        backend.write_bytes(MANIFEST_KEY, json.dumps(payload, indent=1).encode("utf-8"))

    @pytest.mark.parametrize("wants", [True, False])
    def test_policy_rows_open_and_serve_token_identical(self, tmp_path, wants):
        fresh = _service(tmp_path / "fresh")
        fresh.ingest(DOC, context_id="doc")
        expected, expected_record = fresh.serve(DOC + QUESTION, max_new_tokens=6)

        self._write_database(tmp_path / "old" / "ctxdb", [fresh.db.get_context("doc")], wants)
        store = ContextStore.open(tmp_path / "old" / "ctxdb")
        assert store.list_ids() == ["doc"]
        assert store.manifest_generation == 3
        assert store.find_longest_prefix(fresh.db.tokenize(DOC)).context.context_id == "doc"

        restarted = _service(tmp_path / "old")
        result, record = restarted.serve(DOC + QUESTION, max_new_tokens=6)
        assert record.reused_tokens == expected_record.reused_tokens > 0
        assert result.generated_tokens == expected.generated_tokens
        # the row named no index blob: the reload lost nothing, and the
        # plans' fine indexes were built and persisted
        report = restarted.memory_report()
        assert (report["context_reloads_deserialized"], report["context_reloads_rebuilt"]) == (1, 0)
        assert restarted.db.get_context("doc").has_fine_indexes
        assert FilesystemBackend(tmp_path / "old" / "ctxdb").exists("doc.indexes.npz")

    def test_a_save_over_a_format_1_catalog_merges_and_packs_every_row(self, tmp_path):
        fresh = _service(tmp_path / "fresh")
        fresh.ingest(DOC, context_id="doc")
        fresh.ingest("an unrelated stored note. " * 10, context_id="note")
        expected, expected_record = fresh.serve(DOC + QUESTION, max_new_tokens=6)
        originals = {cid: list(fresh.db.get_context(cid).tokens) for cid in ("doc", "note")}

        directory = tmp_path / "old" / "ctxdb"
        # a handle opened before the old catalog existed: it owns none of
        # its rows, so a save that replaced the catalog would drop them
        writer = ContextStore.open(directory)
        self._write_database(directory, [fresh.db.get_context(cid) for cid in originals], False)
        writer.add(make_context(context_id="new", seed=5))

        payload = json.loads(FilesystemBackend(directory).read_bytes(MANIFEST_KEY))
        assert payload["format_version"] == 2
        assert payload["generation"] == 4
        assert [row["context_id"] for row in payload["contexts"]] == ["doc", "new", "note"]
        assert all(isinstance(row["tokens"], str) for row in payload["contexts"])
        reopened = ContextStore.open(directory)
        for context_id, tokens in originals.items():
            assert reopened.get(context_id).tokens == tokens

        restarted = _service(tmp_path / "old")
        result, record = restarted.serve(DOC + QUESTION, max_new_tokens=6)
        assert record.reused_tokens == expected_record.reused_tokens > 0
        assert result.generated_tokens == expected.generated_tokens
