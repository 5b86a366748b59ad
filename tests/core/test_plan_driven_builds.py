"""A context carries the indexes its plans read and nothing else.

Registration builds what a session reusing the whole context plus one token
would plan; a session whose plans read an index the context lacks builds it
in ``create_session`` and persists it once; ``lazy_index_build`` defers the
registration-time builds; shards carry the whole context's planned kinds.
"""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
from repro.sharding import ShardedContextRouter
from repro.storage.backend import InMemoryBackend

DOC = [3 + (i * 7) % 240 for i in range(300)]

#: config knobs routing the optimizer, over DOC, to each plan family
PLANS = {
    "full": dict(short_context_threshold=1 << 20),
    "coarse": dict(short_context_threshold=64),
    "dipr": dict(short_context_threshold=64, gpu_memory_budget_bytes=1),
}
#: the index kinds each family reads on (layer 0, layer 1) of the tiny model:
#: layer 0 is a flat layer under DIPR
EXPECTED = {
    "full": (set(), set()),
    "coarse": (set(), {0, 1}),
    "dipr": ({1}, set()),
}


@pytest.fixture(scope="module")
def model():
    return TransformerModel(ModelConfig.tiny(seed=83))


def _db(**overrides) -> DB:
    config = AlayaDBConfig(window_initial_tokens=8, window_last_tokens=16, **overrides)
    return DB(config, backend=InMemoryBackend())


def _kinds(context) -> tuple[set[int], set[int]]:
    return set(context.fine_indexes), set(context.coarse_indexes)


class TestRegistration:
    @pytest.mark.parametrize("family", sorted(PLANS))
    def test_context_carries_exactly_its_planned_kinds(self, model, family):
        db = _db(**PLANS[family])
        context = db.prefill_and_import(model, DOC, context_id="doc")
        assert _kinds(context) == EXPECTED[family]
        # the planned kinds are what a one-token-suffix session reads: it
        # builds nothing more and persists nothing
        generation = db.store_registry.manifest_generation
        session, _ = db.create_session(DOC + [5])
        for layer, plan in session.plans.items():
            assert (layer in context.fine_indexes) == (plan.index_kind == IndexKind.FINE)
            assert (layer in context.coarse_indexes) == (plan.index_kind == IndexKind.COARSE)
            assert session.decode_plan(layer) == plan  # no layer falls back to FULL
        session.close()
        assert db.store_registry.manifest_generation == generation
        assert db.store_registry.backend.exists("doc.indexes.npz") == (family != "full")

    @pytest.mark.parametrize("family", sorted(PLANS))
    def test_chat_store_builds_its_planned_kinds(self, model, family):
        db = _db(**PLANS[family])
        db.prefill_and_import(model, DOC, context_id="doc")
        session, truncated = db.create_session(DOC + [9, 9])
        model.prefill(truncated, session)
        stored = db.store(session, tokens=DOC + [9, 9], context_id="turn")
        session.close()
        assert _kinds(stored) == EXPECTED[family]


class TestSessionBuilds:
    @pytest.mark.parametrize("family, kinds", [("coarse", (set(), {0, 1})), ("dipr", ({1}, set()))])
    def test_prompt_crossing_the_threshold_builds_once(self, model, family, kinds):
        """The context plans FULL (its one-token-suffix session sits at the
        threshold); a longer prompt crosses it, so its session builds the
        kind it reads and persists it with one manifest write."""
        overrides = {**PLANS[family], "short_context_threshold": len(DOC) + 2}
        db = _db(**overrides)
        context = db.prefill_and_import(model, DOC, context_id="doc")
        assert _kinds(context) == (set(), set())
        store = db.store_registry
        generation = store.manifest_generation

        session, _ = db.create_session(DOC + [5] * 10)
        session.close()
        assert _kinds(context) == kinds
        assert store.manifest_generation == generation + 1
        assert store.backend.exists("doc.indexes.npz")

        built = (dict(context.fine_indexes), dict(context.coarse_indexes))
        db.create_session(DOC + [6] * 10)[0].close()
        assert store.manifest_generation == generation + 1
        assert all(context.fine_indexes[layer] is index for layer, index in built[0].items())
        assert all(context.coarse_indexes[layer] is index for layer, index in built[1].items())

    @pytest.mark.parametrize("family", ["coarse", "dipr"])
    def test_lazy_index_build_defers_both_kinds(self, model, family):
        db = _db(lazy_index_build=True, **PLANS[family])
        context = db.prefill_and_import(model, DOC, context_id="doc")
        assert _kinds(context) == (set(), set())
        assert not db.store_registry.backend.exists("doc.indexes.npz")
        db.create_session(DOC + [5])[0].close()
        assert _kinds(context) == EXPECTED[family]
        assert db.store_registry.backend.exists("doc.indexes.npz")


class TestShardsAndBundles:
    @pytest.mark.parametrize("family", sorted(PLANS))
    def test_shards_carry_the_base_planned_kinds(self, model, family):
        config = AlayaDBConfig(
            coarse_block_size=32, window_initial_tokens=8, window_last_tokens=16, **PLANS[family]
        )
        router = ShardedContextRouter(model, num_workers=2, config=config)
        ref = router.ingest(DOC, context_id="doc", num_shards=2)
        for shard_id in range(ref.num_shards):
            shard_cid = ref.shard_id_of(shard_id)
            shard = router.shard_owner("doc", shard_id).ensure_loaded(shard_cid)
            assert shard.num_tokens < len(DOC)
            assert _kinds(shard) == EXPECTED[family]
        session, _ = router.db.create_session(DOC + [5])
        for layer, plan in session.plans.items():
            assert session.decode_plan(layer) == plan  # every range has the index
        session.close()

    def test_sharded_ingest_leaves_no_base_index_blob(self, model):
        """Sessions over a sharded context read the shards' indexes, so the
        base context is registered with none."""
        config = AlayaDBConfig(coarse_block_size=32, **PLANS["dipr"])
        router = ShardedContextRouter(model, num_workers=2, config=config)
        ref = router.ingest(DOC, context_id="doc", num_shards=2)
        assert not router.backend.exists("doc.indexes.npz")
        assert all(
            router.backend.exists(f"{ref.shard_id_of(shard_id)}.indexes.npz")
            for shard_id in range(ref.num_shards)
        )

    def test_torn_shard_blob_builds_no_graph_inside_a_round(self, model, monkeypatch):
        """A shard reloaded mid-request with a torn blob is not re-indexed
        inside the decode round that reloads it: its next session's owner
        builds the fine graph, before the first token."""
        config = AlayaDBConfig(
            coarse_block_size=32, window_initial_tokens=8, window_last_tokens=16, **PLANS["dipr"]
        )
        router = ShardedContextRouter(model, num_workers=2, config=config)
        ref = router.ingest(DOC, context_id="doc", num_shards=2)
        service = router.service
        builds, in_round = [], []
        real_build, real_round = DB._build_fine_layers, InferenceService.run_round

        def build(db, context, layers):
            builds.append(bool(in_round))
            return real_build(db, context, layers)

        def run_round(svc, inflights):
            in_round.append(1)
            try:
                return real_round(svc, inflights)
            finally:
                in_round.pop()

        monkeypatch.setattr(DB, "_build_fine_layers", build)
        monkeypatch.setattr(InferenceService, "run_round", run_round)
        handle = service.submit(DOC + [5], max_new_tokens=6)
        while not service.generated_tokens(handle.request_id):
            service.step()
        shard_cid = ref.shard_id_of(0)
        key = f"{shard_cid}.indexes.npz"
        router.backend.write_bytes(key, router.backend.read_bytes(key)[:100])
        owner = router.shard_owner("doc", 0)
        owner.db.store_registry.spill(shard_cid)
        result, _ = handle.result()
        assert len(result.generated_tokens) == 6
        assert owner.db.store_registry.reload_rebuilt_count == 1
        assert builds == []  # the torn shard's fine graph was not rebuilt in a round

        service.submit(DOC + [6], max_new_tokens=2).result()
        assert builds == [False]  # the next session's owner built it
        assert owner.ensure_loaded(shard_cid).has_fine_indexes

    def test_full_planned_export_writes_no_index_blob(self, model, tmp_path):
        db = _db(**PLANS["full"])
        context = db.prefill_and_import(model, DOC, context_id="doc")
        db.export_context("doc", tmp_path / "bundle")
        assert sorted(path.name for path in (tmp_path / "bundle").iterdir()) == [
            "doc.npz",
            "manifest.json",
        ]
        bundle = ContextStore.open(tmp_path / "bundle")
        assert bundle.disk_index_bytes == 0  # the catalog names no index blob
        imported = DB(db.config).import_context_bundle(tmp_path / "bundle")
        assert imported.tokens == context.tokens
        assert not imported.fine_indexes and not imported.coarse_indexes
