"""The context store as the paper's §7.3 buffer manager.

``ContextStore`` decides what stays in memory: a byte-budgeted LRU of whole
contexts with pins, spill through a :class:`StorageBackend` and reload on the
next access.  These tests pin down the buffer-manager contract at context
granularity — access counting, victim choice, pins, over-budget behaviour,
failed loads — and the backend round trip that serves as its file system.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context_store import ContextStore, StoredContext
from repro.errors import ContextEvictedError, ContextLoadError, ContextNotFoundError, StorageError
from repro.core.planner import ExecutionPlan, LayerIndexData, PlanExecutor
from repro.index.builder import ContextIndexBuilder
from repro.index.coarse import CoarseBlockIndex
from repro.index.serialization import serialize_context_indexes
from repro.query.dipr import diprs_search_group
from repro.query.types import DIPRQuery, IndexKind, QueryKind, TopKQuery
from repro.storage import record
from repro.storage.backend import FilesystemBackend, InMemoryBackend
from repro.storage.manifest import MANIFEST_KEY
from tests.conftest import make_context


def _walk(index, query, beta=2.0):
    """One query's DIPRS walk over a fine index (a batch of one): ids and scores."""
    (result,), _ = diprs_search_group(index.vectors, index.graph, query[None], beta, [index.entry_point])
    return result

BACKENDS = ["filesystem", "memory"]


def _context(context_id: str, num_tokens: int = 32, seed: int = 0) -> StoredContext:
    return make_context(
        num_layers=1, num_kv_heads=1, num_tokens=num_tokens, seed=seed, context_id=context_id
    )


def _indexed(context_id: str, num_tokens: int = 32, seed: int = 0) -> StoredContext:
    context = _context(context_id, num_tokens, seed)
    keys = context.keys(0)
    context.fine_indexes, _ = ContextIndexBuilder().build_context({0: keys}, {0: keys})
    return context


def _fully_indexed(context_id: str, num_tokens: int = 96, seed: int = 0) -> StoredContext:
    """Two layers x two KV heads, each with a fine and a coarse index."""
    context = make_context(
        num_layers=2, num_kv_heads=2, num_tokens=num_tokens, seed=seed, context_id=context_id
    )
    keys = context.snapshot.keys
    context.fine_indexes, _ = ContextIndexBuilder().build_context(keys, keys)
    for layer, layer_keys in keys.items():
        context.coarse_indexes[layer] = []
        for head in range(layer_keys.shape[0]):
            index = CoarseBlockIndex(block_size=16)
            index.build(layer_keys[head])
            context.coarse_indexes[layer].append(index)
    return context


KV_BYTES = _context("probe").kv_bytes
"""KV bytes of one default-sized test context."""


def _backend(tmp_path, kind="filesystem"):
    return FilesystemBackend(tmp_path) if kind == "filesystem" else InMemoryBackend()


def _store(tmp_path, budget_contexts: float | None = None, kind="filesystem"):
    budget = int(KV_BYTES * budget_contexts) if budget_contexts is not None else None
    return ContextStore(backend=_backend(tmp_path, kind), kv_budget_bytes=budget)


def _recount(store: ContextStore) -> tuple[int, int]:
    resident = [context for _, context in store.items() if context.is_resident]
    return (
        sum(c.kv_bytes for c in resident),
        sum(c.kv_bytes + c.index_bytes for c in resident),
    )


class TestAccessCounting:
    def test_hit_miss_accounting(self, tmp_path):
        store = _store(tmp_path)
        store.add(_context("a"))
        assert (store.hit_count, store.reload_count) == (0, 0)  # adding is not an access
        store.ensure_resident("a")
        store.spill("a")
        store.ensure_resident("a")
        assert (store.hit_count, store.reload_count) == (1, 1)

    def test_hit_ratio_is_zero_before_any_access(self, tmp_path):
        store = _store(tmp_path)
        store.add(_context("a"))
        assert store.hit_ratio == 0.0
        store.ensure_resident("a")
        store.ensure_resident("a")
        assert store.hit_ratio == 1.0

    def test_get_and_prefix_match_are_not_accesses(self, tmp_path):
        store = _store(tmp_path)
        context = _context("a")
        store.add(context)
        store.get("a")
        assert store.find_longest_prefix(context.tokens).is_full_reuse
        assert (store.hit_count, store.reload_count) == (0, 0)

    def test_reload_counts_deserialized_indexes(self, tmp_path):
        """A reload is "rebuilt" only when the catalog names an index blob
        that does not load: a context persisted with no index brings back
        everything it had, so it counts as deserialized."""
        store = _store(tmp_path)
        store.add(_indexed("indexed"))
        store.add(_context("plain", seed=1))
        for context_id in ("indexed", "plain"):
            store.spill(context_id)
            store.ensure_resident(context_id)
        assert store.reload_count == 2
        assert store.reload_deserialized_count == 2
        assert store.reload_rebuilt_count == 0

    def test_reload_counts_a_deleted_blob_as_rebuilt(self, tmp_path):
        store = _store(tmp_path)
        store.add(_indexed("indexed"))
        store.spill("indexed")
        assert store.backend.delete("indexed.indexes.npz")
        assert not store.ensure_resident("indexed").has_fine_indexes
        assert (store.reload_deserialized_count, store.reload_rebuilt_count) == (0, 1)


class TestVictimChoice:
    def test_budget_spills_least_recently_used(self, tmp_path):
        store = _store(tmp_path, budget_contexts=2.5)
        store.add(_context("a"))
        store.add(_context("b", seed=1))
        store.ensure_resident("a")  # "b" is now the coldest
        store.add(_context("c", seed=2))
        assert sorted(store.resident_ids()) == ["a", "c"]
        assert store.spill_count == 1

    def test_get_promotes_a_resident_context(self, tmp_path):
        store = _store(tmp_path, budget_contexts=2.5)
        store.add(_context("a"))
        store.add(_context("b", seed=1))
        store.get("a")
        store.add(_context("c", seed=2))
        assert not store.get("b").is_resident
        assert store.get("a").is_resident

    def test_reload_protects_the_reloaded_context(self, tmp_path):
        store = _store(tmp_path, budget_contexts=1)
        store.add(_context("a"))
        store.add(_context("b", seed=1))  # spills "a"
        store.ensure_resident("a")  # spills "b", never "a" itself
        assert store.resident_ids() == ["a"]
        assert store.spill_count == 2


class TestPins:
    def test_pinned_context_never_spilled_by_budget(self, tmp_path):
        store = _store(tmp_path, budget_contexts=2)
        store.add(_context("a"))
        store.pin("a")
        for i in range(5):
            store.add(_context(f"x{i}", seed=i + 1))
        assert store.get("a").is_resident
        assert store.spill_count == 4

    def test_all_pinned_store_stays_over_budget(self, tmp_path):
        store = _store(tmp_path, budget_contexts=1)
        store.add(_context("a"))
        store.pin("a")
        store.add(_context("b", seed=1))  # protected as the incoming context
        store.pin("b")
        store.add(_context("c", seed=2))
        assert sorted(store.resident_ids()) == ["a", "b", "c"]
        assert store.resident_kv_bytes > store.kv_budget_bytes
        assert store.spill_count == 0

    def test_last_unpin_resolves_deferred_overrun(self, tmp_path):
        store = _store(tmp_path, budget_contexts=1)
        store.add(_context("a"))
        store.pin("a")
        store.pin("a")
        store.add(_context("b", seed=1))
        store.unpin("a")
        assert store.get("a").is_resident  # one pin is still held
        store.unpin("a")
        assert store.pin_count("a") == 0
        assert store.resident_kv_bytes <= store.kv_budget_bytes

    def test_oversized_context_is_kept_until_the_next_arrival(self, tmp_path):
        store = _store(tmp_path, budget_contexts=1)
        store.add(_context("small"))
        store.add(_context("big", num_tokens=64, seed=1))
        assert store.resident_ids() == ["big"]  # over budget, yet protected
        store.add(_context("next", seed=2))
        assert store.resident_ids() == ["next"]


class TestMissingAndFailedLoads:
    def test_unknown_context_raises(self, tmp_path):
        store = _store(tmp_path)
        for operation in (store.ensure_resident, store.get, store.pin, store.remove):
            with pytest.raises(ContextNotFoundError):
                operation("nope")
        assert (store.hit_count, store.reload_count) == (0, 0)

    def test_spilled_context_without_backend_raises(self):
        store = ContextStore()
        cold = StoredContext(context_id="cold", snapshot=None)
        store.add(cold)
        with pytest.raises(ContextEvictedError):
            store.ensure_resident("cold")
        assert store.resident_ids() == []

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_failed_reload_leaves_ledger_unchanged_and_retry_succeeds(self, tmp_path, kind):
        store = _store(tmp_path, kind=kind)
        context = _context("a")
        keys = context.keys(0).copy()
        store.add(context)
        store.spill("a")
        blob = store.backend.read_bytes("a.npz")
        store.backend.write_bytes("a.npz", blob[: len(blob) // 2])
        with pytest.raises(ContextLoadError):
            store.ensure_resident("a")
        assert store.resident_ids() == []
        assert (store.hit_count, store.reload_count) == (0, 0)
        store.backend.write_bytes("a.npz", blob)
        np.testing.assert_array_equal(store.ensure_resident("a").keys(0), keys)
        assert store.reload_count == 1

    def test_load_errors_are_storage_errors(self, tmp_path):
        store = _store(tmp_path)
        store.add(_context("a"))
        store.spill("a")
        assert store.backend.delete("a.npz")
        with pytest.raises(StorageError):
            store.ensure_resident("a")


class TestResidentBytes:
    @settings(deadline=None, max_examples=20)
    @given(
        budget_contexts=st.integers(min_value=1, max_value=4),
        sizes=st.lists(st.sampled_from([16, 24, 32]), min_size=1, max_size=12),
    )
    def test_resident_kv_never_exceeds_budget_when_unpinned(self, tmp_path_factory, budget_contexts, sizes):
        """Every size fits the budget on its own (an oversized arrival is
        protected; see ``test_oversized_context_is_kept_until_the_next_arrival``)."""
        store = _store(tmp_path_factory.mktemp("pool"), budget_contexts=budget_contexts)
        for i, num_tokens in enumerate(sizes):
            store.add(_context(f"c{i}", num_tokens=num_tokens, seed=i))
            assert store.resident_kv_bytes <= store.kv_budget_bytes

    def test_resident_bytes_match_a_recount_after_every_operation(self, tmp_path):
        store = _store(tmp_path, budget_contexts=2.5)
        operations = [
            lambda: store.add(_indexed("a")),
            lambda: store.add(_context("b", seed=1)),
            lambda: store.add(_indexed("c", seed=2)),  # spills "a"
            lambda: store.add(_context("c", num_tokens=16, seed=3), overwrite=True),
            lambda: store.ensure_resident("a"),
            lambda: store.spill("b"),
            lambda: store.remove("a"),
        ]
        for operation in operations:
            operation()
            assert (store.resident_kv_bytes, store.resident_bytes) == _recount(store)
        for context_id in store.list_ids():
            store.remove(context_id)
        assert (store.resident_kv_bytes, store.resident_bytes) == (0, 0)

    def test_resident_bytes_include_fine_indexes(self, tmp_path):
        store = _store(tmp_path)
        context = _indexed("a")
        store.add(context)
        # graph bytes only: a fine index's vectors are the keys kv_bytes counts
        graphs = sum(index.graph.memory_bytes for index in context.fine_indexes[0])
        assert context.index_bytes == graphs > 0
        assert store.resident_bytes == store.resident_kv_bytes + context.index_bytes
        store.spill("a")
        assert store.resident_bytes == 0
        assert store.spilled_kv_bytes == context.kv_bytes


class TestBackendRoundTrip:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_spill_reload_is_bit_identical(self, tmp_path, kind):
        store = _store(tmp_path, kind=kind)
        context = make_context(num_layers=2, num_tokens=40, seed=5, context_id="a")
        keys = {layer: context.keys(layer).copy() for layer in range(2)}
        values = {layer: context.values(layer).copy() for layer in range(2)}
        store.add(context)
        store.spill("a")
        reloaded = store.ensure_resident("a")
        for layer in range(2):
            np.testing.assert_array_equal(reloaded.keys(layer), keys[layer])
            np.testing.assert_array_equal(reloaded.values(layer), values[layer])

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_reloaded_fine_index_searches_identically(self, tmp_path, kind):
        store = _store(tmp_path, kind=kind)
        store.add(_indexed("a", num_tokens=48))
        query = np.random.default_rng(9).normal(size=8).astype(np.float32)
        before = _walk(store.get("a").fine_indexes[0][0], query)
        store.spill("a")
        after = _walk(store.ensure_resident("a").fine_indexes[0][0], query)
        np.testing.assert_array_equal(after.indices, before.indices)
        np.testing.assert_array_equal(after.scores, before.scores)

    def test_disk_bytes_follow_the_backend(self, tmp_path):
        store = _store(tmp_path)
        store.add(_indexed("a"))
        assert store.disk_kv_bytes == store.backend.size_bytes("a.npz") > 0
        assert store.disk_index_bytes == store.backend.size_bytes("a.indexes.npz") > 0
        on_disk = (store.disk_kv_bytes, store.disk_index_bytes)
        store.spill("a")  # on disk since the add: the spill writes nothing new
        assert (store.disk_kv_bytes, store.disk_index_bytes) == on_disk
        store.remove("a")
        assert (store.disk_kv_bytes, store.disk_index_bytes) == (0, 0)

    def test_reopened_database_recovers_cold_and_counts_one_miss(self, tmp_path):
        store = _store(tmp_path)
        context = _context("a")
        store.add(context)
        reopened = ContextStore.open(tmp_path)
        assert reopened.resident_ids() == []
        assert reopened.find_longest_prefix(context.tokens).is_full_reuse
        reopened.ensure_resident("a")
        reopened.ensure_resident("a")
        assert (reopened.hit_count, reopened.reload_count) == (1, 1)

    def test_durable_remove_leaves_only_the_manifest(self, tmp_path):
        store = _store(tmp_path)
        store.add(_indexed("a"))
        store.add(_context("b", seed=1))
        store.remove("a")
        store.remove("b")
        assert store.backend.list_keys() == [MANIFEST_KEY]
        assert ContextStore.open(tmp_path).list_ids() == []

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_overwrite_without_indexes_deletes_the_old_blob(self, tmp_path, kind):
        store = ContextStore.open(_backend(tmp_path, kind))
        store.add(_indexed("a"))
        assert store.backend.exists("a.indexes.npz")
        store.add(_context("a", seed=1), overwrite=True)
        assert store.backend.list_keys() == ["a.npz", MANIFEST_KEY]
        assert store.disk_index_bytes == 0

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_add_writes_snapshot_index_blob_and_manifest_row(self, tmp_path, kind):
        store = ContextStore.open(_backend(tmp_path, kind))
        store.add(_indexed("a"))
        assert store.backend.list_keys() == ["a.indexes.npz", "a.npz", MANIFEST_KEY]
        recovered = ContextStore.open(store.backend)
        assert recovered.list_ids() == ["a"]
        assert recovered.ensure_resident("a").has_fine_indexes
        assert recovered.reload_rebuilt_count == 0

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_overwrite_with_indexes_replaces_the_blob(self, tmp_path, kind):
        store = ContextStore.open(_backend(tmp_path, kind))
        store.add(_indexed("a", num_tokens=48, seed=0))
        replacement = _indexed("a", num_tokens=48, seed=1)
        query = np.random.default_rng(4).normal(size=8).astype(np.float32)
        expected = _walk(replacement.fine_indexes[0][0], query)
        store.add(replacement, overwrite=True)
        reloaded = ContextStore.open(store.backend).ensure_resident("a")
        np.testing.assert_array_equal(reloaded.keys(0), replacement.keys(0))
        found = _walk(reloaded.fine_indexes[0][0], query)
        np.testing.assert_array_equal(found.indices, expected.indices)

    def test_store_without_backend_keeps_contexts_in_memory_only(self):
        store = ContextStore()
        store.add(_indexed("a"))
        assert store.backend is None
        assert store.get("a").is_resident
        assert store.manifest_generation == 0
        assert (store.disk_kv_bytes, store.disk_index_bytes) == (0, 0)


class TestIndexReattach:
    """A persisted index blob holds no keys: a reload re-attaches every fine
    and coarse index to the reloaded snapshot's keys, or, when the blob does
    not fit those keys, counts the reload as rebuilt."""

    PLANS = {
        "fine-dipr": ExecutionPlan(QueryKind.DIPR, IndexKind.FINE, query=DIPRQuery(beta=2.0)),
        "coarse-topk": ExecutionPlan(QueryKind.TOP_K, IndexKind.COARSE, query=TopKQuery(k=8)),
    }

    @staticmethod
    def _outcomes(context, queries):
        executor = PlanExecutor(coarse_num_blocks=2)
        found = []
        for layer in (0, 1):
            data = LayerIndexData(
                keys=context.keys(layer),
                fine_indexes=context.fine_indexes[layer],
                coarse_indexes=context.coarse_indexes[layer],
            )
            for plan in TestIndexReattach.PLANS.values():
                for outcome in executor.retrieve_heads(plan, data, queries):
                    found.append((
                        outcome.positions.tobytes(), outcome.scores.tobytes(),
                        outcome.num_distance_computations, outcome.num_hops,
                    ))
        return found

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_reloaded_indexes_view_the_snapshot_keys(self, tmp_path, kind):
        store = ContextStore.open(_backend(tmp_path, kind))
        store.add(_fully_indexed("a"))
        store.spill("a")
        reloaded = store.ensure_resident("a")
        assert store.reload_deserialized_count == 1
        for per_layer in (reloaded.fine_indexes, reloaded.coarse_indexes):
            assert set(per_layer) == {0, 1}
            for layer, per_head in per_layer.items():
                assert len(per_head) == 2
                for head, index in enumerate(per_head):
                    assert np.shares_memory(index.vectors, reloaded.keys(layer)[head])

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_retrieval_outcomes_are_bit_identical_after_reload(self, tmp_path, kind):
        store = ContextStore.open(_backend(tmp_path, kind))
        store.add(_fully_indexed("a"))
        queries = np.random.default_rng(3).normal(size=(4, 8)).astype(np.float32)
        before = self._outcomes(store.get("a"), queries)
        store.spill("a")
        after = self._outcomes(store.ensure_resident("a"), queries)
        assert after == before

    def test_blob_over_another_token_count_is_rebuilt(self, tmp_path):
        store = _store(tmp_path)
        store.add(_fully_indexed("a", num_tokens=96))
        other = _fully_indexed("other", num_tokens=80)
        store.spill("a")
        store.backend.write_bytes(
            "a.indexes.npz", serialize_context_indexes(other.fine_indexes, other.coarse_indexes)
        )
        reloaded = store.ensure_resident("a")
        assert not reloaded.has_fine_indexes and not reloaded.coarse_indexes
        assert (store.reload_deserialized_count, store.reload_rebuilt_count) == (0, 1)

    def test_version_two_blob_is_rebuilt(self, tmp_path):
        """The previous format stored every index's vectors; such a blob is refused
        by its version stamp and the reload counts as rebuilt."""
        store = _store(tmp_path)
        context = _indexed("a")
        store.add(context)
        index = context.fine_indexes[0][0]
        arrays = {
            "f0_i0_vectors": index.vectors,
            "f0_i0_neighbor_ids": index.graph.neighbor_ids,
            "f0_i0_offsets": index.graph.offsets,
        }
        meta = {
            "fine": {"0": {"shared": True, "gqa_group_size": 1, "indexes": [
                {"entry_point": index.entry_point, "config": {}}
            ]}},
            "coarse": {},
        }
        store.spill("a")
        store.backend.write_bytes("a.indexes.npz", record.pack("context-indexes", 2, meta, arrays))
        assert not store.ensure_resident("a").has_fine_indexes
        assert (store.reload_deserialized_count, store.reload_rebuilt_count) == (0, 1)
