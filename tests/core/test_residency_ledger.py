"""Property test of the context store's one residency ledger.

A random sequence of add, overwrite, pin/unpin, spill, ``ensure_resident``
and remove runs over a byte-budgeted store (filesystem and in-memory
backends).  After every operation:

* ``resident_ids()`` (the LRU) lists exactly the ``is_resident`` contexts;
* ``resident_kv_bytes`` / ``resident_bytes`` equal their KV (+ fine-index)
  bytes;
* the budget holds whenever nothing is pinned;
* hits + misses equals the number of ``ensure_resident`` calls.

Removing every context at the end leaves no object but the manifest behind.
"""

from __future__ import annotations

import functools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore, StoredContext
from repro.core.service import InferenceService
from repro.errors import DuplicateContextError
from repro.index.builder import ContextIndexBuilder
from repro.index.coarse import CoarseBlockIndex
from repro.server import check_drained
from repro.storage.backend import FilesystemBackend, InMemoryBackend
from repro.storage.manifest import MANIFEST_KEY
from tests.conftest import make_context

IDS = ("a", "b", "c", "d")
SIZES = (16, 24, 40)
"""Context lengths in tokens; every one fits the budget on its own."""


def _kv_bytes(num_tokens: int) -> int:
    return make_context(num_layers=1, num_kv_heads=1, num_tokens=num_tokens).kv_bytes


BUDGET = int(2.5 * _kv_bytes(SIZES[1]))


@functools.lru_cache(maxsize=None)
def _fine_indexes(num_tokens: int, seed: int):
    keys = make_context(num_layers=1, num_kv_heads=1, num_tokens=num_tokens, seed=seed).keys(0)
    layer_indexes, _ = ContextIndexBuilder().build_context({0: keys}, {0: keys})
    return layer_indexes


def _context(context_id: str, num_tokens: int, seed: int, indexed: bool) -> StoredContext:
    context = make_context(
        num_layers=1, num_kv_heads=1, num_tokens=num_tokens, seed=seed, context_id=context_id
    )
    if indexed:
        context.fine_indexes = _fine_indexes(num_tokens, seed)
        coarse = CoarseBlockIndex(block_size=8)
        coarse.build(context.keys(0)[0])
        context.coarse_indexes = {0: [coarse]}
    return context


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(IDS),
            st.sampled_from(SIZES),
            st.booleans(),  # indexed
            st.booleans(),  # overwrite
        ),
        st.tuples(
            st.sampled_from(["pin", "unpin", "spill", "ensure", "remove"]),
            st.sampled_from(IDS),
        ),
    ),
    min_size=1,
    max_size=30,
)


def _assert_ledger(store: ContextStore, accesses: int) -> None:
    resident = [context for _, context in store.items() if context.is_resident]
    assert sorted(store.resident_ids()) == sorted(c.context_id for c in resident)
    assert store.resident_kv_bytes == sum(c.kv_bytes for c in resident)
    assert store.resident_bytes == sum(c.kv_bytes + c.index_bytes for c in resident)
    if store.num_pinned == 0:
        assert store.resident_kv_bytes <= store.kv_budget_bytes
    assert store.hit_count + store.reload_count == accesses


@pytest.mark.parametrize("backend_kind", ["filesystem", "memory"])
@settings(deadline=None, max_examples=50)
@given(ops=ops, seed=st.integers(min_value=0, max_value=3))
def test_store_is_one_exact_residency_ledger(backend_kind, ops, seed):
    with tempfile.TemporaryDirectory() as root:
        backend = FilesystemBackend(root) if backend_kind == "filesystem" else InMemoryBackend()
        store = ContextStore(backend=backend, kv_budget_bytes=BUDGET)
        accesses = 0
        for op, context_id, *args in ops:
            known = context_id in store
            if op == "add":
                num_tokens, indexed, overwrite = args
                context = _context(context_id, num_tokens, seed, indexed)
                if known and not overwrite:
                    with pytest.raises(DuplicateContextError):
                        store.add(context)
                else:
                    store.add(context, overwrite=overwrite)
            elif not known:
                continue
            elif op == "pin":
                store.pin(context_id)
            elif op == "unpin":
                store.unpin(context_id)
            elif op == "spill":
                if store.pin_count(context_id) and context_id in store.resident_ids():
                    with pytest.raises(ValueError):
                        store.spill(context_id)
                else:
                    store.spill(context_id)
            elif op == "ensure":
                store.ensure_resident(context_id)
                accesses += 1
            elif op == "remove":
                store.remove(context_id)
            _assert_ledger(store, accesses)

        for context_id in store.list_ids():
            store.remove(context_id)
        assert set(store.backend.list_keys()) <= {MANIFEST_KEY}
        store.flush()  # land everything before the directory is removed


def test_check_drained_reports_ledger_drift(tiny_model):
    service = InferenceService(tiny_model, AlayaDBConfig())
    service.ingest("a context the ledger must not lose " * 4, context_id="doc")
    check_drained(service)
    service.db.store_registry._lru.pop("doc")  # resident, yet missing from the LRU
    with pytest.raises(AssertionError, match="residency ledger drift"):
        check_drained(service)
