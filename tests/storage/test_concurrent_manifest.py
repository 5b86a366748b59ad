"""Two ContextStore handles interleaving writes over one shared manifest.

The durable tier has no cross-process lock: each save atomically replaces
the manifest file, merging per row — the rows its handle upserted or removed
since its last save go on top of the persisted catalog — with a generation
stamp that every ``save`` floors against the persisted value before bumping.
These tests pin down the guarantees the sharded serving harness (one writing
router + N shard owners over one backend) relies on:

* the persisted generation is strictly monotonic no matter how two writers
  interleave add/remove — a reader can always order observations;
* interleaved writers converge to the union of their row changes, and a
  writer reopens to exactly that catalog;
* one writer's save never reverts a row another writer changed, such as the
  ``index_key`` a shard owner wrote after building the shard's index;
* ``refresh_from_manifest`` adopts the other writer's contexts cold without
  disturbing local residency.
"""

from __future__ import annotations

import pytest

from repro.core.context_store import ContextStore
from repro.index.builder import ContextIndexBuilder
from repro.storage.backend import InMemoryBackend
from repro.storage.manifest import ContextManifest

from tests.conftest import make_context


@pytest.fixture()
def backend():
    return InMemoryBackend()


def _open_two(backend):
    return ContextStore.open(backend), ContextStore.open(backend)


class TestConcurrentManifestWriters:
    def test_generations_monotonic_across_interleaved_writers(self, backend):
        alpha, beta = _open_two(backend)
        observed = []
        for step in range(6):
            writer = alpha if step % 2 == 0 else beta
            writer.add(make_context(context_id=f"ctx-{step}", seed=step, num_tokens=16))
            observed.append(ContextManifest.load(backend).generation)
        assert observed == sorted(observed)
        assert len(set(observed)) == len(observed), "every save must bump the generation"
        # both handles floor against the persisted generation before bumping,
        # so neither can publish a stamp at or below one already observed —
        # even though each handle only saw half the saves
        assert ContextManifest.load(backend).generation == observed[-1]

    def test_losers_reopen_is_consistent_with_the_winning_save(self, backend):
        alpha, beta = _open_two(backend)
        alpha.add(make_context(context_id="shared", seed=1, num_tokens=16))
        beta.refresh_from_manifest()

        # interleave: alpha adds and removes without beta noticing; beta's
        # later save merges its one changed row into what alpha wrote, so
        # alpha's add and remove both survive although beta adopted "shared"
        alpha.add(make_context(context_id="alpha-only", seed=2, num_tokens=16))
        alpha.remove("shared")
        beta.add(make_context(context_id="beta-only", seed=3, num_tokens=16))

        durable = ContextManifest.load(backend)
        assert set(durable.entries) == {"alpha-only", "beta-only"}

        # a reopen sees exactly the durable catalog, not a torn mix
        reopened = ContextStore.open(backend)
        assert {context_id for context_id, _ in reopened.items()} == {"alpha-only", "beta-only"}
        assert reopened.manifest_generation == durable.generation

    def test_a_save_keeps_the_index_row_another_writer_persisted(self, backend):
        """Two shard owners each persist the index their shard gained: both
        rows keep their ``index_key``, and both shards reload with it."""
        alpha, beta = _open_two(backend)
        for shard in ("doc--shard000", "doc--shard001"):
            alpha.add(make_context(context_id=shard, seed=len(shard), num_tokens=32))
        beta.refresh_from_manifest()

        for owner, shard in ((alpha, "doc--shard000"), (beta, "doc--shard001")):
            context = owner.ensure_resident(shard)
            keys = context.keys(0)
            context.fine_indexes, _ = ContextIndexBuilder().build_context({0: keys}, {0: keys})
            assert owner.persist_indexes(shard)

        durable = ContextManifest.load(backend)
        assert durable.get("doc--shard000").index_key == "doc--shard000.indexes.npz"
        assert durable.get("doc--shard001").index_key == "doc--shard001.indexes.npz"
        reopened = ContextStore.open(backend)
        for shard in ("doc--shard000", "doc--shard001"):
            assert reopened.ensure_resident(shard).has_fine_indexes
        assert reopened.reload_rebuilt_count == 0

    def test_refresh_before_write_converges_to_the_union(self, backend):
        alpha, beta = _open_two(backend)
        for step in range(4):
            # the cooperative protocol the router/worker harness uses: adopt
            # the other writer's entries before publishing your own
            alpha.refresh_from_manifest()
            alpha.add(make_context(context_id=f"a-{step}", seed=10 + step, num_tokens=16))
            beta.refresh_from_manifest()
            beta.add(make_context(context_id=f"b-{step}", seed=20 + step, num_tokens=16))
        reopened = ContextStore.open(backend)
        ids = {context_id for context_id, _ in reopened.items()}
        assert ids == {f"a-{i}" for i in range(4)} | {f"b-{i}" for i in range(4)}
        assert ContextManifest.load(backend).generation >= 8

    def test_refresh_adopts_without_disturbing_residency(self, backend):
        alpha, beta = _open_two(backend)
        mine = make_context(context_id="mine", seed=4, num_tokens=16)
        alpha.add(mine)
        assert alpha.get("mine").is_resident

        beta.refresh_from_manifest()
        beta.add(make_context(context_id="theirs", seed=5, num_tokens=16))
        adopted = alpha.refresh_from_manifest()
        assert adopted == ["theirs"]
        # the adopted entry is cold (loaded on first use); the local one is
        # untouched — same object, still resident
        assert not alpha.get("theirs").is_resident
        assert alpha.get("mine") is mine
        assert alpha.get("mine").is_resident
        # adopting again is a no-op
        assert alpha.refresh_from_manifest() == []
