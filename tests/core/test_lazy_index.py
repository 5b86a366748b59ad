"""Tests of the lazy fine-index build mode (ingest off the critical path)."""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.index.builder import IndexBuildConfig
from repro.llm.model import ModelConfig, TransformerModel
from tests.reference_generation import reference_generate


@pytest.fixture(scope="module")
def lazy_model():
    return TransformerModel(ModelConfig.tiny(seed=79))


def _lazy_config(**overrides):
    defaults = dict(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=64,
        gpu_memory_budget_bytes=1,
        max_retrieved_tokens=64,
        lazy_index_build=True,
    )
    defaults.update(overrides)
    return AlayaDBConfig(**defaults)


DOCUMENT = "a long reference document describing lazy construction. " * 20


class TestLazyImport:
    def test_import_defers_fine_indexes(self, lazy_model):
        db = DB(_lazy_config())
        context = db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        assert not context.has_fine_indexes
        assert context.coarse_indexes  # coarse stays eager (cheap)
        assert db.num_pending_index_builds == 1

    def test_explicit_override_beats_config(self, lazy_model):
        db = DB(AlayaDBConfig())
        context = db.prefill_and_import(
            lazy_model, DOCUMENT, context_id="doc", lazy_fine_indexes=True
        )
        assert not context.has_fine_indexes
        assert db.num_pending_index_builds == 1

    def test_first_sparse_decode_triggers_build(self, lazy_model):
        db = DB(_lazy_config())
        context = db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        session, truncated = db.create_session(DOCUMENT + " and a question")
        assert not context.has_fine_indexes  # still deferred after session setup
        reference_generate(lazy_model, truncated, cache=session, max_new_tokens=2)
        session.close()
        # the decode hit the sparse path, which built the pending indexes
        assert context.has_fine_indexes
        assert db.num_pending_index_builds == 0
        assert session.num_decode_steps >= 1
        assert session.last_decode_stats.num_heads > 0

    def test_only_queried_contexts_pay_for_index_builds(self, lazy_model):
        """Serving sparse requests over one of two lazily ingested documents
        builds that document's fine indexes and leaves the other's pending."""
        service = InferenceService(lazy_model, _lazy_config(max_inflight_requests=4))
        service.ingest(DOCUMENT, context_id="queried")
        service.ingest("an unrelated document nobody asks about. " * 20, context_id="idle")
        for i in range(4):
            service.submit(DOCUMENT + f" question {i}?", max_new_tokens=2)
        service.drain()
        assert service.db.get_context("queried").has_fine_indexes
        assert not service.db.get_context("idle").has_fine_indexes
        assert service.db.num_pending_index_builds == 1

    def test_build_pending_drains_explicitly(self, lazy_model):
        db = DB(_lazy_config())
        db.prefill_and_import(lazy_model, DOCUMENT, context_id="one")
        db.prefill_and_import(lazy_model, DOCUMENT + " extra tail", context_id="two")
        assert db.num_pending_index_builds == 2
        assert db.build_pending(limit=1) == 1
        assert db.num_pending_index_builds == 1
        assert db.build_pending() == 1
        assert db.num_pending_index_builds == 0
        assert db.get_context("one").has_fine_indexes
        assert db.get_context("two").has_fine_indexes

    def test_removed_context_dropped_from_pending(self, lazy_model):
        """Removing a context must not leave a stale pending-build entry."""
        db = DB(_lazy_config())
        db.prefill_and_import(lazy_model, DOCUMENT, context_id="doomed")
        assert db.num_pending_index_builds == 1
        db.store_registry.remove("doomed")
        assert db.num_pending_index_builds == 0
        assert db.build_pending() == 0  # no ContextNotFoundError
        assert db.store_registry.resident_bytes == 0  # nothing left resident

    def test_rebuild_indexes_uses_temporary_builder(self, lazy_model):
        """A one-off IndexBuildConfig must not replace the DB's builder."""
        db = DB(AlayaDBConfig())
        db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        original_builder = db._builder
        rebuilt = db.rebuild_indexes("doc", IndexBuildConfig(gqa_share=False))
        assert rebuilt is not None
        assert not rebuilt.shared  # the one-off config applied to this rebuild
        assert db._builder is original_builder  # ...without mutating the DB
        # a follow-up rebuild with no override uses the configured builder
        assert db.rebuild_indexes("doc").shared


class TestSchedulerDrainsBuilds:
    def test_between_steps_drains_pending(self, lazy_model):
        config = _lazy_config(scheduler_drain_index_builds=True)
        service = InferenceService(lazy_model, config)
        service.ingest(DOCUMENT, context_id="doc")
        assert service.db.num_pending_index_builds == 1
        # an unrelated request never touches the sparse path, so the build is
        # drained by the scheduler's between-step slack, not on demand
        service.serve("completely unrelated prompt", max_new_tokens=2)
        assert service.db.num_pending_index_builds == 0
        assert service.db.get_context("doc").has_fine_indexes
