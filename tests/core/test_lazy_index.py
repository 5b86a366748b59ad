"""Tests of the lazy index build mode: registration builds nothing, and the
first session whose plans read an index builds it (ingest off the critical
path)."""

from __future__ import annotations

import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
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
    @pytest.mark.parametrize("budget", [1, 1 << 40])  # DIPR plans, coarse plans
    def test_import_defers_every_build(self, lazy_model, budget):
        db = DB(_lazy_config(gpu_memory_budget_bytes=budget))
        context = db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        assert not context.has_fine_indexes
        assert not context.coarse_indexes

    def test_fine_planned_session_creation_builds(self, lazy_model):
        db = DB(_lazy_config())
        context = db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        session, truncated = db.create_session(DOCUMENT + " and a question")
        assert session.plans_index(IndexKind.FINE)
        # the build ran before the session came back, not at its first decode
        assert set(context.fine_indexes) == {1}  # layer 0 plans the flat index
        assert not context.coarse_indexes
        reference_generate(lazy_model, truncated, cache=session, max_new_tokens=2)
        session.close()
        assert session.num_decode_steps >= 1
        assert session.last_decode_stats.num_heads > 0

    @pytest.mark.parametrize(
        "overrides, index_kind",
        [
            (dict(short_context_threshold=1 << 20), None),  # every layer FULL
            (dict(gpu_memory_budget_bytes=1 << 40), IndexKind.COARSE),
        ],
    )
    def test_session_builds_only_the_kind_it_plans(self, lazy_model, overrides, index_kind):
        db = DB(_lazy_config(**overrides))
        context = db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")
        session, truncated = db.create_session(DOCUMENT + " and a question")
        plans = [session.plan_for_layer(layer) for layer in range(session.num_layers)]
        if index_kind is None:
            assert all(plan.is_full for plan in plans)
        else:
            assert all(plan.index_kind == index_kind for plan in plans)
        reference_generate(lazy_model, truncated, cache=session, max_new_tokens=2)
        session.close()
        assert not context.has_fine_indexes
        assert bool(context.coarse_indexes) == (index_kind == IndexKind.COARSE)

    def test_no_fine_build_inside_a_round(self, lazy_model, monkeypatch):
        """A lazily ingested, fine-planned context served through the service
        pays its build in ``begin_request`` (TTFT), never in ``run_round``."""
        service = InferenceService(lazy_model, _lazy_config())
        service.ingest(DOCUMENT, context_id="doc")
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
        result, record = service.submit(DOCUMENT + " a question?", max_new_tokens=3).result()
        assert record.reused_tokens > 0 and len(result.generated_tokens) == 3
        assert builds == [False]
        assert service.db.get_context("doc").has_fine_indexes

    def test_failed_build_releases_the_pin(self, lazy_model, monkeypatch):
        db = DB(_lazy_config())
        db.prefill_and_import(lazy_model, DOCUMENT, context_id="doc")

        def explode(db, context, layers):
            raise MemoryError("no room for the graph")

        monkeypatch.setattr(DB, "_build_fine_layers", explode)
        with pytest.raises(MemoryError):
            db.create_session(DOCUMENT + " and a question")
        assert db.store_registry.pin_count("doc") == 0
        assert not db.get_context("doc").has_fine_indexes

    def test_only_queried_contexts_pay_for_index_builds(self, lazy_model):
        """Serving sparse requests over one of two lazily ingested documents
        builds that document's fine indexes and leaves the other index-free."""
        service = InferenceService(lazy_model, _lazy_config(max_inflight_requests=4))
        service.ingest(DOCUMENT, context_id="queried")
        service.ingest("an unrelated document nobody asks about. " * 20, context_id="idle")
        for i in range(4):
            service.submit(DOCUMENT + f" question {i}?", max_new_tokens=2)
        service.drain()
        assert service.db.get_context("queried").has_fine_indexes
        assert not service.db.get_context("idle").has_fine_indexes
