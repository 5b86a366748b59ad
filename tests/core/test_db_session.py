"""Tests of the DB / Session user interface (Table 2 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.session import Session
from repro.errors import SessionClosedError
from repro.kvcache.cache import DynamicCache
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
from tests.reference_generation import reference_generate


@pytest.fixture(scope="module")
def served_db():
    """A DB with one long imported context and the model that produced it."""
    model = TransformerModel(ModelConfig.tiny())
    config = AlayaDBConfig(
        window_initial_tokens=8,
        window_last_tokens=16,
        short_context_threshold=32,
        gpu_memory_budget_bytes=1,  # force the DIPR path
        topk_k=16,
    )
    db = DB(config)
    document = "Database systems manage data efficiently. " * 25
    context = db.prefill_and_import(model, document)
    return model, db, document, context


class TestDBImport:
    def test_import_builds_indexes(self, served_db):
        _, db, _, context = served_db
        assert context.num_tokens > 800
        # DIPR plans: layer 0 is a flat layer, so only layer 1 reads a fine
        # index, and no layer reads a coarse one
        assert set(context.fine_indexes) == {1}
        assert not context.coarse_indexes
        assert context.query_samples

    def test_import_from_dynamic_cache(self, served_db):
        model, db, _, _ = served_db
        cache = DynamicCache()
        tokens = db._tokenize("short context for import")
        model.prefill(np.asarray(tokens), cache)
        context = db.import_context(tokens, cache)
        assert context.num_tokens == len(tokens)
        assert not context.has_fine_indexes

    def test_num_contexts(self, served_db):
        _, db, _, _ = served_db
        assert db.num_contexts >= 1


class TestCreateSession:
    def test_full_prefix_reuse(self, served_db):
        _, db, document, context = served_db
        prompt = document + "What is a database?"
        session, truncated = db.create_session(prompt)
        assert session.is_connected
        assert session.reused_prefix_length == context.num_tokens
        assert len(truncated) == len(db._tokenize(prompt)) - context.num_tokens

    def test_no_reuse_for_unrelated_prompt(self, served_db):
        _, db, _, _ = served_db
        session, truncated = db.create_session("zzz completely unrelated prompt")
        assert not session.is_connected
        assert len(truncated) > 0

    def test_partial_prefix_reuse_adds_filter(self, served_db):
        _, db, document, context = served_db
        # a prompt sharing only the first half of the stored context
        tokens = context.tokens[: context.num_tokens // 2] + [300, 301, 302]
        tokens = [t if t < 259 else 1 for t in tokens]
        session, truncated = db.create_session(tokens)
        if session.is_connected:
            assert 0 < session.reused_prefix_length < context.num_tokens
            # plans are decided at creation: no forward is needed to read them
            plan = session.plan_for_layer(1)
            assert plan.predicate is not None

    def test_full_prefix_reuse_walks_unfiltered(self, served_db, monkeypatch):
        """Reusing the whole stored context plus a question is not partial reuse: every
        stored token is visible, so no layer's plan filters and the fine walk is the plain one."""
        from repro.core import planner

        model, db, document, context = served_db
        filtered_walks, plain_walks = [], []
        real_filtered, real_plain = planner.filtered_diprs_search_group, planner.diprs_search_group

        def spy(calls, real):
            return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

        monkeypatch.setattr(planner, "filtered_diprs_search_group", spy(filtered_walks, real_filtered))
        monkeypatch.setattr(planner, "diprs_search_group", spy(plain_walks, real_plain))
        session, truncated = db.create_session(document + "What is a database?")
        assert session.reused_prefix_length == context.num_tokens
        reference_generate(model, truncated, cache=session, max_new_tokens=2)
        plans = [session.plan_for_layer(layer) for layer in range(session.num_layers)]
        assert any(plan.index_kind == IndexKind.FINE for plan in plans)
        assert all(plan.predicate is None for plan in plans)
        assert plain_walks and not filtered_walks


class TestSessionGeneration:
    def test_sparse_generation_first_token_matches_full(self, served_db):
        model, db, document, _ = served_db
        prompt = document + "What is stored?"

        session, truncated = db.create_session(prompt)
        sparse = reference_generate(model, truncated, cache=session, max_new_tokens=2)

        full = reference_generate(model, db._tokenize(prompt), cache=DynamicCache(), max_new_tokens=2)
        assert sparse[0] == full[0]

    def test_decode_uses_sparse_plan_and_tracks_stats(self, served_db):
        model, db, document, context = served_db
        session, truncated = db.create_session(document + " tail")
        reference_generate(model, truncated, cache=session, max_new_tokens=3)
        assert session.num_decode_steps >= 1
        assert session.last_decode_stats.num_heads > 0
        assert session.last_decode_stats.num_window_tokens > 0
        # sparse decode never touches all stored tokens per head
        assert session.last_decode_stats.mean_selected_per_head < context.num_tokens

    def test_gpu_memory_accounting(self, served_db):
        model, db, document, context = served_db
        session, truncated = db.create_session(document + " q")
        reference_generate(model, truncated, cache=session, max_new_tokens=2)
        gpu_bytes = session.gpu_memory_bytes()
        assert 0 < gpu_bytes < context.kv_bytes

    def test_sequence_length_accumulates(self, served_db):
        model, db, document, context = served_db
        session, truncated = db.create_session(document + " xy")
        generated = reference_generate(model, truncated, cache=session, max_new_tokens=3)
        expected = context.num_tokens + len(truncated) + len(generated) - 1
        assert session.sequence_length(0) == expected


class TestSessionLifecycle:
    def test_closed_session_rejects_updates(self):
        session = Session()
        session.close()
        with pytest.raises(SessionClosedError):
            session.update_query(
                np.zeros((2, 1, 4), dtype=np.float32),
                np.zeros((1, 1, 4), dtype=np.float32),
                np.zeros((1, 1, 4), dtype=np.float32),
                layer=0,
            )

    def test_unconnected_session_runs_full_attention(self):
        session = Session(AlayaDBConfig(short_context_threshold=4))
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 3, 4)).astype(np.float32)
        k = rng.normal(size=(1, 3, 4)).astype(np.float32)
        v = rng.normal(size=(1, 3, 4)).astype(np.float32)
        session.update_query(q, k, v, layer=0)
        out = session.attention(q, layer=0)
        assert out.shape == (2, 3, 4)

    def test_update_query_accumulates_materialized_kv(self):
        session = Session()
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 4, 8)).astype(np.float32)
        k = rng.normal(size=(2, 4, 8)).astype(np.float32)
        v = rng.normal(size=(2, 4, 8)).astype(np.float32)
        session.update_query(q, k, v, layer=0)
        keys, values = session.materialized_kv(0)
        assert keys.shape == (2, 4, 8)
        session.update_query(q, k, v, layer=0)
        keys, values = session.materialized_kv(0)
        assert keys.shape == (2, 8, 8)
        np.testing.assert_array_equal(values, np.concatenate([v, v], axis=1))
        assert session.query_samples[0].shape == (4, 8, 8)


class TestDBStore:
    def test_store_materialises_session(self, served_db):
        model, db, document, context = served_db
        prompt = document + "Explain."
        session, truncated = db.create_session(prompt)
        generated = reference_generate(model, truncated, cache=session, max_new_tokens=2)
        full_tokens = db._tokenize(prompt) + generated[:-0 or None]
        stored = db.store(session, tokens=None, context_id="stored-session")
        assert stored.num_tokens == session.sequence_length(0)
        assert stored.has_fine_indexes
        assert "stored-session" in db.store_registry

    def test_stored_context_is_reusable(self, served_db):
        model, db, document, _ = served_db
        stored = db.get_context("stored-session")
        session, truncated = db.create_session(stored.tokens)
        assert session.is_connected
        assert session.reused_prefix_length == stored.num_tokens
        assert truncated == []
