"""A snapshot holds the one query sample a fine build reads, drawn once.

The prefill captures every query of every query head; a stored context keeps
only ``query_sample_ratio · n`` of them per KV head, for the layers that can
plan a fine index, as :func:`repro.index.builder.draw_query_sample` draws
them.  A build reads that sample as it is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.session import Session
from repro.index.builder import draw_query_sample
from repro.kvcache.cache import DynamicCache
from repro.llm.model import ModelConfig, TransformerModel
from repro.storage.backend import InMemoryBackend

# the end-to-end bench's model: 3 layers, 8 query / 2 KV heads, head_dim 16
BENCH_MODEL = ModelConfig(dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=5)


@pytest.fixture(scope="module")
def model():
    return TransformerModel(BENCH_MODEL)


def _document(n: int, seed: int = 0) -> list[int]:
    return [int(t) for t in np.random.default_rng(seed).integers(3, 250, size=n)]


@pytest.mark.parametrize("n", [1040, 1600])
def test_a_fresh_record_is_about_its_kv_bytes(model, n):
    """The persisted snapshot is the KV plus a 40 % sample per KV head on
    the two non-flat layers: about 1.14x the KV bytes (3.01x while every
    prefill query of every query head was kept)."""
    backend = InMemoryBackend()
    db = DB(AlayaDBConfig(), backend=backend)
    context = db.prefill_and_import(model, _document(n), context_id="doc")
    record_bytes = len(backend.read_bytes("doc.npz"))
    assert record_bytes <= 1.2 * context.snapshot.nbytes
    assert {layer: s.shape for layer, s in context.query_samples.items()} == {
        1: (2, int(0.4 * n), 16),
        2: (2, int(0.4 * n), 16),
    }


def test_the_stored_sample_is_the_draw_over_the_prefill_queries(model):
    """Ingest keeps exactly the one draw over the captured queries: the rows
    a build over the raw captures drew for itself, seeded by layer."""
    config = AlayaDBConfig()
    tokens = _document(300, seed=1)
    session = Session(config)  # the unconnected session ingest prefills, chunk by chunk
    chunk = config.prefill_chunk_tokens
    for start in range(0, len(tokens), chunk):
        model.prefill(np.asarray(tokens[start : start + chunk], dtype=np.int64), session)
    captured = session.query_samples
    context = DB(config).prefill_and_import(model, tokens)
    assert sorted(context.query_samples) == [1, 2]
    for layer, sample in context.query_samples.items():
        expected = draw_query_sample(captured[layer], 2, 300, config.index_build, layer)
        np.testing.assert_array_equal(sample, expected)


def test_import_context_draws_from_the_queries_it_is_given(model):
    config = AlayaDBConfig()
    tokens = _document(200, seed=2)
    cache = DynamicCache()
    model.prefill(np.asarray(tokens, dtype=np.int64), cache)
    queries = {
        layer: np.random.default_rng(layer).normal(size=(8, 200, 16)).astype(np.float32)
        for layer in range(3)
    }
    context = DB(config).import_context(tokens, cache, query_samples=queries)
    assert sorted(context.query_samples) == [1, 2]  # layer 0 is flat
    for layer in (1, 2):
        np.testing.assert_array_equal(
            context.query_samples[layer],
            draw_query_sample(queries[layer], 2, 200, config.index_build, layer),
        )
