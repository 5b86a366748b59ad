"""A stored context's query sample is one rule, applied as rows arrive.

Whether the query at position ``i`` of layer ``l`` is sampled is a pure
function of ``(l, i)``
(:meth:`repro.index.builder.IndexBuildConfig.sampled_positions`), and a
sampled position gives one row per KV head.  A session records only those
rows, on the layers that can plan a fine index; a stored context's sample is
the sampled rows of its positions ``[0, n)``, however it was reached; a
shard's is the run of rows of its range; a build reads the sample whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.core.session import Session
from repro.index.builder import IndexBuildConfig
from repro.kvcache.cache import DynamicCache
from repro.llm.model import ModelConfig, TransformerModel
from repro.sharding import ShardedContextRouter
from repro.storage.backend import FilesystemBackend, InMemoryBackend

# the end-to-end bench's model: 3 layers, 8 query / 2 KV heads, head_dim 16
BENCH_MODEL = ModelConfig(dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=5)
RULE = AlayaDBConfig().index_build
FINE_CAPABLE = [1, 2]  # layer 0 is in the default flat_index_layers


@pytest.fixture(scope="module")
def model():
    return TransformerModel(BENCH_MODEL)


def _document(n: int, seed: int = 0) -> list[int]:
    return [int(t) for t in np.random.default_rng(seed).integers(3, 250, size=n)]


def _sampled(layer: int, n: int) -> int:
    return RULE.sampled_positions(layer, 0, n).size


def _recorded_bytes(session: Session) -> int:
    return sum(
        rows.nbytes
        for layer in range(session.num_layers)
        if (rows := session.recorded_queries(layer)) is not None
    )


def _every_query_bytes(num_rows: int) -> int:
    """What a session kept while it copied every query row of every layer."""
    config = BENCH_MODEL
    return num_rows * config.num_layers * config.num_query_heads * config.head_dim * 4


class _CapturingSession(Session):
    """A session that also keeps every query row it is handed (the oracle)."""

    def __init__(self, config):
        super().__init__(config)
        self.captured: dict[int, list[np.ndarray]] = {}

    def update_query(self, q, k, v, layer):
        self.captured.setdefault(layer, []).append(np.array(q))
        super().update_query(q, k, v, layer)


def _ingest_session(model, config, tokens) -> _CapturingSession:
    """The unconnected session ingest prefills, chunk by chunk."""
    session = _CapturingSession(config)
    chunk = config.prefill_chunk_tokens
    for start in range(0, len(tokens), chunk):
        model.prefill(np.asarray(tokens[start : start + chunk], dtype=np.int64), session)
    return session


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def test_the_rule_is_a_function_of_layer_and_position():
    """Windows of positions sample what the whole range samples, at the
    ratio to within a few rows, and layers sample different positions."""
    whole = RULE.sampled_positions(1, 0, 5000)
    cut = [RULE.sampled_positions(1, start, stop) for start, stop in ((0, 1234), (1234, 1235), (1235, 5000))]
    np.testing.assert_array_equal(np.concatenate(cut), whole)
    for window in (16, 256, 1600):
        counts = [RULE.sampled_positions(1, start, start + window).size for start in range(0, 3000, 97)]
        assert max(abs(count - RULE.query_sample_ratio * window) for count in counts) <= 3
    assert not np.array_equal(RULE.sampled_positions(2, 0, 100), RULE.sampled_positions(1, 0, 100))
    assert IndexBuildConfig(query_sample_ratio=1.0).sampled_positions(1, 0, 100).size == 100


def test_a_sampled_position_gives_one_row_per_kv_head():
    """The row of KV head ``h`` at position ``p`` comes from query head
    ``h·g + p mod g``; rows arriving in pieces sample what they sample whole."""
    queries = np.random.default_rng(0).normal(size=(8, 300, 16)).astype(np.float32)
    sample = RULE.sample_queries(queries, 2, 1, 0)
    positions = RULE.sampled_positions(1, 0, 300)
    assert sample.shape == (2, positions.size, 16)
    for kv_head in range(2):
        np.testing.assert_array_equal(sample[kv_head], queries[4 * kv_head + positions % 4, positions])
    pieces = [
        RULE.sample_queries(queries[:, start:stop], 2, 1, start) for start, stop in ((0, 7), (7, 8), (8, 300))
    ]
    np.testing.assert_array_equal(np.concatenate(pieces, axis=1), sample)


# ----------------------------------------------------------------------
# what a session records and what a store keeps
# ----------------------------------------------------------------------
def test_an_ingest_session_records_only_the_sample(model):
    """A 1,600-token ingest recorded 2,457,600 B of queries (every row of
    every layer) against 1,228,800 B of KV; it now records the rule's rows
    on the two fine-capable layers, and that is the stored sample."""
    config = AlayaDBConfig()
    tokens = _document(1600, seed=1)
    session = _ingest_session(model, config, tokens)
    assert _every_query_bytes(1600) == 2_457_600
    assert _recorded_bytes(session) <= 0.15 * 2_457_600
    assert session.recorded_queries(0) is None  # a flat layer records nothing
    context = DB(config).prefill_and_import(model, tokens)
    assert sorted(context.query_samples) == FINE_CAPABLE
    for layer in FINE_CAPABLE:
        every_row = np.concatenate(session.captured[layer], axis=1)
        expected = RULE.sample_queries(every_row, 2, layer, 0)
        np.testing.assert_array_equal(session.recorded_queries(layer), expected)
        np.testing.assert_array_equal(context.query_samples[layer], expected)


@pytest.mark.parametrize("n", [1040, 1600])
def test_a_fresh_record_is_about_its_kv_bytes(model, n):
    """The persisted snapshot is the KV plus the 40 % sample per KV head on
    the two non-flat layers: about 1.14x the KV bytes."""
    backend = InMemoryBackend()
    db = DB(AlayaDBConfig(), backend=backend)
    context = db.prefill_and_import(model, _document(n), context_id="doc")
    assert len(backend.read_bytes("doc.npz")) <= 1.2 * context.snapshot.nbytes
    assert {layer: s.shape for layer, s in context.query_samples.items()} == {
        layer: (2, _sampled(layer, n), 16) for layer in FINE_CAPABLE
    }


@pytest.mark.parametrize("num_shards", [2, 4, 8])
def test_a_shard_holds_the_rows_of_its_range(model, num_shards):
    """A shard keeps the sampled rows of its own positions: the shards'
    samples concatenated in order are the parent's, and each record stays
    about its KV bytes."""
    config = AlayaDBConfig(gpu_memory_budget_bytes=1)  # plans DIPR: shards build fine indexes
    backend = InMemoryBackend()
    db = DB(config, backend=backend)
    context = db.prefill_and_import(model, _document(1600), context_id="doc")
    _, shards = db.shard_context("doc", num_shards=num_shards)
    assert len(shards) == num_shards
    for shard in shards:
        assert len(backend.read_bytes(f"{shard.context_id}.npz")) <= 1.2 * shard.snapshot.nbytes
        assert sorted(shard.query_samples) == FINE_CAPABLE
        assert sorted(shard.fine_indexes) == FINE_CAPABLE
        start = int(shard.snapshot.metadata["shard_start"])
        for layer, sample in shard.query_samples.items():
            assert sample.shape[1] == RULE.sampled_positions(layer, start, start + shard.num_tokens).size
    for layer in FINE_CAPABLE:
        joined = np.concatenate([shard.query_samples[layer] for shard in shards], axis=1)
        np.testing.assert_array_equal(joined, context.query_samples[layer])


def test_import_context_applies_the_rule_to_the_queries_it_is_given(model):
    config = AlayaDBConfig()
    tokens = _document(200, seed=2)
    cache = DynamicCache()
    model.prefill(np.asarray(tokens, dtype=np.int64), cache)
    queries = {
        layer: np.random.default_rng(layer).normal(size=(8, 200, 16)).astype(np.float32)
        for layer in range(3)
    }
    context = DB(config).import_context(tokens, cache, query_samples=queries)
    assert sorted(context.query_samples) == FINE_CAPABLE  # layer 0 is flat
    for layer in FINE_CAPABLE:
        np.testing.assert_array_equal(
            context.query_samples[layer], RULE.sample_queries(queries[layer], 2, layer, 0)
        )
    short = {1: queries[1][:, :150]}
    with pytest.raises(ValueError, match="one row per token"):
        DB(config).import_context(tokens, cache, query_samples=short)


def _samples(context) -> dict[int, np.ndarray]:
    return {layer: np.asarray(sample) for layer, sample in context.query_samples.items()}


def _assert_same_samples(got: dict[int, np.ndarray], expected: dict[int, np.ndarray]) -> None:
    assert sorted(got) == sorted(expected) == FINE_CAPABLE
    for layer in FINE_CAPABLE:
        assert got[layer].shape == expected[layer].shape
        np.testing.assert_allclose(got[layer], expected[layer], rtol=1e-4, atol=1e-4)


def test_a_stored_sample_depends_only_on_its_tokens(model):
    """The same 600 tokens reached by one ingest, by a three-turn chat that
    re-stores the grown transcript, by a strict-prefix re-store and by
    concatenating their shards' samples: the same sample (prefill chunking
    moves the float rounding only)."""
    config = AlayaDBConfig(coarse_block_size=32)
    tokens = _document(600, seed=3)
    ingested = InferenceService(model, config)
    ingested.ingest(tokens, context_id="doc")
    expected = _samples(ingested.db.get_context("doc"))

    chat = InferenceService(model, config)
    for stop in (200, 430, 600):
        chat.submit(tokens[:stop], max_new_tokens=0, store_context_id="chat").result()
    _assert_same_samples(_samples(chat.db.get_context("chat")), expected)

    forked = InferenceService(model, config)
    forked.ingest(tokens[:500] + _document(100, seed=4), context_id="fork")
    _, record = forked.submit(tokens, max_new_tokens=0, store_context_id="grown").result()
    assert record.reused_tokens == 500
    _assert_same_samples(_samples(forked.db.get_context("grown")), expected)

    # a connected session stored before it appends a row keeps its prefix's rows
    session, _ = ingested.db.create_session(tokens[:450])
    prefix = ingested.db.store(session, context_id="prefix")
    session.close()
    assert prefix.num_tokens == session.reused_prefix_length > 400
    _assert_same_samples(
        _samples(prefix),
        {layer: expected[layer][:, : _sampled(layer, prefix.num_tokens)] for layer in FINE_CAPABLE},
    )

    router = ShardedContextRouter(model, num_workers=2, config=config)
    ref = router.ingest(tokens, context_id="doc", num_shards=3)
    assert ref.num_shards == 3
    joined = {
        layer: np.concatenate([data.query_sample for data in router.layer_ranges(ref, layer)], axis=1)
        for layer in FINE_CAPABLE
    }
    _assert_same_samples(joined, expected)


def test_a_sharded_restore_samples_the_whole_transcript(model):
    """A chat turn over a sharded context re-stores the sample of the whole
    grown context — its prefix rows come from the shard owners — exactly as
    the same turn over the unsharded context does."""
    config = AlayaDBConfig(coarse_block_size=32)
    document = _document(600, seed=5)
    turn = document + _document(60, seed=6)
    plain = InferenceService(model, config)
    plain.ingest(document, context_id="doc")
    plain_result, _ = plain.submit(turn, max_new_tokens=3, store_context_id="turn").result()
    router = ShardedContextRouter(model, num_workers=2, config=config)
    router.ingest(document, context_id="doc", num_shards=3)
    sharded_result, record = router.service.submit(turn, max_new_tokens=3, store_context_id="turn").result()
    assert record.reused_tokens == 600
    assert sharded_result.generated_tokens == plain_result.generated_tokens
    stored = router.db.get_context("turn")
    assert stored.num_tokens == 662  # the prompt plus the two generated tokens fed back
    assert stored.query_samples[1].shape == (2, _sampled(1, 662), 16)
    _assert_same_samples(_samples(stored), _samples(plain.db.get_context("turn")))


def test_a_sample_stored_under_another_ratio_is_not_cut(model, tmp_path):
    """A database reopened with another ``query_sample_ratio`` holds samples
    that are not its rule's rows.  A build over the whole context may still
    read one, but a re-store over its prefix and its shards carry none
    (their builds read the keys), not rows of shifted positions."""
    tokens = _document(600, seed=11)
    first = DB(AlayaDBConfig(), backend=FilesystemBackend(tmp_path))
    first.prefill_and_import(model, tokens, context_id="doc")
    first.store_registry.flush()
    reopened = DB(
        AlayaDBConfig(index_build=IndexBuildConfig(query_sample_ratio=0.3)), backend=FilesystemBackend(tmp_path)
    )
    assert reopened.store_registry.ensure_resident("doc").query_samples[1].shape == (2, _sampled(1, 600), 16)
    prompt = tokens[:500] + _document(20, seed=12)
    session, suffix = reopened.create_session(prompt)
    assert session.reused_prefix_length == 500
    model.prefill(np.asarray(suffix, dtype=np.int64), session)
    assert session.query_sample(1) is None
    assert reopened.store(session, tokens=prompt, context_id="grown").query_samples == {}
    session.close()
    _, shards = reopened.shard_context("doc", num_shards=2)
    assert [shard.query_samples for shard in shards] == [{}, {}]


# ----------------------------------------------------------------------
# admission books what a session holds
# ----------------------------------------------------------------------
def _capture_finishing_sessions(service: InferenceService) -> list[tuple[int, Session]]:
    """``(reserved bytes, session)`` of every request, taken as it finishes
    (before its session is closed)."""
    seen: list[tuple[int, Session]] = []
    finish = service.finish_request

    def capture(inflight):
        seen.append((inflight.reserved_bytes, inflight.session))
        finish(inflight)

    service.finish_request = capture
    return seen


def test_admission_books_the_recorded_queries(model):
    """A one-shot request and a stored chat turn: the reservation admission
    made covers what the session holds (window, local KV and the recorded
    query rows), and the recorded rows are under 0.15x of every query row."""
    service = InferenceService(model, AlayaDBConfig())
    service.ingest(_document(400, seed=7), context_id="doc")
    seen = _capture_finishing_sessions(service)
    service.submit(_document(400, seed=7) + _document(120, seed=8), max_new_tokens=4).result()
    chat = service.chat(context_id="doc", max_new_tokens=4)
    chat.ask(_document(90, seed=9))
    chat.ask(_document(70, seed=10))
    assert len(seen) == 3
    for reserved, session in seen:
        recorded = _recorded_bytes(session)
        local_kv = sum(session.local_snapshot(layer)[0].nbytes * 2 for layer in range(session.num_layers))
        assert recorded > 0
        assert session.gpu_memory_bytes() >= local_kv + recorded
        assert reserved >= session.gpu_memory_bytes()
        assert recorded <= 0.15 * _every_query_bytes(session.local_length())
