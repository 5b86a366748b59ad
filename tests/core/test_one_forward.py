"""One forward: a scheduler round is one ragged batch of rows, and ingest is a session.

Every in-flight request puts its next prefill chunk or its next decode token
into the round's one ``TransformerModel.forward_rows`` call.  The grid here
serves a request that is decoding, one in the middle of a chunked prefill and
one on a one-token prefill (the BOS after full prefix reuse) in the same
rounds, over 0, 1 and 2 stored ranges and every plan kind, and requires each
to generate exactly what it generates alone.  Its logits may differ in the
last bits only: the dense matmuls round differently with the number of rows
they multiply, while attention rows stay bitwise (``test_session_properties``).

Ingest is an unconnected session prefilled chunk by chunk, so it stores the
KV a request with the document as its prompt stores, in memory linear in the
document.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.sharding import ShardedContextRouter

DOC = "the quick brown fox jumps over the lazy dog. " * 6
LONG_QUESTION = "and then, what did the lazy dog do about the fox? " * 4
"""About 200 tokens: four ``prefill_chunk_tokens`` chunks."""

PLAN_CONFIGS = {
    "full": dict(short_context_threshold=10**6),
    "flat": dict(gpu_memory_budget_bytes=1024, flat_index_layers=(0, 1)),
    "fine": dict(gpu_memory_budget_bytes=1024, flat_index_layers=()),
    "coarse": dict(),  # the default budget keeps the coarse rule winning
}

#: an unconnected session (R = 0) only ever runs full attention
GRID = [("full", 0)] + [(plan, ranges) for plan in PLAN_CONFIGS for ranges in (1, 2)]


def _config(plan: str) -> AlayaDBConfig:
    knobs = dict(
        short_context_threshold=128,
        coarse_block_size=32,
        coarse_num_blocks=4,
        window_initial_tokens=8,
        window_last_tokens=24,
        prefill_chunk_tokens=64,
    )
    return AlayaDBConfig(**{**knobs, **PLAN_CONFIGS[plan]})


def _requests(ranges: int) -> dict[str, tuple[object, int, int]]:
    """name -> (prompt, max_new_tokens, the step it is submitted before)."""
    prefix = DOC if ranges else ""
    return {
        "decoding": (prefix + "why?", 6, 0),
        "mid_prefill": (prefix + LONG_QUESTION, 2, 0),
        # full prefix reuse leaves a one-token BOS prefill; with nothing
        # stored, a one-token prompt is the same one-row prefill
        "one_row": (DOC if ranges else [7], 3, 2),
    }


def _serve(plan: str, ranges: int, names: list[str]):
    """Serve ``names`` on a fresh service; returns per request its tokens and
    the logits of its last row in every round, plus each round's rows."""
    model = TransformerModel(ModelConfig.tiny(seed=7))
    config = _config(plan)
    if ranges == 2:
        router = ShardedContextRouter(model, num_workers=2, config=config)
        router.ingest(DOC, context_id="doc", num_shards=2)
        service = router.service
    else:
        service = InferenceService(model, config)
        if ranges == 1:
            service.ingest(DOC, context_id="doc")

    owner: dict[int, tuple[object, str]] = {}
    trails = {name: [] for name in names}
    rounds: list[dict[str, int]] = []
    begin, forward_rows = service.begin_request, model.forward_rows

    def spy_begin(request):
        inflight = begin(request)
        owner[id(inflight.session)] = (inflight.session, by_id[request.request_id])
        return inflight

    def spy_forward_rows(token_ids, caches, rows, attention_round=None):
        logits = forward_rows(token_ids, caches, rows, attention_round)
        rounds.append({})
        for cache, n, end in zip(caches, rows, np.cumsum(rows)):
            name = owner[id(cache)][1]
            rounds[-1][name] = n
            trails[name].append(logits[end - 1].copy())
        return logits

    service.begin_request = spy_begin
    model.forward_rows = spy_forward_rows
    requests = _requests(ranges)
    by_id, handles = {}, {}
    for step in range(3):
        for name in names:
            prompt, max_new, at = requests[name]
            if at == step:
                handles[name] = service.submit(prompt, max_new_tokens=max_new)
                by_id[handles[name].request_id] = name
        service.step()
    service.drain()
    tokens = {name: service.result(handle)[0].generated_tokens for name, handle in handles.items()}
    return tokens, trails, rounds


@pytest.mark.parametrize("plan,ranges", GRID)
def test_mixed_round_serves_each_request_as_alone(plan, ranges):
    names = list(_requests(ranges))
    tokens, trails, rounds = _serve(plan, ranges, names)
    # the third round holds all three kinds of rows in one forward
    assert rounds[2]["decoding"] == 1
    assert rounds[2]["mid_prefill"] > 1
    assert rounds[2]["one_row"] == 1
    assert len(trails["one_row"]) == 3  # a one-row prefill, then two decode rows
    for name in names:
        solo_tokens, solo_trails, solo_rounds = _serve(plan, ranges, [name])
        assert all(len(round_) == 1 for round_ in solo_rounds)
        assert tokens[name] == solo_tokens[name], name
        assert len(trails[name]) == len(solo_trails[name])
        np.testing.assert_allclose(
            np.stack(trails[name]), np.stack(solo_trails[name]), rtol=0, atol=1e-5, err_msg=name
        )


def test_ingest_stores_what_serving_the_document_stores():
    """``ingest(doc)`` and a solo request for ``doc`` that stores its context
    hold the same KV, bit for bit (the last chunk is a single row)."""
    model = TransformerModel(ModelConfig.tiny(seed=7))
    config = AlayaDBConfig(prefill_chunk_tokens=64)
    document = [3 + (i * 37) % 250 for i in range(4 * 64 + 1)]
    ingested = InferenceService(model, config)
    ingested.ingest(document, context_id="doc")
    served = InferenceService(model, config)
    served.submit(document, max_new_tokens=0, store_context_id="doc").result()

    a, b = ingested.db.get_context("doc"), served.db.get_context("doc")
    assert a.tokens == b.tokens == document
    for layer in range(model.config.num_layers):
        np.testing.assert_array_equal(a.keys(layer), b.keys(layer))
        np.testing.assert_array_equal(a.values(layer), b.values(layer))
    # the same drawn query sample, for the layers outside flat_index_layers
    fine_capable = [l for l in range(model.config.num_layers) if l not in config.flat_index_layers]
    assert sorted(a.query_samples) == sorted(b.query_samples) == fine_capable
    for layer in fine_capable:
        np.testing.assert_array_equal(a.query_samples[layer], b.query_samples[layer])


def test_ingest_memory_is_linear_in_the_document():
    """Regression: ingest ran one unchunked prefill over the coupled cache and
    built several (heads, n, n) logit tensors — over 1 GB traced at 4,096
    tokens.  Chunked, the peak is the chunk's logits against the prefix."""
    model = TransformerModel(ModelConfig.tiny())
    db = DB(AlayaDBConfig())
    document = [3 + (i * 37) % 250 for i in range(4096)]
    tracemalloc.start()
    try:
        context = db.prefill_and_import(model, document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert context.num_tokens == 4096
    assert peak < 64 * 2**20, f"ingest peaked at {peak / 2**20:.0f} MB traced"
