"""Sharded-vs-unsharded equivalence grid.

Shards × plan kinds (full attention included) × GQA ratios, asserting two things:

* *decode outputs allclose* — the merged per-layer logits trajectory of a
  :class:`ShardedSession` matches an unsharded :class:`Session` over the
  same stored context, token for token;
* *generated tokens identical end-to-end* — a request submitted to the
  router's front service (admitted, prefilled and decoded by the one
  scheduler over the shard owners' ranges) produces exactly the token stream
  the single-owner :class:`InferenceService` produces.

The flat and coarse cross-shard merges are exact by construction (global-best
re-filter and block-score concatenation respectively); the fine (DIPRS) merge
unions per-shard graph walks, which is bit-identical at one shard and
converges to the same retained set on these contexts at 2/4 shards.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.sharding import ShardedContextRouter, ShardedSession

pytestmark = pytest.mark.sharded

DOC = "the quick brown fox jumps over the lazy dog. " * 6
PROMPT = DOC + "what did the fox do?"
DECODE_FEED = [5, 17, 42, 7, 101]

NUM_SHARDS = [1, 2, 4]
PLAN_KINDS = ["flat", "coarse", "fine", "full"]
LONG_QUESTION = "and then, what did the lazy dog do about the fox? " * 4
"""A suffix of ~200 tokens: more than three ``prefill_chunk_tokens``."""
GQA_SHAPES = [(4, 2), (8, 2)]


def make_config(plan_kind: str) -> AlayaDBConfig:
    """A config that forces the optimizer onto one index kind for every layer.

    The rule order is: short context → full; fits GPU budget → coarse top-k;
    otherwise DIPR (flat on ``flat_index_layers``, fine elsewhere).
    """
    kwargs = dict(
        short_context_threshold=128,
        coarse_block_size=32,
        coarse_num_blocks=4,
        window_initial_tokens=8,
        window_last_tokens=24,
        prefill_chunk_tokens=64,
    )
    if plan_kind == "flat":
        kwargs.update(gpu_memory_budget_bytes=1024, flat_index_layers=(0, 1))
    elif plan_kind == "fine":
        kwargs.update(gpu_memory_budget_bytes=1024, flat_index_layers=())
    elif plan_kind == "full":
        kwargs.update(short_context_threshold=10**6)
    # "coarse": the default 16 GiB budget keeps the coarse rule winning
    return AlayaDBConfig(**kwargs)


def make_model(heads: tuple[int, int]) -> TransformerModel:
    num_query_heads, num_kv_heads = heads
    return TransformerModel(
        ModelConfig(
            dim=32,
            num_layers=2,
            num_query_heads=num_query_heads,
            num_kv_heads=num_kv_heads,
            hidden_dim=64,
            seed=7,
        )
    )


def logits_trajectory(model, session, prefill_tokens, decode_feed):
    """Prefill the suffix, then decode a fixed token feed, stacking logits."""
    rows = []
    logits, _ = model.prefill(np.asarray(prefill_tokens, dtype=np.int64), session)
    rows.append(np.asarray(logits))
    for token in decode_feed:
        rows.append(np.asarray(model.decode_step(token, session)))
    return np.stack(rows)


@pytest.mark.parametrize("heads", GQA_SHAPES, ids=["gqa2", "gqa4"])
@pytest.mark.parametrize("plan_kind", PLAN_KINDS)
@pytest.mark.parametrize("num_shards", NUM_SHARDS)
def test_generated_tokens_identical_end_to_end(num_shards, plan_kind, heads):
    model = make_model(heads)
    service = InferenceService(model, make_config(plan_kind))
    service.db.prefill_and_import(model, DOC, context_id="ctx")
    expected, _ = service.serve(PROMPT, max_new_tokens=8)

    sharded_model = make_model(heads)
    router = ShardedContextRouter(sharded_model, num_workers=2, config=make_config(plan_kind))
    ref = router.ingest(DOC, context_id="ctx", num_shards=num_shards)
    assert ref.num_shards == num_shards
    result, record = router.service.submit(PROMPT, max_new_tokens=8).result()

    assert record.reused_tokens == ref.num_tokens  # served off the shards
    assert result.generated_tokens == expected.generated_tokens
    assert result.text == expected.text
    assert result.prompt_tokens == expected.prompt_tokens  # same truncation


@pytest.mark.parametrize("plan_kind", ["flat", "full"])
@pytest.mark.parametrize("num_shards", NUM_SHARDS)
def test_prefill_heavy_suffix_identical_end_to_end(num_shards, plan_kind):
    """A suffix prefilled in several chunks: every chunk attends the shard owners' ranges
    plus the chunks before it, and the tokens match the single-owner service."""
    prompt = DOC + LONG_QUESTION
    model = make_model((4, 2))
    config = make_config(plan_kind)
    service = InferenceService(model, config)
    service.db.prefill_and_import(model, DOC, context_id="ctx")
    expected, expected_record = service.serve(prompt, max_new_tokens=6)
    suffix_tokens = expected_record.prompt_tokens - expected_record.reused_tokens
    assert suffix_tokens > 3 * config.prefill_chunk_tokens

    router = ShardedContextRouter(make_model((4, 2)), num_workers=2, config=make_config(plan_kind))
    ref = router.ingest(DOC, context_id="ctx", num_shards=num_shards)
    result, record = router.service.submit(prompt, max_new_tokens=6).result()
    assert record.reused_tokens == ref.num_tokens == expected_record.reused_tokens
    assert result.generated_tokens == expected.generated_tokens


@pytest.mark.parametrize("plan_kind", PLAN_KINDS)
@pytest.mark.parametrize("num_shards", NUM_SHARDS)
def test_decode_logits_allclose(num_shards, plan_kind):
    config = make_config(plan_kind)
    prompt_tokens = None

    model = make_model((4, 2))
    db = DB(config)
    db.prefill_and_import(model, DOC, context_id="ctx")
    prompt_tokens = db.tokenize(PROMPT)
    session, truncated = db.create_session(prompt_tokens)
    assert session.is_connected, "baseline must reuse the stored context"
    index_kind = None if plan_kind == "full" else plan_kind
    assert session.plan_for_layer(0).index_kind == index_kind
    baseline = logits_trajectory(model, session, truncated, DECODE_FEED)
    session.close()

    sharded_model = make_model((4, 2))
    router = ShardedContextRouter(sharded_model, num_workers=2, config=make_config(plan_kind))
    ref = router.ingest(DOC, context_id="ctx", num_shards=num_shards)
    reused = ref.num_tokens
    assert prompt_tokens[:reused] == router.db.get_context("ctx").tokens
    sharded_session, sharded_suffix = router.db.create_session(prompt_tokens)
    assert isinstance(sharded_session, ShardedSession)
    assert sharded_suffix == prompt_tokens[reused:] == truncated
    assert sharded_session.plan_for_layer(0).index_kind == index_kind
    sharded = logits_trajectory(sharded_model, sharded_session, sharded_suffix, DECODE_FEED)
    sharded_session.close()

    # absolute tolerance carries the comparison: cutting the stored range
    # into R partials reorders the float32 sums of the log-sum-exp merge
    np.testing.assert_allclose(sharded, baseline, rtol=0, atol=1e-5)


@pytest.mark.parametrize("num_shards", [2, 4])
def test_full_reuse_prompt_matches_service(num_shards):
    """Prompt == stored tokens: the bos-driven first forward pass must match."""
    model = make_model((4, 2))
    service = InferenceService(model, make_config("coarse"))
    service.db.prefill_and_import(model, DOC, context_id="ctx")
    expected, _ = service.serve(DOC, max_new_tokens=6)

    sharded_model = make_model((4, 2))
    router = ShardedContextRouter(sharded_model, num_workers=2, config=make_config("coarse"))
    router.ingest(DOC, context_id="ctx", num_shards=num_shards)
    result, _ = router.service.submit(DOC, max_new_tokens=6).result()
    assert result.generated_tokens == expected.generated_tokens


@pytest.mark.parametrize("crossing", ["threshold", "budget"])
@pytest.mark.parametrize("num_shards", [1, 2])
def test_prompt_crossing_the_registration_plan_matches_service(num_shards, crossing):
    """The shards were planned for a one-token question; a longer prompt
    crosses ``short_context_threshold`` (FULL → coarse) or
    ``gpu_memory_budget_bytes`` (coarse → DIPR), so its plans read an index
    no shard was built with.  Each shard owner builds it when the session
    is created, as the single owner does, and the tokens match."""
    doc_length = len(DB(make_config("coarse")).tokenize(DOC))
    bytes_per_token = 2 * 2 * 8 * 4 * 2  # K + V, 2 KV heads, head_dim 8, 2 layers
    if crossing == "threshold":
        overrides = dict(short_context_threshold=doc_length + 2)
        planned, needed = "full", "coarse"
    else:
        overrides = dict(gpu_memory_budget_bytes=(doc_length + 2) * bytes_per_token)
        planned, needed = "coarse", "fine"

    def config():
        return dataclasses.replace(make_config("coarse"), **overrides)

    model = make_model((4, 2))
    service = InferenceService(model, config())
    context = service.db.prefill_and_import(model, DOC, context_id="ctx")
    assert bool(context.coarse_indexes) == (planned == "coarse")
    assert not context.has_fine_indexes
    expected, _ = service.serve(PROMPT, max_new_tokens=8)
    assert bool(context.coarse_indexes) == (planned == "coarse" or needed == "coarse")
    assert context.has_fine_indexes == (needed == "fine")

    router = ShardedContextRouter(make_model((4, 2)), num_workers=2, config=config())
    ref = router.ingest(DOC, context_id="ctx", num_shards=num_shards)
    session, _ = router.db.create_session(PROMPT)
    assert isinstance(session, ShardedSession)
    for layer, plan in session.plans.items():
        assert session.decode_plan(layer) == plan  # no range falls back to FULL
    assert {plan.index_kind for plan in session.plans.values()} >= {needed}
    session.close()
    for shard_id in range(ref.num_shards):
        shard = router.shard_owner("ctx", shard_id).ensure_loaded(ref.shard_id_of(shard_id))
        assert bool(shard.coarse_indexes) == bool(context.coarse_indexes)
        assert shard.has_fine_indexes == context.has_fine_indexes
    result, record = router.service.submit(PROMPT, max_new_tokens=8).result()
    assert record.reused_tokens == ref.num_tokens
    assert result.generated_tokens == expected.generated_tokens
