"""A session's plans are decided once, when ``DB.create_session`` matches the
prompt, and prefill rows never run them.

* The plan read right after ``create_session`` is the plan every decode step
  runs, for single-owner and sharded sessions alike: the optimizer reads the
  stored keys' shape.
* A prefill chunk is causal attention however many rows it has, so the tokens
  a request generates do not depend on ``prefill_chunk_tokens``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.db import DB
from repro.core.service import InferenceService
from repro.llm.model import ModelConfig, TransformerModel
from repro.query.types import IndexKind
from repro.sharding import ShardedContextRouter, ShardedSession
from tests.reference_generation import reference_generate

CONFIG = dict(
    window_initial_tokens=8,
    window_last_tokens=16,
    short_context_threshold=64,
    gpu_memory_budget_bytes=1,
    coarse_block_size=32,
)


@pytest.fixture(scope="module")
def model():
    return TransformerModel(ModelConfig.tiny(seed=79))


def _plans(session):
    return [session.plan_for_layer(layer) for layer in range(session.num_layers)]


@pytest.mark.parametrize("sharded", [False, True], ids=["single-owner", "sharded"])
def test_plan_at_creation_is_the_plan_decode_runs(model, sharded):
    document = "plans are decided when the session is created. " * 8
    prompt = document + "when?"
    config = AlayaDBConfig(**CONFIG)
    if sharded:
        router = ShardedContextRouter(model, num_workers=2, config=config)
        router.ingest(document, context_id="doc", num_shards=2)
        db = router.db
    else:
        db = DB(config)
        db.prefill_and_import(model, document, context_id="doc")

    early, _ = db.create_session(prompt)
    assert isinstance(early, ShardedSession) == sharded
    early_plans = _plans(early)
    early.close()
    assert any(plan.index_kind == IndexKind.FINE for plan in early_plans)

    session, suffix = db.create_session(prompt)
    reference_generate(model, suffix, cache=session, max_new_tokens=3)
    assert _plans(session) == early_plans
    assert [session.decode_plan(layer) for layer in range(session.num_layers)] == early_plans
    session.close()


def test_tokens_do_not_depend_on_prefill_chunk_size(model):
    """A suffix of 17 tokens leaves a one-row last chunk at chunk sizes 8 and
    16; that row is prefill and must not run the sparse decode plan."""
    rng = np.random.default_rng(5)
    document = [int(t) for t in rng.integers(3, 256, size=401)]
    suffix = [int(t) for t in rng.integers(3, 256, size=17)]
    service = InferenceService(
        model, AlayaDBConfig(**CONFIG, dipr_beta=1.0, dipr_capacity_threshold=4)
    )
    service.ingest(document, context_id="doc")
    generated = {}
    for chunk in (8, 16, 17, 256):
        handle = service.submit(document + suffix, max_new_tokens=8, prefill_chunk_tokens=chunk)
        result, record = handle.result()
        assert record.reused_tokens == len(document)
        generated[chunk] = result.generated_tokens
    assert generated[8] == generated[16] == generated[17] == generated[256]
