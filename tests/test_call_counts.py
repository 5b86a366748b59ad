"""A ratchet on the Python/NumPy calls of a serving round's hot path.

At the 1–3 rows a decode round holds, a block's cost is NumPy's per-call
floor, not arithmetic, so the number of calls is the cost.  The counts are
the ``call`` + ``c_call`` profile events (``sys.setprofile``) of one
transformer block over one row and of one single-token full-attention
group: Python functions, C functions and array methods.  Operators and
ufuncs raise no event, so this bounds the glue around the arithmetic,
not the arithmetic.  A change that adds calls here must show up in review:
measure the round (ROADMAP aim 1) before raising a bound.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.core.config import AlayaDBConfig
from repro.core.decode_round import CrossRequestDecodeRound
from repro.core.session import Session, group_attention
from repro.llm.model import ModelConfig, TransformerModel
from tests.conftest import make_context

BENCH = ModelConfig(dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=20250925)
"""The serving benchmark's model."""

BLOCK_EVENTS = 13
GROUP_ATTENTION_EVENTS = 44
PREFILL_CHUNK_EVENTS = 74
MIXED_ROUND_EVENTS = 149
UPDATE_QUERY_EVENTS = 12


def _profile_events(run) -> int:
    """``call`` + ``c_call`` events while ``run()`` executes (the first
    warms every lazily-built cache up).  The garbage collector is held off
    so no finalizer of an earlier test's objects runs inside the count."""
    run()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return count


class _StubRound:
    """An attention hook that attends nothing: the block alone is counted."""

    def __init__(self, width: int):
        self.output = np.zeros((1, width), dtype=np.float32)

    def layer_attention(self, layer, q, k, v, caches, rows):
        return self.output


def test_block_forward_over_one_row():
    model = TransformerModel(BENCH)
    layer = model.layers[0]
    hidden = np.random.default_rng(0).normal(size=(1, BENCH.dim)).astype(np.float32)
    cos, sin = model.rope.tables(np.asarray([7]))
    hook = _StubRound(BENCH.num_query_heads * BENCH.head_dim)
    count = _profile_events(lambda: layer.forward(hidden, [None], [1], cos, sin, hook))
    assert count <= BLOCK_EVENTS, (
        f"one block over one row makes {count} profile events, above the ratchet of "
        f"{BLOCK_EVENTS}: the forward's calls are its cost at serving batch sizes"
    )


def _connected_session(context, rng) -> Session:
    """A session reusing ``context``, with three local rows at every layer."""
    session = Session(AlayaDBConfig(), context=context, num_layers=BENCH.num_layers)
    for layer in range(BENCH.num_layers):
        q = rng.normal(size=(BENCH.num_query_heads, 3, BENCH.head_dim)).astype(np.float32)
        kv = rng.normal(size=(BENCH.num_kv_heads, 3, BENCH.head_dim)).astype(np.float32)
        session.update_query(q, kv, kv, layer)
    return session


def _bench_context():
    return make_context(
        num_layers=BENCH.num_layers, num_kv_heads=BENCH.num_kv_heads, num_tokens=200, head_dim=BENCH.head_dim
    )


def _round_rows(rng, num_rows: int):
    """Projected ``q``, ``k``, ``v`` of ``num_rows`` rows, as a block hands them to the round."""
    q = rng.normal(size=(BENCH.num_query_heads, num_rows, BENCH.head_dim)).astype(np.float32)
    k = rng.normal(size=(BENCH.num_kv_heads, num_rows, BENCH.head_dim)).astype(np.float32)
    v = rng.normal(size=(BENCH.num_kv_heads, num_rows, BENCH.head_dim)).astype(np.float32)
    return q, k, v


def test_single_token_full_attention_group():
    """``group_attention`` with S = 1 under a full-attention plan: a session
    reusing a stored context, with local KV of its own."""
    rng = np.random.default_rng(1)
    session = _connected_session(_bench_context(), rng)
    members = [(session, session.layer_inputs(1))]
    assert members[0][1].plan.is_full and len(members[0][1].ranges) == 1
    queries = rng.normal(size=(1, BENCH.num_query_heads, 1, BENCH.head_dim)).astype(np.float32)
    count = _profile_events(lambda: group_attention(1, members, queries))
    assert count <= GROUP_ATTENTION_EVENTS, (
        f"a one-session full-attention group makes {count} profile events, above the "
        f"ratchet of {GROUP_ATTENTION_EVENTS}: the attention glue's calls are its cost"
    )


def test_prefill_chunk_layer():
    """One layer of a round holding one 16-row prefill chunk of a connected
    session: the KV append, the group's inputs and the one attention call."""
    rng = np.random.default_rng(2)
    session = _connected_session(_bench_context(), rng)
    q, k, v = _round_rows(rng, 16)
    attention_round = CrossRequestDecodeRound([session], [True])
    count = _profile_events(lambda: attention_round.layer_attention(1, q, k, v, [session], [16]))
    assert count <= PREFILL_CHUNK_EVENTS, (
        f"a 16-row prefill chunk-layer makes {count} profile events, above the ratchet of "
        f"{PREFILL_CHUNK_EVENTS}: prefill rows take the one attention entry, not a second path"
    )


def test_mixed_round_layer():
    """One layer of a round holding that 16-row chunk plus one decode token
    of another session on the same context: two groups, one entry."""
    rng = np.random.default_rng(3)
    context = _bench_context()
    sessions = [_connected_session(context, rng), _connected_session(context, rng)]
    q, k, v = _round_rows(rng, 17)
    attention_round = CrossRequestDecodeRound(sessions, [True, False])
    count = _profile_events(lambda: attention_round.layer_attention(1, q, k, v, sessions, [16, 1]))
    assert count <= MIXED_ROUND_EVENTS, (
        f"a round-layer of a prefill chunk and a decode token makes {count} profile events, "
        f"above the ratchet of {MIXED_ROUND_EVENTS}"
    )


@pytest.mark.parametrize("num_rows", [1, 16])
def test_update_query_on_a_fine_layer(num_rows):
    """``Session.update_query`` at layer 1, outside ``flat_index_layers``:
    the local KV append plus the query rows the sampling rule picks, the
    same calls whether one row arrives or a chunk of sixteen."""
    rng = np.random.default_rng(4)
    session = _connected_session(_bench_context(), rng)
    q, k, v = _round_rows(rng, num_rows)
    count = _profile_events(lambda: session.update_query(q, k, v, 1))
    assert count <= UPDATE_QUERY_EVENTS, (
        f"recording {num_rows} row(s) makes {count} profile events, above the ratchet of "
        f"{UPDATE_QUERY_EVENTS}: every prefill chunk and decode token pays them per layer"
    )
