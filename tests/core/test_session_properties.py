"""Property-based tests of session-level invariants.

These exercise the decoupled attention path with randomly shaped inputs and
check the invariants that the data-centric engine and the session bookkeeping
must preserve regardless of configuration: sparse outputs are convex
combinations of values, sequence lengths are additive, and the prefix-reuse
accounting never loses tokens.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attention_engine import AttentionBreakdown, DataCentricAttentionEngine
from repro.core.config import AlayaDBConfig
from repro.core.context_store import ContextStore, StoredContext
from repro.core.session import DecodeStepStats, Session
from repro.index.coarse import CoarseBlockIndex
from repro.index.roargraph import RoarGraphIndex
from repro.kvcache.serialization import KVSnapshot
from repro.llm.attention import decode_attention
from tests.reference_attention import reference_sparse_attention


@settings(deadline=None, max_examples=25)
@given(
    num_tokens=st.integers(min_value=4, max_value=48),
    num_kv_heads=st.sampled_from([1, 2]),
    group_size=st.sampled_from([1, 2, 4]),
    num_window=st.integers(min_value=0, max_value=12),
    num_local=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
def test_layer_output_is_exact_over_attended_union(num_tokens, num_kv_heads, group_size, num_window, num_local, seed):
    """Merging partials over any window/retrieved/local split equals one softmax per head
    (ragged and empty retrieved sets included; a head attending to nothing is zeros)."""
    rng = np.random.default_rng(seed)
    dim = 8
    num_heads = num_kv_heads * group_size
    keys = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    values = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    queries = rng.normal(size=(num_heads, dim)).astype(np.float32)
    window = rng.choice(num_tokens, size=min(num_window, num_tokens), replace=False).astype(np.int64)
    retrieved = [
        rng.choice(num_tokens, size=rng.integers(0, num_tokens + 1), replace=False).astype(np.int64)
        for _ in range(num_heads)
    ]
    local_keys = rng.normal(size=(num_kv_heads, num_local, dim)).astype(np.float32)
    local_values = rng.normal(size=(num_kv_heads, num_local, dim)).astype(np.float32)

    outputs, breakdowns = DataCentricAttentionEngine().layer_output(
        queries,
        keys,
        values,
        window,
        retrieved,
        local_keys=local_keys if num_local else None,
        local_values=local_values if num_local else None,
    )
    for head in range(num_heads):
        kv_head = head // group_size
        attended = np.union1d(window, retrieved[head]).astype(np.int64)
        k = np.concatenate([keys[kv_head][attended], local_keys[kv_head]])
        v = np.concatenate([values[kv_head][attended], local_values[kv_head]])
        if k.shape[0] == 0:
            assert np.allclose(outputs[head], 0.0)
        else:
            expected = decode_attention(queries[head][None], k[None], v[None])[0]
            np.testing.assert_allclose(outputs[head], expected, atol=1e-4)
        assert breakdowns[head].num_window_tokens == window.size
        assert breakdowns[head].num_retrieved_tokens == attended.size - window.size
        assert breakdowns[head].num_local_tokens == num_local


@settings(deadline=None, max_examples=25)
@given(
    num_sessions=st.integers(min_value=1, max_value=4),
    num_ranges=st.integers(min_value=1, max_value=4),
    group_size=st.sampled_from([1, 2, 4]),
    num_window=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_stacked_rows_do_not_depend_on_the_rest_of_the_stack(
    num_sessions, num_ranges, group_size, num_window, seed
):
    """S- and R-invariance: row (s, h) of an S-stack over the context cut into R token
    ranges equals the S = 1, R = 1 call on session s alone (ragged local KV, sessions
    without local KV, heads that retrieve nothing and ranges holding nothing included)."""
    rng = np.random.default_rng(seed)
    num_kv_heads, num_tokens, dim = 2, 40, 8
    num_heads = num_kv_heads * group_size
    keys = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    values = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    queries = rng.normal(size=(num_sessions, num_heads, dim)).astype(np.float32)
    window = rng.choice(num_tokens, size=num_window, replace=False).astype(np.int64)
    retrieved = [
        rng.choice(num_tokens, size=rng.integers(0, 12), replace=False).astype(np.int64)
        for _ in range(num_sessions * num_heads)
    ]
    local_keys, local_values = [], []
    for _ in range(num_sessions):
        length = int(rng.integers(0, 5))
        local_keys.append(rng.normal(size=(num_kv_heads, length, dim)).astype(np.float32) if length else None)
        local_values.append(rng.normal(size=(num_kv_heads, length, dim)).astype(np.float32) if length else None)

    cuts = sorted(rng.choice(np.arange(1, num_tokens), size=num_ranges - 1, replace=False))
    bounds = [0, *(int(c) for c in cuts), num_tokens]
    ranges = [
        (start, keys[:, start:stop], values[:, start:stop])
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    engine = DataCentricAttentionEngine()
    stacked, stacked_counts = engine.stacked_layer_output(
        queries[:, :, None], ranges, window, retrieved, local_keys, local_values
    )
    assert stacked.shape == (num_sessions, num_heads, 1, dim)
    for s in range(num_sessions):
        rows = slice(s * num_heads, (s + 1) * num_heads)
        alone, alone_breakdowns = engine.layer_output(
            queries[s], keys, values, window, retrieved[rows], local_keys[s], local_values[s]
        )
        np.testing.assert_allclose(stacked[s, :, 0], alone, atol=1e-5)
        assert [AttentionBreakdown(*row) for row in stacked_counts[:, rows].T.tolist()] == alone_breakdowns


@pytest.mark.parametrize("num_tokens", [600, 1250, 1600])
@pytest.mark.parametrize("plan", ["full", "retrieved"])
def test_stacked_rows_are_bitwise_independent_of_the_stack_at_serving_sizes(plan, num_tokens):
    """The contract batched == solo token identity leans on: at serving sizes, row (s, h) of an
    S-stack is *bit for bit* the S = 1 call, for S = 1..12 with ragged local KV (none .. 300
    tokens) — under full attention and under a retrieved plan with ragged per-head sets.
    (A stacked ``(S * g, n) @ (n, d)`` gemm, or padding the local KV or the retrieved sets to
    the stack's longest, breaks this in the last bits.)"""
    rng = np.random.default_rng(num_tokens)
    num_kv_heads, group_size, dim, max_sessions = 2, 4, 16, 12
    num_heads = num_kv_heads * group_size
    keys = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    values = rng.normal(size=(num_kv_heads, num_tokens, dim)).astype(np.float32)
    queries = rng.normal(size=(max_sessions, num_heads, dim)).astype(np.float32)
    lengths = [0, 300, *(int(m) for m in rng.integers(0, 301, size=max_sessions - 2))]
    local_keys = [rng.normal(size=(num_kv_heads, m, dim)).astype(np.float32) for m in lengths]
    local_values = [rng.normal(size=(num_kv_heads, m, dim)).astype(np.float32) for m in lengths]
    window = np.concatenate([np.arange(32), np.arange(num_tokens - 96, num_tokens)])
    retrieved = None
    if plan == "retrieved":
        retrieved = [
            rng.choice(num_tokens, size=int(rng.integers(0, 200)), replace=False).astype(np.int64)
            for _ in range(max_sessions * num_heads)
        ]
    engine = DataCentricAttentionEngine()

    def stack(first, stop):
        rows = slice(first * num_heads, stop * num_heads)
        return engine.stacked_layer_output(
            queries[first:stop, :, None],
            [(0, keys, values)],
            window,
            None if retrieved is None else retrieved[rows],
            local_keys[first:stop],
            local_values[first:stop],
        )[0]

    alone = [stack(s, s + 1)[0] for s in range(max_sessions)]
    for num_sessions in range(1, max_sessions + 1):
        stacked = stack(0, num_sessions)
        for s in range(num_sessions):
            np.testing.assert_array_equal(stacked[s], alone[s])


def _sparse_context(
    rng, *, num_kv_heads, num_tokens, head_dim, kinds=("fine", "coarse")
):
    """A stored context with fine + coarse indexes over random keys: one RoarGraph per KV head
    (GQA-shared), each built from its own query sample."""
    keys = rng.normal(size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
    values = rng.normal(size=(num_kv_heads, num_tokens, head_dim)).astype(np.float32)
    snapshot = KVSnapshot(tokens=list(range(num_tokens)), keys={0: keys}, values={0: values})
    context = StoredContext(context_id="sparse", snapshot=snapshot)
    if "fine" in kinds:
        indexes = []
        for kv_head in range(num_kv_heads):
            index = RoarGraphIndex()
            index.build(keys[kv_head], query_sample=rng.normal(size=(64, head_dim)).astype(np.float32))
            indexes.append(index)
        context.fine_indexes[0] = indexes
    if "coarse" in kinds:
        coarse = []
        for kv_head in range(num_kv_heads):
            index = CoarseBlockIndex(block_size=16)
            index.build(keys[kv_head])
            coarse.append(index)
        context.coarse_indexes[0] = coarse
    return context


_PLAN_CONFIGS = {
    # layer 0 is in flat_index_layers by default -> DIPR over the flat index
    "flat": dict(gpu_memory_budget_bytes=1),
    # empty flat_index_layers -> DIPR over the fine (RoarGraph) index
    "fine": dict(gpu_memory_budget_bytes=1, flat_index_layers=()),
    # huge budget -> top-k over the coarse block index
    "coarse": dict(gpu_memory_budget_bytes=10**18, topk_k=24, coarse_num_blocks=3),
    # threshold above any test context -> exact full attention (sanity row)
    "full": dict(short_context_threshold=100_000),
}

_VARIANTS = {
    "plain": dict(),
    "gqa4": dict(group_size=4),
    "gqa1": dict(group_size=1),
    "empty-window": dict(window=(0, 0)),
    "no-local": dict(local_steps=0),
    "partial-reuse": dict(reuse_offset=40),
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("plan_kind", sorted(_PLAN_CONFIGS))
def test_session_decode_matches_reference(plan_kind, variant):
    """Every plan kind x GQA / window / local / reuse variant: the session's output and integer
    DecodeStepStats equal the scalar per-head oracle's, step by step."""
    options = _VARIANTS[variant]
    group_size = options.get("group_size", 2)
    window_initial, window_last = options.get("window", (4, 8))
    local_steps = options.get("local_steps", 2)
    reuse_offset = options.get("reuse_offset", 0)
    num_kv_heads, head_dim, num_tokens = 2, 8, 160
    num_heads = num_kv_heads * group_size

    config_kwargs = dict(
        window_initial_tokens=window_initial,
        window_last_tokens=window_last,
        short_context_threshold=16,
        dipr_capacity_threshold=32,
    )
    config_kwargs.update(_PLAN_CONFIGS[plan_kind])
    # stable per-combo seed (builtin hash() is randomized per process)
    rng = np.random.default_rng(sum(ord(c) * i for i, c in enumerate(plan_kind + "/" + variant, start=1)))
    context = _sparse_context(
        rng,
        num_kv_heads=num_kv_heads,
        num_tokens=num_tokens,
        head_dim=head_dim,
    )
    session = Session(
        AlayaDBConfig(**config_kwargs),
        context=context,
        reused_prefix_length=num_tokens - reuse_offset,
        num_layers=1,
    )
    step_rng = np.random.default_rng(9000)
    for _ in range(local_steps + 1):
        q = step_rng.normal(size=(num_heads, 1, head_dim)).astype(np.float32)
        k = step_rng.normal(size=(num_kv_heads, 1, head_dim)).astype(np.float32)
        v = step_rng.normal(size=(num_kv_heads, 1, head_dim)).astype(np.float32)
        session.update_query(q, k, v, layer=0)
        output = session.attention(q, layer=0)
        if plan_kind == "full":
            assert session.plan_for_layer(0).is_full
            keys, values = session.materialized_kv(0)
            np.testing.assert_allclose(output[:, 0, :], decode_attention(q[:, 0, :], keys, values), atol=1e-4)
            assert session.last_decode_stats == DecodeStepStats(
                num_selected_tokens=num_heads * session.reused_prefix_length,
                num_local_tokens=num_heads * session.local_length(0),
                num_heads=num_heads,
            )
            continue
        assert session.plan_for_layer(0).index_kind == plan_kind
        expected, expected_stats = reference_sparse_attention(session, q[:, 0, :], 0)
        np.testing.assert_allclose(output[:, 0, :], expected, atol=1e-4)
        assert session.last_decode_stats == expected_stats


@settings(deadline=None, max_examples=20)
@given(
    prefix=st.integers(min_value=0, max_value=40),
    appended=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=6),
    seed=st.integers(min_value=0, max_value=100),
)
def test_sequence_length_is_additive(prefix, appended, seed):
    """sequence_length == reused prefix + locally appended tokens."""
    rng = np.random.default_rng(seed)
    context = None
    if prefix > 0:
        keys = {0: rng.normal(size=(1, prefix, 4)).astype(np.float32)}
        values = {0: rng.normal(size=(1, prefix, 4)).astype(np.float32)}
        snapshot = KVSnapshot(tokens=list(range(prefix)), keys=keys, values=values)
        context = StoredContext(context_id="p", snapshot=snapshot)
    session = Session(AlayaDBConfig(), context=context, reused_prefix_length=prefix, num_layers=1)
    total_appended = 0
    for chunk in appended:
        q = rng.normal(size=(2, chunk, 4)).astype(np.float32)
        k = rng.normal(size=(1, chunk, 4)).astype(np.float32)
        v = rng.normal(size=(1, chunk, 4)).astype(np.float32)
        session.update_query(q, k, v, layer=0)
        total_appended += chunk
    assert session.sequence_length(0) == prefix + total_appended


@settings(deadline=None, max_examples=20)
@given(
    shared=st.integers(min_value=0, max_value=30),
    extra_a=st.integers(min_value=1, max_value=20),
    extra_b=st.integers(min_value=1, max_value=20),
)
def test_prefix_matching_is_exactly_the_common_prefix(shared, extra_a, extra_b):
    """The context store finds exactly the shared prefix, never more."""
    store = ContextStore()
    stored_tokens = list(range(shared)) + [1000 + i for i in range(extra_a)]
    keys = {0: np.zeros((1, len(stored_tokens), 4), dtype=np.float32)}
    values = {0: np.zeros((1, len(stored_tokens), 4), dtype=np.float32)}
    store.add(StoredContext("ctx", KVSnapshot(tokens=stored_tokens, keys=keys, values=values)))
    probe = list(range(shared)) + [2000 + i for i in range(extra_b)]
    match = store.find_longest_prefix(probe)
    if shared == 0:
        assert match.prefix_length == 0
    else:
        assert match.prefix_length == shared
