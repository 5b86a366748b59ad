"""Sparse decode — the per-token attention hot path, per plan mix.

One session decodes against a stored long context through the one execution
of single-token sparse attention (``sparse_group_attention``: window seeds →
``PlanExecutor.retrieve_heads`` → one stacked partial-attention merge), per
plan mix (Figure 8's optimizer outputs):

* **flat scan** — DIPR over the flat index on every layer: one
  ``(g, d) @ (d, n)`` score matrix per GQA group;
* **coarse top-k** — the large-budget / InfLLM path: the
  query-to-representative matmul and the block top-k are shared per group;
* **dipr (flat + fine)** — the paper's limited-budget mix (flat layer 0,
  RoarGraph elsewhere): the RoarGraph is walked **once per GQA group**
  (shared visited set + frontier, fused hop matmuls).

The table reports per-token latency, graph hops, distance computations and
selected tokens per head for each mix.  For the fine mix the same queries and
window seeds are also answered with one solo ``diprs_search`` per query head
(untimed): the group walk must do **at most** that sum of distance
computations (asserted at every size, including the CI smoke run).
``BENCH_SMOKE=1`` shrinks the workload for CI sanity runs.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.common import emit, run_once, smoke_mode, write_bench_json
from repro.analysis.reporting import format_table
from repro.core.config import AlayaDBConfig
from repro.core.context_store import StoredContext
from repro.core.session import Session
from repro.index.builder import LayerIndexes
from repro.index.coarse import CoarseBlockIndex
from repro.index.roargraph import RoarGraphIndex
from repro.kvcache.serialization import KVSnapshot
from repro.query.dipr import diprs_search
from repro.query.types import IndexKind

EXPERIMENT = "Sparse decode per plan mix"

SMOKE = smoke_mode()
NUM_KV_HEADS = 2 if SMOKE else 8
GQA_GROUP_SIZE = 4
NUM_HEADS = NUM_KV_HEADS * GQA_GROUP_SIZE  # 8 smoke / 32 full
NUM_LAYERS = 2
HEAD_DIM = 16
CONTEXT_TOKENS = 256 if SMOKE else 2048
DECODE_TOKENS = 3 if SMOKE else 15
FINE_MIX = "dipr (flat+fine)"

BASE_CONFIG = dict(
    short_context_threshold=64,
    window_initial_tokens=16 if SMOKE else 64,
    window_last_tokens=32 if SMOKE else 128,
    dipr_beta=6.0,
    scale_beta_to_head_dim=False,
    dipr_capacity_threshold=16,
)

#: plan mixes: config knobs routing the optimizer to each execution path
MIXES = {
    "flat scan": dict(gpu_memory_budget_bytes=1, flat_index_layers=tuple(range(NUM_LAYERS))),
    "coarse top-k": dict(gpu_memory_budget_bytes=10**18, topk_k=64, coarse_num_blocks=4),
    "dipr (flat+fine)": dict(gpu_memory_budget_bytes=1),
}


def _build_context(rng):
    """A stored context with clustered keys (attention-like) plus all indexes."""
    keys, values, directions = {}, {}, {}
    cluster_size = max(8, CONTEXT_TOKENS // 32)
    for layer in range(NUM_LAYERS):
        layer_keys = rng.normal(0, 0.35, size=(NUM_KV_HEADS, CONTEXT_TOKENS, HEAD_DIM)).astype(np.float32)
        directions[layer] = []
        for kv_head in range(NUM_KV_HEADS):
            direction = rng.normal(size=HEAD_DIM)
            direction /= np.linalg.norm(direction)
            cluster = rng.choice(CONTEXT_TOKENS, size=cluster_size, replace=False)
            layer_keys[kv_head, cluster] += (4.0 * direction).astype(np.float32)
            directions[layer].append(direction)
        keys[layer] = layer_keys
        values[layer] = rng.normal(size=(NUM_KV_HEADS, CONTEXT_TOKENS, HEAD_DIM)).astype(np.float32)
    snapshot = KVSnapshot(tokens=list(range(CONTEXT_TOKENS)), keys=keys, values=values)
    context = StoredContext(context_id="bench-sparse", snapshot=snapshot)
    for layer in range(NUM_LAYERS):
        fine, coarse = [], []
        for kv_head in range(NUM_KV_HEADS):
            samples = (
                np.asarray(directions[layer][kv_head])[None, :] * np.sqrt(HEAD_DIM)
                + rng.normal(0, 0.8, size=(max(64, CONTEXT_TOKENS // 5), HEAD_DIM))
            ).astype(np.float32)
            index = RoarGraphIndex()
            index.build(keys[layer][kv_head], query_sample=samples)
            fine.append(index)
            block_index = CoarseBlockIndex(block_size=64)
            block_index.build(keys[layer][kv_head])
            coarse.append(block_index)
        context.fine_indexes[layer] = LayerIndexes(
            layer=layer, indexes=fine, shared=True, gqa_group_size=GQA_GROUP_SIZE
        )
        context.coarse_indexes[layer] = coarse
    return context, directions


def _per_head_walk_work(session: Session, layer: int, queries: np.ndarray) -> tuple[int, int]:
    """(distance computations, hops) of one solo ``diprs_search`` per query head
    for the fine retrieval the session is about to run at ``layer``."""
    inputs = session.sparse_layer_inputs(layer)
    query = inputs.plan.query
    seeds = session.fine_window_seeds(inputs, queries)
    distance = hops = 0
    for head in range(NUM_HEADS):
        index = inputs.ranges[0].fine_index_for_query_head(head)
        _, stats = diprs_search(
            index.vectors,
            index.graph,
            queries[head],
            query.beta,
            [index.entry_point],
            capacity_threshold=query.capacity_threshold,
            window_max_score=float(seeds[head]),
            max_tokens=query.max_tokens,
        )
        distance += stats.num_distance_computations
        hops += stats.num_hops
    return distance, hops


def _decode(config: AlayaDBConfig, context, directions):
    """Decode DECODE_TOKENS tokens; returns one result row for the mix."""
    session = Session(
        config, context=context, reused_prefix_length=context.num_tokens, num_layers=NUM_LAYERS
    )
    rng = np.random.default_rng(93)
    seconds = 0.0
    fine_distance = fine_hops = per_head_distance = per_head_hops = 0
    for _ in range(DECODE_TOKENS):
        for layer in range(NUM_LAYERS):
            q = np.stack(
                [
                    directions[layer][head // GQA_GROUP_SIZE] * np.sqrt(HEAD_DIM)
                    + rng.normal(0, 0.5, HEAD_DIM)
                    for head in range(NUM_HEADS)
                ]
            ).astype(np.float32)[:, None, :]
            k = rng.normal(0, 0.35, size=(NUM_KV_HEADS, 1, HEAD_DIM)).astype(np.float32)
            v = rng.normal(size=(NUM_KV_HEADS, 1, HEAD_DIM)).astype(np.float32)
            session.update_query(q, k, v, layer)
            fine = session.plan_for_layer(layer).index_kind == IndexKind.FINE
            if fine:
                distance, hops = _per_head_walk_work(session, layer, q[:, 0, :])
                per_head_distance += distance
                per_head_hops += hops
            start = time.perf_counter()
            session.attention(q, layer)
            seconds += time.perf_counter() - start
            if fine:
                fine_distance += session.last_decode_stats.num_distance_computations
                fine_hops += session.last_decode_stats.num_graph_hops
    stats = session.total_decode_stats
    return {
        "ms_per_token": seconds / DECODE_TOKENS * 1000,
        "hops": stats.num_graph_hops,
        "distance": stats.num_distance_computations,
        "selected_per_head": stats.mean_selected_per_head,
        "plan": session.plan_for_layer(NUM_LAYERS - 1).describe(),
        "fine_layers": {
            "group_distance": fine_distance,
            "group_hops": fine_hops,
            "per_head_distance": per_head_distance,
            "per_head_hops": per_head_hops,
        },
    }


def _sweep():
    rng = np.random.default_rng(0)
    context, directions = _build_context(rng)
    return {
        mix: _decode(AlayaDBConfig(**{**BASE_CONFIG, **overrides}), context, directions)
        for mix, overrides in MIXES.items()
    }


def test_sparse_decode_per_plan_mix(benchmark):
    results = run_once(benchmark, _sweep)

    rows = [
        [
            mix,
            r["plan"],
            round(r["ms_per_token"], 2),
            r["hops"],
            r["distance"],
            round(r["selected_per_head"], 1),
        ]
        for mix, r in results.items()
    ]
    walks = results[FINE_MIX]["fine_layers"]
    lines = [
        format_table(
            ["plan mix", "last-layer plan", "ms/tok", "graph hops", "distance comps", "sel/head"],
            rows,
            title=(
                f"--- sparse decode, {NUM_HEADS} query heads "
                f"({NUM_KV_HEADS} KV x group {GQA_GROUP_SIZE}), "
                f"{CONTEXT_TOKENS} stored tokens, {NUM_LAYERS} layers ---"
            ),
        ),
        format_table(
            ["fine layers", "graph hops", "distance comps"],
            [
                ["solo walk per head (diprs_search)", walks["per_head_hops"], walks["per_head_distance"]],
                ["group frontier (served)", walks["group_hops"], walks["group_distance"]],
            ],
            title=(
                f"--- {FINE_MIX} mix: one DIPRS walk per GQA group of {GQA_GROUP_SIZE} "
                f"vs one per query head, same queries and seeds ---"
            ),
        ),
    ]
    emit(EXPERIMENT, "\n".join(lines))

    write_bench_json(
        EXPERIMENT,
        metrics={
            mix: {key: r[key] for key in ("ms_per_token", "hops", "distance", "selected_per_head")}
            for mix, r in results.items()
        }
        | {"group_frontier": walks},
        config={
            "num_heads": NUM_HEADS,
            "num_kv_heads": NUM_KV_HEADS,
            "gqa_group_size": GQA_GROUP_SIZE,
            "context_tokens": CONTEXT_TOKENS,
            "num_layers": NUM_LAYERS,
            "decode_tokens": DECODE_TOKENS,
        },
    )

    # the shared walk must do at most the per-head sum of distance
    # computations (asserted in smoke mode too, so CI catches accounting
    # regressions)
    assert walks["per_head_distance"] > 0, "the fine mix ran no fine retrieval"
    assert walks["group_distance"] <= walks["per_head_distance"], (
        f"group frontier did more scoring work than the per-head walks: "
        f"{walks['group_distance']} > {walks['per_head_distance']}"
    )
    if not SMOKE:
        assert walks["group_distance"] < walks["per_head_distance"]
