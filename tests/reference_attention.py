"""Scalar reference for one layer of single-token sparse attention (test oracle): head by head,
a scalar window seed, retrieval through the public index/query primitives, one exact softmax over
window ∪ retrieved ∪ local.  Shares no code with the executor, the attention engine or the round."""

from __future__ import annotations

import numpy as np

from repro.core.session import DecodeStepStats
from repro.index.flat import FlatIndex
from repro.llm.attention import decode_attention
from repro.query.dipr import diprs_search, diprs_search_group
from repro.query.filtered import filtered_diprs_search, filtered_diprs_search_group, predicate_mask
from repro.query.topk import graph_topk_search
from repro.query.types import DIPRQuery, IndexKind


def reference_retrieve(plan, keys, fine, coarse, queries, seeds, coarse_num_blocks=32, shared_walk=False):
    """``[(positions, distance computations, hops)]`` for the query heads ``queries`` (g, d) of one KV
    head: its ``keys`` (n, d), RoarGraph ``fine`` / block index ``coarse`` (None when the plan does not
    use it) and one scalar seed per head.  ``shared_walk`` answers a fine DIPR plan with one
    group-frontier walk (its work counted on the first head) instead of one walk per head."""
    query, predicate = plan.query, plan.predicate
    allowed = predicate_mask(keys.shape[0], predicate)
    if plan.index_kind == IndexKind.COARSE:
        num_blocks = max(1, min(coarse_num_blocks, coarse.num_blocks))
        limit = keys.shape[0] if predicate is None else predicate.max_position
        picked = [coarse.selected_positions(q, num_blocks) for q in queries]
        return [(p[p < limit], coarse.num_blocks * coarse.num_representatives, 0) for p in picked]
    if plan.index_kind == IndexKind.FLAT:
        flat = FlatIndex()
        flat.build(keys)
        if isinstance(query, DIPRQuery):  # top(None) keeps everything
            results = [flat.search_range(q, query.beta, allowed=allowed).top(query.max_tokens) for q in queries]
        else:
            results = [flat.search_topk(q, query.k, allowed=allowed) for q in queries]
        return [(r.indices, r.num_distance_computations, 0) for r in results]
    graph, entry = (fine.vectors, fine.graph), [fine.entry_point]
    if not isinstance(query, DIPRQuery):
        results = [graph_topk_search(*graph, q, query.k, entry, ef=query.ef, allowed=allowed) for q in queries]
        return [(r.indices, r.num_distance_computations, 0) for r in results]
    seeds = list(seeds) if plan.use_window_seed else [None] * len(queries)
    limits = dict(capacity_threshold=query.capacity_threshold, max_tokens=query.max_tokens)
    filtered = [] if predicate is None else [predicate]
    if shared_walk:
        search = filtered_diprs_search_group if filtered else diprs_search_group
        group_seeds = np.asarray(seeds, dtype=np.float32) if plan.use_window_seed else None
        results, stats = search(*graph, queries, query.beta, entry, *filtered, window_max_scores=group_seeds, **limits)
        work = [(stats.num_distance_computations, stats.num_hops)] + [(0, 0)] * (len(results) - 1)
        return [(r.indices, *w) for r, w in zip(results, work)]
    search, walk = filtered_diprs_search if filtered else diprs_search, (query.beta, entry, *filtered)
    walks = [search(*graph, q, *walk, window_max_score=s, **limits) for q, s in zip(queries, seeds)]
    return [(r.indices, stats.num_distance_computations, stats.num_hops) for r, stats in walks]


def reference_sparse_attention(session, q, layer, shared_walk=True):
    """``(outputs (H, d), DecodeStepStats)`` a sparse decode of ``q`` (H, d) at ``layer`` must produce.
    Reads the session (after ``update_query``) without changing it; GQA-shared fine indexes only."""
    plan, context, prefix = session.plan_for_layer(layer), session.context, session.reused_prefix_length
    keys, values, window = context.keys(layer), context.values(layer), session.window.positions(prefix)
    local_keys, local_values = session.local_snapshot(layer)
    fine, coarse = context.fine_indexes.get(layer), context.coarse_indexes.get(layer)
    group, outputs, stats = q.shape[0] // keys.shape[0], np.zeros_like(q), DecodeStepStats()
    for kv_head in range(keys.shape[0]):
        heads = list(range(kv_head * group, (kv_head + 1) * group))
        scores = [(keys[kv_head][window] @ q[h], local_keys[kv_head] @ q[h]) for h in heads]
        seeds = [max((float(s.max()) for s in pair if s.size), default=-np.inf) for pair in scores]
        found = reference_retrieve(
            plan, keys[kv_head], fine.indexes[kv_head] if fine else None, coarse[kv_head] if coarse else None,
            q[heads], seeds, session.config.coarse_num_blocks, shared_walk and group > 1,
        )
        for h, (positions, work, hops) in zip(heads, found):
            retrieved = np.setdiff1d(positions[positions < prefix], window)
            attended = np.concatenate([window, retrieved])
            k = np.concatenate([keys[kv_head][attended], local_keys[kv_head]])
            v = np.concatenate([values[kv_head][attended], local_values[kv_head]])
            if k.shape[0]:
                outputs[h] = decode_attention(q[h][None], k[None], v[None])[0]
            stats.merge(DecodeStepStats(len(retrieved), work, hops, len(window), local_keys.shape[1], 1))
    return outputs, stats
