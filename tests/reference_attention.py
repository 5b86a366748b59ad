"""Scalar references (test oracles).

``reference_diprs`` is Algorithm 1 node by node; ``reference_sparse_attention`` is one layer of
single-token sparse attention head by head: a scalar window seed, retrieval by a per-query flat scan
(``keys @ q``), the coarse index's block selection one query at a time or ``reference_diprs``, one
exact softmax over window ∪ retrieved ∪ local.  Neither shares code with the flat index, the DIPRS
walk, the executor, the attention engine or the round."""

from __future__ import annotations

import numpy as np

from repro.core.session import DecodeStepStats
from repro.index.base import SearchResult
from repro.llm.attention import decode_attention
from repro.query.dipr import DIPRSearchStats
from repro.query.filtered import predicate_mask
from repro.query.types import DIPRQuery, IndexKind


def reference_diprs(
    vectors,
    graph,
    queries,
    beta,
    entry_points,
    capacity_threshold=32,
    window_max_scores=None,
    allowed=None,
    predicate=None,
    max_tokens=None,
):
    """Algorithm 1 for the ``(g, d)`` query rows ``queries`` walking one graph together, one
    ``try_append`` per (scored node, head) in visit order: a node is appended below the capacity
    threshold or within ``beta`` of the head's best-so-far, and expanded once any head appends it
    (at ``g = 1``: every appended node, the paper's candidate-list walk).  Disallowed nodes are
    scored but never appended.  ``predicate`` makes it the filtered walk: positions at or past
    ``max_position`` are disallowed, expansion reaches the 2-hop neighbourhood, and when no entry
    point is appended the walk restarts from the first ``max(1, l0 // 4)`` allowed positions.
    Hops are scored as ``queries @ vectors[fresh].T``, the walk's own expression, so results
    compare bit for bit.  Returns one ``(SearchResult, DIPRSearchStats)`` per row."""
    vectors = np.asarray(vectors, dtype=np.float32)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    num_heads = queries.shape[0]
    if predicate is not None:
        allowed = np.arange(graph.num_nodes) < predicate.max_position
    best = [-np.inf] * num_heads if window_max_scores is None else [float(s) for s in window_max_scores]
    ids, scores = [[] for _ in range(num_heads)], [[] for _ in range(num_heads)]
    stats = [DIPRSearchStats() for _ in range(num_heads)]
    visited = np.zeros(graph.num_nodes, dtype=bool)
    frontier = []

    def visit(nodes):
        visited[nodes] = True
        for node, column in zip(nodes.tolist(), (queries @ vectors[nodes].T).T):
            appended = False
            for head, score in enumerate(column.tolist()):
                stats[head].num_distance_computations += 1
                if allowed is not None and not allowed[node]:
                    stats[head].num_pruned += 1
                elif len(ids[head]) < capacity_threshold or score >= best[head] - beta:
                    ids[head].append(node)
                    scores[head].append(score)
                    best[head] = max(best[head], score)
                    stats[head].num_appended += 1
                    appended = True
                else:
                    stats[head].num_pruned += 1
            if appended:
                frontier.append(node)

    entries = list(dict.fromkeys(int(e) for e in np.atleast_1d(entry_points)))
    if entries:
        visit(np.asarray(entries, dtype=np.int64))
    if predicate is not None and not frontier:
        seeds = np.flatnonzero(allowed)[: max(1, capacity_threshold // 4)]
        if (seeds := seeds[~visited[seeds]]).size:
            visit(seeds)
    for node in frontier:  # grows while it is walked
        for head_stats in stats:
            head_stats.num_hops += 1
        expansion = graph.neighbors(node)  # adjacency order; the 2-hop set is visited sorted
        if predicate is not None:
            reach = {n for hop in expansion.tolist() for n in [hop, *graph.neighbors(hop).tolist()]}
            expansion = np.asarray(sorted(reach), dtype=np.int64)
        if (fresh := expansion[~visited[expansion]]).size:
            visit(fresh)

    results = []
    for head in range(num_heads):
        found, found_scores = np.asarray(ids[head], dtype=np.int64), np.asarray(scores[head], dtype=np.float32)
        keep = found_scores >= np.float64(best[head]) - beta
        found, found_scores = found[keep], found_scores[keep]
        order = np.argsort(-found_scores)[:max_tokens]
        distance_computations = stats[head].num_distance_computations
        results.append((SearchResult(found[order], found_scores[order], distance_computations), stats[head]))
    return results


def reference_retrieve(plan, keys, fine, coarse, queries, seeds, coarse_num_blocks=32, shared_walk=False):
    """``[(positions, distance computations, hops)]`` for the query heads ``queries`` (g, d) of one KV
    head: its ``keys`` (n, d), RoarGraph ``fine`` / block index ``coarse`` (None when the plan does not
    use it) and one scalar seed per head.  ``shared_walk`` answers a fine DIPR plan with one walk for
    all ``g`` heads (its work counted on the first head) instead of one walk per head."""
    query, predicate = plan.query, plan.predicate
    allowed = predicate_mask(keys.shape[0], predicate)
    if plan.index_kind == IndexKind.COARSE:
        num_blocks = max(1, min(coarse_num_blocks, coarse.num_blocks))
        limit = keys.shape[0] if predicate is None else predicate.max_position
        top = [coarse.top_blocks_from_scores(coarse.block_scores_batch(q[None]), num_blocks)[0] for q in queries]
        picked = [coarse.positions_of_blocks(blocks) for blocks in top]
        # a block scores its mean and up to num_representatives - 1 of its tokens
        starts, stops = coarse.block_bounds
        scored = int(np.sum(1 + np.minimum(coarse.num_representatives - 1, stops - starts)))
        return [(p[p < limit], scored, 0) for p in picked]
    if plan.index_kind == IndexKind.FLAT:
        found = []
        for q in queries:
            scores = keys @ q
            if allowed is not None:
                scores = np.where(allowed, scores, -np.inf)
            order = np.argsort(-scores, kind="stable")
            if isinstance(query, DIPRQuery):
                order = order[scores[order] >= scores.max() - query.beta][: query.max_tokens]
            else:
                order = order[: query.k][np.isfinite(scores[order[: query.k]])]
            found.append((order, keys.shape[0], 0))
        return found
    graph, entry = (fine.vectors, fine.graph), [fine.entry_point]
    seeds = np.asarray(seeds, dtype=np.float32) if plan.use_window_seed else None
    limits = dict(capacity_threshold=query.capacity_threshold, predicate=predicate, max_tokens=query.max_tokens)
    found = []
    for rows in [list(range(len(queries)))] if shared_walk else [[h] for h in range(len(queries))]:
        row_seeds = None if seeds is None else seeds[rows]
        walk = reference_diprs(*graph, queries[rows], query.beta, entry, window_max_scores=row_seeds, **limits)
        (first, work), rest = walk[0], walk[1:]
        found.append((first.indices, work.num_distance_computations, work.num_hops))
        found += [(r.indices, 0, 0) for r, _ in rest]
    return found


def reference_sparse_attention(session, q, layer, shared_walk=True):
    """``(outputs (H, d), DecodeStepStats)`` a sparse decode of ``q`` (H, d) at ``layer`` must produce.
    Reads the session (after ``update_query``) without changing it.  A KV head's fine index is walked
    once for its query heads (or once per head without ``shared_walk``)."""
    plan, context, prefix = session.plan_for_layer(layer), session.context, session.reused_prefix_length
    keys, values, window = context.keys(layer), context.values(layer), session.window.positions(prefix)
    local_keys, local_values = session.local_snapshot(layer)
    fine, coarse = context.fine_indexes.get(layer), context.coarse_indexes.get(layer)
    group, outputs, stats = q.shape[0] // keys.shape[0], np.zeros_like(q), DecodeStepStats()
    for kv_head in range(keys.shape[0]):
        heads = list(range(kv_head * group, (kv_head + 1) * group))
        scores = [(keys[kv_head][window] @ q[h], local_keys[kv_head] @ q[h]) for h in heads]
        seeds = np.asarray([max((float(s.max()) for s in pair if s.size), default=-np.inf) for pair in scores])
        found = reference_retrieve(
            plan, keys[kv_head], fine[kv_head] if fine else None, coarse[kv_head] if coarse else None,
            q[heads], seeds, session.config.coarse_num_blocks, shared_walk,
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
