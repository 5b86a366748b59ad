"""DIPRS: the approximate DIPR query processing algorithm (Algorithm 1).

A DIPR query returns every key whose inner product with the query is within
``beta`` of the *maximum* inner product.  The number of results is unknown
until the maximiser is found, so the classic fixed-``ef`` beam search does not
apply directly.  DIPRS instead maintains an **unordered candidate list with
variable capacity** and prunes exploration against the best-so-far maximum:

* while the list holds fewer than ``capacity_threshold`` (``l0``) elements,
  every explored point is appended — this widens the early search so the true
  maximiser is found quickly (design principle i);
* once past the threshold, a point is appended only if its inner product is
  within ``beta`` of the current best — non-critical regions of the graph are
  not explored (design principle ii).

The *window-cache enhancement* of Section 7.1 seeds the best-so-far maximum
with the largest inner product found in the GPU-resident token window, which
tightens the pruning bound from the first hop.

One walk answers every graph DIPR query: :func:`group_frontier_search`
serves the ``g`` query heads of a GQA group that read one RoarGraph (Section
7.2) with a single traversal, and Algorithm 1 for one query is its ``g = 1``
case.  :func:`diprs_search_group`, :func:`diprs_search` and the filtered
variants in :mod:`repro.query.filtered` are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..index.base import SearchResult
from ..index.graph import NeighborGraph

__all__ = [
    "DIPRSearchStats",
    "FrontierScratch",
    "GroupDIPRSearchStats",
    "diprs_search",
    "diprs_search_group",
    "exact_dipr",
]


class FrontierScratch:
    """Reusable scratch buffers for a run of group-frontier walks.

    A cross-request decode round dispatches one group walk per (session,
    GQA group) from a single loop; each walk needs a ``visited`` bitmap the
    size of its graph.  Holding one buffer here (grown to the largest graph
    seen, reset with a cheap memset per walk) avoids one fresh allocation
    per walk and keeps every dispatch in the round on the same warm memory.
    """

    def __init__(self) -> None:
        self._visited = np.zeros(0, dtype=bool)

    def visited(self, num_nodes: int) -> np.ndarray:
        """A zeroed ``(num_nodes,)`` boolean view, reused across walks."""
        if self._visited.shape[0] < num_nodes:
            self._visited = np.zeros(num_nodes, dtype=bool)
            return self._visited
        view = self._visited[:num_nodes]
        view[:] = False
        return view


@dataclass
class DIPRSearchStats:
    """Work counters of one DIPRS search."""

    num_distance_computations: int = 0
    num_hops: int = 0
    num_appended: int = 0
    num_pruned: int = 0


@dataclass
class GroupDIPRSearchStats:
    """Work counters of one group-frontier DIPRS search.

    ``num_distance_computations`` and ``num_hops`` count the *shared* walk
    once per group: every visited node is gathered from storage and scored for
    all heads by a single fused matmul, so one node is one distance
    computation regardless of the group size.  ``per_head`` mirrors the
    per-head view of the same walk (appended/pruned counts per head; their
    distance/hop counters equal the shared ones).
    """

    num_distance_computations: int = 0
    num_hops: int = 0
    per_head: list[DIPRSearchStats] = field(default_factory=list)

    @property
    def num_heads(self) -> int:
        return len(self.per_head)


def append_hop_candidates_group(
    nodes: np.ndarray,
    scores: np.ndarray,
    *,
    beta: float,
    capacity_threshold: int,
    allowed: np.ndarray | None,
    candidate_ids: list[list[int]],
    candidate_scores: list[list[float]],
    best_scores: np.ndarray,
    stats: list[DIPRSearchStats],
) -> np.ndarray:
    """Append freshly scored nodes against each head's running threshold.

    ``scores`` is the ``(g, m)`` score matrix of ``nodes`` in visit order —
    one hop's, or a whole BFS level's hops back to back.  Each row is the
    vectorized form of Algorithm 1's per-node ``try_append`` in visit order:
    element ``i`` is checked against the best-so-far score produced by
    elements ``< i`` (a prefix cummax instead of a Python loop), and the
    capacity grant covers the first slots that head had open when the call
    started.  Both compose over consecutive hops: a head below capacity
    appends every allowed node, so its open slots at any hop's start are its
    open slots at the call's start minus the allowed nodes before that hop.
    Disallowed nodes are scored for connectivity but may neither join a
    candidate list nor raise a best-so-far maximum — the DIPR maximum is
    defined over the allowed tokens only.  ``best_scores`` (``(g,)``
    float64) is updated in place and ``stats`` receives each head's
    appended/pruned counts (the walk owns the shared ones).  Returns a boolean mask over ``nodes``
    marking the ones appended by at least one head, which is the frontier's
    expansion condition: a node any head finds critical keeps the walk going.
    """
    num_nodes = int(nodes.shape[0])
    keep_positions = None
    if allowed is not None:
        keep = allowed[nodes]
        num_disallowed = int(num_nodes - keep.sum())
        if num_disallowed:
            for head_stats in stats:
                head_stats.num_pruned += num_disallowed
            keep_positions = np.flatnonzero(keep)
            nodes = nodes[keep]
            scores = scores[:, keep]
    if nodes.shape[0] == 0:
        return np.zeros(num_nodes, dtype=bool)
    scores64 = scores.astype(np.float64)
    # column i of running_best is max(incoming best_h, max(scores[h, :i])): the
    # best-so-far element (h, i) is checked against; the last column is the new best
    running_best = np.maximum.accumulate(
        np.concatenate([best_scores[:, None], scores64], axis=1), axis=1
    )
    num_candidates = np.array([len(ids) for ids in candidate_ids])
    below_capacity = np.arange(scores64.shape[1]) < (capacity_threshold - num_candidates)[:, None]
    append = below_capacity | (scores64 >= running_best[:, :-1] - beta)
    best_scores[:] = running_best[:, -1]
    for head, selected in enumerate(append):
        num_appended = int(np.count_nonzero(selected))
        stats[head].num_appended += num_appended
        stats[head].num_pruned += int(nodes.shape[0] - num_appended)
        if num_appended:
            candidate_ids[head].extend(nodes[selected].tolist())
            candidate_scores[head].extend(scores[head, selected].tolist())
    appended_any = append.any(axis=0)
    if keep_positions is None:
        return appended_any
    mask = np.zeros(num_nodes, dtype=bool)
    mask[keep_positions[appended_any]] = True
    return mask


def group_frontier_search(
    vectors: np.ndarray,
    graph: NeighborGraph,
    queries: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    *,
    expand: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    capacity_threshold: int = 32,
    window_max_scores: np.ndarray | None = None,
    allowed: np.ndarray | None = None,
    max_tokens: int | None = None,
    entry_fallback: Callable[[], np.ndarray] | None = None,
    scratch: FrontierScratch | None = None,
) -> tuple[list[SearchResult], GroupDIPRSearchStats]:
    """The DIPRS walk: Algorithm 1 for the ``g >= 1`` rows of ``queries``.

    One visited set and one frontier serve every head: each hop gathers the
    fresh neighbours once, scores them for all heads with a single
    ``(g, d) @ (d, m)`` matmul, and runs the per-head append rule on the
    resulting score matrix.  A node joins the frontier when *any* head
    appends it — a head whose own prune condition would stop keeps receiving
    (and scoring) the nodes the rest of the group explores.  Each head's
    result is therefore the exact ``best - beta`` range over the *shared*
    visited set (a scored node within ``beta`` of a head's final best always
    passes the critical check, because the running threshold never exceeds
    the final one).  At ``g = 1`` the frontier is the candidate list itself
    and the walk is Algorithm 1; at ``g > 1`` the union walk typically
    visits a superset of each head's own ``g = 1`` walk, so per-head results
    typically grow — the traversal stays approximate, so this is an
    empirical (grid-pinned) property, not a theorem.  The ``max_tokens`` cap
    and the final threshold remain per-head.

    The FIFO frontier is walked one BFS level per step, and the result is
    the node-at-a-time walk's, bit for bit.  The nodes a level appends are
    queued behind the whole level, so they form the next level, and which
    nodes a hop scores depends only on the visited set, never on what
    earlier hops appended.  A level therefore concatenates its nodes'
    expansions, drops visited nodes and keeps each remaining node's first
    occurrence in order: exactly its hops' fresh sets, back to back.  Each
    hop's slice is scored with its own ``(g, d) @ (d, m)`` matmul (the
    node-at-a-time shapes, so the same bits), and the append rule runs once
    over the level, because its prefix cummax and its capacity grant both
    compose across hops (see :func:`append_hop_candidates_group`).
    ``num_hops`` still counts expanded nodes; the Python iteration count
    drops to the graph depth.

    ``expand`` maps one level (an array of nodes) to the concatenation of
    their exploration neighbourhoods — 1-hop for plain DIPRS, 2-hop for the
    filtered variant — with the level position each id came from (see
    :meth:`NeighborGraph.neighbors_of`); neighbourhoods hold distinct ids.
    ``entry_fallback`` optionally supplies replacement seeds when no head
    appends any entry point (the filtered search falls back to the first
    allowed positions).
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    num_heads = queries.shape[0]
    stats = GroupDIPRSearchStats(per_head=[DIPRSearchStats() for _ in range(num_heads)])
    if scratch is not None:
        visited = scratch.visited(graph.num_nodes)
    else:
        visited = np.zeros(graph.num_nodes, dtype=bool)
    candidate_ids: list[list[int]] = [[] for _ in range(num_heads)]
    candidate_scores: list[list[float]] = [[] for _ in range(num_heads)]
    if window_max_scores is None:
        best_scores = np.full(num_heads, -np.inf, dtype=np.float64)
    else:
        best_scores = np.asarray(window_max_scores, dtype=np.float64).reshape(-1).copy()
        if best_scores.shape[0] != num_heads:
            raise ValueError(
                f"window_max_scores must provide one seed per head "
                f"({num_heads}), got shape {np.shape(window_max_scores)}"
            )

    def visit(expansion: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Score one level's expansion in visit order; returns the next level."""
        unseen = ~visited[expansion]
        expansion, source = expansion[unseen], source[unseen]
        first = np.sort(np.unique(expansion, return_index=True)[1])
        fresh, source = expansion[first], source[first]
        if fresh.shape[0] == 0:
            return fresh
        visited[fresh] = True
        stats.num_distance_computations += int(fresh.shape[0])
        # one slice per hop that found fresh nodes
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(source)) + 1, [fresh.shape[0]])).tolist()
        # fused hop scoring, counted once per group: one gather per level, and
        # each hop keeps its own (g, d) @ (d, m) matmul, whose shape fixes the
        # bits (one gemm per level would round differently)
        gathered = vectors[fresh]
        scores = np.concatenate(
            [queries @ gathered[start:end].T for start, end in zip(bounds, bounds[1:])], axis=1
        )
        appended = append_hop_candidates_group(
            fresh,
            scores,
            beta=beta,
            capacity_threshold=capacity_threshold,
            allowed=allowed,
            candidate_ids=candidate_ids,
            candidate_scores=candidate_scores,
            best_scores=best_scores,
            stats=stats.per_head,
        )
        return fresh[appended]

    entries = np.atleast_1d(np.asarray(entry_points, dtype=np.int64))
    frontier = visit(entries, np.zeros(entries.shape[0], dtype=np.int64))
    if entry_fallback is not None and frontier.shape[0] == 0:
        seeds = np.asarray(entry_fallback(), dtype=np.int64)
        frontier = visit(seeds, np.zeros(seeds.shape[0], dtype=np.int64))

    while frontier.shape[0]:
        stats.num_hops += int(frontier.shape[0])
        frontier = visit(*expand(frontier))

    results = []
    for head, head_stats in enumerate(stats.per_head):
        # a head's view of the shared walk scored and hopped exactly what it did
        head_stats.num_distance_computations = stats.num_distance_computations
        head_stats.num_hops = stats.num_hops
        indices = np.asarray(candidate_ids[head], dtype=np.int64)
        scores = np.asarray(candidate_scores[head], dtype=np.float32)
        threshold = best_scores[head] - beta
        keep = scores >= threshold
        indices, scores = indices[keep], scores[keep]
        order = np.argsort(-scores)
        if max_tokens is not None:
            order = order[:max_tokens]
        results.append(
            SearchResult(
                indices=indices[order],
                scores=scores[order],
                num_distance_computations=stats.num_distance_computations,
            )
        )
    return results, stats


def diprs_search_group(
    vectors: np.ndarray,
    graph: NeighborGraph,
    queries: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    capacity_threshold: int = 32,
    window_max_scores: np.ndarray | None = None,
    allowed: np.ndarray | None = None,
    max_tokens: int | None = None,
    scratch: FrontierScratch | None = None,
) -> tuple[list[SearchResult], GroupDIPRSearchStats]:
    """Group-frontier DIPRS: one shared 1-hop walk for a whole GQA group.

    GQA query heads probing the same KV head share the RoarGraph their keys
    were indexed into, so ``g`` separate walks would revisit largely the same
    nodes ``g`` times.  This walks the graph once for all of them: one
    visited set, one frontier, and fused hop scoring (one ``(g, d) @ (d, m)``
    matmul per hop) against per-head best-score / ``beta`` thresholds.
    Expansion follows the *union* policy — a node is explored while any head
    finds it critical (or has capacity slots open) — so every head scores
    every node the group visits, and the returned per-head results are
    threshold-filtered at that head's own ``best - beta``, with ``allowed``
    masks and the ``max_tokens`` cap applied per head.  On attention-like
    clustered data the per-head top sets match each head's own ``g = 1``
    walk exactly, typically as (equal) supersets — the equivalence grid in
    ``tests/query/test_group_frontier`` pins this against a scalar oracle.

    Returns one :class:`~repro.index.base.SearchResult` per row of
    ``queries`` plus the :class:`GroupDIPRSearchStats` of the shared walk,
    whose distance computations count each visited node once for the whole
    group.
    """
    return group_frontier_search(
        vectors,
        graph,
        queries,
        beta,
        entry_points,
        expand=graph.neighbors_of,
        capacity_threshold=capacity_threshold,
        window_max_scores=window_max_scores,
        allowed=allowed,
        max_tokens=max_tokens,
        scratch=scratch,
    )


def exact_dipr(vectors: np.ndarray, query: np.ndarray, beta: float, allowed: np.ndarray | None = None) -> SearchResult:
    """Ground-truth DIPR by full scan (the flat-index execution path)."""
    vectors = np.asarray(vectors, dtype=np.float32)
    query = np.asarray(query, dtype=np.float32)
    scores = vectors @ query
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    finite = np.isfinite(scores)
    if not finite.any():
        return SearchResult(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32), int(vectors.shape[0]))
    threshold = scores[finite].max() - beta
    selected = np.flatnonzero(scores >= threshold)
    order = selected[np.argsort(-scores[selected])]
    return SearchResult(
        indices=order.astype(np.int64),
        scores=scores[order].astype(np.float32),
        num_distance_computations=int(vectors.shape[0]),
    )


def diprs_search(
    vectors: np.ndarray,
    graph: NeighborGraph,
    query: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    capacity_threshold: int = 32,
    window_max_score: float | None = None,
    allowed: np.ndarray | None = None,
    max_tokens: int | None = None,
) -> tuple[SearchResult, DIPRSearchStats]:
    """Algorithm 1 of the paper for one ``(d,)`` query: the ``g = 1`` walk.

    ``capacity_threshold`` is ``l0``, ``window_max_score`` the Section 7.1
    window seed, ``allowed`` a mask of the tokens that may be returned (and
    set the maximum) and ``max_tokens`` a hard cap on the result size.
    """
    seeds = None if window_max_score is None else [window_max_score]
    results, stats = diprs_search_group(
        vectors, graph, query, beta, entry_points, capacity_threshold, seeds, allowed, max_tokens
    )
    return results[0], stats.per_head[0]
