"""Attribute-filtered DIPRS for partial-prefix context reuse (Section 7.1).

When a new session reuses only a *prefix* of a stored context, the stored
index covers more tokens than the session may attend to.  Naively dropping
graph nodes that fail the position predicate disconnects the graph and
wrecks recall.  Following ACORN, the filtered search instead expands each
explored node's neighbourhood to its **2-hop neighbours**, then excludes the
candidates that fail the predicate — the traversal keeps its reach while the
result set respects the filter.
"""

from __future__ import annotations

import numpy as np

from ..index.base import SearchResult
from ..index.graph import NeighborGraph
from .dipr import (
    DIPRSearchStats,
    FrontierScratch,
    GroupDIPRSearchStats,
    diprs_search,
    group_frontier_search,
)
from .types import FilterPredicate

__all__ = [
    "predicate_mask",
    "filtered_diprs_search",
    "filtered_diprs_search_group",
    "naive_filtered_diprs_search",
]


def predicate_mask(num_tokens: int, predicate: FilterPredicate | None) -> np.ndarray | None:
    """Boolean mask over token positions allowed by ``predicate`` (None = all)."""
    if predicate is None:
        return None
    mask = np.zeros(num_tokens, dtype=bool)
    mask[: min(predicate.max_position, num_tokens)] = True
    return mask


def _two_hop_neighbors(graph: NeighborGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's neighbours united with their neighbours' neighbours, for a level.

    Returns ``(ids, source)`` like :meth:`NeighborGraph.neighbors_of`: the
    nodes' 2-hop sets one after the other, each sorted and free of
    duplicates, and the position in ``nodes`` each id came from.
    """
    one_hop, source = graph.neighbors_of(nodes)
    two_hop, via = graph.neighbors_of(one_hop)
    reach = np.concatenate([one_hop, two_hop]).astype(np.int64)
    origin = np.concatenate([source, source[via]])
    # one sort orders by source node, then by id; repeats within a node's set
    # become neighbours and are dropped (np.unique's hash path is ~10x slower)
    keys = np.sort(origin * graph.num_nodes + reach)
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return keys % graph.num_nodes, keys // graph.num_nodes


def filtered_diprs_search(
    vectors: np.ndarray,
    graph: NeighborGraph,
    query: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    predicate: FilterPredicate,
    capacity_threshold: int = 32,
    window_max_score: float | None = None,
    max_tokens: int | None = None,
) -> tuple[SearchResult, DIPRSearchStats]:
    """Filtered DIPRS for one ``(d,)`` query: the ``g = 1`` filtered walk."""
    seeds = None if window_max_score is None else [window_max_score]
    results, stats = filtered_diprs_search_group(
        vectors, graph, query, beta, entry_points, predicate, capacity_threshold, seeds, max_tokens
    )
    return results[0], stats.per_head[0]


def filtered_diprs_search_group(
    vectors: np.ndarray,
    graph: NeighborGraph,
    queries: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    predicate: FilterPredicate,
    capacity_threshold: int = 32,
    window_max_scores: np.ndarray | None = None,
    max_tokens: int | None = None,
    scratch: FrontierScratch | None = None,
) -> tuple[list[SearchResult], GroupDIPRSearchStats]:
    """DIPRS with 2-hop expansion and attribute filtering, for ``g >= 1`` heads.

    The one DIPRS walk (:func:`repro.query.dipr.group_frontier_search`, whose
    docstring gives the frontier policy) with each expanded node's
    neighbourhood widened to its unfiltered 2-hop neighbours, so the search
    can cross regions of the graph dominated by filtered-out tokens (e.g. the
    stored context's own conversation suffix).  Candidate lists, thresholds
    and the ``max_tokens`` cap stay per head, and only predicate-satisfying
    tokens may enter a candidate list or raise a head's best-so-far maximum.
    When no head appends any entry point the walk reseeds from the first
    allowed positions.
    """
    allowed = predicate_mask(graph.num_nodes, predicate)

    def first_allowed_seeds() -> np.ndarray:
        return np.flatnonzero(allowed)[: max(1, capacity_threshold // 4)]

    return group_frontier_search(
        vectors,
        graph,
        queries,
        beta,
        entry_points,
        expand=lambda level: _two_hop_neighbors(graph, level),
        capacity_threshold=capacity_threshold,
        window_max_scores=window_max_scores,
        allowed=allowed,
        max_tokens=max_tokens,
        entry_fallback=first_allowed_seeds,
        scratch=scratch,
    )


def naive_filtered_diprs_search(
    vectors: np.ndarray,
    graph: NeighborGraph,
    query: np.ndarray,
    beta: float,
    entry_points: np.ndarray | list[int],
    predicate: FilterPredicate,
    capacity_threshold: int = 32,
    window_max_score: float | None = None,
) -> tuple[SearchResult, DIPRSearchStats]:
    """The naive baseline: prune filtered-out nodes from the traversal itself.

    Used by the Figure 12 ablation to demonstrate why 2-hop expansion is
    needed — pruning nodes from the walk disconnects the graph and recall
    collapses as the reuse ratio drops.
    """
    allowed = predicate_mask(graph.num_nodes, predicate)
    # restrict the adjacency to allowed→allowed edges
    lists = []
    for node in range(graph.num_nodes):
        if allowed[node]:
            neighbors = graph.neighbors(node)
            lists.append([int(n) for n in neighbors if allowed[n]])
        else:
            lists.append([])
    pruned_graph = NeighborGraph.from_lists(lists)
    entry_points = [int(e) for e in np.atleast_1d(entry_points) if allowed[int(e)]]
    if not entry_points:
        entry_points = [int(np.flatnonzero(allowed)[0])]
    return diprs_search(
        vectors,
        pruned_graph,
        query,
        beta,
        entry_points,
        capacity_threshold=capacity_threshold,
        window_max_score=window_max_score,
        allowed=allowed,
    )
