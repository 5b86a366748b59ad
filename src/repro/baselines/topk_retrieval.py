"""Top-k retrieval baseline (RetrievalAttention-style fine-grained retrieval).

A RoarGraph index per KV head retrieves a *fixed* number of critical tokens
per head per step.  This is the strongest prior method in the paper's
comparison — the one DIPR improves on by making the number of retrieved
tokens dynamic (k=100 loses quality on token-hungry heads, k=2000 blows the
latency SLO; see Table 5).

The fixed-size query runs as a best-first beam search (:func:`beam_search`)
over the same RoarGraphs AlayaDB's DIPRS walks; the serving executor has no
fine top-k path, so this baseline is the beam search's only caller outside
the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.context_store import StoredContext
from ..index.graph import NeighborGraph
from ..index.roargraph import RoarGraphConfig, RoarGraphIndex
from .base import SelectionOutcome, SelectionStrategy

__all__ = ["BeamSearchStats", "TopKRetrievalStrategy", "beam_search"]


@dataclass
class BeamSearchStats:
    """Work counters of one beam search."""

    num_distance_computations: int = 0
    num_hops: int = 0


def beam_search(
    vectors: np.ndarray,
    graph: NeighborGraph,
    query: np.ndarray,
    ef: int,
    entry_points: np.ndarray | list[int],
) -> tuple[np.ndarray, np.ndarray, BeamSearchStats]:
    """Best-first beam search under inner-product similarity.

    Returns ``(indices, scores, stats)`` of up to ``ef`` candidates sorted by
    descending inner product; a top-``k`` query runs it with ``ef >= k`` and
    keeps the first ``k``.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    query = np.asarray(query, dtype=np.float32)
    num_nodes = graph.num_nodes
    stats = BeamSearchStats()

    entry_points = np.atleast_1d(np.asarray(entry_points, dtype=np.int64))
    visited = np.zeros(num_nodes, dtype=bool)
    visited[entry_points] = True
    entry_scores = vectors[entry_points] @ query
    stats.num_distance_computations += int(entry_points.shape[0])

    # candidate frontier, expanded best first
    frontier_ids = list(entry_points)
    frontier_scores = list(entry_scores)
    # result pool: keep the best `ef` seen so far
    pool_ids = list(entry_points)
    pool_scores = list(entry_scores)

    def pool_worst() -> float:
        if len(pool_scores) < ef:
            return -np.inf
        return min(pool_scores)

    while frontier_ids:
        best_pos = int(np.argmax(frontier_scores))
        node = frontier_ids.pop(best_pos)
        node_score = frontier_scores.pop(best_pos)
        if node_score < pool_worst() and len(pool_scores) >= ef:
            break
        stats.num_hops += 1
        neighbors = graph.neighbors(int(node))
        fresh = neighbors[~visited[neighbors]]
        if fresh.shape[0] == 0:
            continue
        visited[fresh] = True
        scores = vectors[fresh] @ query
        stats.num_distance_computations += int(fresh.shape[0])
        threshold = pool_worst()
        for neighbor, score in zip(fresh, scores):
            if score > threshold or len(pool_scores) < ef:
                frontier_ids.append(int(neighbor))
                frontier_scores.append(float(score))
                pool_ids.append(int(neighbor))
                pool_scores.append(float(score))
        if len(pool_scores) > 2 * ef:
            order = np.argsort(pool_scores)[::-1][:ef]
            pool_ids = [pool_ids[i] for i in order]
            pool_scores = [pool_scores[i] for i in order]

    pool_indices = np.asarray(pool_ids, dtype=np.int64)
    pool_score_array = np.asarray(pool_scores, dtype=np.float32)
    order = np.argsort(-pool_score_array)[:ef]
    return pool_indices[order], pool_score_array[order], stats


class TopKRetrievalStrategy(SelectionStrategy):
    """Fixed top-k retrieval over fine-grained graph indexes."""

    name = "topk"

    def __init__(
        self,
        k: int = 100,
        initial_tokens: int = 128,
        recent_tokens: int = 512,
        roargraph: RoarGraphConfig | None = None,
        reuse_context_indexes: bool = True,
    ):
        self.k = k
        self.initial_tokens = initial_tokens
        self.recent_tokens = recent_tokens
        self.roargraph = roargraph or RoarGraphConfig()
        self.reuse_context_indexes = reuse_context_indexes
        self._indexes: dict[tuple[int, int], RoarGraphIndex] = {}
        self._gqa_group_size = 1
        self.name = f"top{k}"

    def prepare(self, context: StoredContext, num_query_heads: int) -> None:
        self._indexes.clear()
        for layer, keys in context.snapshot.keys.items():
            num_kv_heads = keys.shape[0]
            self._gqa_group_size = max(1, num_query_heads // num_kv_heads)
            stored = context.fine_indexes.get(layer) if self.reuse_context_indexes else None
            for kv_head in range(num_kv_heads):
                if stored is not None:
                    self._indexes[(layer, kv_head)] = stored[kv_head]
                    continue
                sample = context.query_samples.get(layer)
                index = RoarGraphIndex(self.roargraph)
                index.build(keys[kv_head], query_sample=None if sample is None else sample[kv_head])
                self._indexes[(layer, kv_head)] = index

    def _window(self, context_length: int) -> np.ndarray:
        initial = np.arange(0, min(self.initial_tokens, context_length), dtype=np.int64)
        recent_start = max(0, context_length - self.recent_tokens)
        recent = np.arange(recent_start, context_length, dtype=np.int64)
        return np.unique(np.concatenate([initial, recent]))

    def select(self, layer: int, query_head: int, query: np.ndarray, context_length: int) -> SelectionOutcome:
        kv_head = query_head // self._gqa_group_size
        index = self._indexes.get((layer, kv_head))
        if index is None:
            return SelectionOutcome(positions=np.empty(0, dtype=np.int64))
        indices, _, stats = beam_search(index.vectors, index.graph, query, 4 * self.k, [index.entry_point])
        return SelectionOutcome(positions=indices[: self.k], num_distance_computations=stats.num_distance_computations)

    def resident_positions(self, context_length: int) -> np.ndarray:
        return self._window(context_length)

    def gpu_token_equivalent(self, context_length: int) -> int:
        return int(self._window(context_length).shape[0]) + self.k
