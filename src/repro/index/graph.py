"""Compact adjacency storage and beam search shared by the graph indexes.

The graph index (RoarGraph) and the DIPRS query algorithm both
traverse a directed neighbour graph over the key vectors.  ``NeighborGraph``
stores that graph in CSR form (one int32 array of neighbour ids plus an
offsets array) so neighbour lookups are a cheap slice and the whole structure
is a couple of NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NeighborGraph", "beam_search", "BeamSearchStats"]


class NeighborGraph:
    """A directed neighbour graph over ``n`` nodes in CSR layout."""

    def __init__(self, neighbor_ids: np.ndarray, offsets: np.ndarray):
        self.neighbor_ids = np.asarray(neighbor_ids, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if int(self.offsets[-1]) != self.neighbor_ids.shape[0]:
            raise ValueError("offsets[-1] must equal len(neighbor_ids)")

    @classmethod
    def from_lists(cls, adjacency: list[list[int]] | list[np.ndarray]) -> "NeighborGraph":
        """Build from a python list of per-node neighbour lists."""
        offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
        for node, neighbors in enumerate(adjacency):
            offsets[node + 1] = offsets[node] + len(neighbors)
        flat = np.empty(int(offsets[-1]), dtype=np.int32)
        for node, neighbors in enumerate(adjacency):
            flat[offsets[node] : offsets[node + 1]] = np.asarray(neighbors, dtype=np.int32)
        return cls(flat, offsets)

    @property
    def num_nodes(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        return int(self.neighbor_ids.shape[0])

    @property
    def memory_bytes(self) -> int:
        return int(self.neighbor_ids.nbytes + self.offsets.nbytes)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` (a zero-copy slice)."""
        return self.neighbor_ids[self.offsets[node] : self.offsets[node + 1]]

    def neighbors_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour lists of ``nodes``, concatenated in order.

        Returns ``(ids, source)``: ``ids`` holds each node's neighbours in
        adjacency order, one list after the other, and ``source[i]`` is the
        position in ``nodes`` of the node ``ids[i]`` was read from.  One CSR
        gather for a whole BFS level instead of one slice per node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.offsets[nodes]
        lengths = self.offsets[nodes + 1] - starts
        source = np.repeat(np.arange(nodes.shape[0]), lengths)
        # element i of list j sits at offsets[node_j] + i in the CSR array
        list_starts = np.cumsum(lengths) - lengths
        positions = np.arange(int(lengths.sum())) + np.repeat(starts - list_starts, lengths)
        return self.neighbor_ids[positions], source

    def degree(self, node: int) -> int:
        return int(self.offsets[node + 1] - self.offsets[node])

    def mean_degree(self) -> float:
        return self.num_edges / max(self.num_nodes, 1)

    def to_lists(self) -> list[list[int]]:
        """Materialise back into per-node python lists (for tests/rewrites)."""
        return [list(self.neighbors(node)) for node in range(self.num_nodes)]


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
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, BeamSearchStats]:
    """Best-first beam search under inner-product similarity.

    Returns ``(indices, scores, stats)`` of up to ``ef`` candidates sorted by
    descending inner product.  ``allowed`` is an optional boolean mask over
    nodes; disallowed nodes are traversed (to keep the graph connected, as in
    ACORN-style filtered search) but never returned.
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

    # candidate frontier (max-heap emulated with negated scores in sorted lists)
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
    if allowed is not None:
        keep = allowed[pool_indices]
        pool_indices = pool_indices[keep]
        pool_score_array = pool_score_array[keep]
    order = np.argsort(-pool_score_array)[:ef]
    return pool_indices[order], pool_score_array[order], stats
