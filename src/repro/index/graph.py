"""Compact adjacency storage of the graph indexes.

The graph index (RoarGraph) and the DIPRS query algorithm both
traverse a directed neighbour graph over the key vectors.  ``NeighborGraph``
stores that graph in CSR form (one int32 array of neighbour ids plus an
offsets array) so neighbour lookups are a cheap slice and the whole structure
is a couple of NumPy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NeighborGraph"]


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

    def to_lists(self) -> list[list[int]]:
        """Materialise back into per-node python lists (for tests/rewrites)."""
        return [list(self.neighbors(node)) for node in range(self.num_nodes)]
