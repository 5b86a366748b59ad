"""Scalar RoarGraph build (test oracle).

``reference_roargraph`` builds the adjacency one edge and one node at a time: per-edge ``set.add``
over the bipartite projection, the backbone and the key-to-key kNN stage, then each row sorted by
id and, over ``max_degree``, robust-pruned candidate by candidate.  It shares the exact kNN stage
with the index (``cross_knn`` / ``exact_knn``, tested against brute force on their own) and
nothing else.

Pair products come from one Gram matrix per pruned node, ``rows @ rows.T`` over
``[node, candidates...]``: row 0 holds the candidates' scores and the rest the candidate-candidate
products.  The index computes the same products as one batched Gram over a padded chunk of nodes,
and a scalar dot per pair could differ from it in the last bit, which flips exact ties (a
duplicated key whose kept twin is identical to the node)."""

from __future__ import annotations

import numpy as np

from repro.index.knn_graph import cross_knn, exact_knn
from repro.index.roargraph import RoarGraphConfig


def reference_prune(vectors, node, neighbors, config: RoarGraphConfig) -> list[int]:
    """Reduce ``node``'s ascending candidate list ``neighbors`` to ``config.max_degree``."""
    rows = vectors[[node, *neighbors]]
    gram = rows @ rows.T
    scores = gram[0, 1:]
    order = np.argsort(-scores, kind="stable")
    if not config.diversity_prune:
        return [neighbors[position] for position in order[: config.max_degree]]
    kept: list[int] = []
    skipped: list[int] = []
    for position in order:
        if len(kept) >= config.max_degree:
            break
        diverse = True
        for existing in kept:
            if gram[position + 1, existing + 1] > scores[position]:
                diverse = False
                break
        if diverse:
            kept.append(int(position))
        else:
            skipped.append(int(position))
    for position in skipped:
        if len(kept) >= config.max_degree:
            break
        kept.append(position)
    return [neighbors[position] for position in kept]


def reference_roargraph(vectors, config: RoarGraphConfig, query_sample=None) -> list[list[int]]:
    """The adjacency lists a ``RoarGraphIndex(config).build(vectors, query_sample)`` must hold."""
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    if query_sample is None or len(query_sample) == 0:
        query_sample = vectors
    links = cross_knn(np.asarray(query_sample, dtype=np.float32), vectors, min(config.num_query_links, n))
    for neighbor_list in links:
        anchor = int(neighbor_list[0])
        for other in neighbor_list[1:]:
            adjacency[anchor].add(int(other))
            adjacency[int(other)].add(anchor)
    for node in range(n):
        for offset in range(1, config.backbone_window + 1):
            if node + offset < n:
                adjacency[node].add(node + offset)
                adjacency[node + offset].add(node)
    if config.enhancement_links > 0 and n > 1:
        knn = exact_knn(vectors, min(config.enhancement_links, n - 1))
        for node in range(n):
            for neighbor in knn[node]:
                adjacency[node].add(int(neighbor))
                adjacency[int(neighbor)].add(node)
    graph = []
    for node in range(n):
        neighbors = sorted(adjacency[node])
        if len(neighbors) > config.max_degree:
            neighbors = reference_prune(vectors, node, neighbors, config)
        graph.append(neighbors)
    return graph
