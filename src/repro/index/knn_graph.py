"""kNN graph construction.

RoarGraph construction (Section 7.2 of the paper) starts from a
query-to-key exact kNN graph.  The paper accelerates this stage with NVIDIA
cuVS on GPU; here the exact construction is a blocked matrix multiplication
and an approximate NN-descent variant is provided for large inputs.  Both
run on the CPU; the GPU speedup appears only in the Figure 11 benchmark's
paper-scale cost-model table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exact_knn", "cross_knn", "nn_descent_knn"]


def _topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row top-k column indices by descending score."""
    k = min(k, scores.shape[1])
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    row_scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-row_scores, axis=1)
    return np.take_along_axis(part, order, axis=1)


def exact_knn(vectors: np.ndarray, k: int, block_size: int = 1024, exclude_self: bool = True) -> np.ndarray:
    """Exact kNN of every vector against the full set (inner product).

    Returns an ``(n, k)`` int array of neighbour ids.  Work is blocked so the
    full ``n x n`` score matrix is never materialised.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    k = min(k, n - 1 if exclude_self else n)
    neighbors = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        scores = vectors[start:stop] @ vectors.T
        if exclude_self:
            rows = np.arange(start, stop)
            scores[np.arange(stop - start), rows] = -np.inf
        neighbors[start:stop] = _topk_rows(scores, k)
    return neighbors


def cross_knn(queries: np.ndarray, base: np.ndarray, k: int, block_size: int = 1024) -> np.ndarray:
    """Exact kNN of each query vector against the base (key) vectors.

    This is stage (i) of RoarGraph construction: linking each sampled query
    to its nearest keys.  Returns ``(num_queries, k)`` base ids.
    """
    queries = np.asarray(queries, dtype=np.float32)
    base = np.asarray(base, dtype=np.float32)
    k = min(k, base.shape[0])
    neighbors = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], block_size):
        stop = min(start + block_size, queries.shape[0])
        scores = queries[start:stop] @ base.T
        neighbors[start:stop] = _topk_rows(scores, k)
    return neighbors


def nn_descent_knn(
    vectors: np.ndarray,
    k: int,
    num_iterations: int = 8,
    sample_rate: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Approximate kNN graph via NN-descent (Dong et al.), inner product.

    Starts from a random neighbour assignment and iteratively improves it by
    comparing each point with its neighbours' neighbours.  Good enough for
    graph construction where exact kNN would be too slow.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)

    neighbor_ids = np.empty((n, k), dtype=np.int64)
    neighbor_scores = np.empty((n, k), dtype=np.float32)
    for node in range(n):
        candidates = rng.choice(n - 1, size=k, replace=False)
        candidates[candidates >= node] += 1
        neighbor_ids[node] = candidates
        neighbor_scores[node] = vectors[candidates] @ vectors[node]

    for _ in range(num_iterations):
        updated = 0
        for node in range(n):
            current = neighbor_ids[node]
            # candidate pool = neighbours of neighbours (optionally sampled)
            pool = neighbor_ids[current].reshape(-1)
            if sample_rate < 1.0:
                keep = rng.random(pool.shape[0]) < sample_rate
                pool = pool[keep]
            pool = np.unique(pool)
            pool = pool[pool != node]
            if pool.shape[0] == 0:
                continue
            scores = vectors[pool] @ vectors[node]
            merged_ids = np.concatenate([current, pool])
            merged_scores = np.concatenate([neighbor_scores[node], scores])
            # dedupe, keep best k
            unique_ids, first_pos = np.unique(merged_ids, return_index=True)
            unique_scores = merged_scores[first_pos]
            order = np.argsort(-unique_scores)[:k]
            new_ids = unique_ids[order]
            if not np.array_equal(np.sort(new_ids), np.sort(current)):
                updated += 1
            neighbor_ids[node] = new_ids
            neighbor_scores[node] = unique_scores[order]
        if updated == 0:
            break
    return neighbor_ids
