"""kNN graph construction.

RoarGraph construction (Section 7.2 of the paper) starts from a
query-to-key exact kNN graph.  The paper accelerates this stage with NVIDIA
cuVS on GPU; here the exact construction is a blocked matrix multiplication
on the CPU, each block sized so its score matrix holds about
``_BLOCK_SCORES`` entries whatever the number of keys.  The GPU speedup
appears only in the Figure 11 benchmark's paper-scale cost-model table.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exact_knn", "cross_knn"]

_BLOCK_SCORES = 1 << 18
"""Scores one kNN block holds (1 MB of float32 plus 2 MB of the partition's
int64 indices), so the transient stays bounded as the context grows."""


def _topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row top-k column indices by descending score."""
    num_columns = scores.shape[1]
    k = min(k, num_columns)
    if k <= 0:
        return np.empty((scores.shape[0], 0), dtype=np.int64)
    part = np.argpartition(scores, num_columns - k, axis=1)[:, num_columns - k :]
    row_scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-row_scores, axis=1)
    return np.take_along_axis(part, order, axis=1)


def _blocked_knn(queries: np.ndarray, base: np.ndarray, k: int, block_size: int | None, exclude_self: bool) -> np.ndarray:
    """Top-``k`` base ids per query row, ``block_size`` rows (by default
    sized from ``_BLOCK_SCORES``) at a time, so the full score matrix is
    never materialised.  ``exclude_self`` skips base id ``i`` for row ``i``."""
    neighbors = np.empty((queries.shape[0], k), dtype=np.int64)
    block_size = block_size or max(1, _BLOCK_SCORES // max(base.shape[0], 1))
    for start in range(0, queries.shape[0], block_size):
        stop = min(start + block_size, queries.shape[0])
        scores = queries[start:stop] @ base.T
        if exclude_self:
            scores[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        neighbors[start:stop] = _topk_rows(scores, k)
    return neighbors


def exact_knn(vectors: np.ndarray, k: int, block_size: int | None = None, exclude_self: bool = True) -> np.ndarray:
    """Exact kNN of every vector against the full set (inner product).

    Returns an ``(n, k)`` int array of neighbour ids.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    return _blocked_knn(vectors, vectors, min(k, n - 1 if exclude_self else n), block_size, exclude_self)


def cross_knn(queries: np.ndarray, base: np.ndarray, k: int, block_size: int | None = None) -> np.ndarray:
    """Exact kNN of each query vector against the base (key) vectors.

    This is stage (i) of RoarGraph construction: linking each sampled query
    to its nearest keys.  Returns ``(num_queries, k)`` base ids.
    """
    queries = np.asarray(queries, dtype=np.float32)
    base = np.asarray(base, dtype=np.float32)
    return _blocked_knn(queries, base, min(k, base.shape[0]), block_size, exclude_self=False)
