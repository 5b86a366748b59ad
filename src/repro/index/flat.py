"""Flat (scan) index.

Scans every key to find critical tokens.  Less efficient than graph indexes
when few critical tokens are needed, but sequential memory access makes it the
better choice when many tokens must be returned — which is why the AlayaDB
optimizer routes *layer 1* queries (which need a large number of critical
tokens, see Figure 5 of the paper) to the flat index.
"""

from __future__ import annotations

import numpy as np

from .base import SearchResult, VectorIndex

__all__ = ["FlatIndex"]


class FlatIndex(VectorIndex):
    """Brute-force inner-product index supporting top-k, range and filter queries."""

    def build(self, vectors: np.ndarray, **kwargs) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected (n, dim) vectors, got shape {vectors.shape}")
        self._vectors = vectors

    def _topk_result(self, scores: np.ndarray, k: int) -> SearchResult:
        """Top-k result from one query's (possibly masked) score row."""
        k = min(k, scores.shape[0])
        order = np.argpartition(-scores, k - 1)[:k]
        order = order[np.argsort(-scores[order])]
        valid = np.isfinite(scores[order])
        order = order[valid]
        return SearchResult(
            indices=order.astype(np.int64),
            scores=scores[order].astype(np.float32),
            num_distance_computations=int(scores.shape[0]),
        )

    def _batch_scores(self, queries: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
        """Score matrix ``(g, n)`` of a query batch, via one shared scan."""
        vectors = self._require_built()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != vectors.shape[1]:
            raise ValueError(
                f"expected queries of shape (g, {vectors.shape[1]}), got {queries.shape}"
            )
        scores = queries @ vectors.T
        if allowed is not None:
            scores = np.where(allowed[None, :], scores, -np.inf)
        return scores

    def search_topk_batch(
        self, queries: np.ndarray, k: int, allowed: np.ndarray | None = None
    ) -> list[SearchResult]:
        """Exact top-k for a batch of queries sharing a single scan.

        ``queries`` is ``(g, dim)`` — e.g. the query heads of one GQA group —
        and the score matrix comes from one ``(g, d) @ (d, n)`` matmul instead
        of ``g`` separate scans; one query is a batch of one.  ``allowed``
        optionally masks positions.  ``num_distance_computations`` still
        counts the per-query scan.
        """
        scores = self._batch_scores(queries, allowed)
        return [self._topk_result(row, k) for row in scores]

    def search_range_batch(
        self, queries: np.ndarray, beta: float, allowed: np.ndarray | None = None
    ) -> list[SearchResult]:
        """Exact DIPR for a batch of queries sharing a single scan: per row,
        all keys with ``q·k >= max(q·k) - beta``.

        This is the ground truth the graph-based DIPRS algorithm approximates
        and the execution path the optimizer selects for the flat index (see
        :meth:`search_topk_batch` for the sharing scheme).  The per-row
        threshold/sort work is vectorized across the batch: one mask, one
        gather and one ``lexsort`` over all selected entries replace a
        per-row ``flatnonzero`` + ``argsort`` loop.
        """
        scores = self._batch_scores(queries, allowed)
        num_queries, n = scores.shape
        max_per_row = scores.max(axis=1)
        finite = np.isfinite(max_per_row)
        keep = scores >= (max_per_row - beta)[:, None]
        keep &= finite[:, None]
        row_ids, cols = np.nonzero(keep)
        sel_scores = scores[row_ids, cols]
        # within each row, order by score descending (rows stay row-major)
        order = np.lexsort((-sel_scores, row_ids))
        cols, sel_scores = cols[order], sel_scores[order]
        counts = np.bincount(row_ids, minlength=num_queries)
        bounds = np.cumsum(counts)[:-1]
        return [
            SearchResult(
                indices=indices.astype(np.int64),
                scores=row_scores.astype(np.float32),
                num_distance_computations=n,
            )
            for indices, row_scores in zip(np.split(cols, bounds), np.split(sel_scores, bounds))
        ]
