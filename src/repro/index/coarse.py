"""Coarse-grained block index (InfLLM / Quest style).

Adjacent tokens are grouped into fixed-size blocks; each block is summarised
by a small set of representative vectors.  At query time only the inner
products between the query and the representatives are computed, the top
blocks are selected, and *all* tokens of the selected blocks participate in
attention.  This trades retrieval precision for very low retrieval latency
and is the index the AlayaDB optimizer picks when the GPU memory budget is
large (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import SearchResult, VectorIndex, validate_query

__all__ = ["BlockSummary", "CoarseBlockIndex"]


@dataclass
class BlockSummary:
    """Representative vectors of one token block."""

    block_id: int
    start: int
    stop: int
    representatives: np.ndarray  # (num_representatives, dim)

    @property
    def num_tokens(self) -> int:
        return self.stop - self.start

    def score(self, query: np.ndarray) -> float:
        """Block relevance = max inner product over its representatives."""
        return float(np.max(self.representatives @ query))


class CoarseBlockIndex(VectorIndex):
    """Block index with mean + max-magnitude representatives per block.

    ``num_representatives`` follows InfLLM: a handful of "semantic anchor"
    vectors summarise the block.  Here the representatives are the block mean
    plus the tokens with the largest vector norms, which approximates picking
    the tokens most likely to maximise an inner product.
    """

    def __init__(self, block_size: int = 128, num_representatives: int = 4):
        super().__init__()
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.num_representatives = max(1, num_representatives)
        self._blocks: list[BlockSummary] = []
        self._representative_matrix: np.ndarray | None = None
        self._representative_block_ids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray, **kwargs) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected (n, dim), got {vectors.shape}")
        self._vectors = vectors
        self._blocks = []
        representatives = []
        block_ids = []
        for block_id, start in enumerate(range(0, vectors.shape[0], self.block_size)):
            stop = min(start + self.block_size, vectors.shape[0])
            block_vectors = vectors[start:stop]
            reps = [block_vectors.mean(axis=0)]
            norms = np.linalg.norm(block_vectors, axis=1)
            num_extra = min(self.num_representatives - 1, block_vectors.shape[0])
            if num_extra > 0:
                top = np.argsort(-norms)[:num_extra]
                reps.extend(block_vectors[top])
            rep_matrix = np.stack(reps).astype(np.float32)
            summary = BlockSummary(block_id=block_id, start=start, stop=stop, representatives=rep_matrix)
            self._blocks.append(summary)
            representatives.append(rep_matrix)
            block_ids.extend([block_id] * rep_matrix.shape[0])
        self._representative_matrix = np.concatenate(representatives, axis=0)
        self._representative_block_ids = np.asarray(block_ids, dtype=np.int64)
        counts = np.asarray([rep.shape[0] for rep in representatives], dtype=np.int64)
        self._representative_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._block_starts = np.asarray([block.start for block in self._blocks], dtype=np.int64)
        self._block_stops = np.asarray([block.stop for block in self._blocks], dtype=np.int64)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> list[BlockSummary]:
        return self._blocks

    @property
    def memory_bytes(self) -> int:
        """Blocks must be resident (typically on GPU): vectors + representatives."""
        base = super().memory_bytes
        if self._representative_matrix is not None:
            base += int(self._representative_matrix.nbytes)
        return base

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search_blocks(self, query: np.ndarray, num_blocks: int) -> list[BlockSummary]:
        """Return the ``num_blocks`` most relevant blocks for ``query``.

        Delegates to the batched selection so the single-query and batched
        paths share one top-k algorithm (identical tie-breaking included).
        """
        vectors = self._require_built()
        query = validate_query(query, vectors.shape[1])
        top = self._top_block_ids_batch(query[None, :], num_blocks)[0]
        return [self._blocks[int(b)] for b in top]

    def search_blocks_batch(self, queries: np.ndarray, num_blocks: int) -> list[list[BlockSummary]]:
        """Top blocks for a batch of queries sharing one representative scan.

        ``queries`` is ``(g, dim)``; the query-to-representative inner
        products come from a single matmul instead of ``g`` separate scans,
        and the per-block reduction/top-k runs once over the whole batch.
        Row ``i`` of the result matches ``search_blocks`` on ``queries[i]``.
        """
        top = self._top_block_ids_batch(queries, num_blocks)
        return [[self._blocks[int(b)] for b in row] for row in top]

    def block_scores_batch(self, queries: np.ndarray) -> np.ndarray:
        """Per-block relevance scores for a query batch, ``(g, num_blocks)``.

        One representative matmul scores every block for every query.  A shard
        router merges these across shard-local indexes: because blocks are cut
        from offset 0 in ``block_size`` steps, a shard whose token range starts
        on a block boundary produces exactly the blocks the full-context index
        would, so concatenating per-shard score rows reconstructs the global
        block-score vector and the global top-k block selection is exact.
        """
        vectors = self._require_built()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != vectors.shape[1]:
            raise ValueError(
                f"expected queries of shape (g, {vectors.shape[1]}), got {queries.shape}"
            )
        scores = queries @ self._representative_matrix.T
        return np.maximum.reduceat(scores, self._representative_offsets, axis=1)

    @property
    def block_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, stops)`` token bounds of every block, ``(num_blocks,)`` each."""
        self._require_built()
        return self._block_starts, self._block_stops

    def _top_block_ids_batch(self, queries: np.ndarray, num_blocks: int) -> np.ndarray:
        """Block ids of the top blocks per query, ``(g, num_blocks)``, batched."""
        return self.top_blocks_from_scores(self.block_scores_batch(queries), num_blocks)

    @staticmethod
    def top_blocks_from_scores(block_scores: np.ndarray, num_blocks: int) -> np.ndarray:
        """Top-block selection over precomputed scores, ``(g, num_blocks)``.

        The selection algorithm (argpartition + ordering, tie-breaking
        included) in one reusable place: the per-index search paths run it on
        their own scores, and a shard router runs it on block-score rows
        *concatenated* across shard-local indexes so the cross-shard selection
        is exactly the selection a full-context index would make.
        """
        total_blocks = block_scores.shape[1]
        num_blocks = min(num_blocks, total_blocks)
        if num_blocks >= total_blocks:
            top = np.argsort(-block_scores, axis=1)
        else:
            top = np.argpartition(-block_scores, num_blocks - 1, axis=1)[:, :num_blocks]
            order = np.argsort(np.take_along_axis(-block_scores, top, axis=1), axis=1)
            top = np.take_along_axis(top, order, axis=1)
        return top[:, :num_blocks]

    def search_topk(self, query: np.ndarray, k: int, **kwargs) -> SearchResult:
        """Token-level top-k limited to the most relevant blocks.

        The selected blocks jointly contain at least ``k`` tokens; tokens are
        then ranked exactly within them.
        """
        vectors = self._require_built()
        query = validate_query(query, vectors.shape[1])
        num_blocks = max(1, int(np.ceil(k / self.block_size)))
        blocks = self.search_blocks(query, num_blocks)
        positions = np.concatenate([np.arange(b.start, b.stop) for b in blocks])
        scores = vectors[positions] @ query
        distance_computations = int(self._representative_matrix.shape[0] + positions.shape[0])
        k = min(k, positions.shape[0])
        order = np.argsort(-scores)[:k]
        return SearchResult(
            indices=positions[order].astype(np.int64),
            scores=scores[order].astype(np.float32),
            num_distance_computations=distance_computations,
        )

    def selected_positions(self, query: np.ndarray, num_blocks: int) -> np.ndarray:
        """All token positions of the top ``num_blocks`` blocks (InfLLM's retrieval)."""
        return self._block_positions(self.search_blocks(query, num_blocks))

    def selected_positions_batch(self, queries: np.ndarray, num_blocks: int) -> list[np.ndarray]:
        """Per-query selected positions with one shared representative scan."""
        top = self._top_block_ids_batch(queries, num_blocks)
        return [self.positions_of_blocks(row) for row in top]

    def positions_of_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """All token positions of the blocks ``block_ids``, in the given block order."""
        if block_ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [
                np.arange(self._block_starts[b], self._block_stops[b])
                for b in block_ids
            ]
        ).astype(np.int64)

    @staticmethod
    def _block_positions(blocks: list[BlockSummary]) -> np.ndarray:
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(b.start, b.stop) for b in blocks]).astype(np.int64)
