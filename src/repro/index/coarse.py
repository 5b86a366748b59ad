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

import numpy as np

from .base import VectorIndex

__all__ = ["CoarseBlockIndex"]


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
        self._representative_matrix: np.ndarray | None = None
        self._representative_block_ids: np.ndarray | None = None
        self._block_starts = np.empty(0, dtype=np.int64)
        self._block_stops = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray, **kwargs) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected (n, dim), got {vectors.shape}")
        self._vectors = vectors
        starts = np.arange(0, vectors.shape[0], self.block_size, dtype=np.int64)
        stops = np.minimum(starts + self.block_size, vectors.shape[0])
        representatives = []
        for start, stop in zip(starts.tolist(), stops.tolist()):
            block_vectors = vectors[start:stop]
            reps = [block_vectors.mean(axis=0)]
            norms = np.linalg.norm(block_vectors, axis=1)
            num_extra = min(self.num_representatives - 1, block_vectors.shape[0])
            if num_extra > 0:
                top = np.argsort(-norms)[:num_extra]
                reps.extend(block_vectors[top])
            representatives.append(np.stack(reps).astype(np.float32))
        counts = np.asarray([rep.shape[0] for rep in representatives], dtype=np.int64)
        self._representative_matrix = np.concatenate(representatives, axis=0)
        self._representative_block_ids = np.repeat(np.arange(starts.shape[0], dtype=np.int64), counts)
        self._representative_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._block_starts = starts
        self._block_stops = stops

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return int(self._block_starts.shape[0])

    @property
    def num_representative_vectors(self) -> int:
        """Representatives one query scores: ``num_representatives`` per full
        block, fewer in a tail block shorter than ``num_representatives - 1``."""
        return 0 if self._representative_matrix is None else int(self._representative_matrix.shape[0])

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

    @staticmethod
    def top_blocks_from_scores(block_scores: np.ndarray, num_blocks: int) -> np.ndarray:
        """Top-block selection over precomputed scores, ``(g, num_blocks)``.

        The selection algorithm (argpartition + ordering, tie-breaking
        included) in one reusable place: the executor runs it on one index's
        scores, and on block-score rows *concatenated* across shard-local
        indexes so the cross-shard selection is exactly the selection a
        full-context index would make.
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
