"""Execution plans and their executor.

The optimizer (Figure 8 of the paper) outputs an :class:`ExecutionPlan` —
which query type runs against which index type, whether the window cache
seeds the search and whether an attribute filter applies.  The
:class:`PlanExecutor` carries a plan out against the per-head index data of
one layer and returns the selected critical-token positions together with
work statistics, which the latency model converts into modelled seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanningError, UnsupportedQueryError
from ..index.coarse import CoarseBlockIndex
from ..index.flat import FlatIndex
from ..index.roargraph import RoarGraphIndex
from ..query.dipr import FrontierScratch, diprs_search, diprs_search_group, exact_dipr
from ..query.filtered import filtered_diprs_search, filtered_diprs_search_group, predicate_mask
from ..query.topk import graph_topk_search
from ..query.types import DIPRQuery, FilterPredicate, IndexKind, QueryKind, TopKQuery

__all__ = ["ExecutionPlan", "RetrievalOutcome", "LayerIndexData", "PlanExecutor"]


@dataclass(frozen=True)
class ExecutionPlan:
    """One layer's retrieval strategy chosen by the optimizer."""

    query_kind: str
    index_kind: str | None
    query: TopKQuery | DIPRQuery | None = None
    predicate: FilterPredicate | None = None
    use_window_seed: bool = True

    @property
    def is_full_attention(self) -> bool:
        return self.query_kind == QueryKind.FULL

    def describe(self) -> str:
        """Human-readable one-liner (shown by the examples and benchmarks)."""
        if self.is_full_attention:
            return "full attention"
        parts = [f"{self.query_kind} over {self.index_kind} index"]
        if isinstance(self.query, DIPRQuery):
            parts.append(f"beta={self.query.beta:.2f}")
        if isinstance(self.query, TopKQuery):
            parts.append(f"k={self.query.k}")
        if self.predicate is not None:
            parts.append(f"filter<{self.predicate.max_position}")
        return ", ".join(parts)


@dataclass
class RetrievalOutcome:
    """Positions selected for one head plus the work it took to find them."""

    positions: np.ndarray
    scores: np.ndarray
    num_distance_computations: int
    num_candidates: int
    num_hops: int = 0
    """Graph hops the retrieval walked (0 for the scan-based index kinds).
    Group-frontier retrieval attributes its shared walk to the group's first
    head, so summing over heads never double-counts shared work."""

    @property
    def num_selected(self) -> int:
        return int(self.positions.shape[0])


@dataclass
class LayerIndexData:
    """Everything the executor may need about one layer of a stored context.

    Not every field is populated: the flat path only needs ``keys``; the fine
    path needs the per-KV-head RoarGraph indexes; the coarse path needs the
    block indexes.
    """

    keys: np.ndarray
    """Key vectors ``(num_kv_heads, n, head_dim)`` of the stored context."""

    fine_indexes: list[RoarGraphIndex] | None = None
    """One RoarGraph per KV head (GQA-shared) or per query head."""

    coarse_indexes: list[CoarseBlockIndex] | None = None
    """One coarse block index per KV head."""

    flat_indexes: list[FlatIndex] = field(default_factory=list)
    """Lazily-created flat indexes per KV head."""

    shared: bool = True
    gqa_group_size: int = 1

    position_offset: int = 0
    """Global position of this data's first token.  A shard of a context
    carries its token-range start here so every retrieval outcome reports
    positions in the *global* token space of the full context; predicates,
    window seeds and the index structures themselves stay shard-local."""

    def to_global(self, positions: np.ndarray) -> np.ndarray:
        """Map local retrieval positions into global token space."""
        if self.position_offset == 0:
            return positions
        return positions + np.int64(self.position_offset)

    def fine_index_for_query_head(self, query_head: int) -> RoarGraphIndex:
        if not self.fine_indexes:
            raise PlanningError("fine-grained indexes are not available for this layer")
        if self.shared:
            return self.fine_indexes[query_head // self.gqa_group_size]
        return self.fine_indexes[query_head]

    def kv_head_for_query_head(self, query_head: int) -> int:
        return query_head // self.gqa_group_size

    def flat_index_for_kv_head(self, kv_head: int) -> FlatIndex:
        while len(self.flat_indexes) <= kv_head:
            self.flat_indexes.append(FlatIndex())
        index = self.flat_indexes[kv_head]
        if not index.is_built:
            index.build(self.keys[kv_head])
        return index

    def coarse_index_for_kv_head(self, kv_head: int) -> CoarseBlockIndex:
        if not self.coarse_indexes:
            raise PlanningError("coarse indexes are not available for this layer")
        return self.coarse_indexes[kv_head]


class PlanExecutor:
    """Executes an :class:`ExecutionPlan` for the stacked query heads of a layer."""

    def __init__(self, coarse_num_blocks: int = 32):
        self.coarse_num_blocks = coarse_num_blocks
        #: reusable visited-bitmap scratch shared by every group-frontier walk
        #: this executor dispatches (one decode round may run many walks)
        self._scratch = FrontierScratch()

    def retrieve_heads(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        queries: np.ndarray,
        window_max_scores: np.ndarray | None = None,
        kv_head_of_query: np.ndarray | None = None,
    ) -> list[RetrievalOutcome]:
        """Run ``plan`` for every query head of one layer in one call.

        ``queries`` is ``(num_query_heads, head_dim)`` and
        ``window_max_scores`` the per-head window seeds.  The scan-based index
        kinds share their per-KV-head work across the GQA group: the flat path
        computes one ``(g, d) @ (d, n)`` score matrix per group instead of
        ``g`` separate scans, and the coarse path shares the
        query-to-representative matmul the same way.  Fine DIPR retrieval over
        GQA-shared indexes walks each group's RoarGraph once with the
        group-frontier search: one shared visited set and frontier, fused hop
        scoring, per-head thresholds, shared distance computations counted
        once per group.  The other fine cases — top-k queries, unshared
        indexes, 1:1 groups — have nothing to share and walk once per head.

        ``kv_head_of_query`` is the multi-session entry point: when a decode
        round stacks several sessions' query heads over one shared context,
        it maps each stacked row to its KV head (the default ``row //
        gqa_group_size`` only holds for a single session's heads).  All rows
        probing one KV head — across every stacked session — then share a
        single scan, which is the cross-request retrieval gemm.  Only the
        scan-based kinds accept the mapping; fine walks are data-dependent
        per session and are dispatched one session at a time.
        """
        if plan.is_full_attention:
            raise PlanningError("full-attention plans are executed by the attention engine, not retrieval")
        queries = np.asarray(queries, dtype=np.float32)
        num_heads = queries.shape[0]
        num_tokens = data.keys.shape[1]
        if window_max_scores is not None:
            window_max_scores = np.asarray(window_max_scores, dtype=np.float32)
            if window_max_scores.shape != (num_heads,):
                # a (g, 1) array would silently index as 1-element rows and
                # feed every search a wrong (or deprecation-coerced) seed
                raise ValueError(
                    f"window_max_scores must have shape ({num_heads},) — one seed "
                    f"per query head — got {window_max_scores.shape}"
                )
        if kv_head_of_query is not None:
            kv_head_of_query = np.asarray(kv_head_of_query, dtype=np.int64)
            if kv_head_of_query.shape != (num_heads,):
                raise ValueError(
                    f"kv_head_of_query must have shape ({num_heads},), "
                    f"got {kv_head_of_query.shape}"
                )

        if plan.index_kind == IndexKind.FLAT:
            return self._retrieve_flat_heads(plan, data, queries, num_tokens, kv_head_of_query)
        if plan.index_kind == IndexKind.COARSE:
            return self._retrieve_coarse_heads(plan, data, queries, kv_head_of_query)
        if plan.index_kind == IndexKind.FINE:
            if kv_head_of_query is not None:
                raise UnsupportedQueryError(
                    "stacked fine retrieval is dispatched per session; "
                    "kv_head_of_query only applies to the scan-based index kinds"
                )
            return self._retrieve_fine_heads(plan, data, queries, window_max_scores, num_tokens)
        raise UnsupportedQueryError(f"unknown index kind {plan.index_kind!r}")

    def _retrieve_fine_heads(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        queries: np.ndarray,
        window_max_scores: np.ndarray | None,
        num_tokens: int,
    ) -> list[RetrievalOutcome]:
        num_heads = queries.shape[0]
        use_group = isinstance(plan.query, DIPRQuery) and data.shared and data.gqa_group_size > 1
        if not use_group:
            outcomes = []
            for head in range(num_heads):
                seed = None if window_max_scores is None else float(window_max_scores[head])
                outcomes.append(
                    self._retrieve_fine(plan, data, head, queries[head], seed, num_tokens)
                )
            return outcomes

        outcomes: list[RetrievalOutcome | None] = [None] * num_heads
        for kv_head, heads in self._heads_by_kv_head(data, num_heads).items():
            index = data.fine_index_for_query_head(heads[0])
            seeds = None
            if plan.use_window_seed and window_max_scores is not None:
                seeds = window_max_scores[heads]
            if plan.predicate is not None:
                results, stats = filtered_diprs_search_group(
                    index.vectors,
                    index.graph,
                    queries[heads],
                    plan.query.beta,
                    [index.entry_point],
                    plan.predicate,
                    capacity_threshold=plan.query.capacity_threshold,
                    window_max_scores=seeds,
                    max_tokens=plan.query.max_tokens,
                    scratch=self._scratch,
                )
            else:
                results, stats = diprs_search_group(
                    index.vectors,
                    index.graph,
                    queries[heads],
                    plan.query.beta,
                    [index.entry_point],
                    capacity_threshold=plan.query.capacity_threshold,
                    window_max_scores=seeds,
                    max_tokens=plan.query.max_tokens,
                    scratch=self._scratch,
                )
            for slot, (head, result) in enumerate(zip(heads, results)):
                # the walk is shared: attribute its distance computations and
                # hops to the group's first head so per-head outcomes sum to
                # the group's real (deduplicated) work
                outcomes[head] = RetrievalOutcome(
                    data.to_global(result.indices),
                    result.scores,
                    stats.num_distance_computations if slot == 0 else 0,
                    len(result),
                    num_hops=stats.num_hops if slot == 0 else 0,
                )
        return outcomes

    def _heads_by_kv_head(
        self,
        data: LayerIndexData,
        num_heads: int,
        kv_head_of_query: np.ndarray | None = None,
    ) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for head in range(num_heads):
            if kv_head_of_query is not None:
                kv_head = int(kv_head_of_query[head])
            else:
                kv_head = data.kv_head_for_query_head(head)
            groups.setdefault(kv_head, []).append(head)
        return groups

    def _retrieve_flat_heads(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        queries: np.ndarray,
        num_tokens: int,
        kv_head_of_query: np.ndarray | None = None,
    ) -> list[RetrievalOutcome]:
        allowed = predicate_mask(num_tokens, plan.predicate)
        outcomes: list[RetrievalOutcome | None] = [None] * queries.shape[0]
        for kv_head, heads in self._heads_by_kv_head(data, queries.shape[0], kv_head_of_query).items():
            index = data.flat_index_for_kv_head(kv_head)
            if isinstance(plan.query, DIPRQuery):
                results = index.search_range_batch(queries[heads], plan.query.beta, allowed=allowed)
                if plan.query.max_tokens is not None:
                    results = [result.top(plan.query.max_tokens) for result in results]
            elif isinstance(plan.query, TopKQuery):
                results = index.search_topk_batch(queries[heads], plan.query.k, allowed=allowed)
            else:
                raise UnsupportedQueryError(f"flat index cannot process {plan.query!r}")
            for head, result in zip(heads, results):
                outcomes[head] = RetrievalOutcome(
                    data.to_global(result.indices),
                    result.scores,
                    result.num_distance_computations,
                    len(result),
                )
        return outcomes

    def _retrieve_coarse_heads(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        queries: np.ndarray,
        kv_head_of_query: np.ndarray | None = None,
    ) -> list[RetrievalOutcome]:
        if isinstance(plan.query, DIPRQuery):
            raise UnsupportedQueryError("the coarse index does not support DIPR queries (Table 4)")
        if not isinstance(plan.query, TopKQuery):
            raise UnsupportedQueryError(f"coarse index cannot process {plan.query!r}")
        outcomes: list[RetrievalOutcome | None] = [None] * queries.shape[0]
        for kv_head, heads in self._heads_by_kv_head(data, queries.shape[0], kv_head_of_query).items():
            index = data.coarse_index_for_kv_head(kv_head)
            num_blocks = max(1, min(self.coarse_num_blocks, index.num_blocks))
            per_head_positions = index.selected_positions_batch(queries[heads], num_blocks)
            distance_computations = index.num_blocks * index.num_representatives
            if plan.predicate is not None:
                per_head_positions = [
                    positions[positions < plan.predicate.max_position]
                    for positions in per_head_positions
                ]
            lengths = {positions.shape[0] for positions in per_head_positions}
            if len(lengths) == 1 and next(iter(lengths)) > 0:
                # every head selected the same number of tokens (the common
                # case: equal-size blocks, no predicate truncation): score the
                # whole group with one gathered einsum
                stacked = np.stack(per_head_positions)
                gathered = index.vectors[stacked]
                group_scores = np.einsum("gd,gmd->gm", queries[heads], gathered).astype(np.float32)
            else:
                group_scores = [
                    (index.vectors[positions] @ queries[head]).astype(np.float32)
                    for head, positions in zip(heads, per_head_positions)
                ]
            for slot, (head, positions) in enumerate(zip(heads, per_head_positions)):
                outcomes[head] = RetrievalOutcome(
                    data.to_global(positions), group_scores[slot], distance_computations, len(positions)
                )
        return outcomes

    def _retrieve_fine(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        query_head: int,
        query: np.ndarray,
        window_max_score: float | None,
        num_tokens: int,
    ) -> RetrievalOutcome:
        index = data.fine_index_for_query_head(query_head)
        seed = window_max_score if plan.use_window_seed else None
        if isinstance(plan.query, DIPRQuery):
            if plan.predicate is not None:
                result, stats = filtered_diprs_search(
                    index.vectors,
                    index.graph,
                    query,
                    plan.query.beta,
                    [index.entry_point],
                    plan.predicate,
                    capacity_threshold=plan.query.capacity_threshold,
                    window_max_score=seed,
                    max_tokens=plan.query.max_tokens,
                )
            else:
                result, stats = diprs_search(
                    index.vectors,
                    index.graph,
                    query,
                    plan.query.beta,
                    [index.entry_point],
                    capacity_threshold=plan.query.capacity_threshold,
                    window_max_score=seed,
                    max_tokens=plan.query.max_tokens,
                )
            return RetrievalOutcome(
                data.to_global(result.indices),
                result.scores,
                stats.num_distance_computations,
                len(result),
                num_hops=stats.num_hops,
            )
        if isinstance(plan.query, TopKQuery):
            allowed = predicate_mask(num_tokens, plan.predicate)
            result = graph_topk_search(
                index.vectors,
                index.graph,
                query,
                plan.query.k,
                [index.entry_point],
                ef=plan.query.ef,
                allowed=allowed,
            )
            return RetrievalOutcome(
                data.to_global(result.indices), result.scores, result.num_distance_computations, len(result)
            )
        raise UnsupportedQueryError(f"fine index cannot process {plan.query!r}")
