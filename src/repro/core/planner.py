"""Execution plans and their executor.

The optimizer (Figure 8 of the paper) outputs an :class:`ExecutionPlan` —
which query type runs against which index type, whether the window cache
seeds the search and whether an attribute filter applies.  The
:class:`PlanExecutor` carries a plan out against the per-head index data of
one layer and returns the selected critical-token positions together with
work statistics, which the latency model converts into modelled seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import PlanningError, UnsupportedQueryError
from ..index.coarse import CoarseBlockIndex
from ..index.flat import FlatIndex
from ..index.roargraph import RoarGraphIndex
from ..query.dipr import FrontierScratch, diprs_search_group
from ..query.filtered import filtered_diprs_search_group, predicate_mask
from ..query.topk import graph_topk_search
from ..query.types import DIPRQuery, FilterPredicate, IndexKind, QueryKind, TopKQuery

__all__ = ["ExecutionPlan", "FULL_ATTENTION_PLAN", "RetrievalOutcome", "LayerIndexData", "PlanExecutor"]


@dataclass(frozen=True)
class ExecutionPlan:
    """One layer's retrieval strategy chosen by the optimizer."""

    query_kind: str
    index_kind: str | None
    query: TopKQuery | DIPRQuery | None = None
    predicate: FilterPredicate | None = None
    use_window_seed: bool = True

    @property
    def is_full(self) -> bool:
        return self.query_kind == QueryKind.FULL

    def describe(self) -> str:
        """Human-readable one-liner (shown by the examples and benchmarks)."""
        if self.is_full:
            return "full attention"
        parts = [f"{self.query_kind} over {self.index_kind} index"]
        if isinstance(self.query, DIPRQuery):
            parts.append(f"beta={self.query.beta:.2f}")
        if isinstance(self.query, TopKQuery):
            parts.append(f"k={self.query.k}")
        if self.predicate is not None:
            parts.append(f"filter<{self.predicate.max_position}")
        return ", ".join(parts)


FULL_ATTENTION_PLAN = ExecutionPlan(query_kind=QueryKind.FULL, index_kind=None)
"""Attend every visible stored token: no retrieval, one un-gathered partial
per range."""


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
    block_scores: np.ndarray | None = None
    """Coarse retrieval only: this head's relevance score of every block of
    the searched range, ``(num_blocks,)`` — what a cross-range re-selection
    concatenates to reproduce the single-range block choice."""

    @property
    def num_selected(self) -> int:
        return int(self.positions.shape[0])


@dataclass
class LayerIndexData:
    """One layer of one stored-KV token range: its KV and range-local indexes.

    A single-owner context is one range starting at token 0; a sharded
    context is several, each resolved through its owner.  Not every field is
    populated: the flat path only needs ``keys``; the fine path needs the
    per-KV-head RoarGraph indexes; the coarse path needs the block indexes.
    """

    keys: np.ndarray
    """Key vectors ``(num_kv_heads, n, head_dim)`` of the range."""

    values: np.ndarray | None = None
    """Value vectors, same shape as ``keys`` (attention needs them; pure
    retrieval callers may leave them out)."""

    fine_indexes: list[RoarGraphIndex] | None = None
    """One RoarGraph per KV head (GQA-shared)."""

    coarse_indexes: list[CoarseBlockIndex] | None = None
    """One coarse block index per KV head."""

    flat_indexes: list[FlatIndex] = field(default_factory=list)
    """Lazily-created flat indexes per KV head."""

    position_offset: int = 0
    """Global position of this range's first token.  Every retrieval outcome
    reports positions in the *global* token space of the full context; window
    seeds and the index structures themselves stay range-local."""

    def to_global(self, positions: np.ndarray) -> np.ndarray:
        """Map local retrieval positions into global token space."""
        if self.position_offset == 0:
            return positions
        return positions + np.int64(self.position_offset)

    def to_local(self, positions: np.ndarray) -> np.ndarray:
        """The global ``positions`` that fall inside this range, range-local."""
        local = np.asarray(positions, dtype=np.int64) - np.int64(self.position_offset)
        return local[(local >= 0) & (local < self.keys.shape[1])]

    def has_index(self, index_kind: str | None) -> bool:
        """Whether the range carries the index a plan of ``index_kind`` reads
        (a flat scan or full attention needs only the keys)."""
        if index_kind == IndexKind.FINE:
            return self.fine_indexes is not None
        if index_kind == IndexKind.COARSE:
            return self.coarse_indexes is not None
        return True

    def fine_index_for_kv_head(self, kv_head: int) -> RoarGraphIndex:
        if not self.fine_indexes:
            raise PlanningError("fine-grained indexes are not available for this layer")
        return self.fine_indexes[kv_head]

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
        query-to-representative matmul the same way.  Fine DIPR retrieval
        walks each KV head's RoarGraph once for the query heads of its group
        with the group-frontier search: one shared visited set and frontier,
        fused hop scoring, per-head thresholds, shared distance computations
        counted once per group.  Fine top-k is a different query (a
        fixed-size beam search) and runs once per head.

        Query head ``h`` reads KV head ``h // (num_query_heads //
        num_kv_heads)``, the group size taken from ``queries`` and
        ``data.keys``.  ``kv_head_of_query`` is the multi-session entry
        point: when a decode round stacks several sessions' query heads over
        one shared context, it maps each stacked row to its KV head (the
        default only holds for a single session's heads).  All rows
        probing one KV head — across every stacked session — then share a
        single scan, which is the cross-request retrieval gemm.  Only the
        scan-based kinds accept the mapping; fine walks are data-dependent
        per session and are dispatched one session at a time.
        """
        if plan.is_full:
            raise PlanningError("full-attention plans attend every token: there is nothing to retrieve")
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

    def retrieve_ranges(
        self,
        plan: ExecutionPlan,
        ranges: list[LayerIndexData],
        queries: np.ndarray,
        window_max_scores: np.ndarray | None = None,
        kv_head_of_query: np.ndarray | None = None,
    ) -> list[RetrievalOutcome]:
        """Run ``plan`` over the ``R >= 1`` token ranges holding one stored context.

        Every range answers :meth:`retrieve_heads` against its own range-local
        indexes, with ``plan``'s (global) predicate rewritten into its token
        space; the plan's selection rule is then re-applied over the union so
        the outcome is what a single index over the whole context returns:

        * **DIPR** (flat, fine) keeps what scores within ``beta`` of the
          *global* best — exact for the flat scan; for fine walks (a range's
          graph only connects its own tokens) the standard distributed-ANN
          merge;
        * **top-k** (flat, fine) keeps the ``k`` best of the union;
        * **coarse** concatenates the per-range block-score rows — ranges
          start on block boundaries, so range-local blocks are the global
          index's blocks — and reruns the shared top-block selection.

        A single range has nothing to re-select: its outcomes are returned
        as they are.
        """
        per_range = [
            self.retrieve_heads(range_plan, data, queries, window_max_scores, kv_head_of_query)
            for data in ranges
            if (range_plan := _plan_for_range(plan, data)) is not None
        ]
        if len(per_range) == 1:
            return per_range[0]

        top_blocks = None
        if plan.index_kind == IndexKind.COARSE:
            block_scores = np.concatenate(
                [np.stack([o.block_scores for o in outcomes]) for outcomes in per_range], axis=1
            )
            num_blocks = max(1, min(self.coarse_num_blocks, block_scores.shape[1]))
            top_blocks = CoarseBlockIndex.top_blocks_from_scores(block_scores, num_blocks)
            blocks_per_range = [outcomes[0].block_scores.shape[0] for outcomes in per_range]
            first_block = np.cumsum([0] + blocks_per_range[:-1])
            block_size = ranges[0].coarse_index_for_kv_head(0).block_size

        merged = []
        for row in range(len(per_range[0])):
            parts = [outcomes[row] for outcomes in per_range]
            positions = np.concatenate([part.positions for part in parts])
            scores = np.concatenate([part.scores for part in parts])
            limit = None
            if top_blocks is not None:
                # coarse plans search every range, so parts align with ranges
                block_of = np.concatenate(
                    [
                        first + (part.positions - data.position_offset) // block_size
                        for first, data, part in zip(first_block, ranges, parts)
                    ]
                )
                keep = np.isin(block_of, top_blocks[row])
                positions, scores = positions[keep], scores[keep]
            elif isinstance(plan.query, DIPRQuery):
                if positions.shape[0]:
                    # the global best replaces each range's local best
                    keep = scores >= scores.max() - plan.query.beta
                    positions, scores = positions[keep], scores[keep]
                limit = plan.query.max_tokens
            else:
                limit = int(plan.query.k)
            if limit is not None and positions.shape[0] > limit:
                order = np.argsort(-scores)[:limit]
                positions, scores = positions[order], scores[order]
            merged.append(
                RetrievalOutcome(
                    positions,
                    scores,
                    sum(part.num_distance_computations for part in parts),
                    int(positions.shape[0]),
                    num_hops=sum(part.num_hops for part in parts),
                )
            )
        return merged

    def _retrieve_fine_heads(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        queries: np.ndarray,
        window_max_scores: np.ndarray | None,
        num_tokens: int,
    ) -> list[RetrievalOutcome]:
        num_heads = queries.shape[0]
        if isinstance(plan.query, TopKQuery):
            group_size = _group_size(num_heads, data)
            return [
                self._retrieve_fine(plan, data, head // group_size, queries[head], num_tokens)
                for head in range(num_heads)
            ]
        if not isinstance(plan.query, DIPRQuery):
            raise UnsupportedQueryError(f"fine index cannot process {plan.query!r}")
        # one walk per KV head's index, serving its query heads together
        filtered = () if plan.predicate is None else (plan.predicate,)
        search = filtered_diprs_search_group if filtered else diprs_search_group
        outcomes: list[RetrievalOutcome | None] = [None] * num_heads
        for kv_head, heads in self._heads_by_kv_head(data, num_heads).items():
            index = data.fine_index_for_kv_head(kv_head)
            seeds = None
            if plan.use_window_seed and window_max_scores is not None:
                seeds = window_max_scores[heads]
            results, stats = search(
                index.vectors,
                index.graph,
                queries[heads],
                plan.query.beta,
                [index.entry_point],
                *filtered,
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
        if kv_head_of_query is None:
            kv_head_of_query = np.arange(num_heads) // _group_size(num_heads, data)
        groups: dict[int, list[int]] = {}
        for head, kv_head in enumerate(kv_head_of_query.tolist()):
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
            block_scores = index.block_scores_batch(queries[heads])
            top_blocks = index.top_blocks_from_scores(block_scores, num_blocks)
            per_head_positions = [index.positions_of_blocks(row) for row in top_blocks]
            distance_computations = index.num_blocks * index.num_representatives
            if plan.predicate is not None:
                # the predicate is global and filters *after* selection:
                # hidden blocks still compete for the selection slots
                visible = plan.predicate.max_position - data.position_offset
                per_head_positions = [
                    positions[positions < visible] for positions in per_head_positions
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
                    data.to_global(positions),
                    group_scores[slot],
                    distance_computations,
                    len(positions),
                    block_scores=block_scores[slot],
                )
        return outcomes

    def _retrieve_fine(
        self,
        plan: ExecutionPlan,
        data: LayerIndexData,
        kv_head: int,
        query: np.ndarray,
        num_tokens: int,
    ) -> RetrievalOutcome:
        """Top-k of one query head over its KV head's RoarGraph (a fixed-size
        beam search)."""
        index = data.fine_index_for_kv_head(kv_head)
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


def _group_size(num_heads: int, data: LayerIndexData) -> int:
    """Query heads per KV head: ``num_heads`` query rows over ``data``'s keys."""
    return max(1, num_heads // data.keys.shape[0])


def _plan_for_range(plan: ExecutionPlan, data: LayerIndexData) -> ExecutionPlan | None:
    """``plan`` with its global predicate rewritten into ``data``'s token space.

    ``None`` when the predicate hides the whole range.  Coarse plans pass
    through unchanged: their predicate filters the selected positions, not
    the candidates, and the executor applies it in global space.
    """
    if plan.predicate is None or data.position_offset == 0 or plan.index_kind == IndexKind.COARSE:
        return plan
    visible = plan.predicate.max_position - data.position_offset
    if visible <= 0:
        return None
    return replace(plan, predicate=FilterPredicate(max_position=visible))
