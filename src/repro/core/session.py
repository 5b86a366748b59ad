"""The ``Session`` abstraction: a running inference request connected to contexts.

A session plays the role HuggingFace's ``DynamicCache`` plays in the coupled
architecture (Figure 4 of the paper): the model pushes Q/K/V into it per layer
and asks it for attention outputs.  Unlike ``DynamicCache`` the session

* may be *connected to a stored context* whose KV cache and vector indexes are
  reused instead of recomputed (prefix reuse),
* keeps newly generated KV in a small **local cache** rather than inserting it
  into the index immediately (late materialization, Section 7.2),
* answers every attention call with the data-centric engine — per-range
  partials plus a local partial, merged once — retrieving critical tokens
  first when the optimizer's plan for the layer is a sparse one.  The plans
  are decided once, when the session is created.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SessionClosedError
from ..kvcache.cache import LayerKVCache
from .attention_engine import DataCentricAttentionEngine
from .config import AlayaDBConfig
from .context_store import StoredContext
from .optimizer import QueryContext, RuleBasedOptimizer
from ..query.types import IndexKind
from .planner import FULL_ATTENTION_PLAN, ExecutionPlan, LayerIndexData, PlanExecutor
from .window_cache import WindowCache

if TYPE_CHECKING:
    from .decode_round import StageTimings

__all__ = [
    "DecodeStepStats",
    "LayerInputs",
    "Session",
    "decode_stats_from",
    "group_attention",
]


@dataclass
class DecodeStepStats:
    """Work performed by the last decode step (summed over layers and heads)."""

    num_selected_tokens: int = 0
    """Stored tokens attended outside the window, summed over heads: the
    retrieved sets, or every visible stored token under a full-attention plan."""
    num_distance_computations: int = 0
    num_graph_hops: int = 0
    """Fine-index traversal hops; shared group-frontier walks count once per
    GQA group (the executor attributes them to the group's first head)."""
    num_window_tokens: int = 0
    num_local_tokens: int = 0
    num_heads: int = 0

    def merge(self, other: "DecodeStepStats") -> None:
        self.num_selected_tokens += other.num_selected_tokens
        self.num_distance_computations += other.num_distance_computations
        self.num_graph_hops += other.num_graph_hops
        self.num_window_tokens += other.num_window_tokens
        self.num_local_tokens += other.num_local_tokens
        self.num_heads += other.num_heads

    @property
    def mean_selected_per_head(self) -> float:
        return self.num_selected_tokens / max(self.num_heads, 1)


@dataclass
class LayerInputs:
    """Everything one layer's attention reads, resolved once per step.

    Produced by :meth:`Session.layer_inputs`; a decode round reads the
    compatibility key off it before handing the group to
    :func:`group_attention`.
    """

    plan: ExecutionPlan
    """What a single-token step executes (see :meth:`Session.decode_plan`)."""
    ranges: list[LayerIndexData]
    """The ``R >= 0`` token ranges holding the stored context, in token
    order: none for an unconnected session, one for a single-owner context,
    one per shard for a sharded one."""
    prefix: int
    window_positions: np.ndarray
    local_keys: np.ndarray
    local_values: np.ndarray

    @property
    def kv_identity(self) -> tuple[int, ...]:
        """Identity of the stored KV arrays: sessions stack only over the same ones."""
        return tuple(id(data.keys) for data in self.ranges)


def _visible_slabs(
    ranges: list[LayerIndexData], prefix: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(start, keys, values)`` of each range cut at the reused prefix —
    views of the tokens ``[start, min(stop, prefix))``; ranges wholly past
    the prefix drop out."""
    slabs = []
    for data in ranges:
        visible = prefix - data.position_offset
        if visible > 0:
            slabs.append((data.position_offset, data.keys[:, :visible], data.values[:, :visible]))
    return slabs


def decode_stats_from(outcomes, breakdowns) -> DecodeStepStats:
    """Fold per-head attention breakdowns + retrieval outcomes (none under a
    full-attention plan) into step stats."""
    stats = DecodeStepStats(num_heads=len(breakdowns))
    for breakdown in breakdowns:
        stats.num_selected_tokens += breakdown.num_retrieved_tokens
        stats.num_window_tokens += breakdown.num_window_tokens
        stats.num_local_tokens += breakdown.num_local_tokens
    for outcome in outcomes:
        stats.num_distance_computations += outcome.num_distance_computations
        stats.num_graph_hops += outcome.num_hops
    return stats


@dataclass
class _ModelDims:
    """Model shape inferred from the tensors flowing through the session."""

    num_query_heads: int
    num_kv_heads: int
    head_dim: int

    @property
    def gqa_group_size(self) -> int:
        return self.num_query_heads // self.num_kv_heads


class Session:
    """A connection between running inference and the stored contexts."""

    def __init__(
        self,
        config: AlayaDBConfig | None = None,
        context: StoredContext | None = None,
        reused_prefix_length: int = 0,
        num_layers: int | None = None,
        prompt_length: int | None = None,
        on_close=None,
    ):
        self.config = config or AlayaDBConfig()
        self.context = context
        self.reused_prefix_length = int(reused_prefix_length)
        if context is not None and self.reused_prefix_length <= 0:
            self.reused_prefix_length = context.num_tokens
        self._num_layers = num_layers or (context.num_layers if context is not None else None)
        self._on_close = on_close

        self._closed = False
        self._dims: _ModelDims | None = None
        self._local: dict[int, LayerKVCache] = {}
        self._query_samples: dict[int, list[np.ndarray]] = {}
        self._layer_data: dict[int, LayerIndexData] = {}

        self.window = WindowCache(self.config.window_initial_tokens, self.config.window_last_tokens)
        self.engine = DataCentricAttentionEngine()
        self.executor = PlanExecutor(coarse_num_blocks=self.config.coarse_num_blocks)
        self.optimizer = RuleBasedOptimizer(self.config)
        self.last_decode_stats = DecodeStepStats()
        self.total_decode_stats = DecodeStepStats()
        self.num_decode_steps = 0
        # ``prompt_length`` defaults to the reused prefix: a session stepped
        # directly decodes right after it
        self._plans = self._plan_layers(
            self.reused_prefix_length if prompt_length is None else int(prompt_length)
        )

    # ------------------------------------------------------------------
    # lifecycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback()

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosedError("this session has been closed")

    def detach_on_close(self):
        """Take ownership of the close callback (the stored-context unpin).

        Preemption releases the session's pin on its stored context while the
        session stays alive; detaching the callback keeps a later ``close()``
        from unpinning a second time — which would steal another session's
        pin on the same context.  Returns the callback (or ``None``).
        """
        callback, self._on_close = self._on_close, None
        return callback

    def attach_on_close(self, callback) -> None:
        """Re-attach a close callback (when a resumed request re-pins)."""
        self._on_close = callback

    def invalidate_context_caches(self) -> None:
        """Drop cached references into the stored context's KV arrays.

        Called when a preempted request resumes: its context may have been
        spilled and reloaded in between, replacing the snapshot's arrays, and
        the per-layer index data must be rebuilt against the fresh ones.
        """
        self._layer_data.clear()

    @property
    def is_connected(self) -> bool:
        """True when the session reuses a stored context."""
        return self.context is not None and self.reused_prefix_length > 0

    @property
    def _reuses_strict_prefix(self) -> bool:
        """True when the reused prefix stops short of the stored context's end.

        Only then may the stored index return tokens the session must not
        see, so only then does the plan carry a filter predicate.
        """
        return self.is_connected and self.reused_prefix_length < self.context.num_tokens

    @property
    def reused_tokens(self) -> list[int]:
        """Token ids of the reused prefix (empty when nothing is reused)."""
        if self.context is None:
            return []
        return self.context.tokens[: self.reused_prefix_length]

    @property
    def num_layers(self) -> int:
        if self._num_layers is not None:
            return self._num_layers
        return max(self._local) + 1 if self._local else 0

    def local_length(self, layer: int = 0) -> int:
        cache = self._local.get(layer)
        return len(cache) if cache is not None else 0

    def sequence_length(self, layer: int = 0) -> int:
        """Total visible context length: reused prefix + locally appended tokens."""
        return self.reused_prefix_length + self.local_length(layer)

    @property
    def query_samples(self) -> dict[int, np.ndarray]:
        """Captured query vectors per layer, ``(num_query_heads, m, head_dim)``
        (a stored context keeps only the sample drawn from them)."""
        stacked: dict[int, np.ndarray] = {}
        for layer, samples in self._query_samples.items():
            stacked[layer] = np.concatenate(samples, axis=1) if samples else np.empty((0, 0, 0), dtype=np.float32)
        return stacked

    def local_snapshot(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys/values appended locally for ``layer`` (may be empty arrays)."""
        cache = self._local.get(layer)
        if cache is None:
            if self._dims is None:
                empty = np.empty((0, 0, 0), dtype=np.float32)
                return empty, empty
            empty = np.empty((self._dims.num_kv_heads, 0, self._dims.head_dim), dtype=np.float32)
            return empty, empty
        return cache.keys, cache.values

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def gpu_memory_bytes(self) -> int:
        """Bytes this session pins in (simulated) GPU memory.

        The window cache and the local (unmaterialised) KV stay on the GPU;
        the stored context's KV and indexes stay on CPU/disk, and only
        attention outputs cross the boundary.
        """
        if self._dims is None:
            return 0
        dims = self._dims
        layers = max(self.num_layers, 1)
        window_bytes = self.window.memory_bytes(
            self.reused_prefix_length, dims.num_kv_heads, dims.head_dim, layers
        )
        local_bytes = sum(cache.nbytes for cache in self._local.values())
        coarse_bytes = 0
        if self.plans_index(IndexKind.COARSE) and self.context is not None:
            coarse_bytes = sum(
                sum(index.memory_bytes for index in indexes)
                for indexes in self.context.coarse_indexes.values()
            )
        return window_bytes + local_bytes + coarse_bytes

    # ------------------------------------------------------------------
    # cache-protocol surface (what the model calls)
    # ------------------------------------------------------------------
    def update_query(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, layer: int) -> None:
        """Register new Q/K/V for ``layer`` (Table 2: ``Session.update``).

        Keys/values are appended to the local cache (late materialization);
        query vectors are kept so that ``DB.store`` can draw from them the
        sample the OOD-aware RoarGraph indexes are built from.
        """
        self._require_open()
        q = np.asarray(q, dtype=np.float32)
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        if self._dims is None:
            self._dims = _ModelDims(num_query_heads=q.shape[0], num_kv_heads=k.shape[0], head_dim=q.shape[2])
        cache = self._local.get(layer)
        if cache is None:
            cache = LayerKVCache(k.shape[0], k.shape[2])
            self._local[layer] = cache
        cache.append(k, v)
        self._query_samples.setdefault(layer, []).append(q.copy())

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        """Attention output for ``q`` at ``layer`` (Table 2: ``Session.attention``).

        ``q`` has shape ``(num_query_heads, seq, head_dim)``.  Multi-token
        queries (the prefill of the non-reused suffix) run
        :meth:`causal_attention`; single-token queries (decode) run the
        layer's plan, fixed when the session was created, as a group of one.
        The scheduler's round knows which rows are prefill and sends them to
        :meth:`causal_attention` whatever their count.  Either way the output
        is one merge of per-range partials and a local partial.
        """
        self._require_open()
        q = np.asarray(q, dtype=np.float32)
        if q.ndim != 3:
            raise ValueError(f"expected q of shape (heads, seq, head_dim), got {q.shape}")
        if q.shape[1] > 1:
            return self.causal_attention(q, layer)
        members = [(self, self.layer_inputs(layer))]
        return group_attention(layer, members, q[:, 0, :][None])[0][:, None, :]

    def causal_attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        """Exact causal attention for prefill rows ``q``, whatever their count.

        No plan is consulted: each row attends the visible stored prefix and
        the local KV up to its own position.
        """
        self._require_open()
        slabs = _visible_slabs(self._stored_ranges(layer), self.reused_prefix_length)
        return self.engine.causal_output(q, slabs, *self.local_snapshot(layer))

    def materialized_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Full KV visible at ``layer``: stored prefix + locally appended.

        This is the late-materialization point ``DB.store`` reads when a
        session's accumulated state is persisted as a new context.
        """
        return self._materialized_kv(layer)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _materialized_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """The visible stored ranges' KV concatenated with the local KV."""
        local_keys, local_values = self.local_snapshot(layer)
        slabs = _visible_slabs(self._stored_ranges(layer), self.reused_prefix_length)
        keys = [slab_keys for _, slab_keys, _ in slabs]
        values = [slab_values for _, _, slab_values in slabs]
        if local_keys.shape[1] > 0 or not slabs:
            keys.append(local_keys)
            values.append(local_values)
        if len(keys) == 1:
            return keys[0], values[0]
        return np.concatenate(keys, axis=1), np.concatenate(values, axis=1)

    def _plan_layers(self, prompt_length: int) -> dict[int, ExecutionPlan]:
        """The optimizer's plan for every layer, decided once.

        Everything the optimizer reads is known when the prompt is matched:
        the context the first decode attends over (the prompt plus that
        token) and the stored keys' shape.  A session that reuses nothing
        plans nothing: it runs full attention.
        """
        if not self.is_connected:
            return {}
        num_kv_heads, _, head_dim = self._stored_ranges(0)[0].keys.shape
        query_context = QueryContext(
            context_length=prompt_length + 1,
            layer=0,
            head_dim=head_dim,
            num_kv_heads=num_kv_heads,
            num_layers=max(self.num_layers, 1),
            reused_prefix_length=self.reused_prefix_length if self._reuses_strict_prefix else None,
        )
        return self.optimizer.plan_all_layers(query_context)

    def plan_for_layer(self, layer: int) -> ExecutionPlan:
        """The optimizer's plan for ``layer`` (public for inspection/benchmarks)."""
        return self._plans.get(layer, FULL_ATTENTION_PLAN)

    @property
    def plans(self) -> dict[int, ExecutionPlan]:
        """Every layer's plan, decided when the session was created (empty
        for a session that reuses nothing)."""
        return dict(self._plans)

    def plans_index(self, kind: str) -> bool:
        """True when some layer's plan reads the ``kind`` index."""
        return any(plan.index_kind == kind for plan in self._plans.values())

    def _layer_index_data(self, layer: int) -> LayerIndexData:
        context = self.context
        data = self._layer_data.get(layer)
        if data is None:
            data = self._layer_data[layer] = LayerIndexData(
                keys=context.keys(layer), values=context.values(layer)
            )
        # another session's creation may build the indexes after this
        # layer's first use
        data.fine_indexes = context.fine_indexes.get(layer)
        data.coarse_indexes = context.coarse_indexes.get(layer)
        return data

    # ------------------------------------------------------------------
    # the pieces a decode round assembles (S >= 1 sessions per group)
    # ------------------------------------------------------------------
    def _stored_ranges(self, layer: int) -> list[LayerIndexData]:
        """The token ranges holding the reused context's ``layer``: the one
        stored context, or none when nothing is reused (the hook a sharded
        session overrides)."""
        if not self.is_connected or layer not in self.context.snapshot.keys:
            return []
        return [self._layer_index_data(layer)]

    def decode_plan(self, layer: int) -> ExecutionPlan:
        """The plan a single-token decode at ``layer`` executes.

        The optimizer's per-session plan is the only dense/sparse decision:
        full attention when the session reuses nothing, the optimizer says so
        (a short context), or a range lacks the index the plan needs — a
        different group key for the decode round, not a different code path.
        """
        return self.layer_inputs(layer).plan

    def layer_inputs(self, layer: int) -> LayerInputs:
        """Resolve the state one attention call at ``layer`` reads.

        The local snapshot reflects KV appended so far, so call this *after*
        ``update_query`` for the step's tokens.
        """
        plan = self.plan_for_layer(layer)
        ranges = self._stored_ranges(layer)
        if not ranges or not all(data.has_index(plan.index_kind) for data in ranges):
            plan = FULL_ATTENTION_PLAN
        local_keys, local_values = self.local_snapshot(layer)
        prefix = self.reused_prefix_length
        return LayerInputs(
            plan=plan,
            ranges=ranges,
            prefix=prefix,
            window_positions=self.window.positions(prefix),
            local_keys=local_keys,
            local_values=local_values,
        )

    def fine_window_seeds(self, inputs: LayerInputs, queries: np.ndarray) -> np.ndarray:
        """Per-head window seeds for a fine (DIPRS) retrieval at this step.

        The window maxima — the max over every range's slice of the window —
        floored by one matvec per head over the local KV when there is any:
        the seed must not depend on what else is stacked in the round,
        because it drives DIPRS pruning (and through it the integer work
        stats).
        """
        dims = self._dims
        window_max = np.full(dims.num_query_heads, -np.inf, dtype=np.float32)
        for data in inputs.ranges:
            np.maximum(
                window_max,
                self.window.max_window_scores(
                    queries, data.keys, data.to_local(inputs.window_positions)
                ),
                out=window_max,
            )
        if inputs.local_keys.shape[1] > 0:
            for head in range(dims.num_query_heads):
                local_best = float(
                    (inputs.local_keys[head // dims.gqa_group_size] @ queries[head]).max()
                )
                window_max[head] = max(float(window_max[head]), local_best)
        return window_max

    def record_decode_stats(self, stats: DecodeStepStats, layer: int) -> None:
        """Account one layer's decode work (steps counted on the last layer).

        Called by :func:`group_attention` for the work executed on this
        session's behalf, whatever the plan.
        """
        self.last_decode_stats = stats
        self.total_decode_stats.merge(stats)
        if layer == self.num_layers - 1:
            self.num_decode_steps += 1


def group_attention(
    layer: int,
    members: list[tuple[Session, LayerInputs]],
    queries: np.ndarray,
    timings: StageTimings | None = None,
) -> np.ndarray:
    """One layer's single-token attention for ``S >= 1`` sessions over the
    ``R >= 0`` token ranges holding their stored context.

    The one execution of the paper's query-processing procedure: [window
    seeds → ``PlanExecutor.retrieve_ranges`` (per-range ``retrieve_heads`` +
    one cross-range re-selection), skipped by a full-attention plan] → one
    stacked partial-attention merge → per-session :class:`DecodeStepStats`.
    ``members`` share a stored context, reused prefix, plan and window
    geometry (the decode round's compatibility key; a session stepped alone
    is a group of one) and ``queries`` is ``(S, num_query_heads, head_dim)``
    in member order.  Flat/coarse scans stack every member's query heads
    into one gemm per KV head and range; fine (DIPRS) walks are
    data-dependent, so they run per member — through the first member's
    executor, sharing its frontier scratch.  ``timings`` accumulates the
    retrieval / merge wall-time split.  Returns ``(S, num_query_heads,
    head_dim)`` attention outputs.
    """
    first_session, shared = members[0]
    plan = shared.plan
    ranges = shared.ranges
    executor = first_session.executor
    num_sessions, num_heads, head_dim = queries.shape

    started = time.perf_counter() if timings is not None else 0.0
    outcomes = []
    if plan.is_full:
        retrieved = None  # every visible stored token is attended as it lies
    else:
        if plan.index_kind == IndexKind.FINE:
            for (session, inputs), session_queries in zip(members, queries):
                # retrieve_heads decides whether the plan consumes the seeds
                seeds = session.fine_window_seeds(inputs, session_queries)
                outcomes.extend(
                    executor.retrieve_ranges(plan, ranges, session_queries, window_max_scores=seeds)
                )
        else:
            group_size = num_heads // ranges[0].keys.shape[0]
            kv_head_of_query = np.tile(np.arange(num_heads, dtype=np.int64) // group_size, num_sessions)
            outcomes = executor.retrieve_ranges(
                plan,
                ranges,
                queries.reshape(num_sessions * num_heads, head_dim),
                kv_head_of_query=kv_head_of_query,
            )
        retrieved = [outcome.positions[outcome.positions < shared.prefix] for outcome in outcomes]
    if timings is not None:
        now = time.perf_counter()
        timings.retrieval_seconds += now - started
        started = now

    outputs, breakdowns = first_session.engine.stacked_layer_output(
        queries,
        _visible_slabs(ranges, shared.prefix),
        window_positions=shared.window_positions,
        retrieved_positions=retrieved,
        local_keys=[inputs.local_keys for _, inputs in members],
        local_values=[inputs.local_values for _, inputs in members],
    )
    if timings is not None:
        timings.merge_seconds += time.perf_counter() - started

    for s, (session, _inputs) in enumerate(members):
        rows = slice(s * num_heads, (s + 1) * num_heads)
        session.record_decode_stats(decode_stats_from(outcomes[rows], breakdowns[rows]), layer)
    return outputs
