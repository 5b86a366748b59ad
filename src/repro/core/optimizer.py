"""The rule-based query optimizer (Figure 8 of the paper).

Given a context and the serving constraints, the optimizer picks an execution
plan per layer:

1. *Short contexts* are answered with full attention — retrieval overhead
   would dominate any savings.
2. *Partial prefix reuse* — a session reusing a strict prefix of the stored
   context — attaches an attribute-filter predicate carrying the reused
   prefix length.  A session that reuses the whole stored context and adds
   its own tokens gets no predicate: every stored token is visible to it.
3. With a *large GPU memory budget* the whole context's blocks fit on the
   GPU, so the coarse block index with a top-k query (the InfLLM execution
   path) gives the lowest latency.
4. With a *limited budget* the optimizer selects the DIPR query; the first
   layer (which needs a large number of critical tokens, Figure 5) runs it on
   the flat index, every other layer on the fine-grained graph index.

Both the query-type and index-type sets are extensible: registering a new
rule ahead of the defaults lets deployments specialise the decision without
forking the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..query.types import DIPRQuery, FilterPredicate, IndexKind, QueryKind, TopKQuery
from .config import AlayaDBConfig
from .planner import FULL_ATTENTION_PLAN, ExecutionPlan

__all__ = ["QueryContext", "RuleBasedOptimizer", "OptimizerRule"]


@dataclass(frozen=True)
class QueryContext:
    """Everything the optimizer may inspect when planning one layer."""

    context_length: int
    layer: int
    head_dim: int
    num_kv_heads: int
    num_layers: int
    reused_prefix_length: int | None = None
    """The reused prefix length when it is a strict prefix of the stored
    context, else ``None``.  ``context_length`` cannot tell: it also counts
    the session's local tokens."""

    @property
    def is_partial_reuse(self) -> bool:
        """True when the session reuses a strict prefix of the stored context."""
        return self.reused_prefix_length is not None and self.reused_prefix_length > 0


OptimizerRule = Callable[[QueryContext, AlayaDBConfig], ExecutionPlan | None]
"""A rule inspects the query context and either returns a plan or defers."""


class RuleBasedOptimizer:
    """Applies an ordered list of rules; the first plan returned wins."""

    def __init__(self, config: AlayaDBConfig | None = None):
        self.config = config or AlayaDBConfig()
        self._rules: list[OptimizerRule] = [
            self._rule_short_context,
            self._rule_coarse_when_budget_allows,
            self._rule_dipr_by_layer,
        ]

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def register_rule(self, rule: OptimizerRule, priority: int = 0) -> None:
        """Insert a custom rule; ``priority`` is the index in the rule list."""
        self._rules.insert(priority, rule)

    def plan(self, query_context: QueryContext) -> ExecutionPlan:
        """Produce the execution plan for one layer of one context."""
        for rule in self._rules:
            plan = rule(query_context, self.config)
            if plan is not None:
                return plan
        # unreachable with the default rules, but a safe fallback regardless
        return FULL_ATTENTION_PLAN

    def plan_all_layers(self, query_context: QueryContext) -> dict[int, ExecutionPlan]:
        """Plans for every layer of the model serving this context.

        The per-layer contexts are derived with :func:`dataclasses.replace`
        so every field of ``query_context`` — including ones added later —
        reaches the per-layer planning unchanged.
        """
        return {
            layer: self.plan(replace(query_context, layer=layer))
            for layer in range(query_context.num_layers)
        }

    # ------------------------------------------------------------------
    # helpers shared by the rules
    # ------------------------------------------------------------------
    def _predicate(self, query_context: QueryContext) -> FilterPredicate | None:
        if query_context.is_partial_reuse:
            return FilterPredicate(max_position=query_context.reused_prefix_length)
        return None

    def _dipr_query(self, query_context: QueryContext) -> DIPRQuery:
        return DIPRQuery(
            beta=self.config.scaled_beta(query_context.head_dim),
            capacity_threshold=self.config.dipr_capacity_threshold,
            max_tokens=self.config.max_retrieved_tokens,
        )

    # ------------------------------------------------------------------
    # default rules, in priority order
    # ------------------------------------------------------------------
    def _rule_short_context(self, query_context: QueryContext, config: AlayaDBConfig) -> ExecutionPlan | None:
        if query_context.context_length <= config.short_context_threshold:
            return FULL_ATTENTION_PLAN
        return None

    def _rule_coarse_when_budget_allows(self, query_context: QueryContext, config: AlayaDBConfig) -> ExecutionPlan | None:
        # the context's KV footprint: K + V, float32, every layer
        bytes_per_token = (
            2 * query_context.num_kv_heads * query_context.head_dim * 4 * query_context.num_layers
        )
        if query_context.context_length * bytes_per_token > config.gpu_memory_budget_bytes:
            return None
        return ExecutionPlan(
            query_kind=QueryKind.TOP_K,
            index_kind=IndexKind.COARSE,
            query=TopKQuery(k=config.topk_k),
            predicate=self._predicate(query_context),
        )

    def _rule_dipr_by_layer(self, query_context: QueryContext, config: AlayaDBConfig) -> ExecutionPlan | None:
        index_kind = IndexKind.FLAT if query_context.layer in config.flat_index_layers else IndexKind.FINE
        return ExecutionPlan(
            query_kind=QueryKind.DIPR,
            index_kind=index_kind,
            query=self._dipr_query(query_context),
            predicate=self._predicate(query_context),
        )
