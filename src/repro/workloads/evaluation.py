"""Evaluation harness: run a selection strategy over a synthetic workload.

One evaluation run replays every decode step of a workload against a
strategy, records which positions each head attends (resident window ∪
retrieved), and aggregates

* the task quality score (needle accuracy or recovery ratio, per the task's
  scoring mode),
* the retrieval work (selected tokens, distance computations) needed by the
  latency model, and
* the GPU-resident token count needed by the memory model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import SelectionStrategy
from ..simulator.cost_model import CostModel
from ..scheduler.slo import SLO
from .generator import ScoringMode, SyntheticWorkload
from .scoring import needle_hit, recovery_ratio

__all__ = ["MethodEvaluation", "evaluate_strategy"]


@dataclass
class MethodEvaluation:
    """Aggregated result of evaluating one method on one workload."""

    method: str
    workload: str
    quality: float
    mean_selected_per_head: float
    mean_distance_computations: float
    resident_tokens: int
    gpu_tokens: int
    num_steps: int
    per_step_quality: list[float] = field(default_factory=list)

    def modeled_tpot_seconds(
        self,
        cost_model: CostModel,
        context_length: int | None = None,
        *,
        empty_selection: str = "dense",
    ) -> float:
        """Modelled decode latency per token at paper scale.

        Fractional per-head work is rounded *up*: a strategy whose mean
        selection is 0.9 tokens per head still pays for one token, instead of
        being flattened to zero work by an ``int()`` floor.

        ``empty_selection`` says what a run that recorded no selection work at
        all (no retrieved tokens *and* no resident window) means:

        * ``"dense"`` — the method attends densely without reporting per-head
          selections; its decode is modelled as full attention over
          ``context_length`` (which must then be provided);
        * ``"none"`` — the method legitimately attends nothing (an empty
          selection), modelled as zero attended tokens.
        """
        if empty_selection not in ("dense", "none"):
            raise ValueError(
                f"empty_selection must be 'dense' or 'none', got {empty_selection!r}"
            )
        shape = cost_model.shape
        selected = self.mean_selected_per_head + self.resident_tokens
        if self.mean_selected_per_head == 0 and self.resident_tokens == 0:
            if empty_selection == "dense":
                if context_length is None:
                    raise ValueError(
                        "a run with no recorded selection work is modelled as dense "
                        "attention; pass context_length (or empty_selection='none' "
                        "for a method that truly attends nothing)"
                    )
                selected = context_length
        return cost_model.sparse_decode_seconds(
            num_selected_tokens=int(math.ceil(selected)),
            num_distance_computations=int(math.ceil(self.mean_distance_computations)),
            num_heads_searched=shape.num_query_heads * shape.num_layers,
        )

    def modeled_full_tpot_seconds(self, cost_model: CostModel, context_length: int) -> float:
        return cost_model.full_decode_seconds(context_length)

    def meets_slo(self, cost_model: CostModel, slo: SLO, context_length: int, is_full_attention: bool = False) -> bool:
        if is_full_attention:
            return slo.check_tpot(self.modeled_full_tpot_seconds(cost_model, context_length))
        return slo.check_tpot(self.modeled_tpot_seconds(cost_model, context_length))

    def gpu_memory_bytes(self, cost_model: CostModel, include_weights: bool = True) -> int:
        """Modelled GPU bytes at paper scale: weights + resident KV."""
        shape = cost_model.shape
        kv = self.gpu_tokens * shape.kv_bytes_per_token
        weights = shape.weight_bytes if include_weights else 0
        return int(kv + weights)


def evaluate_strategy(
    strategy: SelectionStrategy,
    workload: SyntheticWorkload,
    include_local_window: bool = True,
) -> MethodEvaluation:
    """Replay every decode step of ``workload`` against ``strategy``."""
    spec = workload.spec
    strategy.prepare(workload.context, spec.num_query_heads)
    context_length = spec.context_length
    resident = strategy.resident_positions(context_length)

    per_step_quality: list[float] = []
    total_selected = 0
    total_distance = 0
    num_selections = 0

    for step in range(spec.num_decode_steps):
        evidence = workload.evidence_positions[step]
        evidence_head = int(workload.evidence_heads[step])
        step_recoveries: list[float] = []
        step_hits: list[bool] = []
        for layer in range(spec.num_layers):
            for query_head in range(spec.num_query_heads):
                kv_head = query_head // spec.gqa_group_size
                query = workload.query_for(step, layer, query_head)
                outcome = strategy.select(layer, query_head, query, context_length)
                total_selected += outcome.num_selected
                total_distance += outcome.num_distance_computations
                num_selections += 1
                attended = outcome.positions
                if include_local_window and resident.size:
                    attended = np.union1d(attended, resident)
                true_scores = workload.true_scores(step, layer, kv_head, query_head)
                step_recoveries.append(recovery_ratio(true_scores, attended))
                if query_head == evidence_head:
                    step_hits.append(needle_hit(evidence, attended))
        if spec.scoring == ScoringMode.NEEDLE:
            per_step_quality.append(100.0 * (1.0 if step_hits and all(step_hits) else 0.0))
        else:
            per_step_quality.append(100.0 * float(np.mean(step_recoveries)))

    quality = float(np.mean(per_step_quality)) if per_step_quality else 0.0
    return MethodEvaluation(
        method=strategy.describe(),
        workload=spec.name,
        quality=quality,
        mean_selected_per_head=total_selected / max(num_selections, 1),
        mean_distance_computations=total_distance / max(num_selections, 1),
        resident_tokens=int(resident.shape[0]),
        gpu_tokens=strategy.gpu_token_equivalent(context_length),
        num_steps=spec.num_decode_steps,
        per_step_quality=per_step_quality,
    )
