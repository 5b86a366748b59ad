"""Synthetic long-context workload generation.

The paper evaluates on ∞-Bench and LongBench with Llama-3-8B-Instruct-262k.
Neither the datasets nor the model are available offline, so this module
generates synthetic workloads that control the property those experiments
actually measure: **how the attention mass of each head distributes over the
context, and which positions carry the evidence the task needs**.

For every KV head the generator plants

* a set of *evidence (needle) positions* whose keys align strongly with the
  decode queries — the tokens a correct answer must attend to, and
* a per-head number of *critical tokens* (evidence plus distractors with
  elevated scores), drawn from a task-specific distribution, which reproduces
  the observation of Figure 5 that different heads need wildly different
  numbers of tokens.

Everything else is low-scoring background.  Because the score structure is
planted, the ground-truth attention distribution, the recovery ratio and the
evidence coverage of any sparse-attention method can be computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.context_store import StoredContext
from ..kvcache.serialization import KVSnapshot

__all__ = ["ScoringMode", "WorkloadSpec", "SyntheticWorkload", "generate_workload"]


class ScoringMode:
    """How a task converts attended positions into a quality score."""

    NEEDLE = "needle"
    """Exact retrieval: a query is correct only if *every* evidence position
    of the designated retrieval head is attended (Retr.KV, Retr.P, ...)."""

    RECOVERY = "recovery"
    """Graded comprehension: the score is the fraction of the full-attention
    probability mass captured by the attended positions (En.QA, En.Sum, ...)."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic task."""

    name: str
    context_length: int = 8192
    num_layers: int = 1
    num_query_heads: int = 8
    num_kv_heads: int = 4
    head_dim: int = 32
    num_decode_steps: int = 8

    num_evidence_tokens: int = 2
    """Evidence (needle) positions per decode step."""

    critical_fraction_low: float = 0.002
    critical_fraction_high: float = 0.02
    """Per-head critical-token counts are drawn log-uniformly between these
    fractions of the context length (heads differ, as in Figure 5)."""

    evidence_margin: float = 5.0
    """Extra boost of the evidence keys along the step's evidence direction,
    on top of the critical boost; larger = easier task."""

    critical_margin: float = 9.0
    """Boost of critical-token keys along the head's critical direction.
    With the default query construction this translates into a pre-softmax
    logit gap of roughly ``0.55 x critical_margin`` over the background for
    the evidence head (and the full margin for the other heads), i.e. the
    critical tokens dominate the softmax mass the way they do in real
    long-context attention."""

    index_query_fraction: float = 0.4
    """Historical (prefill-style) query vectors generated per KV-head group
    for index construction, as a fraction of the context length — the paper
    samples 40% of the key count.  These are what make RoarGraph's bipartite
    projection interconnect the critical tokens densely."""

    scoring: str = ScoringMode.NEEDLE
    paper_full_attention_score: float = 100.0
    """The score the paper reports for full attention on this task (used only
    for labelling the benchmark output)."""

    paper_context_length: int = 100_000
    """The real task's average context length, used by the latency/memory
    models so modelled numbers refer to paper-scale contexts."""

    seed: int = 0

    @property
    def gqa_group_size(self) -> int:
        return self.num_query_heads // self.num_kv_heads


@dataclass
class SyntheticWorkload:
    """A generated task instance ready for method evaluation."""

    spec: WorkloadSpec
    context: StoredContext
    decode_queries: np.ndarray
    """Decode query vectors, ``(num_decode_steps, num_layers, num_query_heads, head_dim)``."""

    evidence_positions: np.ndarray
    """Evidence positions per step, ``(num_decode_steps, num_evidence_tokens)``."""

    evidence_heads: np.ndarray
    """The query heads whose retrieval is responsible for each step's answer,
    ``(num_decode_steps,)``."""

    critical_counts: np.ndarray
    """Planted number of critical tokens per (layer, kv head)."""

    critical_positions: dict = field(default_factory=dict)
    """``{(layer, kv_head): np.ndarray}`` of planted critical positions."""

    @property
    def context_length(self) -> int:
        return self.spec.context_length

    def query_for(self, step: int, layer: int, query_head: int) -> np.ndarray:
        return self.decode_queries[step, layer, query_head]

    def true_scores(self, step: int, layer: int, kv_head: int, query_head: int | None = None) -> np.ndarray:
        """Exact pre-softmax logits of one head's query against the full context."""
        if query_head is None:
            query_head = kv_head * self.spec.gqa_group_size
        query = self.decode_queries[step, layer, query_head]
        keys = self.context.keys(layer)[kv_head]
        return (keys @ query) / np.sqrt(self.spec.head_dim)


def _unit(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector


def generate_workload(spec: WorkloadSpec) -> SyntheticWorkload:
    """Generate a synthetic workload according to ``spec``.

    Construction per (layer, kv head):

    1. background keys ~ isotropic Gaussian with small norm;
    2. a per-head *critical direction*; the head's planted critical tokens are
       background + ``critical_margin`` along that direction;
    3. per decode step, the evidence positions additionally receive
       ``evidence_margin`` along the step's *evidence direction*;
    4. decode queries are the sum of the head's critical direction and the
       step's evidence direction plus noise, so the evidence positions have
       the largest inner products, followed by the head's critical tokens,
       followed by background.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.context_length, spec.head_dim
    num_layers, num_kv, num_q = spec.num_layers, spec.num_kv_heads, spec.num_query_heads
    group = spec.gqa_group_size

    # evidence positions (globally unique so no token is boosted twice) and
    # the heads responsible for finding them
    margin_tokens = spec.context_length // 20
    middle = np.arange(margin_tokens, spec.context_length - margin_tokens, dtype=np.int64)
    drawn = rng.choice(middle, size=spec.num_decode_steps * spec.num_evidence_tokens, replace=False)
    evidence_positions = drawn.reshape(spec.num_decode_steps, spec.num_evidence_tokens).astype(np.int64)
    evidence_heads = rng.integers(0, num_q, size=spec.num_decode_steps).astype(np.int64)

    # per-head critical-token counts (log-uniform between the spec fractions)
    log_low = np.log(max(spec.critical_fraction_low * n, 1.0))
    log_high = np.log(max(spec.critical_fraction_high * n, 2.0))
    critical_counts = np.exp(rng.uniform(log_low, log_high, size=(num_layers, num_kv))).astype(np.int64)
    critical_counts = np.clip(critical_counts, 1, n // 2)

    keys: dict[int, np.ndarray] = {}
    values: dict[int, np.ndarray] = {}
    critical_positions: dict[tuple[int, int], np.ndarray] = {}
    critical_directions = np.empty((num_layers, num_kv, d), dtype=np.float32)
    evidence_directions = np.empty((spec.num_decode_steps, d), dtype=np.float32)
    for step in range(spec.num_decode_steps):
        evidence_directions[step] = _unit(rng.normal(size=d)).astype(np.float32)

    for layer in range(num_layers):
        layer_keys = rng.normal(0.0, 0.35, size=(num_kv, n, d)).astype(np.float32)
        layer_values = rng.normal(0.0, 1.0, size=(num_kv, n, d)).astype(np.float32)
        all_evidence = np.unique(evidence_positions.reshape(-1))
        non_evidence = np.setdiff1d(np.arange(n, dtype=np.int64), all_evidence)
        for kv_head in range(num_kv):
            direction = _unit(rng.normal(size=d)).astype(np.float32)
            critical_directions[layer, kv_head] = direction
            count = int(critical_counts[layer, kv_head])
            # critical distractors never coincide with evidence positions, so
            # no token is boosted twice and the evidence stays the per-head
            # score maximum for its step's query
            positions = rng.choice(non_evidence, size=min(count, non_evidence.shape[0]), replace=False).astype(np.int64)
            critical_positions[(layer, kv_head)] = np.sort(positions)
            layer_keys[kv_head, positions, :] += spec.critical_margin * direction
            # evidence tokens are the strongest critical tokens: they carry the
            # head's critical direction *and* the step's evidence direction,
            # so they out-score the distractor criticals for the evidence head
            for step in range(spec.num_decode_steps):
                planted = evidence_positions[step]
                layer_keys[kv_head, planted, :] += (
                    spec.critical_margin * direction
                    + spec.evidence_margin * evidence_directions[step]
                )
        keys[layer] = layer_keys
        values[layer] = layer_values

    # decode queries: evidence-seeking for the responsible head, generic
    # critical-direction queries for the others
    decode_queries = np.empty((spec.num_decode_steps, num_layers, num_q, d), dtype=np.float32)
    for step in range(spec.num_decode_steps):
        for layer in range(num_layers):
            for query_head in range(num_q):
                kv_head = query_head // group
                base = critical_directions[layer, kv_head].copy()
                if query_head == int(evidence_heads[step]):
                    base = base + 1.5 * evidence_directions[step]
                noise = rng.normal(0.0, 0.15, size=d).astype(np.float32)
                decode_queries[step, layer, query_head] = (_unit(base) * np.sqrt(d) + noise).astype(np.float32)

    # historical (prefill-style) query vectors used for index construction:
    # drawn from the same distribution as the decode queries, with per-query
    # noise so different queries surface different critical tokens and the
    # bipartite projection interconnects the whole critical set.  They are
    # emitted grouped by KV head, (num_kv_heads, group * m, d), the shape of a
    # snapshot's query sample; a build draws its sample from them.
    queries_per_head = max(16, int(spec.index_query_fraction * n / max(group, 1)))
    index_queries: dict[int, np.ndarray] = {}
    for layer in range(num_layers):
        per_layer = np.empty((num_q, queries_per_head, d), dtype=np.float32)
        for query_head in range(num_q):
            kv_head = query_head // group
            direction = critical_directions[layer, kv_head]
            mix = rng.normal(0.0, 0.4, size=(queries_per_head, 1)).astype(np.float32)
            evidence_mix = evidence_directions[rng.integers(0, spec.num_decode_steps, size=queries_per_head)]
            base = direction[None, :] + mix * evidence_mix
            base = base / np.linalg.norm(base, axis=1, keepdims=True)
            noise = rng.normal(0.0, 0.3, size=(queries_per_head, d)).astype(np.float32)
            per_layer[query_head] = base * np.sqrt(d) + noise
        index_queries[layer] = per_layer.reshape(num_kv, group * queries_per_head, d)

    tokens = list(rng.integers(0, 255, size=n).astype(int))
    snapshot = KVSnapshot(tokens=tokens, keys=keys, values=values, query_samples=index_queries)
    context = StoredContext(context_id=f"workload-{spec.name}", snapshot=snapshot)

    return SyntheticWorkload(
        spec=spec,
        context=context,
        decode_queries=decode_queries,
        evidence_positions=evidence_positions,
        evidence_heads=evidence_heads,
        critical_counts=critical_counts,
        critical_positions=critical_positions,
    )
