"""Scheduler rounds: one attention pass per layer over every in-flight session.

The scheduler serves every in-flight request — its next prefill chunk or its
next decode token — with one ragged forward pass; a
:class:`CrossRequestDecodeRound` is that pass's attention hook.  Per layer it
appends every session's KV, answers a session with several rows (a prefill
chunk) with its causal :meth:`~repro.core.session.Session.attention`, groups
the one-row sessions by compatibility key — stored context, reused prefix,
plan and window geometry — and runs each group of ``S >= 1`` sessions
through :func:`~repro.core.session.group_attention`: under a sparse plan flat/coarse
scans stack into one gemm over the concatenated query heads and fine (DIPRS)
walks stay per session (frontier expansion is data-dependent) but share one
scratch; under a full-attention plan — nothing reused, a short context, a
missing index, or pinned dense by the policy below — retrieval is skipped.
Either way the per-range and local partials merge with one stacked engine
call.

A session's output and integer :class:`~repro.core.session.DecodeStepStats`
do not depend on what else is in the round.

:class:`DynamicAttentionPolicy` is the ALISA-style dense/sparse switcher:
while admission budget pressure is low a session may run exact dense
attention (accuracy costs nothing when memory is plentiful); as pressure
rises past the sparse watermark it flips back to retrieval.  Watermark
hysteresis plus a minimum dwell keep sessions from thrashing between modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .session import Session, group_attention

__all__ = [
    "StageTimings",
    "PolicyState",
    "DynamicAttentionPolicy",
    "CrossRequestDecodeRound",
]


@dataclass
class StageTimings:
    """Wall-clock split of decode work across the serving stack.

    ``retrieval_seconds`` covers index scans/walks (and their seeds),
    ``merge_seconds`` the partial-attention computation and merge,
    whatever the plan (a full-attention plan spends nothing on retrieval),
    ``dense_seconds`` everything else in the forward pass (embedding,
    projections, MLP, LM head), and ``rounds`` the number of decode rounds
    the split was measured over.
    """

    retrieval_seconds: float = 0.0
    merge_seconds: float = 0.0
    dense_seconds: float = 0.0
    rounds: int = 0

    @property
    def sparse_seconds(self) -> float:
        return self.retrieval_seconds + self.merge_seconds


@dataclass(frozen=True)
class PolicyState:
    """One session's position in the dense/sparse hysteresis loop."""

    mode: str = "sparse"
    steps_in_mode: int = 0


class DynamicAttentionPolicy:
    """Per-session dense/sparse switching under budget pressure (ALISA-style).

    The transition function is deliberately pure (``step``) so its
    properties — monotonicity in pressure, the hysteresis band, the dwell
    bound — are directly testable: pressure at or above
    ``sparse_watermark`` targets sparse, at or below ``dense_watermark``
    targets dense, anything between keeps the current mode, and a switch is
    only taken after ``min_dwell_steps`` steps in the current mode.
    """

    def __init__(
        self,
        dense_watermark: float = 0.35,
        sparse_watermark: float = 0.75,
        min_dwell_steps: int = 4,
    ):
        if not 0.0 <= dense_watermark <= sparse_watermark:
            raise ValueError(
                f"watermarks must satisfy 0 <= dense <= sparse, "
                f"got dense={dense_watermark} sparse={sparse_watermark}"
            )
        if min_dwell_steps < 0:
            raise ValueError(f"min_dwell_steps must be non-negative, got {min_dwell_steps}")
        self.dense_watermark = dense_watermark
        self.sparse_watermark = sparse_watermark
        self.min_dwell_steps = min_dwell_steps
        self._states: dict[int, PolicyState] = {}

    def initial(self) -> PolicyState:
        """A fresh session starts sparse with its dwell already served, so
        the first decode step may take the dense mode if pressure is low."""
        return PolicyState(mode="sparse", steps_in_mode=self.min_dwell_steps)

    def step(self, state: PolicyState, pressure: float) -> PolicyState:
        """Advance one decode step under ``pressure`` (pure transition)."""
        target = state.mode
        if pressure >= self.sparse_watermark:
            target = "sparse"
        elif pressure <= self.dense_watermark:
            target = "dense"
        if target != state.mode and state.steps_in_mode >= self.min_dwell_steps:
            return PolicyState(mode=target, steps_in_mode=1)
        return PolicyState(mode=state.mode, steps_in_mode=state.steps_in_mode + 1)

    def apply(self, key: int, session: Session, pressure: float) -> str:
        """Advance the tracked state for ``key`` and set the session's
        decode-mode override accordingly; returns the mode chosen."""
        state = self.step(self._states.get(key) or self.initial(), pressure)
        self._states[key] = state
        session.decode_mode_override = "dense" if state.mode == "dense" else None
        return state.mode

    def forget(self, key: int) -> None:
        """Drop a finished/cancelled request's state."""
        self._states.pop(key, None)


class CrossRequestDecodeRound:
    """Executes one scheduler round's attention over ``S >= 1`` sessions.

    Plugged into ``TransformerModel.forward_rows`` as the ``attention_round``
    hook: the model calls :meth:`layer_attention` once per layer with the
    projected Q/K/V of every row, and receives the attention rows back.
    ``sessions`` must align with the ``caches`` the model passes.
    """

    def __init__(self, sessions: list[Session], timings: StageTimings | None = None):
        self.sessions = list(sessions)
        self.timings = timings

    def layer_attention(
        self,
        layer: int,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        caches: list,
        rows: list[int],
    ) -> np.ndarray:
        """Attention rows ``(sum(rows), num_query_heads * head_dim)`` for one layer.

        ``q``/``k``/``v`` are ``(heads, sum(rows), head_dim)``; ``rows[i]``
        consecutive rows belong to session ``i``.  Every session appends its
        KV first; a session with several rows (a prefill chunk) answers them
        with its own causal :meth:`Session.attention`, and the one-row
        sessions run group by group (sessions are independent, so the order
        leaves each one's view unchanged).
        """
        num_heads, total, head_dim = q.shape
        attn = np.empty((total, num_heads * head_dim), dtype=np.float32)
        starts, singles = [], []
        start = 0
        for i, (cache, n) in enumerate(zip(caches, rows)):
            span = slice(start, start + n)
            cache.update_query(q[:, span], k[:, span], v[:, span], layer)
            if n == 1:
                singles.append(i)
            else:
                attn[span] = np.transpose(cache.attention(q[:, span], layer), (1, 0, 2)).reshape(n, -1)
            starts.append(start)
            start += n

        for indices, members in self._classify(layer, singles):
            positions = [starts[i] for i in indices]
            queries = q.transpose(1, 0, 2)[positions]  # (S, heads, head_dim), one copy
            outputs = group_attention(layer, members, queries, self.timings)
            attn[positions] = outputs.reshape(len(indices), -1)
        return attn

    def _classify(self, layer: int, indices: list[int]):
        """Split the sessions at ``indices`` into compatibility groups.

        The compatibility key pins everything the stacked kernels assume is
        shared: the stored KV arrays of every range holding the context (by
        identity; none for a session that reuses nothing), the reused prefix,
        the exact plan (frozen dataclass — hashable), and the window geometry.
        Returns ``[(session indices, [(session, inputs), ...]), ...]``.
        """
        by_key: dict[tuple, tuple[list, list]] = {}
        for i in indices:
            session = self.sessions[i]
            inputs = session.layer_inputs(layer)
            key = (
                inputs.kv_identity,
                inputs.prefix,
                inputs.plan,
                session.config.window_initial_tokens,
                session.config.window_last_tokens,
            )
            indices, members = by_key.setdefault(key, ([], []))
            indices.append(i)
            members.append((session, inputs))
        return list(by_key.values())
