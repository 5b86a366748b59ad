"""Scheduler rounds: one attention pass per layer over every in-flight session.

The scheduler serves every in-flight request — its next prefill chunk or its
next decode token — with one ragged forward pass; a
:class:`CrossRequestDecodeRound` is that pass's attention hook.  Per layer it
appends every session's KV, answers a prefilling session's rows — however
many, a lone row included — with its exact
:meth:`~repro.core.session.Session.causal_attention`, groups the decoding
sessions by compatibility key — stored context, reused prefix,
plan and window geometry — and runs each group of ``S >= 1`` sessions
through :func:`~repro.core.session.group_attention`: under a sparse plan flat/coarse
scans stack into one gemm over the concatenated query heads and fine (DIPRS)
walks stay per session (frontier expansion is data-dependent) but share one
scratch; under a full-attention plan — nothing reused, a short context or a
missing index — retrieval is skipped.  Either way the per-range and local
partials merge with one stacked engine call.

A session's output and integer :class:`~repro.core.session.DecodeStepStats`
do not depend on what else is in the round, nor on how its prompt was
chunked.  The round makes no dense/sparse decision of its own: each
session's optimizer plan, fixed when the session was created (see
:meth:`~repro.core.session.Session.decode_plan`), is the only one, and a plan
difference changes a session's group key, not the code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .session import Session, group_attention

__all__ = ["StageTimings", "CrossRequestDecodeRound"]


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


class CrossRequestDecodeRound:
    """Executes one scheduler round's attention over ``S >= 1`` sessions.

    Plugged into ``TransformerModel.forward_rows`` as the ``attention_round``
    hook: the model calls :meth:`layer_attention` once per layer with the
    projected Q/K/V of every row, and receives the attention rows back.
    ``sessions`` must align with the ``caches`` the model passes, and
    ``prefilling[i]`` says whether session ``i``'s rows are a prefill chunk
    (else one decode token).
    """

    def __init__(
        self,
        sessions: list[Session],
        prefilling: list[bool],
        timings: StageTimings | None = None,
    ):
        self.sessions = list(sessions)
        self.prefilling = list(prefilling)
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
        KV first; a prefilling session answers its rows with its own
        :meth:`Session.causal_attention` whatever their count, and the
        decoding sessions run group by group (sessions are independent, so
        the order leaves each one's view unchanged).
        """
        num_heads, total, head_dim = q.shape
        attn = np.empty((total, num_heads * head_dim), dtype=np.float32)
        starts, singles = [], []
        start = 0
        for i, (cache, n, prefill) in enumerate(zip(caches, rows, self.prefilling)):
            span = slice(start, start + n)
            cache.update_query(q[:, span], k[:, span], v[:, span], layer)
            if prefill:
                output = cache.causal_attention(q[:, span], layer)
                attn[span] = np.transpose(output, (1, 0, 2)).reshape(n, -1)
            else:
                singles.append(i)
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
