"""Scheduler rounds: one attention pass per layer over every in-flight session.

The scheduler serves every in-flight request — its next prefill chunk or its
next decode token — with one ragged forward pass; a
:class:`CrossRequestDecodeRound` is that pass's attention hook.  Per layer it
appends every session's KV, groups the sessions by compatibility key —
stored context, reused prefix, plan, window geometry, rows per session and
whether they are a prefill chunk — and runs each group of ``S >= 1``
sessions through :func:`~repro.core.session.group_attention`, the one
attention entry: under a sparse plan (one decode token per session)
flat/coarse scans stack into one gemm over the concatenated query heads and
fine (DIPRS) walks stay per session (frontier expansion is data-dependent)
but share one scratch; under a full-attention plan — nothing reused, a short
context, a missing index, or a prefill chunk's rows, however many, a lone
row included — retrieval is skipped.  Either way the per-range and local
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
    (else one decode token).  Only decode tokens record
    :class:`~repro.core.session.DecodeStepStats` and ``timings``.
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
        KV first; then each compatibility group — decode tokens or prefill
        chunks alike — is one :func:`group_attention` call (sessions are
        independent, so the order leaves each one's view unchanged).
        """
        num_heads, total, head_dim = q.shape
        attn = np.empty((total, num_heads * head_dim), dtype=np.float32)
        starts = []
        start = 0
        for cache, n in zip(caches, rows):
            span = slice(start, start + n)
            cache.update_query(q[:, span], k[:, span], v[:, span], layer)
            starts.append(start)
            start += n

        for n, indices, members in self._classify(layer, rows):
            # the group's rows as (S, heads, n, head_dim) queries: a view
            # for a group of one, one gather otherwise
            size = len(indices)
            if size == 1:
                positions = slice(starts[indices[0]], starts[indices[0]] + n)
            else:
                positions = [row for i in indices for row in range(starts[i], starts[i] + n)]
            queries = q[:, positions].reshape(num_heads, size, n, head_dim).transpose(1, 0, 2, 3)
            outputs = group_attention(layer, members, queries, self.timings)
            attn[positions] = outputs.transpose(0, 2, 1, 3).reshape(size * n, -1)
        return attn

    def _classify(self, layer: int, rows: list[int]):
        """Split the round's sessions into compatibility groups.

        The compatibility key pins everything the stacked kernels assume is
        shared: the stored KV arrays of every range holding the context (by
        identity; none for a session that reuses nothing), the reused prefix,
        the exact plan (frozen dataclass — hashable), the window geometry,
        and the row count and prefill flag — members with different row
        counts never share a gemm, and a prefill chunk is never accounted as
        a decode step.  Returns the groups as ``(rows per member, session
        indices, [(session, inputs), ...])`` triples.
        """
        by_key: dict[tuple, tuple[int, list, list]] = {}
        for i, (session, n, prefill) in enumerate(zip(self.sessions, rows, self.prefilling)):
            inputs = session.layer_inputs(layer, prefill)
            key = (
                tuple([id(data.keys) for data in inputs.ranges]),
                inputs.prefix,
                inputs.plan,
                session.config.window_initial_tokens,
                session.config.window_last_tokens,
                n,
                prefill,
            )
            _, indices, members = by_key.setdefault(key, (n, [], []))
            indices.append(i)
            members.append((session, inputs))
        return by_key.values()
