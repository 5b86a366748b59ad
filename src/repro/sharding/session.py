"""A session connected to a *sharded* context instead of a single stored one.

:class:`ShardedSession` is the session kind :meth:`DB.create_session
<repro.core.db.DB.create_session>` returns when the prompt's prefix match
lands on a context in the shard catalog.  It is scheduled, batched,
preempted, cancelled and stored like any other session; the one difference
is where the reused prefix lives — on the shard owners, as ``R`` token
ranges — so the session keeps everything request-local (window bookkeeping,
local KV, optimizer plans, decode statistics) and resolves the stored ranges
through a *fan-out* object (the
:class:`~repro.sharding.router.ShardedContextRouter`).  Sparse decode is the
one execution every session runs (:func:`~repro.core.session.sparse_group_attention`
over ``R`` ranges instead of one); only the dense path — multi-token prefill
and dense decode layers — still fans out on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.planner import LayerIndexData
from ..core.session import Session
from ..query.types import IndexKind
from .plan import ShardPlan, shard_context_id

__all__ = ["ShardedContextRef", "ShardedSession"]


@dataclass(frozen=True)
class ShardedContextRef:
    """Catalog entry for one sharded context.

    Holds what the router and its sessions need *without* touching any KV
    data: the shard plan and which layers carry which index kinds (so plan
    routing works exactly like :meth:`Session._use_sparse_path` does against
    a resident :class:`~repro.core.context_store.StoredContext`).  The token
    sequence stays where prompts are matched — in the store's trie, under
    the (spilled) base context of the same id.
    """

    context_id: str
    plan: ShardPlan
    num_layers: int
    layers: frozenset[int]
    fine_layers: frozenset[int]
    coarse_layers: frozenset[int]

    @property
    def num_tokens(self) -> int:
        return self.plan.num_tokens

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def shard_id_of(self, shard_id: int) -> str:
        """The storage/catalog id of shard ``shard_id``."""
        return shard_context_id(self.context_id, shard_id)


class ShardedSession(Session):
    """A running request whose reused prefix lives on N shard owners.

    ``fanout`` provides

    * ``context_tokens(ref) -> list[int]`` — the sharded context's token ids,
    * ``layer_ranges(ref, layer, gqa_group_size) -> list[LayerIndexData]`` —
      the shard owners' KV and range-local indexes for one layer, in token
      order (what sparse decode and late materialization read),
    * ``dense_attention(session, q, layer) -> outputs`` for exact causal
      attention over the sharded prefix plus the session's local KV
      (``q`` is ``(num_query_heads, seq, head_dim)``).

    Nothing is reloaded or pinned locally: the owners hold the shards
    resident for as long as they own them.  Everything else — window
    positions, local KV, plan selection, stats — is inherited from
    :class:`Session` unchanged, so the optimizer's routing rules apply
    identically to sharded and single-owner serving.
    """

    def __init__(
        self,
        ref: ShardedContextRef,
        fanout,
        config=None,
        reused_prefix_length: int | None = None,
        gpu_memory_budget_bytes: int | None = None,
    ):
        super().__init__(
            config=config,
            context=None,
            num_layers=ref.num_layers,
            gpu_memory_budget_bytes=gpu_memory_budget_bytes,
        )
        self.sharded_ref = ref
        self._fanout = fanout
        # Session.__init__ zeroes the reused prefix when no StoredContext is
        # attached; the sharded prefix is reused through the fan-out instead
        self.reused_prefix_length = (
            ref.num_tokens if reused_prefix_length is None else int(reused_prefix_length)
        )

    # ------------------------------------------------------------------
    # connection state (no StoredContext is attached locally)
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        return self.sharded_ref is not None and self.reused_prefix_length > 0

    @property
    def reused_tokens(self) -> list[int]:
        return self._fanout.context_tokens(self.sharded_ref)[: self.reused_prefix_length]

    def _use_sparse_path(self, layer: int) -> bool:
        if self.decode_mode_override == "dense":
            return False
        if not self.is_connected:
            return False
        ref = self.sharded_ref
        if layer not in ref.layers:
            return False
        plan = self._plans_for_context().get(layer)
        if plan is None or plan.is_full_attention:
            return False
        # shard indexes are built eagerly at shard time, so availability is a
        # property of the ref, not of any one worker's residency state
        if plan.index_kind == IndexKind.FINE and layer not in ref.fine_layers:
            return False
        if plan.index_kind == IndexKind.COARSE and layer not in ref.coarse_layers:
            return False
        return True

    # ------------------------------------------------------------------
    # the stored prefix (resolved through the shard owners)
    # ------------------------------------------------------------------
    def _stored_ranges(self, layer: int) -> list[LayerIndexData]:
        gqa_group_size = self._dims.gqa_group_size if self._dims is not None else 1
        return self._fanout.layer_ranges(self.sharded_ref, layer, gqa_group_size)

    def _materialized_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """The owners' slices ``[:reused_prefix_length]`` + the local KV."""
        local_keys, local_values = self.local_snapshot(layer)
        if not self.is_connected or layer not in self.sharded_ref.layers:
            return local_keys, local_values
        ranges = self._stored_ranges(layer)
        prefix = self.reused_prefix_length
        keys = np.concatenate([data.keys for data in ranges], axis=1)[:, :prefix, :]
        values = np.concatenate([data.values for data in ranges], axis=1)[:, :prefix, :]
        if local_keys.shape[1] == 0:
            return keys, values
        return (
            np.concatenate([keys, local_keys], axis=1),
            np.concatenate([values, local_values], axis=1),
        )

    def _full_attention(self, q: np.ndarray, layer: int) -> np.ndarray:
        if self.is_connected and layer in self.sharded_ref.layers:
            return self._fanout.dense_attention(self, q, layer)
        return super()._full_attention(q, layer)
