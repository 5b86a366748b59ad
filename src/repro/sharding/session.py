"""A session connected to a *sharded* context instead of a single stored one.

:class:`ShardedSession` is the session kind :meth:`DB.create_session
<repro.core.db.DB.create_session>` returns when the prompt's prefix match
lands on a context in the shard catalog.  It is scheduled, batched,
preempted, cancelled and stored like any other session; the one difference
is where the reused prefix lives — on the shard owners, as ``R`` token
ranges — so the session keeps everything request-local (window bookkeeping,
local KV, optimizer plans, decode statistics) and resolves the stored ranges
through a *fan-out* object (the
:class:`~repro.sharding.router.ShardedContextRouter`).  Attention is the one
execution every session runs — per-range partials plus a local partial, over
``R`` ranges instead of one — for prefill and decode, sparse plans and full
attention alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.planner import LayerIndexData
from ..core.session import Session
from .plan import ShardPlan, shard_context_id

__all__ = ["ShardedContextRef", "ShardedSession"]


@dataclass(frozen=True)
class ShardedContextRef:
    """Catalog entry for one sharded context.

    Holds what the router and its sessions need *without* touching any KV
    data: the shard plan and which layers were stored (which indexes a layer
    carries is read off the ranges the owners resolve).  The token sequence
    stays where prompts are matched — in the store's trie, under the
    (spilled) base context of the same id.
    """

    context_id: str
    plan: ShardPlan
    num_layers: int
    layers: frozenset[int]

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
    * ``layer_ranges(ref, layer) -> list[LayerIndexData]`` —
      the shard owners' KV and range-local indexes for one layer, in token
      order (what attention and late materialization read).

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
        prompt_length: int | None = None,
    ):
        # set before Session.__init__, which plans through the fan-out
        self.sharded_ref = ref
        self._fanout = fanout
        super().__init__(
            config=config,
            reused_prefix_length=ref.num_tokens if reused_prefix_length is None else reused_prefix_length,
            num_layers=ref.num_layers,
            prompt_length=prompt_length,
        )

    # ------------------------------------------------------------------
    # connection state (no StoredContext is attached locally)
    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        return self.sharded_ref is not None and self.reused_prefix_length > 0

    @property
    def _reuses_strict_prefix(self) -> bool:
        return self.is_connected and self.reused_prefix_length < self.sharded_ref.num_tokens

    @property
    def reused_tokens(self) -> list[int]:
        return self._fanout.context_tokens(self.sharded_ref)[: self.reused_prefix_length]

    # ------------------------------------------------------------------
    # the stored prefix (resolved through the shard owners)
    # ------------------------------------------------------------------
    def _stored_ranges(self, layer: int) -> list[LayerIndexData]:
        if not self.is_connected or layer not in self.sharded_ref.layers:
            return []
        return self._fanout.layer_ranges(self.sharded_ref, layer)
