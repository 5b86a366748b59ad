"""Sharded context serving: catalog, placement and per-range fan-out.

The simulation harness for range-partitioned serving: a
:class:`WorkerGroup` holds N in-process :class:`~repro.core.service.InferenceService`
workers over one *shared* :class:`~repro.storage.backend.StorageBackend`
(no real RPC — every "remote call" is a Python method call on the owning
worker), and a :class:`ShardedContextRouter` keeps the shard catalog, places
shards on workers, and resolves a context's token ranges through their
owners.  Requests do not enter here: they are submitted to the router's
front :attr:`~ShardedContextRouter.service` like any other request, and
:meth:`DB.create_session <repro.core.db.DB.create_session>` hands back a
:class:`~repro.sharding.session.ShardedSession` when the prompt's prefix
match lands on a catalogued context — from there the one scheduler admits,
prefills, batches, preempts, cancels and stores it.

Attention is the one execution (:func:`~repro.core.session.group_attention`,
for a decode token and for a prefill chunk's rows alike) iterated over the ranges
:meth:`ShardedContextRouter.layer_ranges` returns — no KV is gathered at the
router.  Under a sparse plan:

1. *(fine plans only)* *window seeds* — the max window score over each
   range's slice of the attention window, maxed across ranges and floored by
   the session's local KV, reproducing the unsharded seed (it gates DIPRS
   pruning decisions);
2. *retrieval* — each range answers the layer's plan against its range-local
   indexes and :meth:`PlanExecutor.retrieve_ranges
   <repro.core.planner.PlanExecutor.retrieve_ranges>` re-applies the plan's
   selection rule over the union, so the merged selection matches what a
   single-owner index would return (exact for flat and coarse; the standard
   distributed-ANN merge for fine walks, bit-identical at one range);
3. *partials* — each range contributes one
   :class:`~repro.llm.attention.PartialAttention` over its slice of the
   window and one over its retrieved positions; with the session's local-KV
   partial they merge by log-sum-exp
   (:func:`~repro.llm.attention.combine_partial_attention`), which equals
   the unsharded softmax exactly.

Under a full-attention plan — which every prefill chunk runs — steps 1–2 drop out
and each range contributes one partial over its slice of the reused prefix.

A worker that owns no replica of a shard cold-loads it from the shared
backend (manifest refresh + reload), which is how rebalancing and failover
are modelled.
"""

from __future__ import annotations

from ..core.config import AlayaDBConfig
from ..core.db import DB
from ..core.planner import ExecutionPlan, LayerIndexData
from ..core.service import InferenceService
from ..errors import ContextNotFoundError, ReproError
from ..llm.model import TransformerModel
from ..query.types import IndexKind
from ..storage.backend import InMemoryBackend, StorageBackend
from .plan import ShardRange, parse_shard_id
from .session import ShardedContextRef, ShardedSession

__all__ = ["ShardWorker", "WorkerGroup", "ShardedContextRouter"]


class ShardWorker:
    """One serving process owning a set of context shards.

    Wraps an :class:`InferenceService` (its DB rides on the group's shared
    backend, so every worker sees one durable manifest) and adds the
    shard-owner protocol the router fans out to: a shard layer's KV and
    range-local indexes.
    """

    def __init__(self, worker_id: int, service: InferenceService):
        self.worker_id = worker_id
        self.service = service
        self.owned: dict[str, ShardRange] = {}
        # per-(shard, layer) retrieval views; invalidated when a spill/reload
        # replaces the shard's snapshot arrays
        self._layer_cache: dict[tuple[str, int], LayerIndexData] = {}
        self._cache_snapshots: dict[str, object] = {}

    @property
    def db(self) -> DB:
        return self.service.db

    @property
    def name(self) -> str:
        return f"worker-{self.worker_id}"

    def __repr__(self) -> str:
        return f"ShardWorker({self.name}, owns={sorted(self.owned)})"

    # ------------------------------------------------------------------
    # shard ownership
    # ------------------------------------------------------------------
    def assign(self, shard_cid: str, token_range: ShardRange) -> None:
        self.owned[shard_cid] = token_range

    def unassign(self, shard_cid: str) -> None:
        self.owned.pop(shard_cid, None)
        self._drop_cache(shard_cid)

    def release(self, shard_cid: str) -> None:
        """Drop ownership *and* free the local replica (durable copy stays)."""
        self.unassign(shard_cid)
        store = self.db.store_registry
        if shard_cid in store:
            store.spill(shard_cid)

    def _drop_cache(self, shard_cid: str) -> None:
        for key in [k for k in self._layer_cache if k[0] == shard_cid]:
            del self._layer_cache[key]
        self._cache_snapshots.pop(shard_cid, None)

    def ensure_loaded(self, shard_cid: str):
        """Make the shard resident locally, cold-loading from shared storage.

        A worker that has never seen the shard adopts it from the shared
        manifest first — that is the failover/rebalance path: any worker can
        begin serving any shard straight off the durable backend.
        """
        store = self.db.store_registry
        try:
            context = store.ensure_resident(shard_cid)
        except ContextNotFoundError:
            store.refresh_from_manifest()
            context = store.ensure_resident(shard_cid)
        if self._cache_snapshots.get(shard_cid) is not context.snapshot:
            self._drop_cache(shard_cid)
            self._cache_snapshots[shard_cid] = context.snapshot
        return context

    def build_planned_indexes(self, shard_cid: str, plans: dict[int, ExecutionPlan]) -> None:
        """Build the indexes ``plans`` read that the shard lacks (a prompt
        longer than the one the shard was planned for), and persist them so
        the next owner deserializes them."""
        context = self.ensure_loaded(shard_cid)
        if not self.db._build_planned_indexes(context, plans):
            return
        self.db.store_registry.persist_indexes(shard_cid)
        self._drop_cache(shard_cid)

    def layer_data(self, shard_cid: str, layer: int) -> LayerIndexData:
        context = self.ensure_loaded(shard_cid)
        key = (shard_cid, layer)
        data = self._layer_cache.get(key)
        if data is None:
            data = LayerIndexData(
                keys=context.keys(layer),
                values=context.values(layer),
                fine_indexes=context.fine_indexes.get(layer),
                coarse_indexes=context.coarse_indexes.get(layer),
                query_sample=context.query_samples.get(layer),
                # outcomes come back in *global* token space: the shard's
                # range start travels with its snapshot, so a cold-loaded
                # shard needs no assignment bookkeeping to answer correctly
                position_offset=int(context.snapshot.metadata.get("shard_start", 0)),
            )
            self._layer_cache[key] = data
        return data

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def residency_report(self) -> dict:
        store = self.db.store_registry
        return {
            "resident_bytes": int(store.resident_bytes),
            "resident_kv_bytes": int(store.resident_kv_bytes),
            "total_kv_bytes": int(store.total_kv_bytes),
            "num_owned_shards": len(self.owned),
            "owned_shards": sorted(self.owned),
        }


class WorkerGroup:
    """N in-process workers over one shared storage backend (no real RPC)."""

    def __init__(
        self,
        model: TransformerModel,
        config: AlayaDBConfig | None = None,
        backend: StorageBackend | None = None,
        num_workers: int = 2,
    ):
        if num_workers < 1:
            raise ReproError(f"a worker group needs at least 1 worker, got {num_workers}")
        self.model = model
        self.config = config or AlayaDBConfig()
        self.backend = backend if backend is not None else InMemoryBackend()
        self.workers = [
            ShardWorker(worker_id, InferenceService(model, self.config, backend=self.backend))
            for worker_id in range(num_workers)
        ]

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def worker(self, worker_id: int) -> ShardWorker:
        return self.workers[worker_id]

    def refresh(self) -> None:
        """Have every worker adopt new manifest entries from shared storage."""
        for worker in self.workers:
            worker.db.store_registry.refresh_from_manifest()

    def memory_report(self) -> dict:
        """Per-worker residency plus a per-shard placement/residency map."""
        workers = {worker.name: worker.residency_report() for worker in self.workers}
        shards: dict[str, dict] = {}
        for worker in self.workers:
            contexts = worker.service.memory_report(per_context=True)["contexts"]
            for context_id, row in contexts.items():
                parsed = parse_shard_id(context_id)
                if parsed is None:
                    continue
                base_id, shard_id = parsed
                entry = shards.setdefault(
                    context_id,
                    {
                        "context_id": base_id,
                        "shard_id": shard_id,
                        "kv_bytes": row["kv_bytes"],
                        "owner": None,
                        "resident_on": [],
                    },
                )
                if row["resident"]:
                    entry["resident_on"].append(worker.name)
                if context_id in worker.owned:
                    entry["owner"] = worker.name
        return {"workers": workers, "shards": shards}


class ShardedContextRouter:
    """The shard catalog, shard placement, and the per-range fan-out.

    Ingest prefills a document once, cuts the context into block-aligned
    token-range shards (:meth:`DB.shard_context`), persists them to the
    shared backend, assigns owners (round-robin), and then *frees its own
    copies* — at steady state the KV lives only on the shard owners; the
    spilled base context keeps its tokens in the front store's trie, which is
    how prompts find it.

    Requests go through :attr:`service` — an ordinary
    :class:`InferenceService` over the router's DB with the router attached
    as its shard catalog: ``service.ingest`` shards what it ingests, and a
    request whose prefix matches a catalogued context runs as a
    :class:`ShardedSession` inside the one scheduler (admission, chunked
    prefill, cross-request decode rounds, preemption, cancellation, tenancy,
    the HTTP frontend).
    """

    def __init__(
        self,
        model: TransformerModel,
        num_workers: int = 2,
        config: AlayaDBConfig | None = None,
        backend: StorageBackend | None = None,
        group: WorkerGroup | None = None,
    ):
        self.model = model
        if group is not None:
            self.group = group
            self.config = group.config
            self.backend = group.backend
        else:
            self.config = config or AlayaDBConfig()
            self.backend = backend if backend is not None else InMemoryBackend()
            self.group = WorkerGroup(
                model, config=self.config, backend=self.backend, num_workers=num_workers
            )
        self._catalog: dict[str, ShardedContextRef] = {}
        self._owners: dict[str, ShardWorker] = {}
        self.service = InferenceService(
            model, self.config, backend=self.backend, shard_catalog=self
        )

    @property
    def db(self) -> DB:
        return self.service.db

    @property
    def workers(self) -> list[ShardWorker]:
        return self.group.workers

    def ref(self, context_id: str) -> ShardedContextRef:
        ref = self._catalog.get(context_id)
        if ref is None:
            raise ContextNotFoundError(f"context {context_id!r} is not in the sharded catalog")
        return ref

    def open_session(
        self,
        context_id: str,
        reused_prefix_length: int,
        prompt_length: int,
    ) -> ShardedSession | None:
        """A session over the catalogued context ``context_id``, planned for
        a ``prompt_length``-token prompt, or ``None`` when the context is not
        sharded (what ``DB.create_session`` asks)."""
        ref = self._catalog.get(context_id)
        if ref is None:
            return None
        session = ShardedSession(
            ref=ref,
            fanout=self,
            config=self.config,
            reused_prefix_length=reused_prefix_length,
            prompt_length=prompt_length,
        )
        # what a single owner's create_session does, on every shard owner:
        # an index the session's plans read is there before the first token
        if session.plans_index(IndexKind.FINE) or session.plans_index(IndexKind.COARSE):
            for token_range in ref.plan.ranges:
                shard_cid = ref.shard_id_of(token_range.shard_id)
                self._owners[shard_cid].build_planned_indexes(shard_cid, session.plans)
        return session

    # ------------------------------------------------------------------
    # ingest + placement
    # ------------------------------------------------------------------
    def ingest(
        self,
        document: str | list[int],
        context_id: str | None = None,
        num_shards: int | None = None,
    ) -> ShardedContextRef:
        """Prefill, shard, persist, place; returns the catalog entry."""
        context = self.db._prefilled_context(self.model, document, context_id)
        # no index for the base: sessions over it read the shards' indexes,
        # which shard_context builds over each range
        self.db._register_context(context, overwrite=False, build=False)
        base_id = context.context_id
        layers = frozenset(context.snapshot.keys)  # sharding may spill the base
        plan, shards = self.db.shard_context(base_id, num_shards=num_shards)
        ref = ShardedContextRef(
            context_id=base_id,
            plan=plan,
            num_layers=context.num_layers,
            layers=layers,
        )
        self._catalog[base_id] = ref
        # persist-then-free on the ingest side: spill keeps the durable
        # objects and manifest rows the owners load from (remove would
        # delete them out from under every worker) and the base context's
        # tokens in the trie that prompts are matched against
        store = self.db.store_registry
        for shard in shards:
            store.spill(shard.context_id)
        store.spill(base_id)
        for token_range in plan.ranges:
            self._assign(ref, token_range.shard_id, self._place(token_range.shard_id))
        return ref

    def _place(self, shard_id: int) -> ShardWorker:
        """Round-robin placement."""
        return self.workers[shard_id % len(self.workers)]

    def _assign(self, ref: ShardedContextRef, shard_id: int, worker: ShardWorker) -> None:
        shard_cid = ref.shard_id_of(shard_id)
        previous = self._owners.get(shard_cid)
        if previous is not None and previous is not worker:
            previous.release(shard_cid)
        worker.assign(shard_cid, ref.plan.range_of(shard_id))
        worker.ensure_loaded(shard_cid)
        self._owners[shard_cid] = worker

    def reassign_shard(self, context_id: str, shard_id: int, worker_id: int) -> ShardWorker:
        """Move one shard to another worker (cold-loads from shared storage)."""
        worker = self.group.worker(worker_id)
        self._assign(self.ref(context_id), shard_id, worker)
        return worker

    def shard_owner(self, context_id: str, shard_id: int) -> ShardWorker:
        return self._owners[self.ref(context_id).shard_id_of(shard_id)]

    # ------------------------------------------------------------------
    # fan-out: the ranges attention and late materialization read
    # ------------------------------------------------------------------
    def context_tokens(self, ref: ShardedContextRef) -> list[int]:
        """Token ids of a sharded context (kept by its spilled base context)."""
        return self.db.get_context(ref.context_id).tokens

    def layer_ranges(self, ref: ShardedContextRef, layer: int) -> list[LayerIndexData]:
        """One layer's KV and range-local indexes of every shard, in token
        order, each resolved through the worker that owns the shard now."""
        ranges = []
        for token_range in ref.plan.ranges:
            shard_cid = ref.shard_id_of(token_range.shard_id)
            ranges.append(self._owners[shard_cid].layer_data(shard_cid, layer))
        return ranges

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_report(self) -> dict:
        """Group-wide residency map plus router-side accounting."""
        report = self.group.memory_report()
        report["router"] = {
            "admission_committed_bytes": self.service.scheduler.admission.committed_bytes,
            "num_contexts": len(self._catalog),
            "num_placed_shards": len(self._owners),
        }
        return report
