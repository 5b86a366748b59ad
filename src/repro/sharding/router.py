"""Sharded context serving: a router fanning decode steps out to shard owners.

The simulation harness for range-partitioned serving: a
:class:`WorkerGroup` holds N in-process :class:`~repro.core.service.InferenceService`
workers over one *shared* :class:`~repro.storage.backend.StorageBackend`
(no real RPC — every "remote call" is a Python method call on the owning
worker), and a :class:`ShardedContextRouter` owns admission, the sharded
catalog, and the per-decode-step protocol:

1. *(fine plans only)* *window-seed fan-out* — each owner computes the max
   window score over its slice of the attention window; the router takes the
   elementwise max and applies the session's local-KV floor, reproducing the
   unsharded seed bit-for-bit (it gates DIPRS pruning decisions);
2. *retrieval fan-out* — each owner runs the layer's plan against its
   shard-local indexes (coarse owners return raw block-score rows instead);
   the router merges per index kind so the merged selection matches what a
   single-owner index would return;
3. *attend fan-out* — each owner computes one
   :class:`~repro.llm.attention.PartialAttention` over its slice of the
   window plus its assigned retrieved positions; the router merges the shard
   partials and the session's local-KV partial by log-sum-exp
   (:func:`~repro.llm.attention.combine_partial_attention` — the unsharded
   merge is its 1-shard case), which equals the unsharded softmax exactly.

Cross-shard merge exactness per index kind:

* **flat** — DIPR keeps every position scoring within ``beta`` of the best;
  the router concatenates per-shard DIPR results and re-applies the filter
  against the *global* best, which equals running DIPR over the full key set.
* **coarse** — shard boundaries are block-aligned, so shard-local blocks are
  exactly the global index's blocks over that range; the router concatenates
  per-shard block-score rows and reruns the shared top-k selection
  (:meth:`~repro.index.coarse.CoarseBlockIndex.top_blocks_from_scores`).
* **fine** — a DIPRS graph walk does not decompose exactly (each shard's
  graph only connects its own tokens); the router unions the per-shard walks
  and filters by the global best, which is the standard distributed-ANN merge.
  At one shard it is bit-identical to the unsharded walk.

A worker that owns no replica of a shard cold-loads it from the shared
backend (manifest refresh + touch), which is how rebalancing and failover
are modelled.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.attention_engine import DataCentricAttentionEngine
from ..core.config import AlayaDBConfig
from ..core.db import DB
from ..core.planner import ExecutionPlan, LayerIndexData, PlanExecutor, RetrievalOutcome
from ..core.service import InferenceService
from ..core.session import DecodeStepStats
from ..errors import AdmissionRejectedError, ContextNotFoundError, ReproError
from ..index.coarse import CoarseBlockIndex
from ..llm.attention import PartialAttention, combine_partial_attention, partial_attention
from ..llm.generation import GenerationLoop, GenerationResult
from ..llm.model import TransformerModel
from ..llm.sampling import sample_token
from ..query.types import DIPRQuery, FilterPredicate, IndexKind, TopKQuery
from ..scheduler import AdmissionController
from ..storage.backend import InMemoryBackend, StorageBackend
from .plan import ShardRange, parse_shard_id
from .session import ShardedContextRef, ShardedSession

__all__ = ["ShardWorker", "WorkerGroup", "ShardedContextRouter"]

_EMPTY_POSITIONS = np.empty(0, dtype=np.int64)


class ShardWorker:
    """One serving process owning a set of context shards.

    Wraps an :class:`InferenceService` (its DB rides on the group's shared
    backend, so every worker sees one durable manifest) and adds the
    shard-owner protocol the router fans out to: window seeds, shard-local
    retrieval, raw coarse block scores, and partial attention over the
    shard's KV slice.
    """

    def __init__(self, worker_id: int, service: InferenceService):
        self.worker_id = worker_id
        self.service = service
        self.owned: dict[str, ShardRange] = {}
        self.engine = DataCentricAttentionEngine()
        self.executor = PlanExecutor(coarse_num_blocks=service.config.coarse_num_blocks)
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
        try:
            context = self.db.touch_context(shard_cid)
        except ContextNotFoundError:
            self.db.store_registry.refresh_from_manifest()
            context = self.db.touch_context(shard_cid)
        if self._cache_snapshots.get(shard_cid) is not context.snapshot:
            self._drop_cache(shard_cid)
            self._cache_snapshots[shard_cid] = context.snapshot
        return context

    def layer_data(self, shard_cid: str, layer: int, gqa_group_size: int) -> LayerIndexData:
        context = self.ensure_loaded(shard_cid)
        key = (shard_cid, layer)
        data = self._layer_cache.get(key)
        if data is None:
            fine = context.fine_indexes.get(layer)
            data = LayerIndexData(
                keys=context.keys(layer),
                fine_indexes=fine.indexes if fine is not None else None,
                coarse_indexes=context.coarse_indexes.get(layer),
                shared=fine.shared if fine is not None else True,
                gqa_group_size=gqa_group_size,
                # outcomes come back in *global* token space: the shard's
                # range start travels with its snapshot, so a cold-loaded
                # shard needs no assignment bookkeeping to answer correctly
                position_offset=int(context.snapshot.metadata.get("shard_start", 0)),
            )
            self._layer_cache[key] = data
        data.gqa_group_size = gqa_group_size
        return data

    # ------------------------------------------------------------------
    # shard-owner protocol (what the router fans out to)
    # ------------------------------------------------------------------
    def window_seed(
        self, shard_cid: str, layer: int, queries: np.ndarray, window_local: np.ndarray
    ) -> np.ndarray:
        """Max window score per query head over this shard's window slice.

        Mirrors :meth:`WindowCache.max_window_scores` operation-for-operation
        so the router's max-of-maxes reproduces the unsharded seed bitwise.
        """
        num_heads = queries.shape[0]
        if window_local.shape[0] == 0:
            return np.full(num_heads, -np.inf, dtype=np.float32)
        keys = self.ensure_loaded(shard_cid).keys(layer)
        num_kv_heads = keys.shape[0]
        gqa_group_size = num_heads // num_kv_heads
        scores = np.empty(num_heads, dtype=np.float32)
        for kv_head in range(num_kv_heads):
            window_keys = keys[kv_head][window_local]
            for head in range(kv_head * gqa_group_size, (kv_head + 1) * gqa_group_size):
                scores[head] = (window_keys @ queries[head]).max()
        return scores

    def retrieve(
        self,
        shard_cid: str,
        layer: int,
        plan: ExecutionPlan,
        queries: np.ndarray,
        seeds: np.ndarray | None,
        gqa_group_size: int,
    ) -> list[RetrievalOutcome]:
        """Run the layer plan against this shard's local indexes.

        Positions in the outcomes are global (``LayerIndexData.position_offset``);
        the plan's predicate must already be localized by the router.
        """
        data = self.layer_data(shard_cid, layer, gqa_group_size)
        return self.executor.retrieve_heads(plan, data, queries, window_max_scores=seeds)

    def coarse_block_scores(
        self, shard_cid: str, layer: int, queries: np.ndarray, gqa_group_size: int
    ) -> tuple[np.ndarray, int]:
        """Raw per-head block scores ``(num_query_heads, shard_blocks)``.

        The coarse merge is score-level, not result-level: the router
        concatenates these rows across shards (block-aligned boundaries make
        shard-local blocks identical to the global index's) and reruns the
        shared top-k, so selection matches the unsharded index exactly.
        Also returns the per-block representative count for work accounting.
        """
        context = self.ensure_loaded(shard_cid)
        indexes = context.coarse_indexes.get(layer)
        if not indexes:
            raise ReproError(f"shard {shard_cid!r} has no coarse indexes for layer {layer}")
        rows = [
            index.block_scores_batch(
                queries[kv_head * gqa_group_size : (kv_head + 1) * gqa_group_size]
            )
            for kv_head, index in enumerate(indexes)
        ]
        return np.concatenate(rows, axis=0), indexes[0].num_representatives

    def attend(
        self,
        shard_cid: str,
        layer: int,
        queries: np.ndarray,
        window_local: np.ndarray,
        retrieved_local: list[np.ndarray],
    ):
        """This shard's partial attention over (window ∩ shard) ∪ retrieved."""
        context = self.ensure_loaded(shard_cid)
        return self.engine.shard_layer_partial(
            queries, context.keys(layer), context.values(layer), window_local, retrieved_local
        )

    def attend_dense(
        self, shard_cid: str, layer: int, queries: np.ndarray, visible: int
    ) -> list[PartialAttention]:
        """Exact partials over the first ``visible`` shard tokens, per query row.

        ``queries`` is ``(num_query_heads, seq, head_dim)``; every prefill row
        sees the same stored-prefix slice (causality only bites on the
        session-local suffix, which the router handles), so the result is one
        combined partial per row.
        """
        context = self.ensure_loaded(shard_cid)
        keys = context.keys(layer)[:, :visible, :]
        values = context.values(layer)[:, :visible, :]
        num_heads, seq, _ = queries.shape
        window = np.arange(visible, dtype=np.int64)
        empty = [_EMPTY_POSITIONS] * num_heads
        partials = []
        for row in range(seq):
            partial, _ = self.engine.shard_layer_partial(
                queries[:, row, :], keys, values, window, empty
            )
            partials.append(partial)
        return partials

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def residency_report(self) -> dict:
        store = self.db.store_registry
        return {
            "used_bytes": int(self.db.buffer_manager.used_bytes),
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
    """Front door for sharded serving: catalog, admission, fan-out, merge.

    Ingest prefills a document once, cuts the context into block-aligned
    token-range shards (:meth:`DB.shard_context`), persists them to the
    shared backend, assigns owners (round-robin), and then *frees its own
    copies* — at steady state the KV lives only on the shard owners, which is
    what the per-worker memory bound in ``bench_sharded_serving`` measures.

    Generation mirrors :class:`InferenceService`'s request lifecycle (token
    stream, sampling, chunked prefill) but routes every touch of the stored
    prefix through the fan-out protocol described in the module docstring.
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
        self.db = DB(self.config, backend=self.backend)
        self.loop = GenerationLoop(model)
        self.engine = DataCentricAttentionEngine()
        self.admission = AdmissionController(self.config.scheduler_gpu_budget_bytes)
        self._catalog: dict[str, ShardedContextRef] = {}
        self._owners: dict[str, ShardWorker] = {}

    @property
    def workers(self) -> list[ShardWorker]:
        return self.group.workers

    def ref(self, context_id: str) -> ShardedContextRef:
        return self._require_ref(context_id)

    def _require_ref(self, context_id: str) -> ShardedContextRef:
        ref = self._catalog.get(context_id)
        if ref is None:
            raise ContextNotFoundError(f"context {context_id!r} is not in the sharded catalog")
        return ref

    # ------------------------------------------------------------------
    # ingest + placement
    # ------------------------------------------------------------------
    def ingest(
        self,
        document: str | list[int],
        context_id: str | None = None,
        num_shards: int | None = None,
        shard_token_range: int | None = None,
    ) -> ShardedContextRef:
        """Prefill, shard, persist, place; returns the catalog entry."""
        context = self.db.prefill_and_import(self.model, document, context_id=context_id)
        base_id = context.context_id
        plan, shards = self.db.shard_context(
            base_id, num_shards=num_shards, shard_token_range=shard_token_range
        )
        ref = ShardedContextRef(
            context_id=base_id,
            plan=plan,
            tokens=tuple(context.tokens),
            num_layers=context.num_layers,
            layers=frozenset(context.snapshot.keys),
            fine_layers=frozenset(context.fine_indexes),
            coarse_layers=frozenset(context.coarse_indexes),
        )
        self._catalog[base_id] = ref
        # persist-then-free on the ingest side: spill keeps the durable
        # objects and manifest rows the owners load from (remove would
        # delete them out from under every worker)
        store = self.db.store_registry
        for shard in shards:
            store.spill(shard.context_id)
        store.spill(base_id)
        for token_range in plan.ranges:
            worker = self._place(token_range.shard_id)
            self._assign(ref, token_range.shard_id, worker)
        return ref

    def _place(self, shard_id: int) -> ShardWorker:
        if self.config.shard_router_policy == "round_robin":
            return self.workers[shard_id % len(self.workers)]
        raise ReproError(f"unknown shard router policy {self.config.shard_router_policy!r}")

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
        ref = self._require_ref(context_id)
        worker = self.group.worker(worker_id)
        self._assign(ref, shard_id, worker)
        return worker

    def shard_owner(self, context_id: str, shard_id: int) -> ShardWorker:
        ref = self._require_ref(context_id)
        return self._owners[ref.shard_id_of(shard_id)]

    # ------------------------------------------------------------------
    # generation (mirrors InferenceService's request lifecycle)
    # ------------------------------------------------------------------
    def generate(
        self,
        context_id: str,
        prompt: str | list[int] | None = None,
        max_new_tokens: int = 16,
        gpu_memory_budget_bytes: int | None = None,
    ) -> GenerationResult:
        ref = self._require_ref(context_id)
        tokenizer = self.loop.tokenizer
        tokens = list(ref.tokens) if prompt is None else self.db.tokenize(prompt)
        reused = _common_prefix_length(tokens, ref.tokens)
        if reused < self.config.min_reuse_tokens:
            reused = 0
        truncated = tokens[reused:]

        per_token = self.model.kv_bytes_per_token()
        window_tokens = min(self.config.window_total_tokens, reused)
        estimate = (len(truncated) + max_new_tokens + window_tokens) * per_token
        decision = self.admission.try_admit(estimate)
        if decision != "admit":
            raise AdmissionRejectedError(
                f"request needs {estimate} bytes; the router's admission "
                f"controller answered {decision!r}"
            )

        session = ShardedSession(
            ref=ref,
            fanout=self,
            config=self.config,
            reused_prefix_length=reused,
            gpu_memory_budget_bytes=gpu_memory_budget_bytes,
        )
        rng = self.loop.sampling.make_rng()
        generated: list[int] = []
        decode_seconds: list[float] = []
        finished_by_eos = False
        try:
            # an empty suffix (full prefix reuse) still needs one forward
            # pass for first-token logits, exactly like the service
            pending = list(truncated) if truncated else [tokenizer.bos_id]
            chunk_tokens = self.config.prefill_chunk_tokens
            start = time.perf_counter()
            logits = None
            while pending:
                chunk = pending[:chunk_tokens]
                del pending[: len(chunk)]
                logits, _ = self.model.prefill(np.asarray(chunk, dtype=np.int64), session)
            ttft = time.perf_counter() - start
            if max_new_tokens > 0:
                token = sample_token(logits, self.loop.sampling, rng)
                generated.append(token)
                finished_by_eos = token == tokenizer.eos_id
            while len(generated) < max_new_tokens and generated[-1] != tokenizer.eos_id:
                step_start = time.perf_counter()
                logits = self.model.decode_step(generated[-1], session)
                decode_seconds.append(time.perf_counter() - step_start)
                token = sample_token(logits, self.loop.sampling, rng)
                generated.append(token)
                finished_by_eos = token == tokenizer.eos_id
        finally:
            session.close()
            self.admission.release(estimate)
        return GenerationResult(
            prompt_tokens=list(truncated),
            generated_tokens=generated,
            text=tokenizer.decode(generated),
            ttft_seconds=ttft,
            decode_seconds=decode_seconds,
            finished_by_eos=finished_by_eos,
        )

    # ------------------------------------------------------------------
    # fan-out protocol: sparse decode
    # ------------------------------------------------------------------
    def sparse_attention(
        self, session: ShardedSession, queries: np.ndarray, layer: int
    ) -> tuple[np.ndarray, DecodeStepStats]:
        """One sharded sparse decode step for one layer.

        ``queries`` is ``(num_query_heads, head_dim)``; returns the merged
        per-head outputs and the step's work statistics.
        """
        ref = session.sharded_ref
        plan = session.plan_for_layer(layer)
        prefix = session.reused_prefix_length
        gqa_group_size = self.model.config.gqa_group_size
        num_heads = queries.shape[0]
        window_global = session.window.positions(prefix)
        local_keys, local_values = session.local_snapshot(layer)
        local_len = int(local_keys.shape[1])
        shard_cids = [ref.shard_id_of(rng.shard_id) for rng in ref.plan.ranges]
        owners = [self._owners[cid] for cid in shard_cids]

        # --- round 0 (fine only): window-seed fan-out --------------------
        seeds = None
        if plan.index_kind == IndexKind.FINE:
            seeds = self._fanout_window_seeds(
                ref, owners, shard_cids, layer, queries, window_global
            )
            if local_len:
                for head in range(num_heads):
                    local_best = float(
                        (local_keys[head // gqa_group_size] @ queries[head]).max()
                    )
                    seeds[head] = max(float(seeds[head]), local_best)

        # --- round A: retrieval fan-out + global merge -------------------
        stats = DecodeStepStats(num_heads=num_heads)
        if plan.index_kind == IndexKind.COARSE:
            merged = self._merge_coarse(ref, owners, shard_cids, layer, plan, queries,
                                        gqa_group_size, stats)
        else:
            merged = self._merge_scan(ref, owners, shard_cids, layer, plan, queries,
                                      seeds, gqa_group_size, stats)
        retrieved = [positions[positions < prefix] for positions in merged]

        # --- round B: attend fan-out + log-sum-exp merge -----------------
        partials: list[PartialAttention] = []
        for rng, worker, shard_cid in zip(ref.plan.ranges, owners, shard_cids):
            window_local = rng.to_local(rng.slice_global(window_global))
            retrieved_local = [rng.to_local(rng.slice_global(pos)) for pos in retrieved]
            if window_local.shape[0] == 0 and not any(
                pos.shape[0] for pos in retrieved_local
            ):
                continue
            partial, breakdowns = worker.attend(
                shard_cid, layer, queries, window_local, retrieved_local
            )
            partials.append(partial)
            for breakdown in breakdowns:
                stats.num_window_tokens += breakdown.num_window_tokens
                stats.num_selected_tokens += breakdown.num_retrieved_tokens
        # the neutral element when no local KV exists yet
        partials.append(
            partial_attention(queries, local_keys, local_values, scale=self.engine.scale)
        )
        stats.num_local_tokens += local_len * num_heads
        return combine_partial_attention(partials).output, stats

    def _fanout_window_seeds(
        self, ref, owners, shard_cids, layer, queries, window_global
    ) -> np.ndarray:
        """Global window seeds = elementwise max over shard window slices."""
        num_heads = queries.shape[0]
        seeds = np.full(num_heads, -np.inf, dtype=np.float32)
        for rng, worker, shard_cid in zip(ref.plan.ranges, owners, shard_cids):
            window_local = rng.to_local(rng.slice_global(window_global))
            if window_local.shape[0] == 0:
                continue
            shard_seeds = worker.window_seed(shard_cid, layer, queries, window_local)
            np.maximum(seeds, shard_seeds, out=seeds)
        return seeds

    def _merge_scan(
        self, ref, owners, shard_cids, layer, plan, queries, seeds, gqa_group_size, stats
    ) -> list[np.ndarray]:
        """Flat/fine merge: union per-shard results, re-filter by global best."""
        num_heads = queries.shape[0]
        per_head_positions: list[list[np.ndarray]] = [[] for _ in range(num_heads)]
        per_head_scores: list[list[np.ndarray]] = [[] for _ in range(num_heads)]
        for rng, worker, shard_cid in zip(ref.plan.ranges, owners, shard_cids):
            shard_plan = self._localize_plan(plan, rng)
            if shard_plan is None:
                continue
            outcomes = worker.retrieve(
                shard_cid, layer, shard_plan, queries, seeds, gqa_group_size
            )
            for head, outcome in enumerate(outcomes):
                per_head_positions[head].append(outcome.positions)
                per_head_scores[head].append(outcome.scores)
                stats.num_distance_computations += outcome.num_distance_computations
                stats.num_graph_hops += outcome.num_hops
        merged: list[np.ndarray] = []
        for head in range(num_heads):
            if not per_head_positions[head]:
                merged.append(_EMPTY_POSITIONS)
                continue
            positions = np.concatenate(per_head_positions[head])
            scores = np.concatenate(per_head_scores[head])
            merged.append(self._select_global(plan, positions, scores))
        return merged

    @staticmethod
    def _select_global(plan: ExecutionPlan, positions: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Re-apply the plan's selection rule over the cross-shard union."""
        if positions.shape[0] == 0:
            return _EMPTY_POSITIONS
        query = plan.query
        if isinstance(query, DIPRQuery):
            # same float semantics as FlatIndex: the global best replaces each
            # shard's local best, so survivors match a single-owner DIPR scan
            best = scores.max()
            keep = scores >= best - query.beta
            positions, scores = positions[keep], scores[keep]
            if query.max_tokens is not None and positions.shape[0] > query.max_tokens:
                order = np.argsort(-scores)[: query.max_tokens]
                positions = positions[order]
            return positions.astype(np.int64)
        if isinstance(query, TopKQuery):
            k = min(int(query.k), positions.shape[0])
            order = np.argsort(-scores)[:k]
            return positions[order].astype(np.int64)
        raise ReproError(f"cannot merge retrieval results for query {query!r}")

    def _merge_coarse(
        self, ref, owners, shard_cids, layer, plan, queries, gqa_group_size, stats
    ) -> list[np.ndarray]:
        """Coarse merge: concatenate block-score rows, rerun the global top-k.

        Every shard scores its blocks regardless of the predicate — exactly
        like the single-owner index, which lets beyond-prefix blocks win
        selection slots and filters positions afterwards.
        """
        num_heads = queries.shape[0]
        score_rows = []
        num_representatives = 0
        for worker, shard_cid in zip(owners, shard_cids):
            scores, shard_reps = worker.coarse_block_scores(
                shard_cid, layer, queries, gqa_group_size
            )
            score_rows.append(scores)
            num_representatives = max(num_representatives, shard_reps)
        block_scores = np.concatenate(score_rows, axis=1)
        total_blocks = block_scores.shape[1]
        block_size = self.config.coarse_block_size
        num_blocks = max(1, min(self.config.coarse_num_blocks, total_blocks))
        top = CoarseBlockIndex.top_blocks_from_scores(block_scores, num_blocks)
        stats.num_distance_computations += num_heads * total_blocks * num_representatives
        merged = []
        for head in range(num_heads):
            positions = np.concatenate(
                [
                    np.arange(
                        block * block_size,
                        min((block + 1) * block_size, ref.num_tokens),
                        dtype=np.int64,
                    )
                    for block in top[head]
                ]
            ) if top.shape[1] else _EMPTY_POSITIONS
            if plan.predicate is not None:
                positions = positions[positions < plan.predicate.max_position]
            merged.append(positions)
        return merged

    @staticmethod
    def _localize_plan(plan: ExecutionPlan, rng: ShardRange) -> ExecutionPlan | None:
        """Rewrite the plan's global predicate into shard-local token space.

        Returns ``None`` when the predicate excludes the entire shard (the
        router then skips the owner wholesale).
        """
        if plan.predicate is None:
            return plan
        local_max = min(plan.predicate.max_position, rng.stop) - rng.start
        if local_max <= 0:
            return None
        if local_max >= rng.num_tokens:
            return replace(plan, predicate=None)
        return replace(plan, predicate=FilterPredicate(max_position=int(local_max)))

    # ------------------------------------------------------------------
    # fan-out protocol: dense (prefill) attention
    # ------------------------------------------------------------------
    def dense_attention(self, session: ShardedSession, q: np.ndarray, layer: int) -> np.ndarray:
        """Exact causal attention over the sharded prefix + local suffix.

        ``q`` is ``(num_query_heads, seq, head_dim)``.  Every prefill row sees
        the full stored prefix (the suffix starts after it), so the per-shard
        partials are causal-free; causality applies only to the session-local
        KV, whose visible length grows by one per row.
        """
        ref = session.sharded_ref
        prefix = session.reused_prefix_length
        num_heads, seq, head_dim = q.shape
        local_keys, local_values = session.local_snapshot(layer)
        local_len = int(local_keys.shape[1])

        shard_rows: list[list[PartialAttention]] = []
        for rng in ref.plan.ranges:
            visible = min(rng.stop, prefix) - rng.start
            if visible <= 0:
                continue
            shard_cid = ref.shard_id_of(rng.shard_id)
            shard_rows.append(
                self._owners[shard_cid].attend_dense(shard_cid, layer, q, visible)
            )

        outputs = np.zeros((num_heads, seq, head_dim), dtype=np.float32)
        for row in range(seq):
            partials = [rows[row] for rows in shard_rows]
            visible_local = max(local_len - seq + row + 1, 0)
            partials.append(
                partial_attention(
                    q[:, row, :],
                    local_keys[:, :visible_local, :],
                    local_values[:, :visible_local, :],
                    scale=self.engine.scale,
                )
            )
            outputs[:, row, :] = combine_partial_attention(partials).output
        return outputs

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_report(self) -> dict:
        """Group-wide residency map plus router-side accounting."""
        report = self.group.memory_report()
        report["router"] = {
            "admission_committed_bytes": self.admission.committed_bytes,
            "num_contexts": len(self._catalog),
            "num_placed_shards": len(self._owners),
        }
        return report


def _common_prefix_length(tokens: list[int], reference: tuple[int, ...]) -> int:
    limit = min(len(tokens), len(reference))
    matched = 0
    while matched < limit and tokens[matched] == reference[matched]:
        matched += 1
    return matched
