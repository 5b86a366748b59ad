"""The ``DB`` abstraction: the entry point of AlayaDB (Table 2 of the paper).

A ``DB`` owns every stored context (prompts, KV caches, vector indexes) the
way a relational DB instance owns schemas and tables.  Applications interact
with it through three calls:

* ``create_session(prompts)`` — match the prompt against the stored contexts,
  reuse the longest common prefix, and return a :class:`Session` plus the
  *truncated* (non-reused) prompt suffix that still needs prefill;
* ``import_context(...)`` — register an already-computed context (prompt +
  KV cache) for future reuse, building the vector indexes its plans read;
* ``store(session)`` — persist everything a session accumulated (reused
  prefix + locally generated KV) as a new reusable context; this is the late
  materialization point where the local KV finally enters a physical index.

A context carries the indexes its plans read and nothing else.  At
registration the optimizer plans a session that reuses the whole context
and adds one token, and each layer gets the index its plan reads: a fine
graph index for a DIPR layer outside ``flat_index_layers``, a coarse block
index for a top-k layer, none for a full-attention or flat layer.  A session
whose plans read an index the context lacks (a longer prompt crossing
``short_context_threshold`` or ``gpu_memory_budget_bytes``, or a reload that
lost a fine graph) builds it in :meth:`DB.create_session`, before the first
token; a sharded session has each shard owner build it.

Memory governance belongs to the underlying :class:`ContextStore`, the one
residency ledger: it counts hits and reloads per access and — when the
config sets a ``context_store_budget_bytes`` — spills cold contexts to its
backend and reloads them on prefix hits.  The backend is the one passed in,
else a directory at ``config.context_db_path``; with one, the store is the
durable context database (every context persisted as it is added, the
population recovered on restart), and :meth:`DB.export_context` writes a
one-context database of the same format.  ``lazy_index_build`` defers the
registration-time builds to the first ``create_session`` whose plans read
them.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np

from ..index.builder import ContextIndexBuilder
from ..index.coarse import CoarseBlockIndex
from ..kvcache.cache import DynamicCache
from ..kvcache.serialization import KVSnapshot, snapshot_from_cache
from ..llm.model import TransformerModel
from ..llm.tokenizer import ByteTokenizer
from ..errors import ContextLoadError
from ..query.types import IndexKind
from ..storage.backend import FilesystemBackend, StorageBackend
from ..sharding.plan import ShardPlan, shard_context_id, slice_snapshot
from .config import AlayaDBConfig
from .context_store import ContextStore, StoredContext
from .planner import ExecutionPlan
from .session import Session

__all__ = ["DB"]


class DB:
    """The AlayaDB database object."""

    def __init__(
        self,
        config: AlayaDBConfig | None = None,
        tokenizer: ByteTokenizer | None = None,
        backend: StorageBackend | None = None,
        shard_catalog=None,
    ):
        self.config = config or AlayaDBConfig()
        self.tokenizer = tokenizer or ByteTokenizer()
        self.shard_catalog = shard_catalog
        """Catalog of sharded contexts (a
        :class:`~repro.sharding.router.ShardedContextRouter`) that
        :meth:`create_session` consults; ``None`` when every context has a
        single owner."""
        if backend is None and self.config.context_db_path is not None:
            backend = FilesystemBackend(self.config.context_db_path)
        self.store_registry = ContextStore(
            kv_budget_bytes=self.config.context_store_budget_bytes,
            on_index_lost=self._index_blob_lost,
            backend=backend,
        )
        self._builder = ContextIndexBuilder(self.config.index_build)
        # recovered contexts keep their ids; continue the sequence after them
        next_ordinal = 0
        for context_id in self.store_registry.list_ids():
            match = re.fullmatch(r"ctx-(\d+)", context_id)
            if match:
                next_ordinal = max(next_ordinal, int(match.group(1)) + 1)
        self._context_counter = itertools.count(next_ordinal)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tokenize(self, prompts: str | list[int] | np.ndarray) -> list[int]:
        if isinstance(prompts, str):
            return self.tokenizer.encode(prompts)
        return [int(t) for t in np.asarray(prompts).reshape(-1)]

    def tokenize(self, prompts: str | list[int] | np.ndarray) -> list[int]:
        """Token ids for ``prompts`` (public alias used by the serving API)."""
        return self._tokenize(prompts)

    def _next_context_id(self) -> str:
        return f"ctx-{next(self._context_counter):04d}"

    @property
    def num_contexts(self) -> int:
        return len(self.store_registry)

    def get_context(self, context_id: str) -> StoredContext:
        return self.store_registry.get(context_id)

    def _index_blob_lost(self, context: StoredContext) -> None:
        # a reload whose cataloged blob was missing or torn: the coarse
        # layers the context plans are rebuilt now (cheap; the reload may sit
        # inside a decode round, so nothing is written either); a fine graph
        # is left to the next session whose plans read it, built from the
        # snapshot's query samples, which keeps the OOD query-sample benefit
        plans = self._registration_plans(context).items()
        coarse = {layer: plan for layer, plan in plans if plan.index_kind == IndexKind.COARSE}
        self._build_planned_indexes(context, coarse)

    # ------------------------------------------------------------------
    # Table 2: DB.create_session(prompts) -> Session, prompts
    # ------------------------------------------------------------------
    def create_session(self, prompts: str | list[int] | np.ndarray) -> tuple[Session, list[int]]:
        """Create a session for ``prompts``; returns it plus the truncated prompt.

        The longest common prefix between the prompt and any stored context is
        reused through the session; only the remaining suffix is returned and
        must be prefilled by the caller's model.  A matched context that was
        spilled to disk is transparently reloaded, and it stays pinned in
        memory until the session is closed.  A matched context in the shard
        catalog is neither reloaded nor pinned here: the session that comes
        back reads it where it lives, on the shard owners.

        The session's per-layer plans are decided here, once.  An index
        they read that the matched context lacks (a prompt longer than the
        one the context was planned for, or a ``lazy_index_build`` ingest) is
        built and persisted now — before the first token, never inside a
        decode round.
        """
        tokens = self._tokenize(prompts)
        match = self.store_registry.find_longest_prefix(tokens)
        useful = match.is_hit and match.prefix_length >= self.config.min_reuse_tokens
        if useful and self.shard_catalog is not None:
            sharded = self.shard_catalog.open_session(
                match.context.context_id, match.prefix_length, len(tokens)
            )
            if sharded is not None:
                return sharded, tokens[match.prefix_length :]
        context: StoredContext | None = None
        reused = 0
        on_close = None
        if useful:
            context_id = match.context.context_id
            context = self.store_registry.ensure_resident(context_id)
            reused = match.prefix_length
            self.store_registry.pin(context_id)
            on_close = lambda cid=context_id: self.store_registry.unpin(cid)
        session = Session(
            config=self.config,
            context=context,
            reused_prefix_length=reused,
            prompt_length=len(tokens),
            on_close=on_close,
        )
        if context is not None:
            try:
                if self._build_planned_indexes(context, session.plans):
                    self.store_registry.persist_indexes(context.context_id)
            except BaseException:
                session.close()  # releases the pin: nobody else holds the session
                raise
        return session, tokens[reused:]

    # ------------------------------------------------------------------
    # Table 2: DB.import(prompts, kv_cache)
    # ------------------------------------------------------------------
    def import_context(
        self,
        prompts: str | list[int] | np.ndarray,
        kv_cache: DynamicCache | KVSnapshot,
        query_samples: dict[int, np.ndarray] | None = None,
        context_id: str | None = None,
    ) -> StoredContext:
        """Import an already-computed context (prompt + KV cache) for reuse,
        with the indexes its plans read (see the module docstring).

        ``query_samples`` are the prefill queries per layer, ``(num_query_heads,
        n, head_dim)``, one row per token; the snapshot keeps the rows the
        sampling rule picks
        (:meth:`~repro.index.builder.IndexBuildConfig.sample_queries`) on the
        layers that can plan a fine index.
        """
        tokens = self._tokenize(prompts)
        if isinstance(kv_cache, KVSnapshot):
            snapshot = kv_cache
        else:
            snapshot = snapshot_from_cache(tokens, kv_cache)
        if query_samples:
            if any(queries.shape[1] != snapshot.num_tokens for queries in query_samples.values()):
                raise ValueError(f"query_samples must hold one row per token ({snapshot.num_tokens})")
            snapshot.query_samples = {
                layer: self.config.index_build.sample_queries(queries, snapshot.keys[layer].shape[0], layer, 0)
                for layer, queries in query_samples.items()
                if self.config.records_queries(layer)
            }
        snapshot.validate()

        context_id = context_id or self._next_context_id()
        context = StoredContext(context_id=context_id, snapshot=snapshot)
        self._register_context(context, overwrite=False, build=not self.config.lazy_index_build)
        return context

    # ------------------------------------------------------------------
    # Table 2: DB.store(session)
    # ------------------------------------------------------------------
    def store(
        self,
        session: Session,
        tokens: list[int] | None = None,
        context_id: str | None = None,
    ) -> StoredContext:
        """Persist all of a session's state as a new reusable context.

        This is where late materialization happens: the locally-cached KV the
        session accumulated is merged with the reused prefix, and the indexes
        the new context's plans read are built over the merged keys.

        ``tokens`` is the full token sequence the session now represents
        (reused prefix + prefilled suffix + generated tokens); when omitted,
        the reused context's tokens are extended with placeholder ids so the
        KV snapshot stays consistent.
        """
        snapshot = self._session_snapshot(session, tokens)
        context_id = context_id or self._next_context_id()
        context = StoredContext(context_id=context_id, snapshot=snapshot)
        self._register_context(context, overwrite=True, build=not self.config.lazy_index_build)
        return context

    def _session_snapshot(self, session: Session, tokens: list[int] | None) -> KVSnapshot:
        """The KV snapshot of everything ``session`` represents (see :meth:`store`)."""
        keys: dict[int, np.ndarray] = {}
        values: dict[int, np.ndarray] = {}
        for layer in range(session.num_layers):
            layer_keys, layer_values = session.materialized_kv(layer)
            keys[layer] = np.ascontiguousarray(layer_keys)
            values[layer] = np.ascontiguousarray(layer_values)
        if tokens is None:
            total_tokens = keys[0].shape[1] if keys else 0
            prefix_tokens = session.reused_tokens
            padding = [self.tokenizer.pad_id] * (total_tokens - len(prefix_tokens))
            tokens = list(prefix_tokens) + padding
        snapshot = KVSnapshot(
            tokens=list(tokens),
            keys=keys,
            values=values,
            query_samples={
                layer: sample for layer in keys if (sample := session.query_sample(layer)) is not None
            },
        )
        snapshot.validate()
        return snapshot

    def _register_context(self, context: StoredContext, overwrite: bool, build: bool) -> None:
        """Add ``context`` to the store, first building the indexes its
        registration plans read when ``build``; the add persists them."""
        if build:
            self._build_planned_indexes(context, self._registration_plans(context))
        self.store_registry.add(context, overwrite=overwrite)

    # ------------------------------------------------------------------
    # convenience: prefill a prompt with a model and import the result
    # ------------------------------------------------------------------
    def prefill_and_import(
        self,
        model: TransformerModel,
        prompts: str | list[int] | np.ndarray,
        context_id: str | None = None,
    ) -> StoredContext:
        """Prefill ``prompts`` and import the resulting context.

        The prefill is an unconnected session's (no stored range is read),
        ``prefill_chunk_tokens`` at a time — exactly what serving the same
        tokens as a prompt computes, in memory linear in their number.  The
        session's sampled queries become the RoarGraph's real (OOD) query
        samples.
        """
        context = self._prefilled_context(model, prompts, context_id)
        self._register_context(context, overwrite=False, build=not self.config.lazy_index_build)
        return context

    def _prefilled_context(
        self, model: TransformerModel, prompts, context_id: str | None
    ) -> StoredContext:
        """The not yet registered context :meth:`prefill_and_import` adds."""
        tokens = self._tokenize(prompts)
        session = Session(self.config)
        chunk = self.config.prefill_chunk_tokens
        for start in range(0, len(tokens), chunk):
            model.prefill(np.asarray(tokens[start : start + chunk], dtype=np.int64), session)
        return StoredContext(
            context_id=context_id or self._next_context_id(),
            snapshot=self._session_snapshot(session, tokens),
        )

    # ------------------------------------------------------------------
    # sharding: range-partition a context into per-shard stored contexts
    # ------------------------------------------------------------------
    def shard_context(
        self,
        context_id: str,
        num_shards: int | None = None,
        plan: ShardPlan | None = None,
    ) -> tuple[ShardPlan, list[StoredContext]]:
        """Range-partition a stored context into per-shard stored contexts.

        Each shard is a full citizen of the store under its own id
        (``<context_id>--shardNNN``): a KV snapshot holding only its token
        range, plus the indexes the whole context's plans read, **built over
        that range alone** (eagerly — shards exist to be fanned out to, not
        lazily warmed).  Shards are not
        prefix-matchable: they hold mid-document slices and are addressed by
        id through a shard catalog, never matched against prompts.  In a
        store with a backend every shard persists under its own keys plus a
        manifest row, so any worker over the shared backend can cold-load it.

        Sizing: an explicit ``plan`` wins; else ``num_shards`` (argument,
        falling back to the config knob).
        Boundaries are aligned down to ``coarse_block_size``, keeping
        shard-local blocks identical to the full-context blocks so the
        router's cross-shard block merge is exact.
        """
        context = self.store_registry.ensure_resident(context_id)
        if plan is None:
            count = num_shards if num_shards is not None else self.config.num_shards
            plan = ShardPlan.even(context.num_tokens, count, align=self.config.coarse_block_size)
        elif plan.num_tokens != context.num_tokens:
            raise ContextLoadError(
                f"shard plan covers {plan.num_tokens} tokens but context "
                f"{context_id!r} has {context.num_tokens}"
            )
        shards: list[StoredContext] = []
        # a shard's add may push the store over its byte budget: the pin keeps
        # the base, which the next shard is sliced from, resident
        self.store_registry.pin(context_id)
        try:
            for rng in plan.ranges:
                shard = StoredContext(
                    context_id=shard_context_id(context_id, rng.shard_id),
                    snapshot=slice_snapshot(context.snapshot, rng, plan, self.config.index_build),
                    prefix_matchable=False,
                )
                self._register_context(shard, overwrite=True, build=True)
                shards.append(shard)
        finally:
            self.store_registry.unpin(context_id)
        return plan, shards

    # ------------------------------------------------------------------
    # index construction: a context carries the indexes its plans read
    # ------------------------------------------------------------------
    def _registration_plans(self, context: StoredContext) -> dict[int, ExecutionPlan]:
        """The plans of a session that reuses all of resident ``context`` and
        adds one token.  A shard plans at the length of the whole context it
        was cut from: its sessions attend over every shard."""
        length = int(context.snapshot.metadata.get("shard_total_tokens", context.num_tokens))
        return Session(self.config, context, prompt_length=length + 1).plans

    def _build_planned_indexes(
        self, context: StoredContext, plans: dict[int, ExecutionPlan]
    ) -> bool:
        """Build, for every layer, the index its plan reads when resident
        ``context`` lacks it — fine or coarse.  Returns whether anything was
        built: a caller whose context is already stored persists it then.
        """
        def missing(kind: str, built: dict) -> list[int]:
            return [
                layer for layer, plan in plans.items()
                if plan.index_kind == kind and layer in context.snapshot.keys and layer not in built
            ]

        fine = missing(IndexKind.FINE, context.fine_indexes)
        coarse = missing(IndexKind.COARSE, context.coarse_indexes)
        if fine:
            self._build_fine_layers(context, fine)
        if coarse:
            self._build_coarse_layers(context, coarse)
        return bool(fine or coarse)

    def _build_fine_layers(self, context: StoredContext, layers: list[int]) -> None:
        keys_per_layer = {layer: context.snapshot.keys[layer] for layer in layers}
        samples: dict[int, np.ndarray] = {}
        for layer, keys in keys_per_layer.items():
            sample = context.query_samples.get(layer)
            if sample is None:
                # imported without prefill queries: index with the keys the
                # sampling rule picks (loses the OOD benefit but keeps the
                # index functional)
                sample = self.config.index_build.sample_queries(keys, keys.shape[0], layer, 0)
            samples[layer] = sample
        built, _ = self._builder.build_context(keys_per_layer, samples)
        context.fine_indexes = {**context.fine_indexes, **built}

    def _build_coarse_layers(self, context: StoredContext, layers: list[int]) -> None:
        coarse = dict(context.coarse_indexes)
        for layer in layers:
            keys = context.snapshot.keys[layer]
            per_head: list[CoarseBlockIndex] = []
            for kv_head in range(keys.shape[0]):
                index = CoarseBlockIndex(block_size=self.config.coarse_block_size)
                index.build(keys[kv_head])
                per_head.append(index)
            coarse[layer] = per_head
        context.coarse_indexes = coarse

    # ------------------------------------------------------------------
    # portable context bundles (export / import)
    # ------------------------------------------------------------------
    def export_context(self, context_id: str, dest_dir: str | Path) -> Path:
        """Export one context as a portable bundle: a context database at
        ``dest_dir`` that holds this one context.

        Indexes the context's plans read and a ``lazy_index_build`` ingest
        deferred are built first so the bundle is whole;
        :meth:`import_context_bundle` on another DB (or
        :meth:`ContextStore.open`) then serves the context without
        re-prefilling or re-indexing.
        """
        context = self.store_registry.ensure_resident(context_id)
        if self._build_planned_indexes(context, self._registration_plans(context)):
            self.store_registry.persist_indexes(context_id)
        # a second StoredContext over the same snapshot and indexes, so the
        # two stores never share residency state
        bundle = ContextStore.open(dest_dir)
        bundle.add(dataclasses.replace(context), overwrite=True)
        bundle.flush()  # a bundle leaves the process: it is complete on disk
        return Path(dest_dir)

    def import_context_bundle(
        self,
        src_dir: str | Path,
        context_id: str | None = None,
        overwrite: bool = False,
    ) -> StoredContext:
        """Import a bundle exported by :meth:`export_context`.

        ``src_dir`` must be a context database holding exactly one context.
        It loads the way a reload does: persisted indexes are deserialized
        (retrieval over the imported context is bit-identical to the
        exporter's), and a missing or torn blob degrades to the rebuild.
        ``context_id`` overrides the bundled id, e.g. to avoid a collision.
        """
        bundle = ContextStore.open(src_dir, on_index_lost=self._index_blob_lost)
        ids = bundle.list_ids()
        if len(ids) != 1:
            raise ContextLoadError(
                f"{src_dir} is not a context bundle: it holds {len(ids)} contexts, not one"
            )
        source = bundle.ensure_resident(ids[0])
        context = dataclasses.replace(source, context_id=context_id or source.context_id)
        self.store_registry.add(context, overwrite=overwrite)
        return context
