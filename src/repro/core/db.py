"""The ``DB`` abstraction: the entry point of AlayaDB (Table 2 of the paper).

A ``DB`` owns every stored context (prompts, KV caches, vector indexes) the
way a relational DB instance owns schemas and tables.  Applications interact
with it through three calls:

* ``create_session(prompts)`` — match the prompt against the stored contexts,
  reuse the longest common prefix, and return a :class:`Session` plus the
  *truncated* (non-reused) prompt suffix that still needs prefill;
* ``import_context(...)`` — register an already-computed context (prompt +
  KV cache) for future reuse, building its vector indexes;
* ``store(session)`` — persist everything a session accumulated (reused
  prefix + locally generated KV) as a new reusable context; this is the late
  materialization point where the local KV finally enters a physical index.

Memory governance belongs to the underlying :class:`ContextStore`, the one
residency ledger: it counts hits and reloads per access and — when the
config sets a ``context_store_budget_bytes`` — spills cold contexts to its
backend and reloads them on prefix hits.  The backend is the one passed in,
else a directory at ``config.context_db_path``; with one, the store is the
durable context database (every context persisted as it is added, the
population recovered on restart), and :meth:`DB.export_context` writes a
one-context database of the same format.  Fine index construction can be
deferred (``lazy_index_build``): the first ``create_session`` whose plan
reads the fine index builds it before returning the session.
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
from ..kvcache.serialization import KVSnapshot
from ..llm.model import TransformerModel
from ..llm.tokenizer import ByteTokenizer
from ..errors import ContextLoadError
from ..query.types import IndexKind
from ..storage.backend import FilesystemBackend, StorageBackend
from ..sharding.plan import ShardPlan, shard_context_id, slice_snapshot
from .config import AlayaDBConfig
from .context_store import ContextStore, StoredContext
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
            on_reload=self._context_reloaded,
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

    @property
    def num_pending_index_builds(self) -> int:
        """Resident contexts that want fine indexes and have none: the next
        session whose plan reads the fine index builds them."""
        return sum(
            context.is_resident and context.wants_fine_indexes and not context.has_fine_indexes
            for _, context in self.store_registry.items()
        )

    def _context_reloaded(self, context: StoredContext) -> None:
        # the store re-attached the persisted indexes during the reload
        # (bit-identical retrieval, nothing to do here); anything that did
        # *not* come back (no blob, or a torn one) is rebuilt — coarse
        # immediately (cheap), fine by the next session that plans it.
        # Query samples travel inside the persisted snapshot, so a rebuild
        # keeps the OOD query-sample benefit.  Contexts that opted out of an
        # index class at import time stay index-free.
        if context.wants_coarse_indexes and not context.coarse_indexes:
            self._build_coarse_indexes(context)

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

        The session's per-layer plans are decided here, once.  When one of
        them reads the fine index and the matched context's build was
        deferred (a lazy ingest or chat re-store, or a reload that did not
        bring the index back), the build runs now — before the first token,
        never inside a decode round.
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
        if session.plans_index(IndexKind.FINE):
            try:
                self._ensure_fine_indexes(context)
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
        build_fine_indexes: bool = True,
        build_coarse_indexes: bool = True,
        lazy_fine_indexes: bool | None = None,
    ) -> StoredContext:
        """Import an already-computed context (prompt + KV cache) for reuse.

        ``lazy_fine_indexes`` (default: the config's ``lazy_index_build``)
        defers fine-index construction off the ingest path; the first
        :meth:`create_session` whose plan reads the fine index builds it.
        """
        tokens = self._tokenize(prompts)
        if isinstance(kv_cache, KVSnapshot):
            snapshot = kv_cache
        else:
            keys = {layer: kv_cache.keys(layer).copy() for layer in range(kv_cache.num_layers)}
            values = {layer: kv_cache.values(layer).copy() for layer in range(kv_cache.num_layers)}
            snapshot = KVSnapshot(tokens=tokens, keys=keys, values=values)
        snapshot.validate()
        if query_samples:
            # attach to the snapshot so spill/reload round-trips the samples
            snapshot.query_samples = {
                layer: np.asarray(q, dtype=np.float32) for layer, q in query_samples.items()
            }

        context_id = context_id or self._next_context_id()
        context = StoredContext(context_id=context_id, snapshot=snapshot)
        self._register_context(
            context,
            build_fine_indexes=build_fine_indexes,
            build_coarse_indexes=build_coarse_indexes,
            lazy_fine_indexes=lazy_fine_indexes,
            overwrite=False,
        )
        return context

    # ------------------------------------------------------------------
    # Table 2: DB.store(session)
    # ------------------------------------------------------------------
    def store(
        self,
        session: Session,
        tokens: list[int] | None = None,
        context_id: str | None = None,
        build_fine_indexes: bool = True,
        build_coarse_indexes: bool = True,
        lazy_fine_indexes: bool | None = None,
    ) -> StoredContext:
        """Persist all of a session's state as a new reusable context.

        This is where late materialization happens: the locally-cached KV the
        session accumulated is merged with the reused prefix and a fresh set
        of physical indexes is built over the merged keys.

        ``tokens`` is the full token sequence the session now represents
        (reused prefix + prefilled suffix + generated tokens); when omitted,
        the reused context's tokens are extended with placeholder ids so the
        KV snapshot stays consistent.
        """
        snapshot = self._session_snapshot(session, tokens)
        context_id = context_id or self._next_context_id()
        context = StoredContext(context_id=context_id, snapshot=snapshot)
        self._register_context(
            context,
            build_fine_indexes=build_fine_indexes,
            build_coarse_indexes=build_coarse_indexes,
            lazy_fine_indexes=lazy_fine_indexes,
            overwrite=True,
        )
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
            query_samples=self._merged_query_samples(session),
        )
        snapshot.validate()
        return snapshot

    def _merged_query_samples(self, session: Session) -> dict[int, np.ndarray]:
        """Query samples covering everything a stored session represents.

        A connected session only captured queries for its *locally* computed
        tokens; the reused prefix's queries live on the stored context it was
        connected to.  Concatenating both keeps the sample representative of
        the full transcript when a chat turn re-stores the grown context.
        """
        local = {layer: s for layer, s in session.query_samples.items() if s.size}
        prefix: dict[int, np.ndarray] = {}
        if session.context is not None and session.reused_prefix_length > 0:
            prefix = {
                layer: s for layer, s in session.context.query_samples.items()
                if s is not None and s.size
            }
        merged: dict[int, np.ndarray] = {}
        for layer in set(prefix) | set(local):
            parts = [
                np.asarray(s, dtype=np.float32)
                for s in (prefix.get(layer), local.get(layer))
                if s is not None and s.size
            ]
            if len(parts) == 2 and (
                parts[0].shape[0] != parts[1].shape[0]
                or parts[0].shape[2] != parts[1].shape[2]
            ):
                parts = parts[1:]  # incompatible historic sample: keep the fresh one
            merged[layer] = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return merged

    def _register_context(
        self,
        context: StoredContext,
        build_fine_indexes: bool,
        build_coarse_indexes: bool,
        lazy_fine_indexes: bool | None,
        overwrite: bool,
    ) -> None:
        lazy = self.config.lazy_index_build if lazy_fine_indexes is None else lazy_fine_indexes
        context.wants_fine_indexes = build_fine_indexes
        context.wants_coarse_indexes = build_coarse_indexes
        if build_fine_indexes and not lazy:
            self._build_fine_indexes(context)
        if build_coarse_indexes:
            self._build_coarse_indexes(context)
        self.store_registry.add(context, overwrite=overwrite)

    # ------------------------------------------------------------------
    # convenience: prefill a prompt with a model and import the result
    # ------------------------------------------------------------------
    def prefill_and_import(
        self,
        model: TransformerModel,
        prompts: str | list[int] | np.ndarray,
        context_id: str | None = None,
        build_fine_indexes: bool = True,
        build_coarse_indexes: bool = True,
        lazy_fine_indexes: bool | None = None,
    ) -> StoredContext:
        """Prefill ``prompts`` and import the resulting context.

        The prefill is an unconnected session's (no stored range is read),
        ``prefill_chunk_tokens`` at a time — exactly what serving the same
        tokens as a prompt computes, in memory linear in their number.  The
        session's sampled queries become the RoarGraph's real (OOD) query
        samples.
        """
        tokens = self._tokenize(prompts)
        session = Session(self.config)
        chunk = self.config.prefill_chunk_tokens
        for start in range(0, len(tokens), chunk):
            model.prefill(np.asarray(tokens[start : start + chunk], dtype=np.int64), session)
        return self.import_context(
            tokens,
            self._session_snapshot(session, tokens),
            context_id=context_id,
            build_fine_indexes=build_fine_indexes,
            build_coarse_indexes=build_coarse_indexes,
            lazy_fine_indexes=lazy_fine_indexes,
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
        range, plus fine/coarse indexes **built over that range alone** (the
        original context's index policy is inherited, builds are eager —
        shards exist to be fanned out to, not lazily warmed).  Shards are not
        prefix-matchable: they hold mid-document slices and are addressed by
        id through a shard catalog, never matched against prompts.  In a
        store with a backend every shard persists under its own keys plus a
        manifest row, so any worker over the shared backend can cold-load it.

        Sizing: an explicit ``plan`` wins; else ``num_shards`` (argument,
        falling back to the config knob).
        Boundaries are aligned down to ``coarse_block_size`` whenever coarse
        indexes are built, keeping shard-local blocks identical to the
        full-context blocks so the router's cross-shard block merge is exact.
        """
        context = self.store_registry.ensure_resident(context_id)
        build_fine = context.wants_fine_indexes
        build_coarse = context.wants_coarse_indexes
        if plan is None:
            align = self.config.coarse_block_size if build_coarse else 1
            count = num_shards if num_shards is not None else self.config.num_shards
            plan = ShardPlan.even(context.num_tokens, count, align=align)
        elif plan.num_tokens != context.num_tokens:
            raise ContextLoadError(
                f"shard plan covers {plan.num_tokens} tokens but context "
                f"{context_id!r} has {context.num_tokens}"
            )
        shards: list[StoredContext] = []
        for rng in plan.ranges:
            shard = StoredContext(
                context_id=shard_context_id(context_id, rng.shard_id),
                snapshot=slice_snapshot(context.snapshot, rng, plan),
                prefix_matchable=False,
            )
            self._register_context(
                shard,
                build_fine_indexes=build_fine,
                build_coarse_indexes=build_coarse,
                lazy_fine_indexes=False,
                overwrite=True,
            )
            shards.append(shard)
        return plan, shards

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------
    def _build_fine_indexes(self, context: StoredContext) -> None:
        keys_per_layer = context.snapshot.keys
        queries_per_layer: dict[int, np.ndarray] = {}
        for layer, keys in keys_per_layer.items():
            sample = context.query_samples.get(layer)
            if sample is None or sample.size == 0:
                # fall back to the keys themselves (loses the OOD benefit but
                # keeps the index functional)
                sample = keys
            queries_per_layer[layer] = np.asarray(sample, dtype=np.float32)
        layer_indexes, _ = self._builder.build_context(keys_per_layer, queries_per_layer)
        context.fine_indexes = layer_indexes

    def _build_coarse_indexes(self, context: StoredContext) -> None:
        coarse: dict[int, list[CoarseBlockIndex]] = {}
        for layer, keys in context.snapshot.keys.items():
            per_head: list[CoarseBlockIndex] = []
            for kv_head in range(keys.shape[0]):
                index = CoarseBlockIndex(block_size=self.config.coarse_block_size)
                index.build(keys[kv_head])
                per_head.append(index)
            coarse[layer] = per_head
        context.coarse_indexes = coarse

    def _ensure_fine_indexes(self, context: StoredContext) -> None:
        """Build a resident context's deferred fine indexes (a no-op when it
        has them or opted out of them)."""
        if not context.wants_fine_indexes or context.has_fine_indexes:
            return
        self._build_fine_indexes(context)
        # re-persist so the deferred build still reloads as a deserialize,
        # not another rebuild (a no-op without a backend)
        self.store_registry.persist_indexes(context.context_id)

    # ------------------------------------------------------------------
    # portable context bundles (export / import)
    # ------------------------------------------------------------------
    def export_context(self, context_id: str, dest_dir: str | Path) -> Path:
        """Export one context as a portable bundle: a context database at
        ``dest_dir`` that holds this one context.

        Deferred fine builds are completed first so the bundle is whole;
        :meth:`import_context_bundle` on another DB (or
        :meth:`ContextStore.open`) then serves the context without
        re-prefilling or re-indexing.
        """
        context = self.store_registry.ensure_resident(context_id)
        self._ensure_fine_indexes(context)
        # a second StoredContext over the same snapshot and indexes, so the
        # two stores never share residency state
        ContextStore.open(dest_dir).add(dataclasses.replace(context), overwrite=True)
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
        exporter's), a missing or torn blob falls back to the rebuild path.
        ``context_id`` overrides the bundled id, e.g. to avoid a collision.
        """
        bundle = ContextStore.open(src_dir, on_reload=self._context_reloaded)
        ids = bundle.list_ids()
        if len(ids) != 1:
            raise ContextLoadError(
                f"{src_dir} is not a context bundle: it holds {len(ids)} contexts, not one"
            )
        source = bundle.ensure_resident(ids[0])
        context = dataclasses.replace(source, context_id=context_id or source.context_id)
        self.store_registry.add(context, overwrite=overwrite)
        return context
