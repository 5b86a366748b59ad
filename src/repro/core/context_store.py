"""The context store: stored long contexts, prefix reuse, and residency.

A *context* is a prompt's token sequence plus the KV cache it produced and,
once built, the per-layer vector indexes over its keys.  ``DB.create_session``
matches the incoming prompt against the store to find the **longest common
prefix** with any stored context; the matched prefix is reused (its KV cache
and indexes are not recomputed) and only the non-reused suffix is prefilled.

Serving-scale features:

* prefix matching runs over a **token trie**, so a lookup costs
  ``O(len(prompt))`` instead of ``O(num_contexts x len(prompt))``;
* the store is the **buffer manager** of the paper's §7.3 at context
  granularity: an LRU with an optional **byte budget** on resident KV
  snapshots, pins, and hit/miss counts.  Cold contexts are spilled through a
  :class:`~repro.storage.backend.StorageBackend` (their tokens stay in
  memory so prefix matching keeps working) and transparently reloaded on the
  next hit.  The LRU is the one residency ledger: resident byte totals are
  computed from it when read, never kept in a second counter;
* spilled contexts round-trip their **fine and coarse indexes** too: reload
  is a deserialize, not a rebuild-from-keys (a missing or torn index blob
  degrades to the rebuild);
* a store with a backend **is** the context database: every stored context
  is persisted (snapshot + indexes) as it is added and cataloged in a
  crash-safe, generation-stamped manifest, so :meth:`ContextStore.open` on
  the same directory — after a restart, or from a second process — recovers
  the whole population and serves contexts this process never prefilled.
  A portable bundle is such a database holding one context.  A store
  without a backend keeps its contexts in memory only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ContextEvictedError, ContextLoadError, ContextNotFoundError, DuplicateContextError
from ..index.coarse import CoarseBlockIndex
from ..index.roargraph import RoarGraphIndex
from ..index.serialization import deserialize_context_indexes, serialize_context_indexes
from ..kvcache.serialization import KVSnapshot, snapshot_from_bytes, snapshot_to_bytes
from ..storage.backend import FilesystemBackend, StorageBackend
from ..storage.manifest import ContextManifest, ManifestEntry

__all__ = ["StoredContext", "PrefixMatch", "ContextStore"]


@dataclass
class StoredContext:
    """One reusable context: tokens, KV snapshot, and (optionally) indexes.

    ``snapshot`` is ``None`` while the context is spilled to disk; the token
    sequence (and the byte sizes needed for accounting) stay in memory so the
    context keeps participating in prefix matching.  Both index maps hold,
    per layer, one index per KV head, built over (and viewing) that head's
    keys.
    """

    context_id: str
    snapshot: KVSnapshot | None
    fine_indexes: dict[int, list[RoarGraphIndex]] = field(default_factory=dict)
    coarse_indexes: dict[int, list[CoarseBlockIndex]] = field(default_factory=dict)
    prefix_matchable: bool = True
    """Whether the context's tokens enter the prefix-matching trie.  A shard
    of a larger context holds a mid-document token slice that must never be
    offered as a reusable prompt prefix, so shards set this False; they are
    addressed by id (via a shard catalog), not by prompt match."""

    def __post_init__(self) -> None:
        self._tokens: list[int] = self.snapshot.tokens if self.snapshot is not None else []
        self._spilled_kv_bytes = 0
        self._spilled_num_layers = 0

    @classmethod
    def from_manifest_entry(cls, entry: ManifestEntry) -> "StoredContext":
        """A cold (spilled) context recovered from a manifest row.

        Its tokens participate in prefix matching immediately; the KV and
        indexes load from the backend on the first ``ensure_resident``.
        """
        context = cls(
            context_id=entry.context_id,
            snapshot=None,
            prefix_matchable=entry.prefix_matchable,
        )
        context._tokens = entry.tokens
        context._spilled_kv_bytes = entry.kv_bytes
        context._spilled_num_layers = entry.num_layers
        return context

    @property
    def is_resident(self) -> bool:
        return self.snapshot is not None

    @property
    def tokens(self) -> list[int]:
        return self._tokens

    @property
    def num_tokens(self) -> int:
        return len(self._tokens)

    @property
    def num_layers(self) -> int:
        if self.snapshot is not None:
            return self.snapshot.num_layers
        return self._spilled_num_layers

    @property
    def query_samples(self) -> dict[int, np.ndarray]:
        """The query sample a fine-index build reads, per layer that can plan
        FINE, ``(num_kv_heads, m, head_dim)``.

        It lives once, in the snapshot (empty while spilled)."""
        return self.snapshot.query_samples if self.snapshot is not None else {}

    @property
    def has_fine_indexes(self) -> bool:
        return bool(self.fine_indexes)

    def _require_resident(self) -> KVSnapshot:
        if self.snapshot is None:
            raise ContextEvictedError(
                f"context {self.context_id!r} is spilled to disk; "
                "reload it through ContextStore.ensure_resident"
            )
        return self.snapshot

    def keys(self, layer: int) -> np.ndarray:
        return self._require_resident().keys[layer]

    def values(self, layer: int) -> np.ndarray:
        return self._require_resident().values[layer]

    @property
    def kv_bytes(self) -> int:
        if self.snapshot is not None:
            return self.snapshot.nbytes
        return self._spilled_kv_bytes

    @property
    def index_bytes(self) -> int:
        """Fine-graph bytes: a fine index's vectors are the snapshot's keys,
        already counted in :attr:`kv_bytes`."""
        return sum(
            index.graph.memory_bytes for per_head in self.fine_indexes.values() for index in per_head
        )

    # ------------------------------------------------------------------
    # residency transitions (driven by the ContextStore)
    # ------------------------------------------------------------------
    def spill(self) -> None:
        """Drop the in-memory KV and indexes; keep tokens and accounting."""
        snapshot = self._require_resident()
        self._spilled_kv_bytes = snapshot.nbytes
        self._spilled_num_layers = snapshot.num_layers
        self.snapshot = None
        # indexes reference the key arrays; dropping them is what frees the
        # memory.  The keys and query samples leave with the snapshot, whose
        # record on disk is their one copy: :meth:`restore` brings them back,
        # and the indexes come back as their persisted blob re-attached to
        # those keys — or, when that blob is missing, torn or disagrees with
        # the keys, a rebuild from the snapshot.
        self.fine_indexes = {}
        self.coarse_indexes = {}

    def restore(self, snapshot: KVSnapshot) -> None:
        """Re-attach a snapshot loaded back from disk."""
        self.snapshot = snapshot
        self._tokens = snapshot.tokens


@dataclass
class PrefixMatch:
    """Result of matching an incoming prompt against the store."""

    context: StoredContext | None
    prefix_length: int

    @property
    def is_hit(self) -> bool:
        return self.context is not None and self.prefix_length > 0

    @property
    def is_full_reuse(self) -> bool:
        return self.is_hit and self.prefix_length == self.context.num_tokens


class _TrieNode:
    """One token of stored-context prefixes.

    ``holder`` is one representative context whose token sequence passes
    through this node — any such context shares the prefix this node spells,
    which is all longest-prefix matching needs, so a full holder *set* per
    node (O(total stored tokens) sets) is avoided.  ``ends`` lists the
    contexts whose sequence terminates exactly here; it backs holder repair
    when a context is removed.
    """

    __slots__ = ("children", "holder", "ends")

    def __init__(self, holder: str) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.holder = holder
        self.ends: set[str] | None = None


class ContextStore:
    """Registry of stored contexts with budgeted residency and disk spill.

    With a ``backend`` the store is a context database over it: construction
    recovers whatever population the manifest describes, and every added
    context is persisted immediately and recorded in the manifest (see
    :meth:`open`).  Without one, contexts live in memory only.

    ``kv_budget_bytes`` caps the total bytes of KV snapshots kept in memory;
    exceeding it spills the least-recently-used unpinned context to the
    backend (so a budget requires one).  ``on_index_lost`` is called after a
    reload whose cataloged index blob did not load, so the owning DB can
    rebuild what the reload lost.

    Every :meth:`ensure_resident` call is one access: a hit (``hit_count``)
    when the context is resident, a miss (``reload_count``) when it reloads.
    """

    def __init__(
        self,
        kv_budget_bytes: int | None = None,
        on_index_lost: Callable[[StoredContext], None] | None = None,
        backend: StorageBackend | None = None,
    ):
        if kv_budget_bytes is not None:
            if kv_budget_bytes <= 0:
                raise ValueError(f"kv_budget_bytes must be positive, got {kv_budget_bytes}")
            if backend is None:
                raise ValueError("a kv_budget_bytes cap requires a backend to spill to")
        self._contexts: dict[str, StoredContext] = {}
        self.backend = backend
        self.kv_budget_bytes = kv_budget_bytes
        self._root = _TrieNode(holder="")  # the root's holder is never read
        self._lru: OrderedDict[str, None] = OrderedDict()  # resident ids, oldest first
        self._pins: dict[str, int] = {}
        self._persisted: set[str] = set()
        self._indexed_on_disk: set[str] = set()
        self._on_index_lost = on_index_lost
        self.spill_count = 0
        self.hit_count = 0
        """Accesses (``ensure_resident`` calls) that found the context resident."""
        self.reload_count = 0
        """Accesses that reloaded a spilled context: the misses."""
        self.reload_deserialized_count = 0
        """Reloads that brought back every index the catalog names for the
        context by deserialization — a context persisted with no index
        included."""
        self.reload_rebuilt_count = 0
        """Reloads where the catalog names an index blob that did not load
        (missing or torn); the owning DB rebuilds what it held from the
        snapshot (see ``on_index_lost``)."""
        self._manifest = ContextManifest()
        if backend is not None:
            self._manifest = ContextManifest.load_or_empty(backend)
            self._recover_from_manifest()

    @classmethod
    def open(
        cls,
        storage: str | Path | StorageBackend,
        **kwargs,
    ) -> "ContextStore":
        """Open (or create) the context database at ``storage``.

        ``storage`` is a directory path (filesystem backend) or an existing
        :class:`StorageBackend`.  Contexts cataloged in the manifest are
        recovered cold — prefix-matchable immediately, loaded on first use —
        so a restarted service, or a second store sharing the directory, can
        serve contexts it never prefilled.
        """
        if not isinstance(storage, StorageBackend):
            storage = FilesystemBackend(storage)
        return cls(backend=storage, **kwargs)

    def _recover_from_manifest(self) -> None:
        for entry in self._manifest.entries.values():
            self._adopt_manifest_entry(entry)

    def _adopt_manifest_entry(self, entry: ManifestEntry) -> StoredContext:
        context = StoredContext.from_manifest_entry(entry)
        self._contexts[context.context_id] = context
        if context.prefix_matchable:
            self._trie_insert(context.tokens, context.context_id)
        self._persisted.add(context.context_id)
        if entry.index_key is not None:
            self._indexed_on_disk.add(context.context_id)
        return context

    def refresh_from_manifest(self) -> list[str]:
        """Adopt contexts another writer added to the shared manifest.

        A worker that opened its store *before* a router ingested new
        contexts (or shards) calls this to pick them up without reopening:
        the shared manifest is re-read and any context id this handle has
        never seen is adopted cold (loaded on first use).  Known ids are left
        untouched — local residency, pins and in-flight state stay valid —
        and local entries missing from the loaded manifest are kept
        (dropping them here would orphan live local contexts).  Returns the
        newly adopted context ids.
        """
        if self.backend is None:
            raise ValueError("refresh_from_manifest requires a ContextStore with a backend")
        loaded = ContextManifest.load_or_empty(self.backend)
        self._manifest.generation = max(self._manifest.generation, loaded.generation)
        adopted = []
        for context_id, entry in loaded.entries.items():
            if context_id in self._contexts:
                continue
            # into this handle's view, not its changed rows: a save must not
            # write this (possibly stale) copy back over the owner's
            self._manifest.entries[context_id] = entry
            self._adopt_manifest_entry(entry)
            adopted.append(context_id)
        return adopted

    # ------------------------------------------------------------------
    # backend keys (the ``.npz`` suffix predates the raw record format; a
    # database written before it is found under the same keys and its blobs
    # are rejected by format version rather than reported missing)
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot_key(context_id: str) -> str:
        return f"{context_id}.npz"

    @staticmethod
    def _index_key(context_id: str) -> str:
        return f"{context_id}.indexes.npz"

    def flush(self) -> None:
        """Return once everything this store wrote is durable; raises
        :class:`~repro.errors.StorageError` when landing some of it failed
        (see :meth:`StorageBackend.flush`)."""
        if self.backend is not None:
            self.backend.flush()

    @property
    def manifest_generation(self) -> int:
        """Generation stamp of the last manifest write (0 without a backend)."""
        return self._manifest.generation

    # ------------------------------------------------------------------
    # registry operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._contexts)

    def __contains__(self, context_id: str) -> bool:
        return context_id in self._contexts

    def add(self, context: StoredContext, overwrite: bool = False) -> None:
        context_id = context.context_id
        existing = self._contexts.get(context_id)
        if existing is not None:
            if not overwrite:
                raise DuplicateContextError(f"context {context_id!r} already stored")
            # pins are held by id (live sessions unpin on close), so they must
            # survive the overwrite: dropping them would let a later close()
            # zero another session's pin and spill a context still in use
            preserved_pins = self._pins.get(context_id, 0)
            self._forget(existing)
            if preserved_pins:
                self._pins[context_id] = preserved_pins
        self._contexts[context_id] = context
        if context.prefix_matchable:
            self._trie_insert(context.tokens, context_id)
        if context.is_resident:
            self._lru[context_id] = None
        if self.backend is not None and context.is_resident:
            # the database property: a stored context survives this process
            replaced = self._manifest.get(context_id)
            self._persist_snapshot(context)
            if context.fine_indexes or context.coarse_indexes:
                self._persist_index_blob(context)
            self._manifest.upsert(self._manifest_entry(context))
            self._manifest.save(self.backend)
            if replaced is not None and replaced.index_key and context_id not in self._indexed_on_disk:
                # the replaced version's blob is outside the catalog now.  A
                # key no row named is not deleted: looking up a missing key
                # waits behind whatever the backend is unlinking
                self.backend.delete(replaced.index_key)
        self._enforce_budget(protect=context_id)

    def get(self, context_id: str) -> StoredContext:
        try:
            context = self._contexts[context_id]
        except KeyError:
            raise ContextNotFoundError(f"context {context_id!r} not found") from None
        if context.is_resident:
            self._touch(context_id)
        return context

    def remove(self, context_id: str) -> None:
        context = self._contexts.get(context_id)
        if context is None:
            raise ContextNotFoundError(f"context {context_id!r} not found")
        self._forget(context)
        del self._contexts[context_id]
        if self.backend is not None:
            row = self._manifest.get(context_id)
            # uncatalog first: a failure past this point leaves an orphan
            # object, never a row that names a deleted snapshot
            if self._manifest.remove(context_id):
                self._manifest.save(self.backend)
            self.backend.delete(self._snapshot_key(context_id))
            if row is not None and row.index_key:
                self.backend.delete(row.index_key)

    def list_ids(self) -> list[str]:
        return sorted(self._contexts)

    def items(self) -> list[tuple[str, StoredContext]]:
        """Snapshot of ``(context_id, context)`` pairs, LRU order untouched.

        Reporting paths (``memory_report``) iterate the population without
        promoting every context in the LRU the way :meth:`get` would.
        """
        return sorted(self._contexts.items())

    @property
    def total_kv_bytes(self) -> int:
        """KV bytes of every stored context, resident or spilled."""
        return sum(context.kv_bytes for context in self._contexts.values())

    @property
    def resident_kv_bytes(self) -> int:
        """KV bytes currently held in memory (governed by the budget)."""
        return sum(self._contexts[cid].kv_bytes for cid in self._lru)

    @property
    def resident_bytes(self) -> int:
        """KV plus fine-graph bytes currently held in memory."""
        return sum(
            self._contexts[cid].kv_bytes + self._contexts[cid].index_bytes for cid in self._lru
        )

    @property
    def hit_ratio(self) -> float:
        """Share of accesses served without a reload (0.0 before any access)."""
        accesses = self.hit_count + self.reload_count
        return self.hit_count / accesses if accesses else 0.0

    @property
    def spilled_kv_bytes(self) -> int:
        """KV bytes of contexts currently living only on the disk tier."""
        return sum(
            context.kv_bytes for context in self._contexts.values() if not context.is_resident
        )

    @property
    def disk_kv_bytes(self) -> int:
        """On-disk bytes of persisted KV snapshot records."""
        if self.backend is None:
            return 0
        return sum(self.backend.size_bytes(self._snapshot_key(cid)) for cid in self._persisted)

    @property
    def disk_index_bytes(self) -> int:
        """On-disk bytes of serialized fine/coarse index blobs."""
        if self.backend is None:
            return 0
        return sum(self.backend.size_bytes(self._index_key(cid)) for cid in self._indexed_on_disk)

    def resident_ids(self) -> list[str]:
        return list(self._lru)

    # ------------------------------------------------------------------
    # pinning (contexts connected to live sessions must not be spilled)
    # ------------------------------------------------------------------
    def pin(self, context_id: str) -> None:
        if context_id not in self._contexts:
            raise ContextNotFoundError(f"context {context_id!r} not found")
        self._pins[context_id] = self._pins.get(context_id, 0) + 1

    def unpin(self, context_id: str) -> None:
        count = self._pins.get(context_id, 0)
        if count <= 1:
            self._pins.pop(context_id, None)
            # a budget overrun deferred by this pin can be resolved now
            self._enforce_budget()
        else:
            self._pins[context_id] = count - 1

    def pin_count(self, context_id: str) -> int:
        """Live-session pins currently held on ``context_id`` (0 if none)."""
        return self._pins.get(context_id, 0)

    def pinned_ids(self) -> list[str]:
        """Contexts currently pinned by at least one live session."""
        return sorted(cid for cid, count in self._pins.items() if count > 0)

    @property
    def num_pinned(self) -> int:
        """Number of contexts with at least one live pin.

        A drained serving stack must report 0 here — every session closed,
        preempted-then-cancelled, or resumed-then-finished request returns
        its pin; the soak test asserts exactly that."""
        return len(self.pinned_ids())

    # ------------------------------------------------------------------
    # prefix matching (token trie)
    # ------------------------------------------------------------------
    def find_longest_prefix(self, tokens: list[int]) -> PrefixMatch:
        """Find the stored context sharing the longest common prefix with ``tokens``.

        One trie walk over the prompt; spilled contexts still match (their
        tokens stay in the trie) — callers reload them via
        :meth:`ensure_resident` before touching KV data.
        """
        node = self._root
        best_id: str | None = None
        best_length = 0
        for depth, token in enumerate(tokens, start=1):
            child = node.children.get(int(token))
            if child is None:
                break
            # every node exists on some stored context's path, so its holder
            # shares exactly this prefix with the probe
            best_id = child.holder
            best_length = depth
            node = child
        context = self._contexts.get(best_id) if best_id is not None else None
        return PrefixMatch(context=context, prefix_length=best_length)

    def _trie_insert(self, tokens: list[int], context_id: str) -> None:
        node = self._root
        for token in tokens:
            token = int(token)
            child = node.children.get(token)
            if child is None:
                child = _TrieNode(holder=context_id)
                node.children[token] = child
            node = child
        if node.ends is None:
            node.ends = set()
        node.ends.add(context_id)

    def _trie_remove(self, tokens: list[int], context_id: str) -> None:
        node = self._root
        path: list[tuple[_TrieNode, int, _TrieNode]] = []
        for token in tokens:
            token = int(token)
            child = node.children.get(token)
            if child is None:
                break
            path.append((node, token, child))
            node = child
        if node.ends is not None:
            node.ends.discard(context_id)
            if not node.ends:
                node.ends = None
        # bottom-up: prune empty nodes, repair holders that named the
        # removed context (children were repaired first, so their holders
        # are valid replacements)
        for parent, token, child in reversed(path):
            if not child.children and child.ends is None:
                del parent.children[token]
                continue
            if child.holder == context_id:
                if child.ends:
                    child.holder = next(iter(child.ends))
                else:
                    child.holder = next(iter(child.children.values())).holder

    # ------------------------------------------------------------------
    # residency management
    # ------------------------------------------------------------------
    def ensure_resident(self, context_id: str) -> StoredContext:
        """Reload a spilled context from disk (no-op when already resident).

        When the catalog names an index blob for the context, its indexes
        are deserialized and re-attached here — retrieval over them is
        bit-identical to the pre-spill index, and nothing is rebuilt.
        """
        context = self._contexts.get(context_id)
        if context is None:
            raise ContextNotFoundError(f"context {context_id!r} not found")
        if context.is_resident:
            self.hit_count += 1
            self._touch(context_id)
            return context
        if self.backend is None:
            raise ContextEvictedError(
                f"context {context_id!r} is spilled but the store has no backend"
            )
        snapshot = self._load_snapshot(context_id)
        context.restore(snapshot)
        lost = context_id in self._indexed_on_disk and not self._attach_persisted_indexes(context)
        if lost:
            self.reload_rebuilt_count += 1
        else:
            self.reload_deserialized_count += 1
        self._lru[context_id] = None
        self.reload_count += 1
        if lost and self._on_index_lost is not None:
            self._on_index_lost(context)
        self._enforce_budget(protect=context_id)
        return context

    def spill(self, context_id: str) -> None:
        """Explicitly spill one resident context to disk."""
        if self.backend is None:
            raise ValueError("this ContextStore was created without a backend")
        context = self.get(context_id)
        if not context.is_resident:
            return
        if self._pins.get(context_id, 0) > 0:
            raise ValueError(
                f"context {context_id!r} is pinned by a live session and cannot be spilled"
            )
        self._spill_one(context_id)

    def _touch(self, context_id: str) -> None:
        if context_id in self._lru:
            self._lru.move_to_end(context_id)

    def _enforce_budget(self, protect: str | None = None) -> None:
        if self.kv_budget_bytes is None:
            return
        resident = self.resident_kv_bytes
        while resident > self.kv_budget_bytes:
            victim = next(
                (
                    cid
                    for cid in self._lru
                    if cid != protect and self._pins.get(cid, 0) == 0
                ),
                None,
            )
            if victim is None:
                break  # everything else is pinned or protected; stay over budget
            resident -= self._contexts[victim].kv_bytes
            self._spill_one(victim)

    def _spill_one(self, context_id: str) -> None:
        context = self._contexts[context_id]
        if context_id not in self._persisted:
            self._persist_snapshot(context)
        if context_id not in self._indexed_on_disk and (
            context.fine_indexes or context.coarse_indexes
        ):
            self._persist_index_blob(context)
            self._manifest.upsert(self._manifest_entry(context))
            self._manifest.save(self.backend)
        self._lru.pop(context_id, None)
        context.spill()
        self.spill_count += 1

    def _forget(self, context: StoredContext) -> None:
        """Drop all bookkeeping for a context being removed or overwritten."""
        context_id = context.context_id
        if context.prefix_matchable:
            self._trie_remove(context.tokens, context_id)
        self._lru.pop(context_id, None)
        self._pins.pop(context_id, None)
        self._persisted.discard(context_id)
        self._indexed_on_disk.discard(context_id)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _persist_snapshot(self, context: StoredContext) -> None:
        self.backend.write_bytes(
            self._snapshot_key(context.context_id), snapshot_to_bytes(context.snapshot)
        )
        self._persisted.add(context.context_id)

    def _load_snapshot(self, context_id: str) -> KVSnapshot:
        key = self._snapshot_key(context_id)
        return snapshot_from_bytes(self.backend.read_bytes(key), source=key)

    def _persist_index_blob(self, context: StoredContext) -> None:
        blob = serialize_context_indexes(context.fine_indexes, context.coarse_indexes)
        self.backend.write_bytes(self._index_key(context.context_id), blob)
        self._indexed_on_disk.add(context.context_id)

    def _attach_persisted_indexes(self, context: StoredContext) -> bool:
        """Re-attach a reloaded context's cataloged index blob.

        Every index's vectors are re-attached as views of the reloaded
        snapshot's keys.  Returns False when the blob is missing, corrupted,
        of another format version or disagrees with those keys: that
        degrades to the rebuild path instead of failing the reload.
        """
        context_id = context.context_id
        key = self._index_key(context_id)
        try:
            context.fine_indexes, context.coarse_indexes = deserialize_context_indexes(
                self.backend.read_bytes(key), context.snapshot.keys, source=key
            )
        except ContextLoadError:
            self._indexed_on_disk.discard(context_id)
            return False
        return True

    def _manifest_entry(self, context: StoredContext) -> ManifestEntry:
        context_id = context.context_id
        index_key = self._index_key(context_id) if context_id in self._indexed_on_disk else None
        return ManifestEntry(
            context_id=context_id,
            tokens=list(context.tokens),
            num_layers=context.num_layers,
            kv_bytes=context.kv_bytes,
            snapshot_key=self._snapshot_key(context_id),
            index_key=index_key,
            index_bytes=self.backend.size_bytes(index_key) if index_key else 0,
            prefix_matchable=context.prefix_matchable,
            metadata=dict(context.snapshot.metadata) if context.snapshot is not None else {},
        )

    def persist_indexes(self, context_id: str) -> bool:
        """Serialize a stored context's current fine/coarse indexes to the backend.

        Called after indexes are built for a context already in the store
        (a session's plans read one it lacked), so it reloads as a
        deserialize, not a rebuild.  Returns False (a no-op) when the store
        has no backend, the context is not resident, or it has no indexes.
        """
        if self.backend is None:
            return False
        context = self._contexts.get(context_id)
        if context is None:
            raise ContextNotFoundError(f"context {context_id!r} not found")
        if not context.is_resident or not (context.fine_indexes or context.coarse_indexes):
            return False
        self._persist_index_blob(context)
        self._manifest.upsert(self._manifest_entry(context))
        self._manifest.save(self.backend)
        return True
