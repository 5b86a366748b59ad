"""The persistent manifest of the durable context database.

The manifest is the database's catalog: one JSON object recording, for every
persisted context, its id, token sequence, snapshot/index object keys and
byte sizes.  It records whatever indexes a context has, not which it should
have: that is the query optimizer's choice, made again when a torn index
blob is rebuilt.  A restarted :class:`~repro.core.service.InferenceService`
— or a second process sharing the directory — reads it on
``ContextStore.open`` and can prefix-match and serve contexts it never
prefilled.

Format 2 stores a row's tokens as one string, base64 of little-endian
int32, and writes the catalog as compact JSON, so a save encodes only the
rows it changed and copies every other row's string through untouched.
Format 1 catalogs (tokens as JSON lists) still load, and the first save
over one rewrites every row packed.

Crash safety comes from two sides: the backend's atomic write (temp +
rename, so a reader never sees a torn manifest) and a monotonically
increasing **generation** stamp, bumped on every write, so stale copies are
detectable and a reopened store continues the sequence instead of resetting
it.  Several handles may share one backend (a sharded router and its shard
owners): a save merges per row, applying only the rows its handle upserted
or removed since its last save on top of the persisted catalog, so one
writer never reverts a row another wrote.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContextLoadError
from .backend import StorageBackend

__all__ = ["MANIFEST_FORMAT_VERSION", "MANIFEST_KEY", "ManifestEntry", "ContextManifest"]

MANIFEST_FORMAT_VERSION = 2
MANIFEST_KEY = "manifest.json"
_INT32 = np.iinfo(np.int32)


def _pack_tokens(tokens) -> str:
    """Token ids as base64 of little-endian int32; ``ValueError`` for an id
    outside int32."""
    ids = np.asarray(tokens)
    if ids.size and (ids.min() < _INT32.min or ids.max() > _INT32.max):
        raise ValueError(f"token id outside int32 in [{ids.min()}, {ids.max()}]")
    return base64.b64encode(ids.astype("<i4").tobytes()).decode("ascii")


def _unpack_tokens(packed: str) -> list[int]:
    raw = base64.b64decode(packed, validate=True)
    if len(raw) % 4:
        raise ValueError(f"packed tokens hold {len(raw)} bytes, not a multiple of 4")
    return np.frombuffer(raw, dtype="<i4").tolist()


@dataclass
class ManifestEntry:
    """Catalog row for one persisted context."""

    context_id: str
    tokens: list[int]
    num_layers: int
    kv_bytes: int
    snapshot_key: str
    index_key: str | None = None
    """Key of the serialized fine/coarse index bundle; ``None`` when the
    context was persisted with no index."""
    index_bytes: int = 0
    prefix_matchable: bool = True
    """Whether the context participates in token-trie prefix matching.  A
    *shard* of a context stores an arbitrary mid-document token slice, which
    must never be offered as a reusable prompt prefix; shards set this
    False."""
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    def to_json(self) -> dict:
        return {
            "context_id": self.context_id,
            "tokens": _pack_tokens(self.tokens),
            "num_layers": self.num_layers,
            "kv_bytes": self.kv_bytes,
            "snapshot_key": self.snapshot_key,
            "index_key": self.index_key,
            "index_bytes": self.index_bytes,
            "prefix_matchable": self.prefix_matchable,
            "metadata": self.metadata,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ManifestEntry":
        try:
            return cls(
                context_id=payload["context_id"],
                tokens=_unpack_tokens(payload["tokens"]),
                num_layers=int(payload["num_layers"]),
                kv_bytes=int(payload["kv_bytes"]),
                snapshot_key=payload["snapshot_key"],
                index_key=payload.get("index_key"),
                index_bytes=int(payload.get("index_bytes", 0)),
                prefix_matchable=bool(payload.get("prefix_matchable", True)),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ContextLoadError(f"malformed manifest entry: {exc!r}") from exc


class ContextManifest:
    """The generation-stamped catalog of every persisted context."""

    def __init__(self, entries: dict[str, ManifestEntry] | None = None, generation: int = 0):
        self.entries: dict[str, ManifestEntry] = dict(entries or {})
        self.generation = generation
        # rows upserted (the entry) or removed (None) since the last save
        self._changed: dict[str, ManifestEntry | None] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, context_id: str) -> bool:
        return context_id in self.entries

    def get(self, context_id: str) -> ManifestEntry | None:
        return self.entries.get(context_id)

    def upsert(self, entry: ManifestEntry) -> None:
        self.entries[entry.context_id] = entry
        self._changed[entry.context_id] = entry

    def remove(self, context_id: str) -> bool:
        self._changed[context_id] = None
        return self.entries.pop(context_id, None) is not None

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, backend: StorageBackend, key: str = MANIFEST_KEY) -> int:
        """Atomically write the manifest, bumping its generation stamp.

        The write merges per row: the rows this handle upserted or removed
        since its last save are applied on top of the *persisted* catalog,
        so rows other handles wrote in between survive.  Only those rows are
        encoded; every other row is written back as the parsed dict it was
        read as.  The bump continues from the persisted generation when that
        is ahead of this handle's, so every save produces a strictly larger
        stamp than whatever a reader last observed.  A persisted manifest
        that does not parse is no catalog to merge with: this handle's own
        rows replace it.  A token id outside int32 raises ``ValueError``
        before anything is written.
        """
        persisted = self._persisted_payload(backend, key)
        if persisted is None:
            rows = {cid: entry.to_json() for cid, entry in self.entries.items()}
        else:
            rows = {row["context_id"]: row for row in persisted["contexts"]}
            for context_id, entry in self._changed.items():
                if entry is None:
                    rows.pop(context_id, None)
                else:
                    rows[context_id] = entry.to_json()
            self.generation = max(self.generation, persisted["generation"])
        self.generation += 1
        payload = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "generation": self.generation,
            "contexts": [rows[cid] for cid in sorted(rows)],
        }
        backend.write_bytes(key, json.dumps(payload, separators=(",", ":")).encode("utf-8"))
        self._changed.clear()
        return self.generation

    @staticmethod
    def _persisted_payload(backend: StorageBackend, key: str) -> dict | None:
        """The manifest currently stored on ``backend`` as parsed by
        :meth:`_read_payload`, or ``None`` when there is none or it does not
        parse.

        Corruption is not raised here — :meth:`load` is where it surfaces as
        an error; here it must not block a save that would overwrite the
        corrupt blob with a good one.
        """
        if not backend.exists(key):
            return None
        try:
            return ContextManifest._read_payload(backend, key)
        except ContextLoadError:
            return None

    @staticmethod
    def _read_payload(backend: StorageBackend, key: str) -> dict:
        """The stored manifest as JSON in the current format: an integer
        ``generation`` and rows that each carry a string ``context_id`` and
        packed ``tokens`` (a format 1 row's token list is packed here).
        Raises :class:`ContextLoadError` when the blob is corrupted or
        written by an unknown format version."""
        try:
            payload = json.loads(backend.read_bytes(key).decode("utf-8"))
            version = payload.get("format_version")
            if version not in (1, MANIFEST_FORMAT_VERSION):
                raise ContextLoadError(
                    f"manifest format version {version!r} is not supported "
                    f"(this build reads versions 1 and {MANIFEST_FORMAT_VERSION})"
                )
            payload["generation"] = int(payload.get("generation", 0))
            rows = payload.setdefault("contexts", [])
            for row in rows:
                if not isinstance(row["context_id"], str):
                    raise TypeError(f"context id {row['context_id']!r} is not a string")
                if version == 1:
                    row["tokens"] = _pack_tokens(row["tokens"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ContextLoadError(f"corrupted context manifest under {key!r}: {exc!r}") from exc
        return payload

    @classmethod
    def load(cls, backend: StorageBackend, key: str = MANIFEST_KEY) -> "ContextManifest":
        """Read the manifest back (format 1 or 2); raises
        :class:`ContextLoadError` when the blob is corrupted or written by an
        unknown format version."""
        payload = cls._read_payload(backend, key)
        entries = {}
        for row in payload["contexts"]:
            entry = ManifestEntry.from_json(row)
            entries[entry.context_id] = entry
        return cls(entries=entries, generation=payload["generation"])

    @classmethod
    def load_or_empty(cls, backend: StorageBackend, key: str = MANIFEST_KEY) -> "ContextManifest":
        """Like :meth:`load`, but an *absent* manifest yields an empty one
        (a fresh directory); corruption still raises."""
        if not backend.exists(key):
            return cls()
        return cls.load(backend, key)
