"""Serialisation of KV snapshots to and from bytes.

``DB.import`` / ``DB.store`` persist contexts (prompt tokens + KV cache) so
they can be reused across sessions and across process restarts.  A snapshot
is one raw, checksummed record (:mod:`repro.storage.record`): the tokens,
each layer's keys and values, and the query sample a fine-index build reads
(one group per KV head, only for layers that can plan a fine index), as
contiguous arrays behind a JSON header.  Loading returns read-only
``np.frombuffer`` views over the blob — a stored context is immutable, and
nothing is copied or decompressed.

A truncated, corrupted (CRC), other-version or internally inconsistent
snapshot raises :class:`~repro.errors.ContextLoadError` (a
:class:`StorageError`), never a raw numpy traceback.
:func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` are the whole
format: a storage backend persists the blobs, atomically, wherever it likes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContextLoadError, StorageError
from ..storage import record
from .cache import DynamicCache

__all__ = [
    "KVSnapshot",
    "snapshot_from_cache",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
]

SNAPSHOT_FORMAT_VERSION = 4

_KIND = "kv-snapshot"


@dataclass
class KVSnapshot:
    """An immutable picture of a context: tokens plus per-layer KV tensors.

    ``query_samples`` holds, per layer that can plan a fine index, the query
    sample its build reads: ``(num_kv_heads, m, head_dim)``, the rows of the
    positions ``[0, n)`` that the one rule samples
    (:meth:`~repro.index.builder.IndexBuildConfig.sampled_positions`), in
    position order — so it depends on the tokens alone, and a token range's
    sample is a contiguous run of rows.  Persisting it
    alongside the KV lets a context reloaded from disk rebuild
    byte-identical fine indexes, with the out-of-distribution sample the
    original build used instead of the keys themselves.
    """

    tokens: list[int]
    keys: dict[int, np.ndarray] = field(default_factory=dict)
    values: dict[int, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)
    query_samples: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def num_layers(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        return sum(k.nbytes for k in self.keys.values()) + sum(v.nbytes for v in self.values.values())

    def validate(self) -> None:
        """Check internal consistency; raises ``StorageError`` on mismatch."""
        if set(self.keys) != set(self.values):
            raise StorageError("snapshot keys and values cover different layers")
        for layer, key_tensor in self.keys.items():
            value_tensor = self.values[layer]
            if key_tensor.shape != value_tensor.shape:
                raise StorageError(
                    f"layer {layer}: key shape {key_tensor.shape} != value shape {value_tensor.shape}"
                )
            if key_tensor.shape[1] != self.num_tokens:
                raise StorageError(
                    f"layer {layer}: {key_tensor.shape[1]} cached tokens but {self.num_tokens} prompt tokens"
                )
        for layer, sample in self.query_samples.items():
            if layer not in self.keys:
                raise StorageError(f"query sample for layer {layer}, which the snapshot does not hold")
            num_kv_heads, _, head_dim = self.keys[layer].shape
            if sample.ndim != 3 or (sample.shape[0], sample.shape[2]) != (num_kv_heads, head_dim):
                raise StorageError(
                    f"layer {layer}: query sample shape {sample.shape} is not "
                    f"({num_kv_heads}, m, {head_dim})"
                )


def snapshot_from_cache(tokens: list[int], cache: DynamicCache) -> KVSnapshot:
    """Build a snapshot from a filled ``DynamicCache``."""
    keys = {layer: cache.keys(layer).copy() for layer in range(cache.num_layers)}
    values = {layer: cache.values(layer).copy() for layer in range(cache.num_layers)}
    snapshot = KVSnapshot(tokens=list(tokens), keys=keys, values=values)
    snapshot.validate()
    return snapshot


def _snapshot_arrays(snapshot: KVSnapshot) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {"tokens": np.asarray(snapshot.tokens, dtype=np.int64)}
    for layer, key_tensor in snapshot.keys.items():
        arrays[f"key_{layer}"] = key_tensor
        arrays[f"value_{layer}"] = snapshot.values[layer]
    for layer, sample in snapshot.query_samples.items():
        arrays[f"qsample_{layer}"] = np.asarray(sample, dtype=np.float32)
    return arrays


def snapshot_to_bytes(snapshot: KVSnapshot) -> bytes:
    """Serialize a validated snapshot into one self-describing record."""
    snapshot.validate()
    meta = {
        "num_tokens": snapshot.num_tokens,
        "num_layers": snapshot.num_layers,
        "metadata": snapshot.metadata,
    }
    return record.pack(_KIND, SNAPSHOT_FORMAT_VERSION, meta, _snapshot_arrays(snapshot))


def snapshot_from_bytes(data: bytes, source: str = "<bytes>") -> KVSnapshot:
    """Deserialize :func:`snapshot_to_bytes` output.

    The KV arrays are read-only views over ``data``.  Raises
    :class:`ContextLoadError` on truncation, corruption, or an unsupported
    format version.
    """
    meta, arrays = record.unpack(data, f"snapshot {source}", _KIND, SNAPSHOT_FORMAT_VERSION)
    keys: dict[int, np.ndarray] = {}
    values: dict[int, np.ndarray] = {}
    query_samples: dict[int, np.ndarray] = {}
    per_layer = {"key": keys, "value": values, "qsample": query_samples}
    try:
        tokens = arrays["tokens"].tolist()
        metadata = dict(meta["metadata"])
        for array_name, array in arrays.items():
            if array_name != "tokens":
                kind, _, layer = array_name.rpartition("_")
                per_layer[kind][int(layer)] = array
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"snapshot {source} is malformed: {exc!r}") from exc
    snapshot = KVSnapshot(
        tokens=tokens, keys=keys, values=values, metadata=metadata, query_samples=query_samples
    )
    try:
        snapshot.validate()
    except StorageError as exc:
        raise ContextLoadError(f"snapshot {source} is internally inconsistent: {exc}") from exc
    return snapshot
