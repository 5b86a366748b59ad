"""Serialisation of KV caches to and from disk.

``DB.import`` / ``DB.store`` persist contexts (prompt tokens + KV cache) so
they can be reused across sessions and across process restarts.  A snapshot
is one raw, checksummed record (:mod:`repro.storage.record`): the tokens,
each layer's keys and values, and the prefill query samples a fine-index
rebuild reads, as contiguous arrays behind a JSON header.  Loading returns
read-only ``np.frombuffer`` views over the blob — a stored context is
immutable, and nothing is copied or decompressed.

Two properties matter for the durable context database:

* **crash safety** — :func:`save_snapshot` writes to a temp file and
  ``os.replace``\\ s it into place, so a crash mid-write leaves the previous
  snapshot (or nothing), never a truncated record;
* **clean failure** — a truncated, corrupted (CRC), missing or
  other-version snapshot raises :class:`~repro.errors.ContextLoadError`
  (a :class:`StorageError`), never a raw numpy traceback.

:func:`snapshot_to_bytes` / :func:`snapshot_from_bytes` are the in-memory
core; storage backends persist those blobs wherever they like.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContextLoadError, StorageError
from ..storage import record
from .cache import DynamicCache

__all__ = [
    "KVSnapshot",
    "snapshot_from_cache",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT_VERSION = 2

_KIND = "kv-snapshot"


@dataclass
class KVSnapshot:
    """An immutable picture of a context: tokens plus per-layer KV tensors.

    ``query_samples`` optionally carries the per-layer query vectors captured
    during the prefill that produced this KV (``(num_query_heads, m,
    head_dim)`` per layer).  Persisting them alongside the KV lets a context
    reloaded from disk rebuild its fine indexes with the same out-of-
    distribution query sample the original build used, instead of falling
    back to indexing with the keys themselves.
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
        if sample is not None and sample.size:
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


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-temp-then-rename so a crash never leaves a truncated file."""
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def save_snapshot(snapshot: KVSnapshot, directory: str | Path, name: str) -> Path:
    """Persist ``snapshot`` under ``directory/name`` and return the data path.

    Both the record and the JSON sidecar header are written atomically
    (temp file + ``os.replace``): a crash mid-save leaves the previous
    snapshot intact rather than a truncated record.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / f"{name}.npz"
    _atomic_write(data_path, snapshot_to_bytes(snapshot))
    header = {
        "name": name,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "num_tokens": snapshot.num_tokens,
        "num_layers": snapshot.num_layers,
        "metadata": snapshot.metadata,
    }
    _atomic_write(directory / f"{name}.json", json.dumps(header, indent=2).encode("utf-8"))
    return data_path


def load_snapshot(directory: str | Path, name: str) -> KVSnapshot:
    """Load a snapshot persisted by :func:`save_snapshot`.

    A missing, truncated, or corrupted snapshot raises a clean
    :class:`ContextLoadError` naming the file.
    """
    directory = Path(directory)
    data_path = directory / f"{name}.npz"
    if not data_path.exists():
        raise ContextLoadError(f"snapshot data not found: {data_path}")
    return snapshot_from_bytes(data_path.read_bytes(), source=str(data_path))
