"""Storage backends for the context database.

The context store persists three kinds of objects — KV snapshots, serialized
vector indexes, and the manifest — as opaque byte blobs under string keys.
:class:`StorageBackend` is the adapter interface that hides *where* those
blobs live; the context store, the snapshot/index serializers, and the
manifest never touch the filesystem directly.  A store is given its backend
as an object (``ContextStore(backend=...)``, ``DB(backend=...)``); a
directory path (``ContextStore.open(path)``, ``config.context_db_path``)
means a :class:`FilesystemBackend` over it.

Two implementations ship:

* :class:`FilesystemBackend` — one file per key under a root directory.
  Writes are **atomic** (temp file + ``os.replace``), so a crash mid-write
  leaves either the old object or nothing, never a truncated blob the next
  process trips over.
* :class:`InMemoryBackend` — a dict.  Used by tests and by a sharded
  router's workers; sharing one instance between two stores models two
  processes over shared storage without touching disk.
"""

from __future__ import annotations

import abc
import os
import tempfile
from pathlib import Path

from ..errors import ContextLoadError, StorageError

__all__ = ["StorageBackend", "FilesystemBackend", "InMemoryBackend"]


class StorageBackend(abc.ABC):
    """Byte-blob storage under string keys (the durable-tier adapter).

    Keys are relative, ``/``-separated paths (``"ctx-0001.npz"``,
    ``"manifest.json"``).  ``write_bytes`` must be atomic: a reader never
    observes a partially written object under a key.
    """

    @abc.abstractmethod
    def write_bytes(self, key: str, data: bytes) -> None:
        """Atomically store ``data`` under ``key`` (replacing any old value)."""

    @abc.abstractmethod
    def read_bytes(self, key: str) -> bytes:
        """The blob stored under ``key``; raises :class:`ContextLoadError`
        when the key does not exist."""

    @abc.abstractmethod
    def exists(self, key: str) -> bool:
        """Whether ``key`` currently holds a blob."""

    @abc.abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; returns False (a no-op) when it was absent."""

    @abc.abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """All stored keys starting with ``prefix``, sorted.

        ``prefix`` is a plain *string* prefix of the key, **not** a directory:
        ``list_keys("ctx-1")`` matches ``"ctx-1.npz"`` and
        ``"ctx-1/part.npz"`` alike, and ``list_keys("a/")`` matches exactly
        the keys under the ``a/`` key namespace.  Every backend must follow
        this contract so byte accounting (:meth:`total_bytes`) and per-context
        key enumeration behave identically across backends.
        """

    @abc.abstractmethod
    def size_bytes(self, key: str) -> int:
        """Size of the blob under ``key`` (0 when absent)."""

    def total_bytes(self, prefix: str = "") -> int:
        """Combined size of every blob whose key starts with ``prefix``.

        Follows the same key-string prefix semantics as :meth:`list_keys`.
        """
        return sum(self.size_bytes(key) for key in self.list_keys(prefix))


class FilesystemBackend(StorageBackend):
    """One file per key under ``root``; atomic writes via temp + rename."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FilesystemBackend({str(self.root)!r})"

    def _path(self, key: str) -> Path:
        path = (self.root / key).resolve()
        if self.root.resolve() not in path.parents and path != self.root.resolve():
            raise StorageError(f"key {key!r} escapes the backend root {self.root}")
        return path

    def write_bytes(self, key: str, data: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # write-temp-then-rename: a crash leaves the old object (or nothing),
        # never a truncated file under the real key
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

    def read_bytes(self, key: str) -> bytes:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise ContextLoadError(f"no object stored under key {key!r} in {self.root}") from None

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def list_keys(self, prefix: str = "") -> list[str]:
        keys = []
        for path in self.root.rglob("*"):
            if not path.is_file():
                continue
            # skip only our own in-flight atomic-write temps (".<name>.*.tmp"
            # from write_bytes) — a legitimate key that merely *ends* in
            # ".tmp" must stay visible
            if path.name.startswith(".") and path.name.endswith(".tmp"):
                continue
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def size_bytes(self, key: str) -> int:
        try:
            return self._path(key).stat().st_size
        except FileNotFoundError:
            return 0


class InMemoryBackend(StorageBackend):
    """Dict-backed storage: durable for the life of the backend object.

    Two context stores sharing one instance see each other's writes, which
    is how the tests model two processes over a shared directory.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"InMemoryBackend(keys={len(self._blobs)})"

    def write_bytes(self, key: str, data: bytes) -> None:
        self._blobs[key] = bytes(data)

    def read_bytes(self, key: str) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise ContextLoadError(f"no object stored under key {key!r} (in-memory backend)") from None

    def exists(self, key: str) -> bool:
        return key in self._blobs

    def delete(self, key: str) -> bool:
        return self._blobs.pop(key, None) is not None

    def list_keys(self, prefix: str = "") -> list[str]:
        return sorted(key for key in self._blobs if key.startswith(prefix))

    def size_bytes(self, key: str) -> int:
        blob = self._blobs.get(key)
        return len(blob) if blob is not None else 0
