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

* :class:`FilesystemBackend` — one file per key under a root directory,
  written behind the caller.  ``write_bytes`` and ``delete`` record the
  newest operation per key and return; one *lander* thread per directory
  (shared by every handle on that directory in the process) makes them
  durable, so a serving round never waits for a write, rename or unlink.
  Within the process every handle reads its own writes: reads consult the
  unlanded operations first, then the disk.  A landing cycle takes every
  pending operation at once and lands it in a fixed order:

  1. each object is written to a temp file, fsynced and renamed over its
     key (atomic: a crash leaves the old object or the new one, never a
     torn blob);
  2. the directory is fsynced, so those renames are durable;
  3. the manifest (:data:`CATALOG_KEY`) is written, renamed, and the
     directory fsynced again;
  4. the deletes run.

  The manifest on disk therefore never names an object whose rename is not
  durable, and a delete the store issued after uncataloging an object runs
  only once the uncataloging manifest landed.  A crash — or a reader in
  another process — sees a consistent, older catalog plus, at worst,
  orphan objects.  An object is durable once a cycle landed it:
  :meth:`FilesystemBackend.flush` returns when nothing is pending or in
  flight.  A landing error (``ENOSPC``, ``EIO``) loses nothing: what the
  cycle did not land stays pending (reads still see it) and is retried in
  the same order, and until a cycle lands every ``write_bytes``,
  ``delete`` and ``flush`` on that directory raises
  :class:`StorageError`.  A lander belongs to a directory, not to its
  path: one removed under it is never re-created, and what was pending
  for it is dropped, never landed in a directory later made at that path.
* :class:`InMemoryBackend` — a dict.  Used by tests and by a sharded
  router's workers; sharing one instance between two stores models two
  processes over shared storage without touching disk.
"""

from __future__ import annotations

import abc
import os
import posixpath
import tempfile
import threading
import time
import weakref
from pathlib import Path

from ..errors import ContextLoadError, StorageError

__all__ = ["CATALOG_KEY", "StorageBackend", "FilesystemBackend", "InMemoryBackend"]

CATALOG_KEY = "manifest.json"
"""The key of the database's catalog: a landing cycle writes it after every
other object of the cycle is durable."""

MAX_PENDING_DELETES = 128
"""Delete backlog of one directory past which ``delete`` waits for the
lander.  Writes coalesce per key, deletes of distinct keys cannot; each one
frees blocks, which under online discard costs tens of milliseconds."""

_IDLE_S = 0.25
"""How long a lander with nothing to land waits for more before its thread
exits (the next write starts a new one)."""

_RETRY_S = 0.25
"""How long a lander waits before it retries a cycle that failed
(``flush`` retries at once)."""


class StorageBackend(abc.ABC):
    """Byte-blob storage under string keys (the durable-tier adapter).

    Keys are relative, ``/``-separated paths (``"ctx-0001.npz"``,
    ``"manifest.json"``).  ``write_bytes`` must be atomic: a reader never
    observes a partially written object under a key.
    """

    @abc.abstractmethod
    def write_bytes(self, key: str, data: bytes) -> None:
        """Atomically store ``data`` under ``key`` (replacing any old value).

        Every later call on the backend in this process sees the new value
        at once.  It is durable — it survives a crash, and a reader in
        another process sees it — once :meth:`flush` returns; a backend may
        land it earlier.  :class:`FilesystemBackend` lands a cycle's objects
        (write, fsync, rename, directory fsync) before the manifest that
        names them and its deletes after, so a crash, or a reader in
        another process, sees a consistent, older catalog.
        """

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

    def flush(self) -> None:
        """Return once every write and delete issued so far is durable.

        Raises :class:`StorageError` when landing one of them fails (it
        stays pending and is retried).  A backend that writes synchronously
        has nothing to flush.
        """

    @property
    def pending_ops(self) -> int:
        """Writes and deletes issued but not yet durable."""
        return 0


_NO_OP = object()  # a key with no unlanded operation


class _Lander:
    """The write-behind queue of one directory and the thread that lands it.

    ``_pending`` and ``_landing`` map a key (relative to the root, ``/``
    separated) to its newest operation: the bytes to write, or ``None`` for
    a delete.  Callers fill ``_pending``; a cycle swaps it into
    ``_landing`` and pops each operation once it is on disk.

    A lander belongs to one directory, not to its path: it holds the
    directory open (so its inode number cannot be reused) and lands nothing
    once another directory, or none, sits at ``root``.
    """

    def __init__(self, root: Path):
        self.root = root
        fd = os.open(root, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        weakref.finalize(self, os.close, fd)
        self.identity = _identity(os.fstat(fd))
        self._cond = threading.Condition()
        self._pending: dict[str, bytes | None] = {}
        self._landing: dict[str, bytes | None] = {}
        self._thread: threading.Thread | None = None
        self._error: Exception | None = None
        self._cycles = 0
        self._retry_now = False

    # ------------------------------------------------------------------
    # the caller's side
    # ------------------------------------------------------------------
    def op(self, key: str):
        """The newest unlanded operation on ``key``: bytes, ``None`` for a
        delete, or ``_NO_OP``."""
        with self._cond:
            op = self._pending.get(key, _NO_OP)
            return self._landing.get(key, _NO_OP) if op is _NO_OP else op

    def ops(self) -> dict[str, bytes | None]:
        """Every unlanded operation, newest per key."""
        with self._cond:
            return {**self._landing, **self._pending}

    def enqueue(self, key: str, data: bytes | None) -> None:
        with self._cond:
            self._raise_error()
            if data is None:
                while self._error is None and self._delete_backlog() >= MAX_PENDING_DELETES:
                    self._cond.wait()
                self._raise_error()
            self._pending[key] = data
            if self._thread is None:
                self._thread = threading.Thread(target=self._run, name=f"lander:{self.root}")
                self._thread.start()
            else:
                self._cond.notify_all()

    def flush(self) -> None:
        with self._cond:
            if self._error is not None:
                self._retry_now = True  # retry the failed operations now
                self._cond.notify_all()
            cycles = self._cycles
            while self._landing or (
                self._pending and (self._error is None or self._cycles == cycles)
            ):
                self._cond.wait()
            self._raise_error()

    @property
    def pending_ops(self) -> int:
        with self._cond:
            return len(self._pending) + len(self._landing)

    def _raise_error(self) -> None:
        if self._error is not None:
            raise StorageError(
                f"landing under {self.root} failed; its {len(self._pending)} unlanded "
                f"operation(s) stay pending and are retried, and every write, delete "
                f"and flush there raises until one landing succeeds: {self._error!r}"
            ) from self._error

    def _delete_backlog(self) -> int:
        return sum(1 for op in self._pending.values() if op is None) + sum(
            1 for op in self._landing.values() if op is None
        )

    # ------------------------------------------------------------------
    # the lander thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                idle_until = time.monotonic() + _IDLE_S
                while not self._pending:
                    # the interpreter waits for this thread at exit: leave at
                    # once then, and after an idle spell otherwise
                    idle = idle_until - time.monotonic()
                    if idle <= 0 or not threading.main_thread().is_alive():
                        self._thread = None
                        return
                    self._cond.wait(min(idle, 0.05))
                self._landing, self._pending = self._pending, {}
                self._retry_now = False
            try:
                self._land_cycle()
                failure = None
            except Exception as exc:  # the lander must outlive any failure
                failure = None if self._gone() else exc  # a removed database is no error
            with self._cond:
                self._cycles += 1
                self._error = failure
                if failure is not None:
                    # what did not land stays pending, under any newer
                    # operation on its key, in the next cycle's order
                    self._pending = {**self._landing, **self._pending}
                self._landing = {}
                self._cond.notify_all()
                if failure is not None:
                    if not threading.main_thread().is_alive():
                        self._thread = None  # the interpreter is exiting: give up
                        return
                    retry_at = time.monotonic() + _RETRY_S
                    while not self._retry_now and threading.main_thread().is_alive():
                        wait = retry_at - time.monotonic()
                        if wait <= 0:
                            break
                        self._cond.wait(min(wait, 0.05))

    def _gone(self) -> bool:
        """Whether this lander's directory no longer sits at ``root``: it was
        removed, or replaced by another one."""
        try:
            return _identity(os.stat(self.root)) != self.identity
        except (FileNotFoundError, NotADirectoryError):
            return True
        except OSError:
            return False  # the cycle's own operations report the failure

    def _land_cycle(self) -> None:
        if self._gone():
            return  # the database was removed: there is nothing to land into
        objects = [key for key, op in self._landing.items() if op is not None and key != CATALOG_KEY]
        catalog = self._landing.get(CATALOG_KEY)
        deletes = [key for key, op in self._landing.items() if op is None]
        synced: set[Path] = set()
        for key in objects:
            self._write(key, self._landing[key], synced)
        _sync_dirs(synced)
        self._landed(objects)
        if catalog is not None:
            synced.clear()
            self._write(CATALOG_KEY, catalog, synced)
            _sync_dirs(synced)
            self._landed([CATALOG_KEY])
        for key in deletes:
            try:
                os.unlink(self.root / key)
            except FileNotFoundError:
                pass
            self._landed([key])

    def _write(self, key: str, data: bytes, synced: set[Path]) -> None:
        path = self.root / key
        self._make_parents(path, synced)
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
        synced.add(path.parent)

    def _make_parents(self, path: Path, synced: set[Path]) -> None:
        """Create the directories between the root and ``path`` — never the
        root itself, so a removed database stays removed."""
        missing = []
        parent = path.parent
        while parent != self.root and not parent.is_dir():
            missing.append(parent)
            parent = parent.parent
        for directory in reversed(missing):
            try:
                os.mkdir(directory)
            except FileExistsError:
                pass
            synced.add(directory.parent)

    def _landed(self, keys: list[str]) -> None:
        """Retire operations that are on disk (a write: and its rename is
        durable); reads of their keys go to the disk from now on."""
        with self._cond:
            for key in keys:
                del self._landing[key]
            self._cond.notify_all()


def _identity(status: os.stat_result) -> tuple[int, int]:
    return status.st_dev, status.st_ino


def _sync_dirs(directories: set[Path]) -> None:
    """fsync each directory, making the renames and creations in it durable."""
    for directory in directories:
        fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


_LANDERS: weakref.WeakValueDictionary[Path, _Lander] = weakref.WeakValueDictionary()
"""The live lander of each resolved root.  Handles and a running thread
hold a lander; one nothing holds any more leaves the map."""
_LANDERS_LOCK = threading.Lock()


class FilesystemBackend(StorageBackend):
    """One file per key under ``root``, landed behind the caller (see the
    module docstring): atomic temp + rename writes, the manifest after the
    objects it names, deletes last."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._resolved = self.root.resolve()
        with _LANDERS_LOCK:
            lander = _LANDERS.get(self._resolved)
            if lander is None or lander.identity != _identity(os.stat(self._resolved)):
                # a directory removed and made anew at this path is another
                # database: what its predecessor left pending never lands here
                lander = _LANDERS[self._resolved] = _Lander(self._resolved)
            self._lander = lander

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FilesystemBackend({str(self.root)!r})"

    @staticmethod
    def land_all() -> list[StorageError]:
        """Land everything pending under every directory in this process.

        Returns the error of each directory that still cannot land (a
        failed operation stays pending, so a harness fails on it rather
        than losing it).
        """
        with _LANDERS_LOCK:
            landers = list(_LANDERS.values())
        errors = []
        for lander in landers:
            try:
                lander.flush()
            except StorageError as exc:
                errors.append(exc)
        return errors

    def _key(self, key: str) -> str:
        """``key`` normalised relative to the root — by its text alone: a
        lookup in the directory may wait behind the lander's unlinks —
        raises :class:`StorageError` when it escapes the root."""
        normal = posixpath.normpath(key)
        if normal in (".", "..") or normal.startswith(("/", "../")):
            raise StorageError(f"key {key!r} escapes the backend root {self.root}")
        return normal

    def write_bytes(self, key: str, data: bytes) -> None:
        self._lander.enqueue(self._key(key), bytes(data))

    def read_bytes(self, key: str) -> bytes:
        key = self._key(key)
        op = self._lander.op(key)
        if op is _NO_OP:
            try:
                return (self._resolved / key).read_bytes()
            except FileNotFoundError:
                op = None
        if op is None:
            raise ContextLoadError(f"no object stored under key {key!r} in {self.root}")
        return op

    def exists(self, key: str) -> bool:
        return self._exists(self._key(key))

    def _exists(self, key: str) -> bool:
        op = self._lander.op(key)
        return (self._resolved / key).is_file() if op is _NO_OP else op is not None

    def delete(self, key: str) -> bool:
        key = self._key(key)
        if not self._exists(key):
            return False
        self._lander.enqueue(key, None)
        return True

    def list_keys(self, prefix: str = "") -> list[str]:
        ops = self._lander.ops()
        keys = {key for key, op in ops.items() if op is not None}
        for path in self._resolved.rglob("*"):
            # skip only our own in-flight atomic-write temps (".<name>.*.tmp"
            # from a landing write) — a legitimate key that merely *ends* in
            # ".tmp" must stay visible
            if path.name.startswith(".") and path.name.endswith(".tmp"):
                continue
            key = path.relative_to(self._resolved).as_posix()
            if key not in ops and path.is_file():
                keys.add(key)
        return sorted(key for key in keys if key.startswith(prefix))

    def size_bytes(self, key: str) -> int:
        key = self._key(key)
        op = self._lander.op(key)
        if op is _NO_OP:
            try:
                return (self._resolved / key).stat().st_size
            except FileNotFoundError:
                return 0
        return len(op) if op is not None else 0

    def flush(self) -> None:
        self._lander.flush()

    @property
    def pending_ops(self) -> int:
        return self._lander.pending_ops


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
