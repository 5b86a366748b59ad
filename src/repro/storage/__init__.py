"""The context database's file system: storage backends, the raw record
format every stored object is written in (:mod:`.record`), and the
generation-stamped manifest that catalogs what they hold."""

from .backend import FilesystemBackend, InMemoryBackend, StorageBackend
from .manifest import MANIFEST_FORMAT_VERSION, MANIFEST_KEY, ContextManifest, ManifestEntry

__all__ = [
    "ContextManifest",
    "FilesystemBackend",
    "InMemoryBackend",
    "MANIFEST_FORMAT_VERSION",
    "MANIFEST_KEY",
    "ManifestEntry",
    "StorageBackend",
]
