"""Every persisted context object goes through one codec and one write.

KV snapshots and context-index blobs are raw, checksummed records
(``repro.storage.record``).  A module that reaches for ``np.savez`` /
``np.savez_compressed`` / ``np.load`` instead brings back a second on-disk
format — and the zlib pass the record format exists to avoid.  The one
atomic write (temp file + ``os.replace``) is ``FilesystemBackend``'s lander;
a module with its own ``os.replace`` / ``tempfile.mkstemp`` is a second
on-disk path beside the storage backend.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = {"savez", "savez_compressed", "load"}
NUMPY_NAMES = {"np", "numpy"}


def _numpy_codec_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in NUMPY_NAMES
        ):
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.extend(
                f"{path.relative_to(SRC)}:{node.lineno} from numpy import {alias.name}"
                for alias in node.names
                if alias.name in FORBIDDEN
            )
    return found


def test_no_module_uses_numpy_archive_io():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    offenders = [use for path in modules for use in _numpy_codec_uses(path)]
    assert offenders == []


ATOMIC_WRITE = {("os", "replace"), ("tempfile", "mkstemp")}
ATOMIC_WRITE_HOME = Path("storage") / "backend.py"


def _atomic_write_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in ATOMIC_WRITE
        ):
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                f"{path.relative_to(SRC)}:{node.lineno} from {node.module} import {alias.name}"
                for alias in node.names
                if (node.module, alias.name) in ATOMIC_WRITE
            )
    return found


def test_only_the_storage_backend_writes_atomically():
    modules = sorted(SRC.rglob("*.py"))
    uses = {path.relative_to(SRC): _atomic_write_uses(path) for path in modules}
    assert uses[ATOMIC_WRITE_HOME]  # the guard still sees the one write
    offenders = [use for path, found in uses.items() if path != ATOMIC_WRITE_HOME for use in found]
    assert offenders == []
