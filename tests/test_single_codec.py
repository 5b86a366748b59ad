"""Every persisted context object goes through one codec.

KV snapshots, context-index blobs and the standalone index files are raw,
checksummed records (``repro.storage.record``).  A module that reaches for
``np.savez`` / ``np.savez_compressed`` / ``np.load`` instead brings back a
second on-disk format — and the zlib pass the record format exists to avoid.
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
