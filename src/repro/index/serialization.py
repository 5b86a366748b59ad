"""Versioned serialization of vector indexes (deserialize, don't rebuild).

A spilled or persisted context used to come back index-less: its RoarGraph
fine indexes were *rebuilt* from the raw keys on the next sparse use — the
q→k kNN stage all over again.  This module gives the indexes a durable
format so reload is a deserialize:

* :class:`~repro.index.roargraph.RoarGraphIndex` round-trips as vectors +
  CSR adjacency (``neighbor_ids`` / ``offsets``) + entry point + build
  config — search over a loaded index is **bit-identical** to search over
  the index that was saved;
* :class:`~repro.index.coarse.CoarseBlockIndex` round-trips as vectors +
  block boundaries + representative matrix;
* a whole context's indexes (per-layer :class:`LayerIndexes` and per-layer
  coarse lists) pack into one blob via :func:`serialize_context_indexes` /
  :func:`deserialize_context_indexes`.  The prefill query samples a rebuild
  reads are not in it: they live once, in the KV snapshot.

Every blob is one raw, checksummed record (:mod:`repro.storage.record`)
stamped with ``INDEX_FORMAT_VERSION``; loading returns read-only views over
the blob, and a torn, corrupted or other-version blob raises a clean
:class:`~repro.errors.ContextLoadError` instead of misparsing.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import ContextLoadError
from ..storage import record
from .builder import LayerIndexes
from .coarse import BlockSummary, CoarseBlockIndex
from .graph import NeighborGraph
from .roargraph import RoarGraphConfig, RoarGraphIndex

__all__ = [
    "INDEX_FORMAT_VERSION",
    "roargraph_to_arrays",
    "roargraph_from_arrays",
    "coarse_to_arrays",
    "coarse_from_arrays",
    "save_roargraph",
    "load_roargraph",
    "save_coarse",
    "load_coarse",
    "serialize_context_indexes",
    "deserialize_context_indexes",
]

INDEX_FORMAT_VERSION = 2


def _save(kind: str, meta: dict, arrays: dict[str, np.ndarray], path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(record.pack(kind, INDEX_FORMAT_VERSION, meta, arrays))
    return path


def _load(kind: str, path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ContextLoadError(f"index file not found: {path}") from None
    except OSError as exc:
        raise ContextLoadError(f"unreadable index file {path}: {exc!r}") from exc
    return record.unpack(data, f"index file {path}", kind, INDEX_FORMAT_VERSION)


# ----------------------------------------------------------------------
# RoarGraph
# ----------------------------------------------------------------------
def roargraph_to_arrays(index: RoarGraphIndex, prefix: str = "rg") -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a built RoarGraph into named arrays plus a JSON-able meta dict."""
    graph = index.graph  # raises IndexNotBuiltError on an unbuilt index
    arrays = {
        f"{prefix}_vectors": index.vectors,
        f"{prefix}_neighbor_ids": graph.neighbor_ids,
        f"{prefix}_offsets": graph.offsets,
    }
    meta = {"entry_point": index.entry_point, "config": asdict(index.config)}
    return arrays, meta


def roargraph_from_arrays(arrays: dict[str, np.ndarray], meta: dict, prefix: str = "rg") -> RoarGraphIndex:
    """Reconstruct a RoarGraph without rebuilding (no kNN stage runs)."""
    try:
        config = RoarGraphConfig(**meta["config"])
        index = RoarGraphIndex(config)
        index._vectors = np.asarray(arrays[f"{prefix}_vectors"], dtype=np.float32)
        index._graph = NeighborGraph(
            arrays[f"{prefix}_neighbor_ids"], arrays[f"{prefix}_offsets"]
        )
        index._entry_point = int(meta["entry_point"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"malformed RoarGraph record: {exc!r}") from exc
    if not 0 <= index._entry_point < index._graph.num_nodes:
        raise ContextLoadError(
            f"RoarGraph entry point {index._entry_point} outside graph of "
            f"{index._graph.num_nodes} nodes"
        )
    if index._graph.num_nodes != index._vectors.shape[0]:
        raise ContextLoadError(
            f"RoarGraph adjacency covers {index._graph.num_nodes} nodes but "
            f"{index._vectors.shape[0]} vectors were stored"
        )
    return index


def save_roargraph(index: RoarGraphIndex, path: str | Path) -> Path:
    """Persist one RoarGraph as a standalone versioned record file."""
    arrays, meta = roargraph_to_arrays(index)
    return _save("roargraph", meta, arrays, path)


def load_roargraph(path: str | Path) -> RoarGraphIndex:
    """Load a RoarGraph saved by :func:`save_roargraph`."""
    meta, arrays = _load("roargraph", path)
    return roargraph_from_arrays(arrays, meta)


def save_coarse(index: CoarseBlockIndex, path: str | Path) -> Path:
    """Persist one coarse block index as a standalone versioned record file."""
    arrays, meta = coarse_to_arrays(index)
    return _save("coarse", meta, arrays, path)


def load_coarse(path: str | Path) -> CoarseBlockIndex:
    """Load a coarse index saved by :func:`save_coarse`."""
    meta, arrays = _load("coarse", path)
    return coarse_from_arrays(arrays, meta)


# ----------------------------------------------------------------------
# CoarseBlockIndex
# ----------------------------------------------------------------------
def coarse_to_arrays(index: CoarseBlockIndex, prefix: str = "cb") -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a built coarse block index into named arrays + meta."""
    vectors = index.vectors  # raises IndexNotBuiltError on an unbuilt index
    arrays = {
        f"{prefix}_vectors": vectors,
        f"{prefix}_representatives": index._representative_matrix,
        f"{prefix}_rep_block_ids": index._representative_block_ids,
        f"{prefix}_block_starts": index._block_starts,
        f"{prefix}_block_stops": index._block_stops,
    }
    meta = {"block_size": index.block_size, "num_representatives": index.num_representatives}
    return arrays, meta


def coarse_from_arrays(arrays: dict[str, np.ndarray], meta: dict, prefix: str = "cb") -> CoarseBlockIndex:
    """Reconstruct a coarse index from its stored arrays (no rebuild pass)."""
    try:
        index = CoarseBlockIndex(
            block_size=int(meta["block_size"]),
            num_representatives=int(meta["num_representatives"]),
        )
        index._vectors = np.asarray(arrays[f"{prefix}_vectors"], dtype=np.float32)
        rep_matrix = np.asarray(arrays[f"{prefix}_representatives"], dtype=np.float32)
        rep_block_ids = np.asarray(arrays[f"{prefix}_rep_block_ids"], dtype=np.int64)
        starts = np.asarray(arrays[f"{prefix}_block_starts"], dtype=np.int64)
        stops = np.asarray(arrays[f"{prefix}_block_stops"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"malformed coarse-index record: {exc!r}") from exc
    if rep_block_ids.shape[0] != rep_matrix.shape[0] or starts.shape[0] != stops.shape[0]:
        raise ContextLoadError("coarse-index arrays disagree on block counts")
    index._representative_matrix = rep_matrix
    index._representative_block_ids = rep_block_ids
    counts = np.bincount(rep_block_ids, minlength=starts.shape[0])
    index._representative_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    index._block_starts = starts
    index._block_stops = stops
    index._blocks = []
    for block_id in range(starts.shape[0]):
        lo = int(index._representative_offsets[block_id])
        hi = lo + int(counts[block_id])
        index._blocks.append(
            BlockSummary(
                block_id=block_id,
                start=int(starts[block_id]),
                stop=int(stops[block_id]),
                representatives=rep_matrix[lo:hi],
            )
        )
    return index


# ----------------------------------------------------------------------
# whole-context bundles (what the ContextStore persists per context)
# ----------------------------------------------------------------------
def serialize_context_indexes(
    fine_indexes: dict[int, LayerIndexes],
    coarse_indexes: dict[int, list[CoarseBlockIndex]] | None = None,
) -> bytes:
    """Pack a context's per-layer indexes into one versioned record."""
    arrays: dict[str, np.ndarray] = {}

    fine_meta: dict[str, dict] = {}
    for layer, layer_indexes in fine_indexes.items():
        per_index_meta = []
        for i, index in enumerate(layer_indexes.indexes):
            sub_arrays, sub_meta = roargraph_to_arrays(index, prefix=f"f{layer}_i{i}")
            arrays.update(sub_arrays)
            per_index_meta.append(sub_meta)
        fine_meta[str(layer)] = {
            "shared": layer_indexes.shared,
            "gqa_group_size": layer_indexes.gqa_group_size,
            "indexes": per_index_meta,
        }

    coarse_meta: dict[str, dict] = {}
    for layer, per_head in (coarse_indexes or {}).items():
        head_meta = []
        for head, index in enumerate(per_head):
            sub_arrays, sub_meta = coarse_to_arrays(index, prefix=f"c{layer}_h{head}")
            arrays.update(sub_arrays)
            head_meta.append(sub_meta)
        coarse_meta[str(layer)] = {"indexes": head_meta}

    meta = {"fine": fine_meta, "coarse": coarse_meta}
    return record.pack("context-indexes", INDEX_FORMAT_VERSION, meta, arrays)


def deserialize_context_indexes(
    data: bytes, source: str = "<bytes>"
) -> tuple[dict[int, LayerIndexes], dict[int, list[CoarseBlockIndex]]]:
    """Unpack :func:`serialize_context_indexes` output.

    Returns ``(fine_indexes, coarse_indexes)``, whose arrays are read-only
    views over ``data``; raises :class:`ContextLoadError` on truncation,
    corruption, or an unknown format version — never a raw numpy traceback.
    """
    meta, arrays = record.unpack(
        data, f"index blob {source}", "context-indexes", INDEX_FORMAT_VERSION
    )
    try:
        fine: dict[int, LayerIndexes] = {}
        for layer_str, layer_meta in meta["fine"].items():
            layer = int(layer_str)
            indexes = [
                roargraph_from_arrays(arrays, sub_meta, prefix=f"f{layer}_i{i}")
                for i, sub_meta in enumerate(layer_meta["indexes"])
            ]
            fine[layer] = LayerIndexes(
                layer=layer,
                indexes=indexes,
                shared=bool(layer_meta["shared"]),
                gqa_group_size=int(layer_meta["gqa_group_size"]),
            )

        coarse: dict[int, list[CoarseBlockIndex]] = {}
        for layer_str, layer_meta in meta["coarse"].items():
            layer = int(layer_str)
            coarse[layer] = [
                coarse_from_arrays(arrays, sub_meta, prefix=f"c{layer}_h{head}")
                for head, sub_meta in enumerate(layer_meta["indexes"])
            ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"index blob {source} is malformed: {exc!r}") from exc
    return fine, coarse
