"""Versioned serialization of a context's vector indexes (deserialize, don't rebuild).

A spilled or persisted context used to come back index-less: its RoarGraph
fine indexes were *rebuilt* from the raw keys on the next sparse use — the
q→k kNN stage all over again.  This module gives a context's indexes a
durable format so reload is a deserialize:

* a :class:`~repro.index.roargraph.RoarGraphIndex` is stored as its CSR
  adjacency (``neighbor_ids`` / ``offsets``), entry point and build config;
* a :class:`~repro.index.coarse.CoarseBlockIndex` as its block boundaries and
  representative matrix;
* a context's per-layer fine lists and per-layer coarse lists, both indexed
  by KV head, pack into one blob via :func:`serialize_context_indexes` /
  :func:`deserialize_context_indexes`.

Neither index kind stores its vectors: they are the context's keys, which
live once, in the KV snapshot, together with the prefill query samples a
rebuild reads.  Loading takes the reloaded snapshot's keys and re-attaches
every index's vectors as a view of ``keys[layer][kv_head]``; search over a
loaded index is **bit-identical** to search over the index that was saved.

Every blob is one raw, checksummed record (:mod:`repro.storage.record`)
stamped with ``INDEX_FORMAT_VERSION``; loading returns read-only views over
the blob, and a torn, corrupted or other-version blob — or one whose node,
block or head counts disagree with the keys — raises a clean
:class:`~repro.errors.ContextLoadError` instead of misparsing.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..errors import ContextLoadError
from ..storage import record
from .coarse import BlockSummary, CoarseBlockIndex
from .graph import NeighborGraph
from .roargraph import RoarGraphConfig, RoarGraphIndex

__all__ = ["INDEX_FORMAT_VERSION", "serialize_context_indexes", "deserialize_context_indexes"]

INDEX_FORMAT_VERSION = 3
"""3: no index stores its vectors; they are re-attached from the snapshot's
keys.  A version-2 blob (which repeated them) fails to load, and the reload
rebuilds what it held."""


# ----------------------------------------------------------------------
# RoarGraph
# ----------------------------------------------------------------------
def _roargraph_to_arrays(index: RoarGraphIndex, prefix: str) -> tuple[dict[str, np.ndarray], dict]:
    graph = index.graph  # raises IndexNotBuiltError on an unbuilt index
    arrays = {f"{prefix}_neighbor_ids": graph.neighbor_ids, f"{prefix}_offsets": graph.offsets}
    meta = {"entry_point": index.entry_point, "config": asdict(index.config)}
    return arrays, meta


def _roargraph_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict, vectors: np.ndarray, prefix: str
) -> RoarGraphIndex:
    """Reconstruct a RoarGraph over ``vectors`` without rebuilding it."""
    try:
        config = RoarGraphConfig(**meta["config"])
        index = RoarGraphIndex(config)
        index._graph = NeighborGraph(
            arrays[f"{prefix}_neighbor_ids"], arrays[f"{prefix}_offsets"]
        )
        index._entry_point = int(meta["entry_point"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"malformed RoarGraph record: {exc!r}") from exc
    if index._graph.num_nodes != vectors.shape[0]:
        raise ContextLoadError(
            f"RoarGraph adjacency covers {index._graph.num_nodes} nodes but "
            f"the snapshot holds {vectors.shape[0]} keys"
        )
    if not 0 <= index._entry_point < index._graph.num_nodes:
        raise ContextLoadError(
            f"RoarGraph entry point {index._entry_point} outside graph of "
            f"{index._graph.num_nodes} nodes"
        )
    index._vectors = vectors
    return index


# ----------------------------------------------------------------------
# CoarseBlockIndex
# ----------------------------------------------------------------------
def _coarse_to_arrays(index: CoarseBlockIndex, prefix: str) -> tuple[dict[str, np.ndarray], dict]:
    index.vectors  # raises IndexNotBuiltError on an unbuilt index
    arrays = {
        f"{prefix}_representatives": index._representative_matrix,
        f"{prefix}_rep_block_ids": index._representative_block_ids,
        f"{prefix}_block_starts": index._block_starts,
        f"{prefix}_block_stops": index._block_stops,
    }
    meta = {"block_size": index.block_size, "num_representatives": index.num_representatives}
    return arrays, meta


def _coarse_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict, vectors: np.ndarray, prefix: str
) -> CoarseBlockIndex:
    """Reconstruct a coarse index over ``vectors`` (no rebuild pass)."""
    try:
        index = CoarseBlockIndex(
            block_size=int(meta["block_size"]),
            num_representatives=int(meta["num_representatives"]),
        )
        rep_matrix = np.asarray(arrays[f"{prefix}_representatives"], dtype=np.float32)
        rep_block_ids = np.asarray(arrays[f"{prefix}_rep_block_ids"], dtype=np.int64)
        starts = np.asarray(arrays[f"{prefix}_block_starts"], dtype=np.int64)
        stops = np.asarray(arrays[f"{prefix}_block_stops"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContextLoadError(f"malformed coarse-index record: {exc!r}") from exc
    if rep_block_ids.shape[0] != rep_matrix.shape[0] or starts.shape[0] != stops.shape[0]:
        raise ContextLoadError("coarse-index arrays disagree on block counts")
    num_tokens = vectors.shape[0]
    expected_blocks = -(-num_tokens // index.block_size)
    if starts.shape[0] != expected_blocks or (num_tokens and int(stops[-1]) != num_tokens):
        raise ContextLoadError(
            f"coarse index holds {starts.shape[0]} blocks but the snapshot's "
            f"{num_tokens} keys make {expected_blocks} of {index.block_size}"
        )
    index._vectors = vectors
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
# whole-context blobs (what the ContextStore persists per context)
# ----------------------------------------------------------------------
def serialize_context_indexes(
    fine_indexes: dict[int, list[RoarGraphIndex]],
    coarse_indexes: dict[int, list[CoarseBlockIndex]] | None = None,
) -> bytes:
    """Pack a context's per-layer, per-KV-head indexes into one versioned record."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, dict] = {"fine": {}, "coarse": {}}
    for kind, per_layer, to_arrays in (
        ("fine", fine_indexes, _roargraph_to_arrays),
        ("coarse", coarse_indexes or {}, _coarse_to_arrays),
    ):
        for layer, per_head in per_layer.items():
            head_meta = []
            for head, index in enumerate(per_head):
                sub_arrays, sub_meta = to_arrays(index, f"{kind[0]}{layer}_h{head}")
                arrays.update(sub_arrays)
                head_meta.append(sub_meta)
            meta[kind][str(layer)] = head_meta
    return record.pack("context-indexes", INDEX_FORMAT_VERSION, meta, arrays)


def deserialize_context_indexes(
    data: bytes, keys: dict[int, np.ndarray], source: str = "<bytes>"
) -> tuple[dict[int, list[RoarGraphIndex]], dict[int, list[CoarseBlockIndex]]]:
    """Unpack :func:`serialize_context_indexes` output over a snapshot's ``keys``.

    ``keys[layer]`` is the ``(num_kv_heads, n, head_dim)`` key tensor the
    indexes were built over; every index's vectors become a view of its KV
    head's slice.  Returns ``(fine_indexes, coarse_indexes)``, whose other
    arrays are read-only views over ``data``.  Raises
    :class:`ContextLoadError` on truncation, corruption, an unknown format
    version, or a blob whose layer, head, node or block counts disagree with
    ``keys`` — never a raw numpy traceback.
    """
    meta, arrays = record.unpack(
        data, f"index blob {source}", "context-indexes", INDEX_FORMAT_VERSION
    )
    loaded: dict[str, dict[int, list]] = {"fine": {}, "coarse": {}}
    try:
        for kind, from_arrays in (("fine", _roargraph_from_arrays), ("coarse", _coarse_from_arrays)):
            for layer_str, head_meta in meta[kind].items():
                layer = int(layer_str)
                if layer not in keys:
                    raise ContextLoadError(
                        f"index blob {source} indexes layer {layer}, which the snapshot lacks"
                    )
                layer_keys = np.asarray(keys[layer], dtype=np.float32)
                if len(head_meta) != layer_keys.shape[0]:
                    raise ContextLoadError(
                        f"index blob {source} holds {len(head_meta)} {kind} indexes for layer "
                        f"{layer}, but the snapshot has {layer_keys.shape[0]} KV heads"
                    )
                loaded[kind][layer] = [
                    from_arrays(arrays, sub_meta, layer_keys[head], f"{kind[0]}{layer}_h{head}")
                    for head, sub_meta in enumerate(head_meta)
                ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ContextLoadError(f"index blob {source} is malformed: {exc!r}") from exc
    return loaded["fine"], loaded["coarse"]
