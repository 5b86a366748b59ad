"""Token-range shard plans for context parallelism.

A long context's KV cache and vector indexes are range-partitioned into N
*shards*: shard ``i`` owns the tokens in ``[start_i, stop_i)``, their KV
block slice across every layer, and coarse/fine indexes built only over that
token range.  Attention over a range-partitioned KV cache composes exactly —
each shard computes a partial softmax over its slice and the partials merge
by log-sum-exp ("Context Parallelism for Scalable Million-Token Inference"),
which is precisely the machinery ``DataCentricAttentionEngine`` already uses
across the window/retrieved/local locations.

Shard boundaries should be aligned to the coarse block size: the coarse
index cuts blocks from offset 0 in ``block_size`` steps, so an aligned shard
produces exactly the blocks the full-context index would over that range and
the router's cross-shard top-block merge reproduces the unsharded selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..index.builder import IndexBuildConfig
from ..kvcache.serialization import KVSnapshot

__all__ = [
    "ShardRange",
    "ShardPlan",
    "shard_context_id",
    "parse_shard_id",
    "slice_snapshot",
]

_SHARD_SEPARATOR = "--shard"


@dataclass(frozen=True)
class ShardRange:
    """One shard's token range ``[start, stop)`` in global token space."""

    shard_id: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ReproError(f"shard_id must be non-negative, got {self.shard_id}")
        if not 0 <= self.start < self.stop:
            raise ReproError(
                f"shard range must satisfy 0 <= start < stop, got [{self.start}, {self.stop})"
            )

    @property
    def num_tokens(self) -> int:
        return self.stop - self.start

    def contains(self, position: int) -> bool:
        return self.start <= position < self.stop

    def to_local(self, positions: np.ndarray) -> np.ndarray:
        """Map global positions (all inside this range) to shard-local ones."""
        return np.asarray(positions, dtype=np.int64) - np.int64(self.start)

    def slice_global(self, positions: np.ndarray) -> np.ndarray:
        """The subset of global ``positions`` that fall inside this range."""
        positions = np.asarray(positions, dtype=np.int64)
        return positions[(positions >= self.start) & (positions < self.stop)]


@dataclass(frozen=True)
class ShardPlan:
    """Range partitioning of one context's ``num_tokens`` tokens into shards.

    Ranges are contiguous, non-overlapping, cover ``[0, num_tokens)``, and
    are ordered by ``shard_id`` (== token order).
    """

    num_tokens: int
    ranges: tuple[ShardRange, ...]

    def __post_init__(self) -> None:
        if not self.ranges:
            raise ReproError("a shard plan needs at least one shard range")
        expected_start = 0
        for index, rng in enumerate(self.ranges):
            if rng.shard_id != index:
                raise ReproError(
                    f"shard ids must be dense and ordered: position {index} holds id {rng.shard_id}"
                )
            if rng.start != expected_start:
                raise ReproError(
                    f"shard {index} starts at {rng.start}, expected {expected_start} "
                    "(ranges must tile the context without gaps)"
                )
            expected_start = rng.stop
        if expected_start != self.num_tokens:
            raise ReproError(
                f"shard ranges cover [0, {expected_start}) but the context has "
                f"{self.num_tokens} tokens"
            )

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    def range_of(self, shard_id: int) -> ShardRange:
        return self.ranges[shard_id]

    def shard_of_position(self, position: int) -> int:
        """The shard owning a global token position (binary search)."""
        if not 0 <= position < self.num_tokens:
            raise ReproError(
                f"position {position} outside the context's [0, {self.num_tokens}) range"
            )
        starts = [rng.start for rng in self.ranges]
        return int(np.searchsorted(starts, position, side="right")) - 1

    def split_positions(self, positions: np.ndarray) -> list[np.ndarray]:
        """Partition global ``positions`` by owning shard (global positions out)."""
        return [rng.slice_global(positions) for rng in self.ranges]

    @classmethod
    def even(cls, num_tokens: int, num_shards: int, align: int = 1) -> "ShardPlan":
        """Split ``num_tokens`` into ``num_shards`` near-equal aligned ranges.

        Interior boundaries are rounded *down* to a multiple of ``align``
        (the coarse block size, typically).  Boundaries that collide after
        alignment are dropped, so very short contexts may yield fewer shards
        than requested — never an empty shard.
        """
        if num_tokens <= 0:
            raise ReproError(f"num_tokens must be positive, got {num_tokens}")
        if num_shards < 1:
            raise ReproError(f"num_shards must be at least 1, got {num_shards}")
        if align < 1:
            raise ReproError(f"align must be at least 1, got {align}")
        boundaries = [0]
        for index in range(1, num_shards):
            raw = (index * num_tokens) // num_shards
            aligned = (raw // align) * align
            if aligned > boundaries[-1]:
                boundaries.append(aligned)
        boundaries.append(num_tokens)
        ranges = tuple(
            ShardRange(shard_id=i, start=start, stop=stop)
            for i, (start, stop) in enumerate(zip(boundaries[:-1], boundaries[1:]))
        )
        return cls(num_tokens=num_tokens, ranges=ranges)


def shard_context_id(context_id: str, shard_id: int) -> str:
    """The storage/catalog id of one shard of ``context_id``."""
    return f"{context_id}{_SHARD_SEPARATOR}{shard_id:03d}"


def parse_shard_id(context_id: str) -> tuple[str, int] | None:
    """Invert :func:`shard_context_id`; None when ``context_id`` is not a shard."""
    base, separator, suffix = context_id.rpartition(_SHARD_SEPARATOR)
    if not separator or not suffix.isdigit():
        return None
    return base, int(suffix)


def slice_snapshot(
    snapshot: KVSnapshot, rng: ShardRange, plan: ShardPlan, index_build: IndexBuildConfig
) -> KVSnapshot:
    """One shard's KV slice of a full-context snapshot.

    Tokens, per-layer K/V and the query sample are sliced to ``[rng.start,
    rng.stop)``: a sample holds the rows of its sampled positions in order
    (:meth:`~repro.index.builder.IndexBuildConfig.sampled_positions`), so
    the shard's are the run of rows whose positions fall in its range, and
    the shards' samples concatenated in order are the parent's.  A sample
    that is not the rule's under ``index_build`` is not carried.  Shard
    provenance lands in the metadata so a recovered shard remains
    identifiable.
    """
    if rng.stop > snapshot.num_tokens:
        raise ReproError(
            f"shard range [{rng.start}, {rng.stop}) exceeds the snapshot's "
            f"{snapshot.num_tokens} tokens"
        )
    keys = {
        layer: np.ascontiguousarray(layer_keys[:, rng.start:rng.stop, :])
        for layer, layer_keys in snapshot.keys.items()
    }
    values = {
        layer: np.ascontiguousarray(layer_values[:, rng.start:rng.stop, :])
        for layer, layer_values in snapshot.values.items()
    }
    metadata = dict(snapshot.metadata)
    metadata.update(
        {
            "shard_id": str(rng.shard_id),
            "shard_start": str(rng.start),
            "shard_stop": str(rng.stop),
            "shard_count": str(plan.num_shards),
            "shard_total_tokens": str(plan.num_tokens),
        }
    )
    return KVSnapshot(
        tokens=list(snapshot.tokens[rng.start:rng.stop]),
        keys=keys,
        values=values,
        metadata=metadata,
        query_samples={
            layer: np.ascontiguousarray(cut)
            for layer, sample in snapshot.query_samples.items()
            if (cut := index_build.cut_sample(sample, layer, snapshot.num_tokens, rng.start, rng.stop))
            is not None
        },
    )
