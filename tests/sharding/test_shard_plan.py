"""Unit tests of the token-range partitioning layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.kvcache.serialization import KVSnapshot
from repro.sharding import (
    ShardPlan,
    ShardRange,
    parse_shard_id,
    shard_context_id,
    slice_snapshot,
)


class TestShardRange:
    def test_basic_properties(self):
        rng = ShardRange(shard_id=1, start=10, stop=20)
        assert rng.num_tokens == 10
        assert rng.contains(10) and rng.contains(19)
        assert not rng.contains(9) and not rng.contains(20)

    def test_to_local_and_slice_global(self):
        rng = ShardRange(shard_id=0, start=8, stop=16)
        positions = np.asarray([2, 8, 12, 15, 16, 30])
        inside = rng.slice_global(positions)
        np.testing.assert_array_equal(inside, [8, 12, 15])
        np.testing.assert_array_equal(rng.to_local(inside), [0, 4, 7])

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ReproError):
            ShardRange(shard_id=0, start=5, stop=5)
        with pytest.raises(ReproError):
            ShardRange(shard_id=-1, start=0, stop=5)


class TestShardPlan:
    def test_even_split_tiles_context(self):
        plan = ShardPlan.even(100, 4)
        assert plan.num_shards == 4
        assert plan.ranges[0].start == 0
        assert plan.ranges[-1].stop == 100
        for left, right in zip(plan.ranges, plan.ranges[1:]):
            assert left.stop == right.start

    def test_alignment_rounds_boundaries_down(self):
        plan = ShardPlan.even(100, 3, align=32)
        # raw boundaries 33, 66 round down to 32, 64
        assert [(r.start, r.stop) for r in plan.ranges] == [(0, 32), (32, 64), (64, 100)]

    def test_collapsed_boundaries_drop_shards(self):
        # every raw boundary of a 40-token, 4-way split (10/20/30) rounds
        # down to 0 under align=32 — one shard survives, never an empty one
        plan = ShardPlan.even(40, 4, align=32)
        assert plan.num_shards == 1
        assert all(r.num_tokens > 0 for r in plan.ranges)
        plan = ShardPlan.even(100, 3, align=32)
        assert all(r.num_tokens > 0 for r in plan.ranges)

    def test_shard_of_position_and_split(self):
        plan = ShardPlan.even(100, 4)
        for rng in plan.ranges:
            assert plan.shard_of_position(rng.start) == rng.shard_id
            assert plan.shard_of_position(rng.stop - 1) == rng.shard_id
        parts = plan.split_positions(np.arange(100))
        assert sum(p.shape[0] for p in parts) == 100
        with pytest.raises(ReproError):
            plan.shard_of_position(100)

    def test_gap_or_misordered_ranges_rejected(self):
        with pytest.raises(ReproError):
            ShardPlan(num_tokens=10, ranges=(ShardRange(0, 0, 4), ShardRange(1, 5, 10)))
        with pytest.raises(ReproError):
            ShardPlan(num_tokens=10, ranges=(ShardRange(1, 0, 5), ShardRange(0, 5, 10)))


class TestShardIds:
    def test_roundtrip(self):
        cid = shard_context_id("ctx-0001", 2)
        assert parse_shard_id(cid) == ("ctx-0001", 2)

    def test_non_shard_ids_return_none(self):
        assert parse_shard_id("ctx-0001") is None
        assert parse_shard_id("ctx--shardX") is None


class TestSliceSnapshot:
    def test_slices_kv_and_stamps_metadata(self):
        rng_np = np.random.default_rng(0)
        keys = {0: rng_np.normal(size=(2, 32, 4)).astype(np.float32)}
        values = {0: rng_np.normal(size=(2, 32, 4)).astype(np.float32)}
        samples = {0: rng_np.normal(size=(2, 3, 4)).astype(np.float32)}
        snapshot = KVSnapshot(
            tokens=list(range(32)), keys=keys, values=values, query_samples=samples
        )
        plan = ShardPlan.even(32, 2)
        shard = slice_snapshot(snapshot, plan.ranges[1], plan)
        assert shard.tokens == list(range(16, 32))
        np.testing.assert_array_equal(shard.keys[0], keys[0][:, 16:32, :])
        np.testing.assert_array_equal(shard.values[0], values[0][:, 16:32, :])
        # query samples describe the probing distribution — kept whole
        np.testing.assert_array_equal(shard.query_samples[0], samples[0])
        shard.validate()
        assert shard.metadata["shard_id"] == "1"
        assert shard.metadata["shard_start"] == "16"
        assert shard.metadata["shard_stop"] == "32"
        assert shard.metadata["shard_count"] == "2"
        assert shard.metadata["shard_total_tokens"] == "32"

    def test_range_beyond_snapshot_rejected(self):
        snapshot = KVSnapshot(tokens=[1, 2], keys={}, values={})
        plan = ShardPlan.even(8, 2)
        with pytest.raises(ReproError):
            slice_snapshot(snapshot, plan.ranges[1], plan)
