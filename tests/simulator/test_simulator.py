"""Tests of the device simulator and cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OutOfDeviceMemoryError
from repro.simulator.cost_model import CostModel, ModelShape
from repro.simulator.device import Device, DeviceSet, DeviceSpec, GIB


class TestDevice:
    def test_allocation_ledger(self):
        device = Device(DeviceSpec.l20_gpu())
        device.allocate("weights", 15 * GIB)
        device.allocate("kv", 10 * GIB)
        assert device.used_bytes == 25 * GIB
        device.free("kv")
        assert device.used_bytes == 15 * GIB

    def test_oom_raised(self):
        device = Device(DeviceSpec.l20_gpu())
        with pytest.raises(OutOfDeviceMemoryError):
            device.allocate("huge", 100 * GIB)

    def test_reallocation_replaces_tag(self):
        device = Device(DeviceSpec.l20_gpu())
        device.allocate("kv", 40 * GIB)
        device.allocate("kv", 45 * GIB)  # replaces, does not add
        assert device.used_bytes == 45 * GIB

    def test_allocate_array(self):
        device = Device(DeviceSpec.xeon_cpu())
        array = np.zeros((1024, 1024), dtype=np.float32)
        allocation = device.allocate_array("tensor", array)
        assert allocation.nbytes == array.nbytes

    def test_negative_allocation_rejected(self):
        device = Device(DeviceSpec.l20_gpu())
        with pytest.raises(ValueError):
            device.allocate("bad", -1)

    def test_device_set(self):
        devices = DeviceSet()
        assert devices.gpu.spec.capacity_bytes == 48 * GIB
        devices.gpu.allocate("x", GIB)
        devices.reset()
        assert devices.gpu.used_bytes == 0


class TestModelShape:
    def test_llama3_kv_bytes_per_token(self):
        shape = ModelShape.llama3_8b()
        # 2 (K+V) * 32 layers * 8 kv heads * 128 dim * 2 bytes
        assert shape.kv_bytes_per_token == 131072

    def test_weight_bytes_close_to_paper(self):
        shape = ModelShape.llama3_8b()
        # the paper reports 15.4 GB of weights in bfloat16
        assert 13 * GIB < shape.weight_bytes < 18 * GIB


class TestCostModel:
    def test_full_decode_scales_linearly(self):
        cost = CostModel()
        t40 = cost.full_decode_seconds(40_000)
        t200 = cost.full_decode_seconds(200_000)
        assert t200 > 3 * t40

    def test_sparse_decode_is_cheaper_than_full_on_long_context(self):
        cost = CostModel()
        sparse = cost.sparse_decode_seconds(num_selected_tokens=740, num_distance_computations=2000)
        full = cost.full_decode_seconds(200_000)
        assert sparse < full

    def test_prefill_superlinear_growth(self):
        cost = CostModel()
        t = [cost.prefill_seconds(n) for n in (10_000, 20_000, 40_000)]
        assert t[1] / t[0] > 2.0
        assert t[2] / t[0] > 5.0

    def test_kv_load_scales_with_tokens(self):
        cost = CostModel()
        assert cost.kv_load_seconds(200_000) > 4 * cost.kv_load_seconds(40_000)

    def test_gpu_knn_build_faster_than_cpu(self):
        cost = CostModel()
        cpu = cost.index_build_seconds(100_000, 40_000, num_indexes=32, on_gpu=False)
        gpu = cost.index_build_seconds(100_000, 40_000, num_indexes=32, on_gpu=True)
        assert gpu < cpu / 3

    def test_index_sharing_reduces_build_time(self):
        cost = CostModel()
        per_query_head = cost.index_build_seconds(100_000, 40_000, num_indexes=32, on_gpu=True)
        shared = cost.index_build_seconds(100_000, 40_000, num_indexes=8, on_gpu=True)
        assert shared < per_query_head / 3

    def test_spdk_faster_than_kernel_io(self):
        cost = CostModel()
        assert cost.disk_read_seconds(4096, use_spdk=True) < cost.disk_read_seconds(4096, use_spdk=False)

