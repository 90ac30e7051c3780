"""Unit tests for the virtual coprocessor (allocator, transfers, launch)."""

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceMemoryError
from repro.hardware import (
    A10,
    GTX970,
    PCIE3,
    MemoryLevel,
    VirtualCoprocessor,
)


class TestAllocator:
    def test_allocation_tracks_bytes(self, device):
        buffer = device.allocate(np.zeros(1000, dtype=np.int32))
        assert device.allocated_bytes == 4000
        device.free(buffer)
        assert device.allocated_bytes == 0
        assert device.peak_allocated == 4000

    def test_capacity_enforced(self):
        small = GTX970.with_overrides(memory_capacity=1000)
        device = VirtualCoprocessor(small)
        device.allocate(np.zeros(200, dtype=np.int8))
        with pytest.raises(DeviceMemoryError) as info:
            device.allocate(np.zeros(900, dtype=np.int8))
        assert info.value.requested == 900
        assert info.value.available == 800

    def test_double_free_rejected(self, device):
        buffer = device.allocate(np.zeros(10, dtype=np.int8))
        device.free(buffer)
        with pytest.raises(AllocationError):
            device.free(buffer)

    def test_foreign_buffer_rejected(self, device):
        other = VirtualCoprocessor(GTX970)
        buffer = other.allocate(np.zeros(10, dtype=np.int8))
        with pytest.raises(AllocationError):
            device.free(buffer)

    def test_scoped_frees_on_exit(self, device):
        buffer = device.allocate(np.zeros(10, dtype=np.int8))
        with device.scoped(buffer):
            assert device.allocated_bytes == 10
        assert device.allocated_bytes == 0


class TestTransfers:
    def test_h2d_records_volume_and_time(self, device):
        """Several buffers filled by one transfer pay one latency."""
        arrays = [np.zeros(600_000, dtype=np.int32), np.zeros(400_000, dtype=np.int32)]
        device.transfer_to_device(arrays, label="cols")
        [record] = device.log.transfers
        assert record.direction == "h2d"
        assert record.nbytes == 4_000_000
        expected_ms = PCIE3.transfer_time(4_000_000, "h2d") * 1e3
        assert record.time_ms == pytest.approx(expected_ms)
        # Filling buffers allocates nothing: the loader allocated them.
        assert device.allocated_bytes == 0

    def test_d2h_frees_the_buffer(self, device):
        buffer = device.allocate(np.zeros(100, dtype=np.int8))
        device.transfer_to_device([buffer.array])
        array = device.transfer_to_host(buffer)
        assert array.nbytes == 100
        assert device.allocated_bytes == 0
        assert device.log.transfer_bytes("d2h") == 100

    def test_zero_copy_device_has_free_transfers(self):
        apu = VirtualCoprocessor(A10)
        assert apu.interconnect is None
        apu.transfer_to_device([np.zeros(1000, dtype=np.int8)])
        record = apu.log.transfers[-1]
        assert record.nbytes == 0
        assert record.time_ms == 0.0

    def test_stream_transfer_logs_without_allocating(self, device):
        device.record_stream_transfer(1234, "h2d", label="block")
        assert device.allocated_bytes == 0
        assert device.log.transfer_bytes("h2d") == 1234


class TestLaunch:
    def test_launch_assigns_time_and_bound(self, device):
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, 146_100_000)  # ~1 ms at peak
        trace = device.launch("k", "compound", 1000, meter)
        assert trace.time_ms == pytest.approx(1.0, rel=0.02)
        assert trace.bound_by == "memory"
        assert device.log.kernels[-1] is trace

    def test_primitive_kernels_run_below_peak_bandwidth(self, device):
        bytes_moved = 100_000_000
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, bytes_moved)
        fused = device.launch("fused", "compound", 1, meter)
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, bytes_moved)
        primitive = device.launch("gather", "gather", 1, meter)
        assert primitive.time_ms > 2 * fused.time_ms

    def test_empty_kernel_costs_launch_overhead(self, device):
        trace = device.launch("noop", "compound", 0, device.new_meter())
        assert trace.time_ms == pytest.approx(GTX970.kernel_launch_overhead * 1e3)

    def test_reset_clears_log_only(self, device):
        device.allocate(np.zeros(10, dtype=np.int8))
        device.launch("k", "scan", 1, device.new_meter())
        device.reset()
        assert not device.log.kernels
        assert device.allocated_bytes == 10
        device.reset_all()
        assert device.allocated_bytes == 0


class TestBaselines:
    def test_pcie_baseline_unidirectional_runs_at_link_rate(self, device):
        ms = device.pcie_baseline_ms(16_000_000, 0)
        assert ms == pytest.approx(1.0, rel=0.01)

    def test_pcie_baseline_symmetric_shares_measured_bandwidth(self, device):
        ms = device.pcie_baseline_ms(6_050_000, 6_050_000)
        assert ms == pytest.approx(1.0, rel=0.01)

    def test_apu_baseline_is_memory_stream(self):
        apu = VirtualCoprocessor(A10)
        ms = apu.pcie_baseline_ms(18_700_000, 0)
        assert ms == pytest.approx(1.0, rel=0.01)

    def test_memory_bound_baseline(self, device):
        assert device.memory_bound_ms(146_100_000) == pytest.approx(1.0, rel=0.01)
