"""Tests for the prefix-sum family (techniques A1, A2, A3)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GTX970, RX480, MemoryLevel, VirtualCoprocessor
from repro.primitives import (
    atomic_positions,
    device_scan,
    lrgp_positions,
    reference_positions,
    sequential_prefix_sum,
)


def _rng():
    return np.random.default_rng(123)


def _assert_valid_positions(result, flags):
    """The relational contract: unique, dense positions for selected
    elements; -1 elsewhere (Section 5.1: only uniqueness is critical)."""
    flags = np.asarray(flags, dtype=bool)
    assert result.total == int(flags.sum())
    selected = result.positions[flags]
    assert sorted(selected.tolist()) == list(range(result.total))
    assert (result.positions[~flags] == -1).all()


class TestReference:
    def test_sequential_matches_paper_loop(self):
        flags = [True, False, True, True, False]
        assert sequential_prefix_sum(flags) == [0, -1, 1, 2, -1]

    def test_reference_positions_ordered(self):
        flags = np.array([True, False, True])
        result = reference_positions(flags)
        assert result.positions.tolist() == [0, -1, 1]
        assert result.total == 2

    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_reference_equals_sequential(self, flags):
        expected = sequential_prefix_sum(flags)
        result = reference_positions(np.array(flags, dtype=bool))
        assert result.positions.tolist() == expected


class TestDeviceScan:
    def test_matches_reference_and_launches_three_kernels(self, device):
        flags = _rng().random(5000) < 0.4
        result = device_scan(device, flags)
        assert np.array_equal(result.positions, reference_positions(flags).positions)
        assert len(device.log.kernels) == 3
        assert all(trace.kind == "prefix_sum" for trace in device.log.kernels)

    def test_traffic_covers_flags_twice(self, device):
        n = 10_000
        flags = np.ones(n, dtype=bool)
        device_scan(device, flags)
        total = device.log.bytes_at(MemoryLevel.GLOBAL)
        # block scan: r+w, offset add: r+w -> at least 4 passes of 4B flags
        assert total >= 4 * n * 4

    def test_empty_input(self, device):
        result = device_scan(device, np.zeros(0, dtype=bool))
        assert result.total == 0
        assert result.positions.tolist() == []

    def test_total_needs_no_position_array(self, device):
        """Every multi-pass pipeline scans; only a materializing sink
        reads the positions.  ``total`` alone allocates no int64 per
        flag, and the positions still are the sequential prefix sum."""
        n = 1_000_000
        flags = _rng().random(n) < 0.3
        tracemalloc.start()
        try:
            result = device_scan(device, flags)
            total = result.total
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == int(flags.sum())
        assert peak < n  # an int64[n] is 8 n bytes
        assert len(device.log.kernels) == 3
        head = 2000
        assert result.positions[:head].tolist() == sequential_prefix_sum(flags[:head])
        assert result.positions.dtype == np.int64 and result.positions.shape == (n,)
        assert result.positions is result.positions  # computed once


class TestAtomicPositions:
    def test_unique_dense_unordered(self, device):
        flags = _rng().random(4000) < 0.5
        meter = device.new_meter()
        result = atomic_positions(meter, flags, _rng())
        _assert_valid_positions(result, flags)

    def test_conflict_chain_equals_output_size(self, device):
        flags = _rng().random(1000) < 0.3
        meter = device.new_meter()
        result = atomic_positions(meter, flags, _rng())
        assert meter.atomic_count == result.total
        assert meter.atomic_max_chain == result.total

    def test_no_atomics_when_nothing_selected(self, device):
        meter = device.new_meter()
        result = atomic_positions(meter, np.zeros(100, dtype=bool), _rng())
        assert result.total == 0
        assert meter.atomic_count == 0

    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_property_valid_positions(self, flags):
        meter = VirtualCoprocessor(GTX970).new_meter()
        result = atomic_positions(meter, np.array(flags, dtype=bool), _rng())
        _assert_valid_positions(result, np.array(flags, dtype=bool))


class TestLrgpPositions:
    @pytest.mark.parametrize("mechanism", ["simd", "work_efficient"])
    def test_unique_dense(self, device, mechanism):
        flags = _rng().random(10_000) < 0.25
        meter = device.new_meter()
        result = lrgp_positions(meter, flags, GTX970, _rng(), mechanism)
        _assert_valid_positions(result, flags)

    def test_atomics_one_per_group_simd(self, device):
        n = 32 * 100
        flags = np.ones(n, dtype=bool)
        meter = device.new_meter()
        lrgp_positions(meter, flags, GTX970, _rng(), "simd")
        assert meter.atomic_count == n // GTX970.simd_width

    def test_atomics_one_per_cta_work_efficient(self, device):
        n = 256 * 40
        flags = np.ones(n, dtype=bool)
        meter = device.new_meter()
        lrgp_positions(meter, flags, GTX970, _rng(), "work_efficient", cta_size=256)
        assert meter.atomic_count == 40

    def test_work_efficient_pays_barriers(self, device):
        flags = np.ones(1024, dtype=bool)
        meter_we = device.new_meter()
        lrgp_positions(meter_we, flags, GTX970, _rng(), "work_efficient")
        meter_simd = device.new_meter()
        lrgp_positions(meter_simd, flags, GTX970, _rng(), "simd")
        assert meter_we.barriers > 0
        assert meter_simd.barriers == 0

    def test_amd_wavefront_width(self, device):
        n = 64 * 10
        meter = device.new_meter()
        lrgp_positions(meter, np.ones(n, dtype=bool), RX480, _rng(), "simd")
        assert meter.atomic_count == n // 64

    def test_output_ordered_within_groups(self, device):
        """Section 6.1: output is ordered within segments."""
        n = 2048
        flags = np.ones(n, dtype=bool)
        meter = device.new_meter()
        result = lrgp_positions(meter, flags, GTX970, _rng(), "simd")
        group = GTX970.simd_width
        positions = result.positions
        for start in range(0, n, group):
            chunk = positions[start : start + group]
            assert (np.diff(chunk) == 1).all()

    def test_unknown_mechanism(self, device):
        with pytest.raises(ValueError):
            lrgp_positions(device.new_meter(), np.ones(4, bool), GTX970, _rng(), "magic")

    @given(st.lists(st.booleans(), max_size=500), st.sampled_from(["simd", "work_efficient"]))
    @settings(max_examples=60, deadline=None)
    def test_property_valid_positions(self, flags, mechanism):
        meter = VirtualCoprocessor(GTX970).new_meter()
        result = lrgp_positions(
            meter, np.array(flags, dtype=bool), GTX970, _rng(), mechanism
        )
        _assert_valid_positions(result, np.array(flags, dtype=bool))


class TestAtomicPressureOrdering:
    def test_lrgp_issues_far_fewer_atomics_than_atomic(self, device):
        """The whole point of Section 6: local resolution divides the
        atomic count by the thread-group size."""
        flags = np.ones(32_000, dtype=bool)
        meter_a2 = device.new_meter()
        atomic_positions(meter_a2, flags, _rng())
        meter_a3 = device.new_meter()
        lrgp_positions(meter_a3, flags, GTX970, _rng(), "simd")
        assert meter_a3.atomic_count * GTX970.simd_width == meter_a2.atomic_count
