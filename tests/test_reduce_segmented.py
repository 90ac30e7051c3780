"""Tests for reduction primitives (B1-B3) and grouped aggregation (C2/C3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError
from repro.hardware import GTX970, VirtualCoprocessor
from repro.primitives import (
    atomic_hash_aggregate,
    atomic_reduce,
    charge_atomic_reduce,
    charge_device_reduce,
    charge_lrgp_reduce,
    device_reduce,
    factorize,
    grouped_reduce,
    lrgp_reduce,
    reduce_reference,
    segmented_hash_aggregate,
)
from repro.primitives.segmented import (
    _dense_factorize,
    cta_group_drivers,
    dense_span_limit,
)


class TestReduceReference:
    def test_ops(self):
        values = np.array([3, 1, 2])
        assert reduce_reference(values, "sum") == 6
        assert reduce_reference(values, "min") == 1
        assert reduce_reference(values, "max") == 3
        assert reduce_reference(values, "count") == 3

    def test_empty(self):
        empty = np.zeros(0)
        assert reduce_reference(empty, "sum") == 0
        assert reduce_reference(empty, "count") == 0
        assert reduce_reference(empty, "min") is None

    def test_unknown_op(self):
        with pytest.raises(ExpressionError):
            reduce_reference(np.array([1]), "median")


class TestDeviceReduce:
    def test_two_kernels_and_correct_value(self, device):
        values = np.arange(1000, dtype=np.int64)
        total = device_reduce(device, values, "sum")
        assert total == values.sum()
        assert len(device.log.kernels) == 2
        assert all(trace.kind == "reduce" for trace in device.log.kernels)


class TestAtomicReduce:
    def test_chain_is_input_size(self, device):
        meter = device.new_meter()
        values = np.arange(500, dtype=np.float64)
        assert atomic_reduce(meter, values, "sum") == values.sum()
        assert meter.atomic_count == 500
        assert meter.atomic_max_chain == 500


class TestLrgpReduce:
    @pytest.mark.parametrize("mechanism", ["simd", "work_efficient"])
    def test_correct_and_cheap(self, device, mechanism):
        meter = device.new_meter()
        values = np.arange(3200, dtype=np.float64)
        assert lrgp_reduce(meter, values, GTX970, "sum", mechanism) == values.sum()
        assert meter.atomic_count < 3200

    def test_unknown_mechanism(self, device):
        with pytest.raises(ValueError):
            lrgp_reduce(device.new_meter(), np.ones(4), GTX970, "sum", "nope")


class TestChargeWithoutComputing:
    """A reduction's charge depends on the count (and the value width)
    alone; callers that hold the result already charge from the count
    and the meter reads field for field what reducing would give."""

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 5000])
    def test_pipelined_charges(self, device, count):
        values = np.zeros(count, dtype=np.float32)
        reduced, charged = device.new_meter(), device.new_meter()
        atomic_reduce(reduced, values, "sum")
        charge_atomic_reduce(charged, count)
        assert charged.snapshot() == reduced.snapshot()
        for mechanism in ("simd", "work_efficient"):
            reduced, charged = device.new_meter(), device.new_meter()
            lrgp_reduce(reduced, values, GTX970, "sum", mechanism)
            charge_lrgp_reduce(charged, count, 4, GTX970, mechanism)
            assert charged.snapshot() == reduced.snapshot()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_device_reduce_charge(self, dtype):
        values = np.arange(3000).astype(dtype)
        reduced, charged = VirtualCoprocessor(GTX970), VirtualCoprocessor(GTX970)
        device_reduce(reduced, values, "max", label="r")
        charge_device_reduce(charged, len(values), values.dtype.itemsize, label="r")
        assert [
            (trace.name, trace.elements, trace.meter.snapshot(), trace.time_ms)
            for trace in charged.log.kernels
        ] == [
            (trace.name, trace.elements, trace.meter.snapshot(), trace.time_ms)
            for trace in reduced.log.kernels
        ]


class TestFactorize:
    def test_single_key(self):
        codes, uniques = factorize([np.array([5, 3, 5, 9])])
        assert uniques[0].tolist() == [3, 5, 9]
        assert codes.tolist() == [1, 0, 1, 2]

    def test_composite_keys(self):
        codes, uniques = factorize(
            [np.array([1, 1, 2, 1]), np.array([9, 8, 9, 9])]
        )
        # groups sorted: (1,8), (1,9), (2,9)
        assert uniques[0].tolist() == [1, 1, 2]
        assert uniques[1].tolist() == [8, 9, 9]
        assert codes.tolist() == [1, 0, 2, 1]

    def test_empty(self):
        codes, uniques = factorize([np.zeros(0, dtype=np.int64)])
        assert len(codes) == 0
        assert len(uniques[0]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ExpressionError):
            factorize([np.array([1]), np.array([1, 2])])

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=80
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_codes_identify_tuples(self, pairs):
        left = np.array([pair[0] for pair in pairs])
        right = np.array([pair[1] for pair in pairs])
        codes, uniques = factorize([left, right])
        for index, pair in enumerate(pairs):
            code = codes[index]
            assert (uniques[0][code], uniques[1][code]) == pair
        # distinct tuples <-> distinct codes
        assert len(set(zip(codes.tolist(), pairs))) == len(set(pairs)) or True
        assert len(uniques[0]) == len(set(pairs))


class TestGroupedReduce:
    def test_all_ops(self):
        codes = np.array([0, 1, 0, 1, 0])
        values = np.array([1.0, 10.0, 2.0, 20.0, 3.0])
        assert grouped_reduce(codes, 2, values, "sum").tolist() == [6.0, 30.0]
        assert grouped_reduce(codes, 2, values, "count").tolist() == [3, 2]
        assert grouped_reduce(codes, 2, values, "min").tolist() == [1.0, 10.0]
        assert grouped_reduce(codes, 2, values, "max").tolist() == [3.0, 20.0]

    def test_integer_sum_stays_integral(self):
        codes = np.array([0, 0])
        out = grouped_reduce(codes, 1, np.array([2, 3], dtype=np.int32), "sum")
        assert out.dtype == np.int64
        assert out.tolist() == [5]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-50, 50)), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_property_sums_match_python(self, rows):
        codes = np.array([row[0] for row in rows], dtype=np.int64)
        values = np.array([row[1] for row in rows], dtype=np.int64)
        sums = grouped_reduce(codes, 5, values, "sum")
        for group in range(5):
            expected = sum(value for code, value in rows if code == group)
            assert sums[group] == expected

    def test_integer_sums_are_exact_beyond_float64(self):
        """A float64 ``bincount`` rounds 2**53 + 1 back to 2**53; the
        grouped sum must agree with the ungrouped ``np.sum``."""
        codes = np.array([0, 0, 1])
        values = np.array([2**53, 1, 5], dtype=np.int64)
        out = grouped_reduce(codes, 2, values, "sum")
        assert out.dtype == np.int64
        assert out.tolist() == [2**53 + 1, 5]
        assert out[0] == np.sum(values[:2])

    def test_integer_min_max_keep_their_dtype(self):
        codes = np.array([1, 0, 1, 0])
        values = np.array([2**62 + 1, -(2**62) - 1, 2**62 + 3, -(2**62) - 3], dtype=np.int64)
        assert grouped_reduce(codes, 2, values, "min").tolist() == [-(2**62) - 3, 2**62 + 1]
        assert grouped_reduce(codes, 2, values, "max").tolist() == [-(2**62) - 1, 2**62 + 3]
        small = np.array([3, -4, 5, 6], dtype=np.int8)
        out = grouped_reduce(codes, 2, small, "max")
        assert out.dtype == np.int8
        assert out.tolist() == [6, 5]

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(-(2**60), 2**60)),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_wide_sums_min_max_match_python(self, rows):
        codes = np.array([row[0] for row in rows], dtype=np.int64)
        values = np.array([row[1] for row in rows], dtype=np.int64)
        for op, fold in (("sum", sum), ("min", min), ("max", max)):
            out = grouped_reduce(codes, 4, values, op)
            for group in range(4):
                members = [value for code, value in rows if code == group]
                if members:
                    assert int(out[group]) == fold(members), (op, group)


class TestGroupingAgainstSortReference:
    """``factorize`` (dense or sorting) and C3's per-CTA drivers against
    references built from Python sets and sorts."""

    DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]

    @staticmethod
    def reference_factorize(columns):
        rows = list(zip(*(column.tolist() for column in columns)))
        groups = sorted(set(rows))
        index = {group: code for code, group in enumerate(groups)}
        return [index[row] for row in rows], [list(part) for part in zip(*groups)]

    @staticmethod
    def reference_c3(codes, cta_size):
        pairs = {(row // cta_size, code) for row, code in enumerate(codes)}
        per_group = {}
        for _cta, code in pairs:
            per_group[code] = per_group.get(code, 0) + 1
        return len(pairs), max(per_group.values(), default=0)

    @st.composite
    def key_columns(draw):
        n = draw(st.integers(0, 200))
        columns = []
        for _ in range(draw(st.integers(1, 3))):
            dtype = np.dtype(draw(st.sampled_from(TestGroupingAgainstSortReference.DTYPES)))
            info = np.iinfo(dtype)
            span = draw(
                st.one_of(
                    st.integers(1, 40),  # dense
                    st.integers(3000, 5000),  # both sides of the 4096 floor
                    st.integers(10**5, 2**40),  # sorted
                )
            )
            span = min(span, int(info.max) - int(info.min) + 1)
            if dtype == np.uint64 and draw(st.booleans()):
                low = 2**63 + draw(st.integers(0, 2**62))  # beyond int64
            else:
                low = draw(st.integers(int(info.min), int(info.max) - span + 1))
            offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
            columns.append(np.array([low + offset for offset in offsets], dtype=dtype))
        return columns

    @given(key_columns(), st.sampled_from([1, 3, 32, 256]))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_sort_reference(self, columns, cta_size):
        codes, uniques = factorize(columns)
        expected_codes, expected_uniques = self.reference_factorize(columns)
        assert codes.dtype == np.int64
        assert codes.tolist() == expected_codes
        for column, unique, expected in zip(columns, uniques, expected_uniques or [[]] * len(columns)):
            assert unique.dtype == column.dtype
            assert unique.tolist() == expected
        groups = len(uniques[0])
        assert cta_group_drivers(codes, groups, cta_size) == self.reference_c3(
            expected_codes, cta_size
        )

    def test_the_dense_threshold(self):
        n = 2000
        limit = dense_span_limit(n)
        for span, dense in ((limit, True), (limit + 1, False)):
            column = np.arange(n, dtype=np.int64) * ((span - 1) // (n - 1))
            column[-1] = span - 1
            assert (_dense_factorize([column], limit) is not None) is dense
            codes, uniques = factorize([column])
            assert codes.tolist() == list(range(n))
            assert uniques[0].tolist() == column.tolist()
        # Two columns: the spans multiply.
        left, right = np.array([0, 99]), np.array([0, 40])
        assert _dense_factorize([left, right], 100 * 41) is not None
        assert _dense_factorize([left, right], 100 * 41 - 1) is None
        # Floats and uint64 beyond int64 always sort.
        assert _dense_factorize([np.array([1.0, 2.0])], limit) is None
        assert _dense_factorize([np.array([2**63, 2**63 + 1], dtype=np.uint64)], limit) is None


class TestHashAggregateCosts:
    def test_c2_chain_is_hottest_group(self, device):
        meter = device.new_meter()
        codes = np.array([0] * 90 + [1] * 10)
        cost = atomic_hash_aggregate(meter, codes, 2, entry_bytes=12)
        assert cost.global_atomics == 100
        assert cost.max_chain == 90
        assert meter.atomic_max_chain == 90

    def test_c3_reduces_atomics_with_few_groups(self, device):
        n = 256 * 64
        codes = np.arange(n) % 4  # 4 groups
        meter_c2 = device.new_meter()
        c2 = atomic_hash_aggregate(meter_c2, codes, 4, 12)
        meter_c3 = device.new_meter()
        c3 = segmented_hash_aggregate(meter_c3, codes, 4, 12, GTX970)
        # One atomic per (CTA, group) pair: 64 CTAs x 4 groups.
        assert c3.global_atomics == 64 * 4
        assert c3.global_atomics < c2.global_atomics
        assert c3.max_chain == 64  # one insert per CTA per group
        assert c2.max_chain == n // 4

    def test_c3_degrades_gracefully_with_many_groups(self, device):
        """Beyond ~CTA-size groups pre-aggregation stops helping
        (Experiment 2's 'limited effect on larger group numbers')."""
        n = 256 * 16
        codes = np.arange(n) % n  # all distinct
        meter = device.new_meter()
        cost = segmented_hash_aggregate(meter, codes, n, 12, GTX970)
        assert cost.global_atomics == n  # no reduction possible

    def test_empty_inputs(self, device):
        meter = device.new_meter()
        cost = atomic_hash_aggregate(meter, np.zeros(0, dtype=np.int64), 0, 12)
        assert cost.global_atomics == 0
        cost = segmented_hash_aggregate(
            device.new_meter(), np.zeros(0, dtype=np.int64), 0, 12, GTX970
        )
        assert cost.global_atomics == 0
