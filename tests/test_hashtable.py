"""Tests for the join hash table (build, probe, accounting)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import PlanError
from repro.hardware import GTX970, VirtualCoprocessor
from repro.hardware.traffic import MemoryLevel
from repro.primitives import JoinHashTable, hash_key_columns
from repro.primitives import hashtable
from repro.primitives.gather import TRANSACTION_BYTES, random_access_volume
from repro.primitives.hashtable import clear_layout_cache, layout_cache_stats


def _device():
    return VirtualCoprocessor(GTX970)


class TestBuild:
    def test_build_launches_one_kernel(self, device):
        keys = np.arange(100, dtype=np.int64)
        JoinHashTable.build(device, [keys], name="t")
        builds = device.log.kernels_of_kind("build")
        assert len(builds) == 1
        assert builds[0].meter.atomic_count >= 100

    def test_duplicate_keys_rejected(self, device):
        with pytest.raises(PlanError, match="duplicate keys"):
            JoinHashTable.build(device, [np.array([1, 2, 1], dtype=np.int64)])

    def test_composite_duplicates_detected(self, device):
        left = np.array([1, 1, 2], dtype=np.int64)
        right = np.array([7, 7, 7], dtype=np.int64)
        with pytest.raises(PlanError, match="duplicate keys"):
            JoinHashTable.build(device, [left, right])

    def test_composite_near_duplicates_allowed(self, device):
        left = np.array([1, 1, 2], dtype=np.int64)
        right = np.array([7, 8, 7], dtype=np.int64)
        table = JoinHashTable.build(device, [left, right])
        assert table.num_rows == 3

    def test_both_zeros_are_duplicate_keys(self, device):
        with pytest.raises(PlanError, match="duplicate keys"):
            JoinHashTable.build(device, [np.array([0.0, 1.5, -0.0])])

    def test_slots_resident_on_device(self, device):
        JoinHashTable.build(device, [np.arange(50, dtype=np.int64)])
        assert device.allocated_bytes > 0

    def test_build_pipelined_charges_meter_not_kernel(self, device):
        meter = device.new_meter()
        JoinHashTable.build_pipelined(meter, device, [np.arange(10, dtype=np.int64)])
        assert not device.log.kernels  # no separate launch
        assert meter.atomic_count >= 10


class TestProbe:
    def test_hits_and_misses(self, device):
        keys = np.array([2, 4, 6, 8], dtype=np.int64)
        table = JoinHashTable.build(device, [keys])
        meter = device.new_meter()
        rows = table.probe(meter, [np.array([4, 5, 8, 100], dtype=np.int64)])
        assert rows[0] == 1 and rows[2] == 3
        assert rows[1] == -1 and rows[3] == -1

    def test_composite_key_probe(self, device):
        table = JoinHashTable.build(
            device,
            [np.array([1, 1, 2], dtype=np.int64), np.array([7, 8, 7], dtype=np.int64)],
        )
        meter = device.new_meter()
        rows = table.probe(
            meter, [np.array([1, 2, 2], dtype=np.int64), np.array([8, 7, 8], dtype=np.int64)]
        )
        assert rows.tolist() == [1, 2, -1]

    def test_float_keys_hash_by_bits(self, device):
        values = np.array([0.1, 0.2, 0.30000001], dtype=np.float32)
        table = JoinHashTable.build(device, [values])
        meter = device.new_meter()
        rows = table.probe(meter, [values.copy()])
        assert rows.tolist() == [0, 1, 2]

    def test_negative_zero_joins_zero(self, device):
        table = JoinHashTable.build(device, [np.array([0.0, 1.5])])
        rows = table.probe(device.new_meter(), [np.array([-0.0, 0.0, 1.5])])
        assert rows.tolist() == [0, 0, 1]

    def test_key_count_mismatch(self, device):
        table = JoinHashTable.build(device, [np.arange(4, dtype=np.int64)])
        with pytest.raises(PlanError):
            table.probe(device.new_meter(), [np.arange(2), np.arange(2)])

    def test_probe_into_empty_table(self, device):
        table = JoinHashTable.build(device, [np.zeros(0, dtype=np.int64)])
        meter = device.new_meter()
        rows = table.probe(meter, [np.array([1, 2], dtype=np.int64)])
        assert rows.tolist() == [-1, -1]

    def test_probe_traffic_tagged_as_table_bytes(self, device):
        table = JoinHashTable.build(device, [np.arange(64, dtype=np.int64)])
        meter = device.new_meter()
        table.probe(meter, [np.arange(128, dtype=np.int64)])
        assert meter.table_bytes > 0

    def test_large_tables_pay_transaction_amplification(self, device):
        keys = np.arange(400_000, dtype=np.int64)  # slots >> L2
        table = JoinHashTable.build(device, [keys])
        probes = np.arange(1000, dtype=np.int64)
        meter_amp = device.new_meter()
        table.probe(meter_amp, [probes], l2_capacity=GTX970.l2_capacity)
        meter_flat = device.new_meter()
        table.probe(meter_flat, [probes], l2_capacity=None)
        assert meter_amp.table_bytes > meter_flat.table_bytes
        assert meter_amp.table_bytes >= 1000 * TRANSACTION_BYTES


class TestHashFunction:
    def test_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        assert np.array_equal(hash_key_columns([keys]), hash_key_columns([keys.copy()]))

    def test_column_order_matters(self):
        left = np.array([1, 2], dtype=np.int64)
        right = np.array([2, 1], dtype=np.int64)
        assert not np.array_equal(
            hash_key_columns([left, right]), hash_key_columns([right, left])
        )

    def test_empty_key_list_rejected(self):
        with pytest.raises(PlanError):
            hash_key_columns([])

    def test_spread(self):
        hashes = hash_key_columns([np.arange(10_000, dtype=np.int64)])
        low_bits = hashes & np.uint64(1023)
        counts = np.bincount(low_bits.astype(np.int64), minlength=1024)
        assert counts.max() < 40  # well spread across buckets


@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=300, unique=True),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_property_probe_equals_dict_lookup(build_keys, probe_keys):
    device = _device()
    build = np.array(build_keys, dtype=np.int64)
    table = JoinHashTable.build(device, [build])
    rows = table.probe(device.new_meter(), [np.array(probe_keys, dtype=np.int64)])
    lookup = {int(key): index for index, key in enumerate(build_keys)}
    expected = [lookup.get(key, -1) for key in probe_keys]
    assert rows.tolist() == expected


# ---------------------------------------------------------------------------
# probe == a round-by-round walk, on rows and on charges
# ---------------------------------------------------------------------------
def _reference_probe(table, probe_arrays, l2_capacity):
    """Linear probing re-enacted one slot read per round, the way the
    simulated kernel walks it: the oracle for what ``probe`` returns and
    charges, however ``probe`` obtains them."""
    n = len(probe_arrays[0])
    rows = np.full(n, -1, dtype=np.int64)
    steps = 0
    position = (
        hash_key_columns(probe_arrays) & np.uint64(table.capacity - 1)
    ).astype(np.int64)
    active = np.arange(n)
    while active.size:
        steps += len(active)
        candidate = table.slots[position[active]]
        active, candidate = active[candidate >= 0], candidate[candidate >= 0]
        equal = np.ones(len(active), dtype=bool)
        for build, probe in zip(table.key_arrays, probe_arrays):
            equal &= build[candidate] == probe[active]
        rows[active[equal]] = candidate[equal]
        active = active[~equal]
        position[active] = (position[active] + 1) % table.capacity
    structure_bytes = table.table_bytes + sum(a.nbytes for a in table.key_arrays)
    table_bytes = random_access_volume(
        steps, table.entry_bytes, structure_bytes, l2_capacity
    )
    return rows, table_bytes, 4 * steps


#: Probe sizes on both sides of every key domain below, so each case
#: meets the direct-address lookup and the general walk.
_PROBE_SIZES = st.sampled_from((0, 1, 9, 80, 400))


def _ints(lo, hi, dtype, size=_PROBE_SIZES, unique=False):
    return arrays(dtype, size, elements=st.integers(lo, hi), unique=unique)


def _build_ints(lo, hi, dtype):
    return _ints(lo, hi, dtype, st.integers(0, min((hi - lo) // 2, 60)), unique=True)


@st.composite
def _join_cases(draw):
    """(build key columns, [probe key columns, ...]) — the probes run in
    order, alternating between two tables that share one layout."""
    shape = draw(
        st.sampled_from(
            ["dense", "sparse", "negative", "mixed_width", "uint64_high",
             "composite", "float", "out_of_domain", "widening", "morsels"]
        )
    )
    if shape == "dense":
        build = [draw(_build_ints(0, 60, np.int64))]
        probes = [[draw(_ints(0, 70, np.int64))]]
    elif shape == "sparse":
        build = [draw(_build_ints(0, 10**12, np.int64))]
        probes = [[draw(_ints(0, 10**12, np.int64))]]
        probes.append([np.concatenate([build[0], probes[0][0]])])
    elif shape == "negative":
        build = [draw(_build_ints(-40, 40, np.int32))]
        probes = [[draw(_ints(-60, 60, np.int64))]]
    elif shape == "mixed_width":
        build = [draw(_build_ints(-5, 120, np.int64))]
        probes = [[draw(_ints(-100, 127, np.int8))],
                  [draw(_ints(0, 200, np.uint16))],
                  [draw(_ints(-200, 200, np.int32))]]
    elif shape == "uint64_high":
        base = 2**63
        build = [draw(_build_ints(base, base + 50, np.uint64))]
        probes = [[draw(_ints(base - 10, base + 60, np.uint64))],
                  [draw(_ints(0, 50, np.int64))]]
    elif shape == "composite":
        pairs = draw(
            st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                     max_size=50, unique=True)
        )
        build = [np.array([a for a, _ in pairs], dtype=np.int64),
                 np.array([b for _, b in pairs], dtype=np.int32)]
        size = draw(_PROBE_SIZES)
        probes = [[draw(_ints(0, 9, np.int64, size)), draw(_ints(0, 9, np.int64, size))]]
    elif shape == "float":
        build = [draw(_build_ints(-20, 20, np.int64)) / 4.0]
        probes = [[draw(_ints(-24, 24, np.int64)) / 4.0],
                  [np.array([-0.0, 0.0, 0.25])]]
    elif shape == "out_of_domain":
        build = [draw(_build_ints(100, 140, np.int64))]
        probes = [[draw(_ints(0, 50, np.int64))],
                  [draw(_ints(150, 190, np.int32))],
                  [draw(_ints(10**6, 10**6 + 40, np.int32))]]
    elif shape == "morsels":
        # A scan cut into morsels smaller than the key domain: the first
        # ones walk, the one whose rows bring the layout's total past
        # the span gets the index, later ones reuse or widen it.
        build = [draw(_build_ints(0, 200, np.int64))]
        morsel = st.just(80)
        probes = [[draw(_ints(0, 200, np.int64, morsel))] for _ in range(4)]
        probes.append([draw(_ints(-60, 300, np.int32, morsel))])
        probes.append([draw(_ints(-100, 400, np.int64, morsel))])
    else:  # each probe reaching beyond the previous domain
        build = [draw(_build_ints(40, 60, np.int64))]
        probes = [[draw(_ints(45, 55, np.int64))],
                  [draw(_ints(20, 80, np.int64))],
                  [draw(_ints(-30, 150, np.int32))],
                  [draw(_ints(50, 52, np.int64))]]
    return build, probes


@given(_join_cases(), st.booleans(), st.sampled_from([None, 512, GTX970.l2_capacity]))
@settings(max_examples=300, deadline=None)
def test_property_probe_equals_reference_walk(case, pipelined, l2_capacity):
    build, probes = case
    clear_layout_cache()
    device = _device()
    built = []
    for use_pipelined in (pipelined, not pipelined):
        meter = device.new_meter()
        if use_pipelined:
            table = JoinHashTable.build_pipelined(meter, device, build)
        else:
            table = JoinHashTable.build(device, build)
            meter = device.log.kernels[-1].meter
            # ``build`` alone reads the materialized keys.
            meter.reads[MemoryLevel.GLOBAL] -= sum(array.nbytes for array in build)
        built.append((table, vars(meter)))
    (first, miss_charges), (second, hit_charges) = built
    # One layout, laid out once; the hit is charged what the miss was.
    assert first._layout is second._layout
    stats = layout_cache_stats()
    assert (stats.misses, stats.hits) == (1, 1)
    assert hit_charges == miss_charges
    for turn, probe_arrays in enumerate(probes):
        table = built[turn % 2][0]
        meter = device.new_meter()
        rows = table.probe(meter, probe_arrays, l2_capacity)
        expected_rows, table_bytes, instructions = _reference_probe(
            table, probe_arrays, l2_capacity
        )
        assert rows.dtype == np.int64
        assert rows.tolist() == expected_rows.tolist()
        assert meter.table_bytes == table_bytes
        assert meter.instructions == instructions


def test_index_decision_is_cumulative_over_the_layout(device):
    """Morsels smaller than the key domain walk until the layout has
    been asked about as many rows as the domain spans; from then on
    every table on the layout answers from the one index."""
    build = np.arange(0, 200, 2, dtype=np.int64)
    tables = [JoinHashTable.build(device, [build]) for _ in range(2)]
    layout = tables[0]._layout
    assert layout is tables[1]._layout
    rng = np.random.default_rng(11)
    morsels = [rng.integers(0, 200, 80) for _ in range(4)]
    seen = []
    for turn, morsel in enumerate(morsels):
        table = tables[turn % 2]
        meter = device.new_meter()
        rows = table.probe(meter, [morsel])
        want_rows, table_bytes, instructions = _reference_probe(table, [morsel], None)
        assert rows.tolist() == want_rows.tolist()
        assert (meter.table_bytes, meter.instructions) == (table_bytes, instructions)
        seen.append(layout.dense is not None)
    # span <= 200 values: 80 and 160 rows walk, 240 rows buy the index.
    assert seen == [False, False, True, True]
    index = layout.dense
    tables[1].probe(device.new_meter(), [np.array([3, 5])])
    assert layout.dense is index  # covered: reused as is, by either table
    tables[0].probe(device.new_meter(), [rng.integers(-50, 250, 80)])
    assert (layout.dense.lo, layout.dense.hi) != (index.lo, index.hi)  # widened


class TestLayoutMemo:
    def test_stats_shape_and_clear(self, device):
        clear_layout_cache()
        JoinHashTable.build(device, [np.arange(100, dtype=np.int64)])
        JoinHashTable.build(device, [np.arange(100, dtype=np.int64)])
        JoinHashTable.build(device, [np.arange(100, dtype=np.int32)])
        stats = layout_cache_stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 0)
        assert stats.bytes > 0 and stats.hit_rate == pytest.approx(1 / 3)
        clear_layout_cache()
        stats = layout_cache_stats()
        assert (stats.hits, stats.misses, stats.evictions, stats.bytes) == (0, 0, 0, 0)

    def test_load_factor_is_part_of_the_key(self, device):
        keys = np.arange(100, dtype=np.int64)
        half = JoinHashTable.build(device, [keys], load_factor=0.5)
        quarter = JoinHashTable.build(device, [keys], load_factor=0.25)
        assert quarter.capacity == 2 * half.capacity
        assert layout_cache_stats().misses == 2

    def test_each_table_allocates_its_own_slot_buffer(self, device):
        first = JoinHashTable.build(device, [np.arange(50, dtype=np.int64)])
        allocated = device.allocated_bytes
        second = JoinHashTable.build(device, [np.arange(50, dtype=np.int64)])
        assert first.slots_buffer is not second.slots_buffer
        assert device.allocated_bytes == 2 * allocated
        device.free(first.slots_buffer)
        assert not second.slots_buffer.freed

    def test_equal_digest_different_content_is_not_served_stale(
        self, device, monkeypatch
    ):
        monkeypatch.setattr(
            hashtable, "_content_digest", lambda key_arrays, load_factor: b"same"
        )
        evens = np.arange(0, 40, 2, dtype=np.int64)
        odds = evens + 1
        for keys in (evens, odds, evens):
            table = JoinHashTable.build(device, [keys])
            rows = table.probe(device.new_meter(), [keys])
            assert rows.tolist() == list(range(len(keys)))
            assert table.probe(device.new_meter(), [keys + 1]).tolist() == [-1] * 20
        assert layout_cache_stats().hits == 0
        # Same content under the shared digest still hits.
        JoinHashTable.build(device, [evens.copy()])
        assert layout_cache_stats().hits == 1

    def test_mutating_the_callers_keys_cannot_corrupt_a_later_build(self, device):
        keys = np.arange(10, 30, dtype=np.int64)
        original = keys.copy()
        first = JoinHashTable.build(device, [keys])
        keys[:] = keys[::-1]  # the caller reuses its buffer
        assert first.probe(device.new_meter(), [original]).tolist() == list(range(20))
        again = JoinHashTable.build(device, [original])
        assert again._layout is first._layout
        assert again.probe(device.new_meter(), [original]).tolist() == list(range(20))
        reversed_table = JoinHashTable.build(device, [keys])
        assert reversed_table._layout is not first._layout
        assert reversed_table.probe(device.new_meter(), [original]).tolist() == list(
            range(19, -1, -1)
        )
        with pytest.raises(ValueError):
            first.key_arrays[0][0] = 99  # what the memo keeps is read-only
        with pytest.raises(ValueError):
            first.slots[0] = 0

    def test_plan_errors_are_never_cached(self, device):
        duplicate = [np.array([1, 2, 1], dtype=np.int64)]
        ragged = [np.arange(3, dtype=np.int64), np.arange(4, dtype=np.int64)]
        for _ in range(3):
            with pytest.raises(PlanError, match="duplicate keys"):
                JoinHashTable.build(device, duplicate)
            with pytest.raises(PlanError, match="duplicate keys"):
                JoinHashTable.build_pipelined(device.new_meter(), device, duplicate)
            with pytest.raises(PlanError, match="equal length"):
                JoinHashTable.build(device, ragged)
        stats = layout_cache_stats()
        assert (stats.hits, stats.bytes) == (0, 0)
        assert device.allocated_bytes == 0 and not device.log.kernels

    def test_byte_budget_evicts_least_recently_used(self, device, monkeypatch):
        keys = [np.arange(start, start + 500, dtype=np.int64) for start in (0, 1, 2)]
        JoinHashTable.build(device, [keys[0]])
        one = layout_cache_stats().bytes
        monkeypatch.setattr(hashtable, "LAYOUT_CACHE_BYTES", 2 * one)
        JoinHashTable.build(device, [keys[1]])
        JoinHashTable.build(device, [keys[0]])  # refresh: keys[1] is now oldest
        survivor = JoinHashTable.build(device, [keys[2]])
        stats = layout_cache_stats()
        assert (stats.evictions, stats.bytes) == (1, 2 * one)
        JoinHashTable.build(device, [keys[0]])
        assert layout_cache_stats().hits == 2
        JoinHashTable.build(device, [keys[1]])
        assert layout_cache_stats().misses == 4
        # An index grown by probing counts against the budget too; the
        # table keeps its layout when the memo lets go of it.
        survivor.probe(device.new_meter(), [np.arange(0, 600, dtype=np.int64)])
        assert layout_cache_stats().bytes <= 2 * one
        assert survivor.probe(device.new_meter(), [keys[2]]).tolist() == list(range(500))


def test_probe_allocates_no_device_memory(device):
    """The direct-address index is host bookkeeping: a probe that builds
    one, one that widens it and one that walks leave the device as is."""
    table = JoinHashTable.build(device, [np.arange(10, 50, dtype=np.int64)])
    allocated, peak = device.allocated_bytes, device.peak_allocated
    for probe in (np.arange(0, 64), np.arange(-64, 128), np.array([10**9, 3])):
        table.probe(device.new_meter(), [probe.astype(np.int64)])
        assert (device.allocated_bytes, device.peak_allocated) == (allocated, peak)


def test_concurrent_probes_with_widening_domains(device):
    """Threads probing two tables on one layout, each over a different
    key domain (so they race to replace the layout's index), all get
    the serial answer."""
    build = np.arange(100, 200, 3, dtype=np.int64)
    tables = [JoinHashTable.build(device, [build]) for _ in range(2)]
    assert tables[0]._layout is tables[1]._layout
    rng = np.random.default_rng(5)
    probes = [
        rng.integers(150 - 40 * k, 150 + 40 * k, 400 * k).astype(np.int64)
        for k in range(1, 9)
    ]
    expected = [_reference_probe(tables[0], [probe], None) for probe in probes]
    failures = []

    def work(k):
        for _ in range(30):
            meter = device.new_meter()
            rows = tables[k % 2].probe(meter, [probes[k]])
            want_rows, table_bytes, instructions = expected[k]
            if (
                rows.tolist() != want_rows.tolist()
                or meter.table_bytes != table_bytes
                or meter.instructions != instructions
            ):
                failures.append(k)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(probes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
