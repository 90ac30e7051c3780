"""Decode in registers: decisions, not just results.

A wire-resident column is decoded by the kernel that reads it, so a
compression policy costs no launch, no raw round trip and no scratch —
and must therefore never lose to its own off switch.  This module
holds that as tier-1 tests: for every benchmark query, ``auto`` is no
slower, moves no more device bytes and launches exactly the kernels
``off`` does; ``lazy`` is the same policy; stand-alone ``decode.*``
work remains only on the engines that materialize at load; and the one
cost function everything is charged and priced with
(:func:`repro.compression.register_decode`) has the shape it claims.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.compression import CompressionPolicy, register_decode
from repro.compression.lazy import plan_scan, LazyColumn
from repro.engines.runtime import QueryRuntime
from repro.expressions.eval import evaluate
from repro.expressions.expr import col
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.hardware.traffic import MemoryLevel
from repro.placement.executor import base_column_bytes
from repro.plan.builder import PlanBuilder
from repro.storage import Column, Database, Table
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, generate_ssb, generate_tpch, ssb_plan, tpch_plan

#: Engines whose column reads are charged through ``KernelContext``.
FUSED_ENGINES = ("resolution", "pipelined", "multipass", "vector")


def spy_allocations(device, allocated: list) -> None:
    """Collect the label of every allocation ``device`` makes from now."""
    allocate = device.allocate

    def spy(array, label="", **kwargs):
        allocated.append(label)
        return allocate(array, label=label, **kwargs)

    device.allocate = spy


def run(database, plan, allocated=None, **settings):
    """One execution on a fresh session; ``allocated`` collects the
    label of every device allocation it makes."""
    session = repro.connect(database, **settings)
    if allocated is not None:
        spy_allocations(session.device, allocated)
    return session.execute(plan)


def launches(result):
    return [
        (trace.name, trace.kind, trace.elements, trace.meter.snapshot())
        for trace in result.profile.kernels
    ]


def assert_never_loses(database, plan, label, **settings):
    """``auto`` against ``off``: same rows, no slower end to end, no
    more global bytes, the same launches, nothing decoded on its own."""
    allocated: list[str] = []
    off = run(database, plan, compression="off", **settings)
    auto = run(database, plan, allocated, compression="auto", **settings)
    assert table_checksum(auto.table) == table_checksum(off.table), label
    assert auto.total_ms <= off.total_ms, label
    assert auto.global_memory_bytes <= off.global_memory_bytes, label
    assert [trace.name for trace in auto.profile.kernels] == [
        trace.name for trace in off.profile.kernels
    ], label
    assert not [name for name in allocated if name.startswith("decode.")], label
    assert auto.compression.decode_kernels == 0, label
    assert not auto.compression.decode_ms_by_codec, label
    return auto


# ----------------------------------------------------------------------
# the policy cannot lose
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[0.002, 0.01])
def ssb(request):
    return generate_ssb(request.param, seed=7)


@pytest.mark.parametrize("engine", FUSED_ENGINES)
def test_auto_never_loses_to_off(ssb, engine):
    for name in SSB_QUERIES:
        assert_never_loses(ssb, ssb_plan(name, ssb), f"{engine}/{name}", engine=engine)


def test_auto_never_loses_on_the_benchmark_items():
    """Every ``compressed_link`` item (13 SSB, SF 0.03, seed 12, the
    default engine) and the two TPC-H baseline queries at the baseline
    size (the four SSB ones are in the matrix above)."""
    database = generate_ssb(0.03, seed=12)
    for name in SSB_QUERIES:
        assert_never_loses(database, ssb_plan(name, database), name)
    tpch = generate_tpch(0.002, seed=7)
    for name in ("q1", "q6"):
        assert_never_loses(tpch, tpch_plan(name, tpch), f"tpch:{name}")


@pytest.mark.parametrize("engine", FUSED_ENGINES + ("operator-at-a-time",))
def test_lazy_is_auto(ssb_db, engine):
    """One path: field for field the same execution."""
    assert CompressionPolicy("lazy").mode == CompressionPolicy("auto").mode == "auto"
    for name in ("q1.1", "q2.1", "q4.1"):
        plan = ssb_plan(name, ssb_db)
        auto = run(ssb_db, plan, engine=engine, compression="auto")
        lazy = run(ssb_db, plan, engine=engine, compression="lazy")
        assert launches(lazy) == launches(auto)
        assert lazy.profile.transfers == auto.profile.transfers
        assert asdict(lazy.compression) == asdict(auto.compression)
        assert lazy.kernel_sources == auto.kernel_sources
        assert lazy.total_ms == auto.total_ms
        assert table_checksum(lazy.table) == table_checksum(auto.table)


def test_operator_at_a_time_still_decodes_at_load(ssb_db):
    """The materializing baseline charges column reads outside the
    context: one ``decode.<column>`` launch and one raw scratch buffer
    per compressed column, nothing fused, same rows."""
    for name in ("q1.1", "q3.2"):
        plan = ssb_plan(name, ssb_db)
        allocated: list[str] = []
        off = run(ssb_db, plan, engine="operator-at-a-time", compression="off")
        auto = run(
            ssb_db, plan, allocated, engine="operator-at-a-time", compression="auto"
        )
        assert table_checksum(auto.table) == table_checksum(off.table)
        stats = auto.compression
        decodes = [t.name for t in auto.profile.kernels if t.kind == "decode"]
        assert len(decodes) == stats.decode_kernels == stats.encoded_columns > 0
        assert sorted(decodes) == sorted(
            name for name in allocated if name.startswith("decode.")
        )
        assert stats.deferred_columns == stats.compressed_scans == 0
        assert sum(stats.decode_ms_by_codec.values()) == pytest.approx(
            sum(t.time_ms for t in auto.profile.kernels if t.kind == "decode")
        )
        assert len(auto.profile.kernels) == len(off.profile.kernels) + len(decodes)


def test_warm_pooled_hit_allocates_nothing_for_a_fused_column(ssb_db):
    session = repro.connect(ssb_db, residency=True, compression="auto")
    for name in ("q2.1", "q4.1"):
        session.execute(SSB_QUERIES[name])
    allocated: list[str] = []
    spy_allocations(session.device, allocated)
    for name in ("q2.1", "q4.1"):
        warm = session.execute(SSB_QUERIES[name])
        assert warm.input_bytes == 0
        assert warm.compression.deferred_columns > 0
        # Every build side is resident: the fact pipeline alone runs.
        assert warm.placement.table_hits == len(warm.profile.kernels) + (
            2 if name == "q2.1" else 3
        )
        assert warm.placement.table_misses == 0
    # No base column, no decode scratch — and, the hash tables being
    # pool residents now, no slot array or payload column either.
    assert allocated == []
    assert session.device.pooled_bytes == session.pool.resident_bytes


# ----------------------------------------------------------------------
# out of core
# ----------------------------------------------------------------------
def quarter_device(database):
    working_sets = [
        base_column_bytes(
            repro.connect(database).physical(SSB_QUERIES[name]), database
        )
        for name in SSB_QUERIES
    ]
    return VirtualCoprocessor(
        GTX970.with_overrides(
            name="GTX970-quarter", memory_capacity=min(working_sets) // 4
        ),
        interconnect=PCIE3,
    )


def test_out_of_core_never_loses_and_pays_d2h_once():
    """Blocks stay wire-resident (no ``decode.block*``), and a block
    partial is not shipped: the merged result's one packed d2h is the
    only one, policy or not — so ``auto`` cannot lose on the link
    either way."""
    database = generate_ssb(0.01, seed=7)
    for name, sql in SSB_QUERIES.items():
        results = {}
        for mode in ("off", "auto"):
            session = repro.connect(
                database, device=quarter_device(database), residency=True,
                compression=mode,
            )
            results[mode] = session.execute(sql)
        off, auto = results["off"], results["auto"]
        assert auto.placement.out_of_core and off.placement.out_of_core, name
        assert table_checksum(auto.table) == table_checksum(off.table), name
        d2h = {
            mode: [r for r in result.profile.transfers if r.direction == "d2h"]
            for mode, result in results.items()
        }
        assert [r.label for r in d2h["auto"]] == ["result"], name
        assert [r.label for r in d2h["off"]] == ["result"], name
        assert d2h["auto"][0].nbytes <= d2h["off"][0].nbytes, name
        assert auto.total_ms <= off.total_ms, name
        assert [t.name for t in auto.profile.kernels] == [
            t.name for t in off.profile.kernels
        ], name
        assert auto.compression.decode_kernels == 0, name
        assert auto.input_bytes < off.input_bytes, name


# ----------------------------------------------------------------------
# result / partial encodes that cannot pay
# ----------------------------------------------------------------------
def encode_launches(result):
    return [t.name for t in result.profile.kernels if t.kind == "encode"]


def test_small_results_ship_raw():
    """Regression: every non-passthrough result column paid a 5 us
    encode launch to shave a kilobyte off a transfer whose 10 us
    latency does not move."""
    database = generate_ssb(0.03, seed=12)
    result = run(database, SSB_QUERIES["q2.1"], compression="auto")
    assert result.table.num_rows > 100
    assert not encode_launches(result)
    assert result.compression.encode_kernels == 0
    assert result.output_bytes == result.table.nbytes


def test_large_sorted_result_is_still_encoded():
    rows = 4_000_000
    database = Database({"t": Table({"k": Column.int32(np.arange(rows))})})
    plan = PlanBuilder.scan("t").project(["k"]).build()
    off = run(database, plan, engine="multipass", compression="off")
    auto = run(database, plan, engine="multipass", compression="auto")
    assert table_checksum(auto.table) == table_checksum(off.table)
    assert encode_launches(auto) == ["encode.result.k"]
    assert auto.output_bytes * 10 < off.output_bytes == 4 * rows
    assert auto.total_ms < off.total_ms


def test_partials_are_gated_the_same_way(device, ssb_db):
    device.compression = CompressionPolicy("auto")
    runtime = QueryRuntime(device, ssb_db)
    small = {"key": np.arange(300, dtype=np.int64)}
    assert runtime.ship_partials({"gather.p0": small}) == small["key"].nbytes
    large = {"key": np.arange(300_000, dtype=np.int64)}
    assert runtime.ship_partials({"gather.p1": large}) * 10 < large["key"].nbytes
    assert [t.name for t in device.log.kernels] == ["encode.gather.p1.key"]
    # One transfer record per call, under a policy too.
    assert [r.label for r in device.log.transfers] == ["gather.p0", "gather.p1"]
    stats = runtime.compression_stats()
    assert stats.log is device.log  # the query record
    assert stats.encode_kernels == 1
    assert stats.host_decode_bytes == large["key"].nbytes


def test_a_result_that_cannot_pay_is_never_sampled_or_encoded(device, ssb_db, monkeypatch):
    """Host clock only: a wire image saves less link time than the raw
    bytes take and costs at least one launch, so below ``launch
    overhead x d2h bandwidth`` raw bytes nothing is chosen, sampled or
    encoded to find out that it ships raw — and the accounting is what
    it was when every result column was encoded first."""
    calls = []
    for name in ("encoded", "encode_array", "choose"):
        original = getattr(CompressionPolicy, name)

        def counting(self, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CompressionPolicy, name, counting)
    link, launch = device.interconnect, device.profile.kernel_launch_overhead
    threshold = int(launch * link.d2h_bandwidth * 1e9)  # bytes

    device.compression = CompressionPolicy("auto")
    runtime = QueryRuntime(device, ssb_db)
    below = {"key": np.arange(threshold // 8, dtype=np.int64)}
    assert runtime.ship_partials({"gather.p0": below}) == below["key"].nbytes
    assert calls == [] and device.log.kernels == []
    # Past the bound the full test decides, as before: it takes the
    # encoding to know what it saves.
    above = {"key": np.arange(threshold // 8 + 1, dtype=np.int64)}
    assert runtime.ship_partials({"gather.p1": above}) == above["key"].nbytes
    assert calls.count("encode_array") == 1 and device.log.kernels == []
    far = {"key": np.arange(threshold, dtype=np.int64)}
    assert runtime.ship_partials({"gather.p2": far}) * 10 < far["key"].nbytes
    assert calls.count("encode_array") == 2
    assert [r.label for r in device.log.transfers] == [
        "gather.p0", "gather.p1", "gather.p2"
    ]
    stats = runtime.compression_stats()
    assert stats.log is device.log  # the query record
    assert (stats.columns, stats.encoded_columns, stats.encode_kernels) == (3, 1, 1)
    assert stats.raw_bytes == sum(part["key"].nbytes for part in (below, above, far))

    # A whole query: the base columns are encoded (cached on them), the
    # 81-row result's three columns are not looked at.
    del calls[:]
    fresh = generate_ssb(0.004, seed=7)
    result = run(fresh, SSB_QUERIES["q2.1"], compression="auto")
    base_columns = sum(
        len(pipeline.required_columns)
        for pipeline in repro.connect(fresh).physical(SSB_QUERIES["q2.1"]).pipelines
    )
    assert calls.count("choose") == base_columns
    assert result.compression.columns == base_columns + len(result.table.columns)
    assert result.output_bytes == result.table.nbytes


# ----------------------------------------------------------------------
# the shared cost function
# ----------------------------------------------------------------------
def _column_for(codec: str, values: list[int], runs: int):
    data = np.repeat(np.asarray(values, dtype=np.int64), runs)
    if codec == "boolpack":
        return Column.boolean(data % 2 == 0)
    if codec == "dictionary":
        words = [f"w{value % 7}" for value in data]
        return Column.from_strings(words)
    if codec in ("delta", "cascade"):
        data = np.sort(data)
    return Column.int64(data)


@pytest.mark.parametrize(
    "codec", ["rle", "forpack", "delta", "dictionary", "boolpack", "cascade"]
)
@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(-5000, 5000), min_size=8, max_size=200),
    runs=st.integers(1, 40),
    picks=st.lists(st.floats(0, 1), min_size=2, max_size=6),
)
def test_register_decode_shape(codec, values, runs, picks):
    """Per codec: monotone in the rows read, never more wire-image
    bytes than the image holds — nor, for the position- and run-local
    codecs, than the same rows cost raw — and no value is ever written.
    (``delta`` reads its whole span: an ordered prefix sum cannot skip;
    its only global write is the 8-byte descriptor per CTA.)"""
    column = _column_for(codec, values, runs)
    encoded = CompressionPolicy(codec).encoded(column)
    assume(encoded.codec == codec)  # the ratio gate shipped it compressed
    n, itemsize = encoded.length, column.values.dtype.itemsize
    previous = None
    for rows in sorted({0, n, *(int(pick * n) for pick in picks)}):
        cost = register_decode(encoded, rows)
        snapshot = (
            cost.reads[MemoryLevel.GLOBAL],
            cost.bytes_at(MemoryLevel.ONCHIP),
            cost.instructions,
            cost.barriers,
        )
        if previous is not None:
            assert all(now >= before for now, before in zip(snapshot, previous))
        previous = snapshot
        assert cost.instructions >= 2 * rows
        assert cost.atomic_count == 0
        assert cost.writes[MemoryLevel.ONCHIP] == cost.reads[MemoryLevel.ONCHIP]
        ctas = -(-n // 256) if rows and codec == "delta" else 0
        assert cost.writes[MemoryLevel.GLOBAL] == 8 * ctas
        wire_read = cost.reads[MemoryLevel.GLOBAL] - 4 * 8 * ctas
        assert wire_read <= encoded.wire_nbytes
        if codec == "delta":
            assert wire_read == (encoded.wire_nbytes if rows else 0)
            assert (cost.barriers > 0) == (rows > 0)
        else:
            assert wire_read <= rows * itemsize
            assert cost.bytes_at(MemoryLevel.ONCHIP) == cost.barriers == 0
    # A kernel over a slice of the column pays for its slice.
    half = register_decode(encoded, n // 2, span=n // 2)
    assert half.reads[MemoryLevel.GLOBAL] <= previous[0]
    assert half.bytes_at(MemoryLevel.ONCHIP) <= previous[1]


def test_scan_strategy_never_reads_more_than_unpacking(ssb_db):
    """A strategy is returned only when it is no worse than the
    register decode on bytes and on instructions — at any alive count."""
    policy = CompressionPolicy("auto")
    cases = [
        ("date", "d_year", col("d_year") == 1993),
        ("part", "p_category", col("p_category") == "MFGR#12"),
        ("lineorder", "lo_quantity", col("lo_quantity") < 25),
        ("lineorder", "lo_quantity", col("lo_quantity") > 1_000_000),
    ]
    taken = set()
    for table, name, conjunct in cases:
        column = ssb_db.table(table).column(name)
        if column.dictionary is not None:
            conjunct = col(name) == column.dictionary.code(conjunct.right.value)
        state = LazyColumn(f"{table}.{name}", policy.encoded(column), column.values)
        for rows in (state.n, state.n // 2, state.n // 50, 1):
            plan = plan_scan(state, conjunct, name, rows)
            if plan is None:
                continue
            taken.add(plan.strategy)
            unpack = register_decode(state.encoded, rows)
            assert plan.read_bytes <= unpack.reads[MemoryLevel.GLOBAL]
            assert plan.instructions <= unpack.instructions + conjunct.size() * rows
            expected = np.asarray(evaluate(conjunct, {name: column.values}))
            assert np.array_equal(plan.flags, expected)
    assert taken == {"rle-runs", "dict-lookup", "block-skip"}


# ----------------------------------------------------------------------
# delta: an ordered prefix sum inside the consuming kernel
# ----------------------------------------------------------------------
def test_delta_key_is_scanned_on_chip_in_the_consuming_kernel():
    """A sorted key picks ``delta``; the kernel that filters on it pays
    the CTA-local scan on chip and one propagation per CTA, exactly as
    ``lookback_positions`` charges them, and nothing is launched."""
    rows = 100_000
    rng = np.random.default_rng(3)
    key = np.cumsum(rng.integers(1, 9, rows)).astype(np.int64)
    database = Database(
        {"t": Table({"k": Column.int64(key), "v": Column.int32(np.arange(rows) % 97)})}
    )
    assert CompressionPolicy("auto").encoded(database.table("t").column("k")).codec == "delta"
    plan = (
        PlanBuilder.scan("t")
        .filter(col("k") < int(key[rows // 10]))
        .aggregate(group_by=[], aggregates=[("sum", col("v"), "total")])
        .build()
    )
    off = run(database, plan, compression="off")
    auto = run(database, plan, compression="auto")
    assert table_checksum(auto.table) == table_checksum(off.table)
    assert len(auto.profile.kernels) == len(off.profile.kernels) == 1
    fused, plain = auto.profile.kernels[0].meter, off.profile.kernels[0].meter
    ctas, steps = -(-rows // 256), 2 * 8
    assert fused.barriers - plain.barriers == ctas * steps == 6256
    assert (
        fused.bytes_at(MemoryLevel.ONCHIP) - plain.bytes_at(MemoryLevel.ONCHIP)
        == 2 * steps * rows * 8
        == 25_600_000
    )
    assert fused.writes[MemoryLevel.GLOBAL] - plain.writes[MemoryLevel.GLOBAL] == 8 * ctas
    assert auto.global_memory_bytes < off.global_memory_bytes
    assert auto.total_ms < off.total_ms
    assert any("register decode (delta)" in note for note in auto.compression.scans)
