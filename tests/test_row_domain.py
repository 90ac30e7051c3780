"""The row domain of :class:`~repro.kernels.KernelContext`.

Generated kernels carry only the rows still alive: ``ctx.scope`` serves
every column over the current domain, a stage that drops rows re-bases
the domain on the survivors, and source-row flags come back only where
the device model needs thread positions.  Hand-built contexts walk the
stage protocol the generated source follows (probe -> apply_probe ->
payloads -> residual) through each case that can go wrong, and compare
rows with plain numpy over the source and charges with the primitives
called on the alive rows directly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.engines.runtime import HashTableEntry, QueryRuntime
from repro.expressions import col
from repro.hardware import GTX970, MemoryLevel, TrafficMeter, VirtualCoprocessor
from repro.kernels import KernelContext
from repro.plan import PlanBuilder
from repro.plan.logical import AggSpec, PlanSchema
from repro.plan.physical import AggregateSink
from repro.primitives import (
    JoinHashTable,
    atomic_positions,
    device_scan,
    lrgp_positions,
)
from repro.primitives.gather import random_access_volume
from repro.storage import DType
from repro.telemetry.recorder import table_checksum
from repro.workloads import generate_ssb, ssb_plan

N = 240
#: Build keys 0..19 carry payload ``p = 10 * key``; probe keys 20..39 miss.
BUILD_KEYS = np.arange(20, dtype=np.int32)
SCHEMA = PlanSchema(
    {"k": DType.INT32, "a": DType.INT32, "v": DType.INT64, "p": DType.INT32}, {}
)
COUNT_SINK = AggregateSink(group_keys=[], aggregates=[AggSpec("count", None, "n")])
COUNT_SCHEMA = PlanSchema({"n": DType.INT64}, {})


def _source(n: int = N) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    return {
        "k": rng.integers(0, 40, n).astype(np.int32),
        "a": rng.integers(0, 100, n).astype(np.int32),
        "v": rng.integers(0, 1000, n).astype(np.int64),
    }


def _runtime(tiny_db) -> QueryRuntime:
    device = VirtualCoprocessor(GTX970)
    runtime = QueryRuntime(device, tiny_db)
    table = JoinHashTable.build(device, [BUILD_KEYS], name="ht")
    runtime.register_hash_table(
        "ht", HashTableEntry(table, {"p": (BUILD_KEYS * 10).astype(np.int32)})
    )
    return runtime


def _context(tiny_db, source=None, mode="atomic", runtime=None, **kwargs):
    source = _source() if source is None else source
    runtime = runtime or _runtime(tiny_db)
    return KernelContext(runtime, source, SCHEMA, mode=mode, **kwargs), source


def _domain(ctx) -> np.ndarray:
    """Source-row ids of the context's current domain."""
    selection = ctx.scope.selection
    return np.arange(ctx.n) if selection is None else selection


# ----------------------------------------------------------------------
# the scope
# ----------------------------------------------------------------------
class TestScope:
    def test_serves_source_columns_over_the_domain(self, tiny_db):
        ctx, source = _context(tiny_db)
        assert ctx.scope["a"] is source["a"]  # all rows: no copy
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 30, cost=1)
        alive = source["a"] < 30
        assert mask.all() and mask.size == alive.sum() == ctx.valid
        assert np.array_equal(_domain(ctx), np.flatnonzero(alive))
        for name in source:
            assert np.array_equal(ctx.scope[name], source[name][alive])

    def test_computed_columns_follow_the_domain(self, tiny_db):
        ctx, source = _context(tiny_db)
        ctx.scope["double"] = ctx.scope["a"] * 2
        ctx.apply_filter(ctx.full_mask(), ctx.scope["v"] < 500, cost=1)
        alive = source["v"] < 500
        assert np.array_equal(ctx.scope["double"], source["a"][alive] * 2)
        # The caller's dict never sees what the kernel computed.
        assert "double" not in source and "double" in ctx.scope
        assert sorted(ctx.scope) == ["a", "double", "k", "v"]

    def test_a_filter_that_drops_nothing_keeps_the_domain(self, tiny_db):
        ctx, source = _context(tiny_db)
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] >= 0, cost=1)
        assert ctx.scope.selection is None and mask.size == N
        assert ctx.scope["a"] is source["a"]

    def test_literal_map_is_left_alone(self, tiny_db):
        """``scope['one'] = 1`` is 0-d: nothing to compact, and every
        consumer broadcasts it over whatever the domain has become."""
        sink = AggregateSink(
            group_keys=[], aggregates=[AggSpec("sum", col("one"), "ones")]
        )
        ctx, source = _context(
            tiny_db, sink=sink, output_schema=PlanSchema({"ones": DType.INT64}, {})
        )
        ctx.scope["one"] = 1
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 30, cost=1)
        survivors = int((source["a"] < 30).sum())
        positions = ctx.positions(mask)
        ctx.store("one", ctx.scope["one"], mask, positions)
        assert ctx.outputs["one"].tolist() == [1] * survivors
        ctx.sink_aggregate(mask)
        assert ctx.outputs["ones"].tolist() == [survivors]

    def test_a_slice_of_views_is_its_own_source(self, tiny_db):
        """Vector / out-of-core / morsel launches hand the context
        views; the domain is relative to the slice."""
        whole = _source()
        views = {name: values[50:130] for name, values in whole.items()}
        ctx, _ = _context(tiny_db, source=views, rows=80)
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 30, cost=1)
        alive = whole["a"][50:130] < 30
        assert np.array_equal(_domain(ctx), np.flatnonzero(alive))
        assert np.array_equal(ctx.scope["v"], whole["v"][50:130][alive])
        ctx.finish_count(mask)
        assert np.array_equal(ctx.flags, alive)


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
class TestProbeStages:
    def _expected_meter(self, runtime, source, alive, payloads: int) -> TrafficMeter:
        """What filter -> probe -> ``payloads`` payload fetches charge
        when exactly the ``alive`` rows probe."""
        meter = TrafficMeter()
        meter.record_instructions(N * 1)  # the filter, over every row
        meter.record_instructions(int(alive.sum()) * 1)  # key_cost
        entry = runtime.hash_table("ht")
        rows = entry.table.probe(
            meter, [source["k"][alive]], runtime.device.profile.l2_capacity
        )
        hits = int((rows >= 0).sum())
        payload = entry.payload["p"]
        for _ in range(payloads):
            meter.record_read(
                MemoryLevel.GLOBAL,
                random_access_volume(
                    hits, 4, payload.nbytes, runtime.device.profile.l2_capacity
                ),
            )
            meter.record_instructions(hits)
        return meter

    @pytest.mark.parametrize("kind", ["inner", "semi", "anti", "left"])
    def test_each_kind_after_a_narrowing_filter(self, tiny_db, kind):
        ctx, source = _context(tiny_db)
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 60, cost=1)
        alive = source["a"] < 60
        rows = ctx.probe("ht", [ctx.scope["k"]], mask, key_cost=1)
        assert rows.size == alive.sum()  # a dead row takes no slot
        mask = ctx.apply_probe(mask, rows, kind)
        # The stage's payloads come after it narrowed, with the rows
        # array it issued before.
        default = -1 if kind == "left" else None
        ctx.scope["p"] = ctx.payload("ht", rows, "p", default=default)

        hit = source["k"] < 20
        expected = {
            "inner": alive & hit,
            "semi": alive & hit,
            "anti": alive & ~hit,
            "left": alive,
        }[kind]
        assert mask.all() and mask.size == expected.sum() == ctx.valid
        assert np.array_equal(_domain(ctx), np.flatnonzero(expected))
        assert np.array_equal(ctx.scope["v"], source["v"][expected])
        assert ctx.scope["p"].size == expected.sum()
        if kind != "anti":  # an anti join's payload is masked-off filler
            values = np.where(hit, source["k"] * 10, -1)[expected]
            assert np.array_equal(ctx.scope["p"], values)
        # Every kind charges the hits of the rows that probed — an anti
        # join too, although it keeps the misses.
        wanted = self._expected_meter(ctx.runtime, source, alive, payloads=1)
        assert ctx.meter.snapshot() == wanted.snapshot()

    def test_residual_sees_the_payload_over_the_narrowed_domain(self, tiny_db):
        ctx, source = _context(tiny_db)
        mask = ctx.full_mask()
        rows = ctx.probe("ht", [ctx.scope["k"]], mask)
        mask = ctx.apply_probe(mask, rows, "inner")
        ctx.scope["p"] = ctx.payload("ht", rows, "p")
        residual = ctx.scope["a"] > ctx.scope["p"]
        mask = ctx.apply_filter(mask, residual, cost=3)
        hit = source["k"] < 20
        expected = hit & (source["a"] > source["k"] * 10)
        assert np.array_equal(_domain(ctx), np.flatnonzero(expected))
        assert np.array_equal(ctx.scope["p"], (source["k"] * 10)[expected])
        assert mask.all() and mask.size == expected.sum()

    def test_left_join_narrows_nothing_and_fills_defaults(self, tiny_db):
        ctx, source = _context(tiny_db)
        mask = ctx.full_mask()
        rows = ctx.probe("ht", [ctx.scope["k"]], mask)
        assert ctx.apply_probe(mask, rows, "left") is mask
        assert ctx.scope.selection is None
        filled = ctx.payload("ht", rows, "p", default=-5)
        assert np.array_equal(
            filled, np.where(source["k"] < 20, source["k"] * 10, -5)
        )

    def test_a_mask_the_context_did_not_issue(self, tiny_db):
        """A hand-built caller may pass a mask with dead rows: they
        neither probe nor hit, exactly as on the device."""
        ctx, source = _context(tiny_db)
        foreign = source["a"] < 60
        rows = ctx.probe("ht", [ctx.scope["k"]], foreign, key_cost=1)
        assert rows.size == N and (rows[~foreign] == -1).all()
        mask = ctx.apply_probe(foreign, rows, "inner")
        expected = foreign & (source["k"] < 20)
        assert np.array_equal(_domain(ctx), np.flatnonzero(expected))
        assert np.array_equal(ctx.payload("ht", rows, "p"), (source["k"] * 10)[expected])
        assert mask.all()


# ----------------------------------------------------------------------
# nothing left, nothing there
# ----------------------------------------------------------------------
class TestEmptyDomains:
    def test_zero_survivors_mid_pipeline(self, tiny_db):
        ctx, source = _context(
            tiny_db, mode="multipass", sink=COUNT_SINK, output_schema=COUNT_SCHEMA
        )
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 0, cost=1)
        assert mask.size == 0 and ctx.valid == 0
        rows = ctx.probe("ht", [ctx.scope["k"]], mask, key_cost=1)
        mask = ctx.apply_probe(mask, rows, "inner")
        payload = ctx.payload("ht", rows, "p")
        assert rows.size == payload.size == mask.size == 0
        assert payload.dtype == np.int32 and ctx.scope["v"].dtype == np.int64
        ctx.finish_count(mask)
        assert ctx.flags.shape == (N,) and not ctx.flags.any()
        ctx.sink_aggregate(mask)
        assert ctx.outputs["n"].tolist() == [0]

    def test_zero_row_source(self, tiny_db):
        ctx, _ = _context(
            tiny_db, source=_source(0), sink=COUNT_SINK, output_schema=COUNT_SCHEMA
        )
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 50, cost=1)
        rows = ctx.probe("ht", [ctx.scope["k"]], mask)
        mask = ctx.apply_probe(mask, rows, "anti")
        positions = ctx.positions(mask)
        ctx.store("v", ctx.scope["v"], mask, positions)
        assert positions.total == 0 and ctx.outputs["v"].size == 0
        ctx.sink_aggregate(mask)
        assert ctx.outputs["n"].tolist() == [0]

    def test_count_star_over_an_empty_scope(self, tiny_db):
        """``select count(*)`` references no column: ``rows=`` says how
        many threads there are."""
        ctx, _ = _context(
            tiny_db, source={}, rows=7, sink=COUNT_SINK, output_schema=COUNT_SCHEMA
        )
        ctx.sink_aggregate(ctx.full_mask())
        assert ctx.outputs["n"].tolist() == [7]
        assert ctx.aggregations[0].inputs == 7


# ----------------------------------------------------------------------
# where source-row flags come back
# ----------------------------------------------------------------------
class TestThreadPositions:
    @pytest.mark.parametrize("mode", ["atomic", "lrgp_simd", "lrgp_we"])
    def test_store_after_narrowing_keeps_the_rng_order(self, tiny_db, mode):
        """Positions are per source row and ``runtime.rng`` is drawn with
        the source's sizes, so output order is what a source-length mask
        gave."""
        ctx, source = _context(tiny_db, mode=mode)
        mask = ctx.apply_filter(ctx.full_mask(), ctx.scope["a"] < 60, cost=1)
        rows = ctx.probe("ht", [ctx.scope["k"]], mask)
        mask = ctx.apply_probe(mask, rows, "inner")
        positions = ctx.positions(mask)
        ctx.store("v", ctx.scope["v"], mask, positions)

        flags = (source["a"] < 60) & (source["k"] < 20)
        rng = np.random.default_rng(42)  # QueryRuntime's default seed
        if mode == "atomic":
            wanted = atomic_positions(TrafficMeter(), flags, rng)
        else:
            mechanism = "work_efficient" if mode == "lrgp_we" else "simd"
            wanted = lrgp_positions(TrafficMeter(), flags, GTX970, rng, mechanism)
        assert np.array_equal(positions.positions, wanted.positions)
        dense = np.empty(wanted.total, dtype=np.int64)
        dense[wanted.positions[flags]] = source["v"][flags]
        assert np.array_equal(ctx.outputs["v"], dense)

    def test_count_scan_write_round_trip(self, tiny_db):
        """The write kernel starts on the flagged rows: its repeated
        lookup probes survivors only, and the aligned write lands them
        in input order."""
        runtime = _runtime(tiny_db)
        source = _source()

        def stages(ctx, mask):
            mask = ctx.apply_filter(mask, ctx.scope["a"] < 60, cost=1)
            rows = ctx.probe("ht", [ctx.scope["k"]], mask, key_cost=1)
            mask = ctx.apply_probe(mask, rows, "inner")
            ctx.scope["p"] = ctx.payload("ht", rows, "p")
            return mask, rows

        count_ctx, _ = _context(tiny_db, source, "multipass", runtime)
        mask, _ = stages(count_ctx, count_ctx.full_mask())
        count_ctx.finish_count(mask)
        flags = (source["a"] < 60) & (source["k"] < 20)
        assert np.array_equal(count_ctx.flags, flags)

        scan = device_scan(runtime.device, count_ctx.flags)
        write_ctx, _ = _context(
            tiny_db, source, "multipass", runtime, base_count=scan.total
        )
        write_ctx.install_flags(count_ctx.flags)
        write_ctx.set_positions(scan)
        mask = write_ctx.initial_mask()
        assert mask.size == scan.total == flags.sum()
        assert np.array_equal(_domain(write_ctx), np.flatnonzero(flags))
        mask, rows = stages(write_ctx, mask)
        assert rows.size == scan.total and (rows >= 0).all()
        positions = write_ctx.installed_positions()
        for name in ("v", "p"):
            write_ctx.store(name, write_ctx.scope[name], mask, positions)
        assert np.array_equal(write_ctx.outputs["v"], source["v"][flags])
        assert np.array_equal(write_ctx.outputs["p"], (source["k"] * 10)[flags])


# ----------------------------------------------------------------------
# wire-resident columns after the domain narrowed
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.004, seed=7)


@pytest.mark.parametrize("engine", ["resolution", "multipass"])
def test_lazy_columns_after_narrowing(ssb, engine):
    """filter -> anti join -> filter -> project over forpack wire
    images: the first predicate's blocks are all mixed, so it unpacks
    in registers; the second scans the sorted order key compressed
    (block-skip) after two stages narrowed the domain — its flags are
    per column row and must be taken through the selection; and the
    probe key and the projected columns decode the survivors only.
    All are found by table and column name, whatever gathered copy or
    slice of the array the domain serves."""
    plan = (
        PlanBuilder.scan("lineorder")
        .filter(col("lo_discount") < 9)
        .join(
            PlanBuilder.scan("date").filter(col("d_year") == 1993),
            ["d_datekey"],
            ["lo_orderdate"],
            kind="anti",
        )
        .filter(col("lo_orderkey") < 3000)
        .project(["lo_orderkey", ("net", col("lo_revenue") - col("lo_supplycost"))])
        .build()
    )
    off = repro.connect(ssb, engine=engine, compression="off").execute(plan)
    lazy = repro.connect(ssb, engine=engine, compression="forpack").execute(plan)
    assert table_checksum(lazy.table) == table_checksum(off.table)
    assert lazy.table.num_rows > 0
    fused = set(lazy.kernel_sources)
    assert {
        "gather.lineorder.lo_discount",  # every block mixed: unpack
        "gather.lineorder.lo_orderdate",  # the probe key, after one narrowing
        "compressed_scan.lineorder.lo_orderkey",  # after two narrowings
        "gather.lineorder.lo_revenue",  # the projection, after three
        "gather.lineorder.lo_supplycost",
        "gather.lineorder.lo_orderkey",
    } <= fused
    assert "compressed_scan.lineorder.lo_discount" not in fused
    stats = lazy.compression
    assert 0 < stats.scan_blocks_skipped < stats.scan_blocks
    # Survivors only: fewer values decoded than the columns hold.
    assert 0 < stats.partial_decode_bytes < stats.raw_bytes
    assert lazy.global_memory_bytes < off.global_memory_bytes


# ----------------------------------------------------------------------
# host work follows the survivors
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "query, engine, bytes_per_row",
    [
        # q1.1 filters first (~7% survive): kernels that kept
        # source-length columns under a mask peaked at 32.7 (multipass)
        # and 15.7 (resolution) traced bytes per fact row; carrying the
        # survivors peaks at 6.9 — the predicate's own temporaries.
        ("q1.1", "multipass", 10),
        ("q1.1", "resolution", 10),
        # q2.1 probes first with every row alive, so its peak sits
        # inside that one JoinHashTable.probe either way (resolution:
        # 36.4 -> 34.5, pinned nowhere); under multipass the eager
        # int64 position arrays of the scan were the peak: 74.1 -> 46.9.
        ("q2.1", "multipass", 60),
    ],
)
def test_host_memory_follows_the_survivors(query, engine, bytes_per_row):
    database = generate_ssb(0.01, seed=12)
    session = repro.connect(database, engine=engine)
    plan = ssb_plan(query, database)
    session.execute(plan)  # compile, lay out the build sides
    rows = database.table("lineorder").num_rows
    tracemalloc.start()
    try:
        session.execute(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_row * rows, (peak, rows)
