"""Build sides as buffer-pool residents: differential and robustness.

A completed build pipeline leaves its hash table (slot array + payload
columns) in the device's :class:`~repro.placement.BufferPool`; the next
query whose plan holds a build of the same *structure* is served that
table and does not run the pipeline.  What must hold:

* results are byte-identical to the stateless run — every engine,
  residency on and off, compression off and auto, cold / warm / third
  pass, and on a session whose engines take turns on one pool;
* a catalog mutation never serves a stale table; eviction under
  pressure keeps results right; a pinned table is never evicted;
* a build that fails on the way pools nothing and leaks nothing (the
  conftest ``buffer_leak_guard`` runs around every execution here);
* the fleet stays byte-identical under the pinned chaos seeds, and a
  lost device's pool forgets its tables;
* ``device.pooled_bytes == pool.resident_bytes``, tables included, at
  every query boundary.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.engines import make_engine
from repro.errors import DeviceMemoryError, PlacementError
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.placement import BufferPool, base_column_bytes
from repro.plan.physical import BuildSink
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.storage import Column, Table
from repro.telemetry.recorder import table_checksum
from repro.workloads import (
    SSB_QUERIES,
    TPCH_PLANS,
    generate_ssb,
    ssb_plan,
    tpch_plan,
)

ENGINES = ("resolution", "pipelined", "multipass", "vector", "operator-at-a-time", "cpu")
QUERY = (
    "select sum(lo_revenue) as r, d_year from lineorder, date "
    "where lo_orderdate = d_datekey group by d_year order by d_year"
)
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)


def _session(database, engine, **options):
    if engine == "cpu":
        options["device"] = repro.XEON_E5
    return repro.connect(database, engine=engine, **options)


def _reconciles(device) -> None:
    """Pool accounting at a query boundary, tables included."""
    assert device.pooled_bytes == device.placement_pool.resident_bytes
    assert device.allocated_bytes == device.pooled_bytes


@pytest.fixture(scope="module")
def plans(ssb_db, tpch_db):
    """name -> (database, plan): the 13 SSB and the TPC-H plans."""
    out = {f"ssb:{name}": (ssb_db, ssb_plan(name, ssb_db)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch_db, tpch_plan(name, tpch_db))
    return out


@pytest.fixture(scope="module")
def references(plans):
    """Ordered result checksum per (engine, plan): stateless, raw."""
    out = {}
    for engine in ENGINES:
        sessions = {}
        for name, (database, plan) in plans.items():
            session = sessions.setdefault(id(database), _session(database, engine))
            out[engine, name] = table_checksum(session.execute(plan).table)
    return out


# ----------------------------------------------------------------------
# differential: byte identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compression", ("off", "auto"))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_pass_is_byte_identical_to_stateless(plans, references, engine, compression):
    pooled, stateless = {}, {}
    for name, (database, plan) in plans.items():
        if id(database) not in pooled:
            pooled[id(database)] = _session(
                database, engine, residency=True, compression=compression
            )
            stateless[id(database)] = _session(database, engine, compression=compression)
        session = pooled[id(database)]
        reference = references[engine, name]
        assert table_checksum(stateless[id(database)].execute(plan).table) == reference
        builds = sum(
            isinstance(pipeline.sink, BuildSink)
            for pipeline in session.physical(plan).pipelines
        )
        for attempt in ("cold", "warm", "third"):
            result = session.execute(plan)
            assert table_checksum(result.table) == reference, (name, attempt)
            placement = result.placement
            assert placement.table_hits + placement.table_misses <= builds
            if attempt != "cold":
                # Whatever can be pooled was, by the pass before.
                assert placement.table_misses == 0, (name, attempt)
            _reconciles(session.device)
    stats = [session.placement_stats() for session in pooled.values()]
    assert sum(s.table_hits for s in stats) > 0
    assert sum(s.evictions for s in stats) == 0


@pytest.mark.parametrize("compression", ("off", "auto"))
def test_engines_taking_turns_share_one_pool(plans, references, compression):
    """One pooled session, a different engine every execution: a table
    one engine built is probed by the others, byte for byte."""
    gpu = ENGINES[:-1]
    sessions = {}
    for round_index in range(len(gpu)):
        for plan_index, (name, (database, plan)) in enumerate(plans.items()):
            session = sessions.setdefault(
                id(database),
                repro.connect(database, residency=True, compression=compression),
            )
            engine = gpu[(plan_index + round_index) % len(gpu)]
            result = session.execute(plan, engine=engine)
            assert table_checksum(result.table) == references[engine, name], (name, engine)
            if round_index:
                assert result.placement.table_misses == 0
            _reconciles(session.device)


def test_two_plans_share_one_table(ssb_db):
    """The key is structural: q2.1 and q4.1 build the same ``date``
    table, q3.1-q3.3 too, under plan-local names."""
    session = repro.connect(ssb_db, residency=True)
    first = session.execute(SSB_QUERIES["q2.1"])
    assert (first.placement.table_hits, first.placement.table_misses) == (0, 3)
    second = session.execute(SSB_QUERIES["q4.1"])
    assert second.placement.table_hits >= 1
    assert second.placement.table_hits + second.placement.table_misses == 4
    tables = session.placement_stats().resident_tables
    assert tables == 3 + second.placement.table_misses
    for name in ("q3.1", "q3.2", "q3.3"):
        session.execute(SSB_QUERIES[name])
    stats = session.placement_stats()
    # 16 builds so far, fewer tables: date is built once for all five.
    assert stats.table_hits + stats.table_misses == 16
    assert stats.resident_tables == stats.table_misses < 16


def test_a_build_over_a_virtual_table_is_not_pooled(tpch_db):
    """Nothing names a per-query intermediate across queries: a build
    whose source (or a table it probes) is virtual runs every time."""
    session = repro.connect(tpch_db, residency=True)
    reference = repro.connect(tpch_db)
    seen = False
    for name in TPCH_PLANS:
        plan = tpch_plan(name, tpch_db)
        pipelines = session.physical(plan).pipelines
        builds = [p for p in pipelines if isinstance(p.sink, BuildSink)]
        virtual = [p for p in builds if p.source_is_virtual]
        if not virtual:
            continue
        seen = True
        expected = table_checksum(reference.execute(plan).table)
        for _ in range(2):
            result = session.execute(plan)
            assert table_checksum(result.table) == expected
            counted = result.placement.table_hits + result.placement.table_misses
            assert counted <= len(builds) - len(virtual)
    assert seen


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------
def test_replacing_a_dimension_never_serves_the_stale_table():
    database = generate_ssb(0.001, seed=3)
    session = repro.connect(database, residency=True)
    session.execute(QUERY)
    warm = session.execute(QUERY)
    assert warm.placement.table_hits == 1
    before = session.placement_stats()

    date = database.table("date")
    shifted = Table(
        {
            name: Column(
                column.dtype,
                column.values + 1 if name == "d_year" else column.values,
                column.dictionary,
            )
            for name, column in date.columns.items()
        }
    )
    database.replace("date", shifted)
    after = session.execute(QUERY)
    assert (after.placement.table_hits, after.placement.table_misses) == (0, 1)
    assert after.table.sorted_rows() == repro.connect(database).execute(QUERY).table.sorted_rows()
    assert after.table.sorted_rows() != warm.table.sorted_rows()
    stats = session.placement_stats()
    # The stale table and every stale column the query touched.
    assert stats.invalidations > before.invalidations
    assert stats.resident_tables == 1
    assert session.execute(QUERY).placement.table_hits == 1
    _reconciles(session.device)


# ----------------------------------------------------------------------
# eviction and pins
# ----------------------------------------------------------------------
def test_a_small_device_evicts_tables_and_columns_and_matches_cpu(ssb_db):
    plans = {
        name: repro.connect(ssb_db).physical(SSB_QUERIES[name]) for name in SSB_QUERIES
    }
    largest = max(base_column_bytes(plan, ssb_db) for plan in plans.values())
    device = VirtualCoprocessor(
        GTX970.with_overrides(name="GTX970-small", memory_capacity=int(largest * 1.25)),
        interconnect=PCIE3,
    )
    session = repro.connect(ssb_db, device=device, residency=True)
    cpu = repro.connect(ssb_db, device=repro.XEON_E5, engine="cpu")
    evicted = []
    for _ in range(2):
        for name in sorted(SSB_QUERIES):
            result = session.execute(SSB_QUERIES[name])
            expected = cpu.execute(SSB_QUERIES[name])
            assert result.table.sorted_rows() == expected.table.sorted_rows()
            assert not result.placement.out_of_core
            _reconciles(device)
            evicted += [
                event.attrs["entry"]
                for event in result.events()
                if event.kind == "placement.evicted"
            ]
    assert evicted.count("table") > 0 and evicted.count("column") > 0
    stats = session.placement_stats()
    assert stats.evictions == len(evicted)
    assert stats.table_hits > 0  # pressure, not amnesia


def _transient_table(device, rows: int):
    """Buffers as a build leaves them: a slot array and one payload."""
    return [
        device.allocate(np.zeros(rows, dtype=np.int64), label="ht.slots"),
        device.allocate(np.zeros(rows, dtype=np.int32), label="ht.payload"),
    ]


def test_a_pinned_table_is_never_evicted():
    device = VirtualCoprocessor(
        GTX970.with_overrides(name="tiny", memory_capacity=4096), interconnect=PCIE3
    )
    pool = BufferPool(device)
    fingerprint = (7, 1)
    buffers = _transient_table(device, 256)  # 3 KB of 4
    entry = pool.keep_table((7, "date", "sig"), fingerprint, object(), buffers, 0.5)
    assert entry.pinned and entry.kind == "table"
    assert device.pooled_bytes == pool.resident_bytes == 3072
    with pytest.raises(PlacementError):
        pool._evict(entry)
    with pytest.raises(DeviceMemoryError):
        device.allocate(np.zeros(2048, dtype=np.uint8))
    assert pool.stats().evictions == 0 and not any(b.freed for b in buffers)
    # Unpinned, it is the candidate — both buffers go together.
    pool.release([entry])
    device.allocate(np.zeros(2048, dtype=np.uint8))
    assert all(b.freed for b in buffers)
    stats = pool.stats()
    assert (stats.evictions, stats.resident_tables, stats.resident_bytes) == (1, 0, 0)
    assert pool.acquire_table((7, "date", "sig"), fingerprint) is None


def test_restore_cost_orders_tables_and_columns_in_one_loop():
    """A table that took 1 us to build goes before a column that takes
    longer to re-transfer, and the other way round."""
    device = VirtualCoprocessor(
        GTX970.with_overrides(name="tiny", memory_capacity=8192), interconnect=PCIE3
    )
    pool = BufferPool(device)
    fingerprint = (7, 1)
    column = Column.int32(np.arange(512))
    pool.release([pool.acquire("t", "a", column, fingerprint)[0]])
    cheap = pool.keep_table(
        (7, "t", "cheap"), fingerprint, object(), _transient_table(device, 128), 0.001
    )
    dear = pool.keep_table(
        (7, "t", "dear"), fingerprint, object(), _transient_table(device, 128), 50.0
    )
    pool.release([cheap, dear])
    device.allocate(np.zeros(8192 - device.allocated_bytes + 1, dtype=np.uint8))
    assert (7, "t", "cheap") not in pool
    assert (7, "t", "a") in pool and (7, "t", "dear") in pool
    # ... table, column, table: the column goes next, the dear table last.
    pool.evict(1)
    assert (7, "t", "a") not in pool and (7, "t", "dear") in pool


# ----------------------------------------------------------------------
# a build that fails on the way
# ----------------------------------------------------------------------
def test_a_build_that_raises_mid_pipeline_pools_nothing(ssb_db, monkeypatch):
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    pool = BufferPool(device)
    engine = make_engine("resolution")
    # The builds run one by one (a fused group is the next test's).
    plan = replace(repro.connect(ssb_db).physical(SSB_QUERIES["q2.1"]), groups=())
    allocate = device.allocate
    armed = [True]

    def failing(array, label="", **kwargs):
        # The second build's payload column: its slot array is already
        # allocated, the first build completed (and is pooled).
        if armed[0] and label == "ht2.p_brand1":
            armed[0] = False
            raise DeviceMemoryError(array.nbytes, 0, device.profile.memory_capacity)
        return allocate(array, label=label, **kwargs)

    monkeypatch.setattr(device, "allocate", failing)
    with pytest.raises(DeviceMemoryError):
        engine.execute(plan, ssb_db, device)
    stats = pool.stats()
    assert (stats.resident_tables, stats.table_misses) == (1, 2)
    _reconciles(device)
    assert all(entry.pins == 0 for entry in pool._entries.values())
    # The retry is served the completed build, and builds the rest.
    result = engine.execute(plan, ssb_db, device)
    assert (result.placement.table_hits, result.placement.table_misses) == (1, 2)
    assert pool.stats().resident_tables == 3
    reference = make_engine("resolution").execute(
        plan, ssb_db, VirtualCoprocessor(GTX970, interconnect=PCIE3)
    )
    assert table_checksum(result.table) == table_checksum(reference.table)
    _reconciles(device)


def test_a_fused_group_that_raises_pools_none_of_its_builds(ssb_db, monkeypatch):
    """Sibling builds that run fused complete together, at their fused
    launch: a member failing mid-pipeline leaves the pool as it was —
    no member's table, no pin — and the retry builds all three."""
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    pool = BufferPool(device)
    engine = make_engine("resolution")
    plan = repro.connect(ssb_db).physical(SSB_QUERIES["q2.1"])
    assert plan.groups[0] == 3
    allocate = device.allocate
    armed = [True]

    def failing(array, label="", **kwargs):
        if armed[0] and label == "ht2.p_brand1":
            armed[0] = False
            raise DeviceMemoryError(array.nbytes, 0, device.profile.memory_capacity)
        return allocate(array, label=label, **kwargs)

    monkeypatch.setattr(device, "allocate", failing)
    with pytest.raises(DeviceMemoryError):
        engine.execute(plan, ssb_db, device)
    stats = pool.stats()
    assert (stats.resident_tables, stats.table_misses) == (0, 3)
    _reconciles(device)
    assert all(entry.pins == 0 for entry in pool._entries.values())
    result = engine.execute(plan, ssb_db, device)
    assert (result.placement.table_hits, result.placement.table_misses) == (0, 3)
    assert pool.stats().resident_tables == 3
    assert len(result.profile.kernels) == 2
    warm = engine.execute(plan, ssb_db, device)
    assert (warm.placement.table_hits, len(warm.profile.kernels)) == (3, 1)
    assert table_checksum(warm.table) == table_checksum(result.table)
    _reconciles(device)


def test_a_failed_build_phase_pools_nothing_on_that_device(ssb_db):
    """Fault plan ``build`` hook: device 1 runs out of memory entering
    its build phase, every query.  Its pool never holds a table; the
    others are served theirs from their second turn on."""
    plan = FaultPlan(specs=(FaultSpec(kind="oom", device=1, op="build"),))
    session = repro.connect(ssb_db, devices=4, residency=True, fault_plan=plan)
    expected = repro.connect(ssb_db).execute(SSB_QUERIES["q2.1"]).table
    for attempt in range(3):
        result = session.execute(SSB_QUERIES["q2.1"])
        assert table_checksum(result.table) == table_checksum(expected)
        tables = [pool.stats().resident_tables for pool in session.scaleout.fleet.pools]
        assert tables == [3, 0, 3, 3]
        # Device 1's two pieces go to two survivors in a second wave;
        # their second turn is served the tables of their first.
        placement = result.placement
        assert (placement.table_hits, placement.table_misses) == (
            (15, 0) if attempt else (6, 9)
        )
        for device in session.scaleout.fleet.devices:
            _reconciles(device)


# ----------------------------------------------------------------------
# the fleet under chaos
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_seeds_stay_byte_identical_with_resident_tables(ssb_db, seed):
    devices = 4
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    session = repro.connect(ssb_db, devices=devices, residency=True, fault_plan=plan)
    calm = repro.connect(ssb_db, devices=devices)
    for name in ("q2.1", "q3.1", "q4.1"):
        expected = table_checksum(calm.execute(SSB_QUERIES[name]).table)
        for _ in range(3):
            result = session.execute(SSB_QUERIES[name])
            assert table_checksum(result.table) == expected, (seed, name)
            for device in session.scaleout.fleet.devices:
                _reconciles(device)


def test_a_lost_device_forgets_its_tables(ssb_db):
    loss = FaultPlan(specs=(FaultSpec(kind="device-loss", device=1, op="morsel"),))
    session = repro.connect(ssb_db, devices=4, residency=True, fault_plan=loss)
    expected = table_checksum(
        repro.connect(ssb_db, devices=4).execute(SSB_QUERIES["q2.1"]).table
    )
    for attempt in range(2):
        result = session.execute(SSB_QUERIES["q2.1"])
        assert table_checksum(result.table) == expected
        assert result.scaleout.recovery.degraded_devices == [1]
        pools = session.scaleout.fleet.pools
        # Device 1 built its tables, then died: they went with it (its
        # columns, copies of host data, stay).  The survivors keep theirs.
        assert [pool.stats().resident_tables for pool in pools] == [3, 0, 3, 3]
        assert pools[1].stats().resident_columns > 0
        lost = pools[1].stats()
        assert (lost.table_hits, lost.table_misses) == (0, 3 * (attempt + 1))
        for device in session.scaleout.fleet.devices:
            _reconciles(device)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_server_exports_resident_tables_and_table_hits(ssb_db):
    from repro.serving import Server
    from repro.telemetry.metrics import parse_prometheus_text

    with Server(ssb_db, workers=1) as server:
        for _ in range(2):
            result = server.execute(SSB_QUERIES["q2.1"])
        stats = server.stats().placement
        parsed = parse_prometheus_text(server.metrics_text())
    assert (result.placement.table_hits, result.placement.table_misses) == (3, 0)
    assert (stats.resident_tables, stats.table_hits, stats.table_misses) == (3, 3, 3)
    # Column ``hits`` / ``hit_rate`` keep meaning column loads.
    assert stats.hits == result.placement.hits == 4
    assert "3 tables" in stats.summary() and "table hits 3/6" in stats.summary()
    assert parsed["repro_placement_resident_tables"] == [({}, 3.0)]
    assert parsed["repro_placement_table_hits_total"] == [({}, 3.0)]
