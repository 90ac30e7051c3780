"""The scale-out executor subsystem: partitioning, scheduling, fleet,
PCIe accounting, fallback, and the Session/Server/CLI/telemetry
surfaces."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session, connect
from repro.cli import main
from repro.engines import make_engine
from repro.errors import ConfigurationError
from repro.scaleout import (
    DeviceFleet,
    ScaleOutExecutor,
    assign_pieces,
    build_partitions,
    imbalance,
    validate_devices,
    validate_partitioning,
)
from repro.scaleout.partition import partition_name, partition_selectors
from repro.serving import Server
from repro.telemetry.metrics import (
    MetricsRegistry,
    observe_result,
    parse_prometheus_text,
)
from repro.telemetry.trace import tracing
from repro.workloads import SSB_QUERIES, generate_ssb, ssb_plan, tpch_plan


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_devices_below_one(self, bad):
        with pytest.raises(ConfigurationError, match="valid values: 1, 2, 3"):
            validate_devices(bad)

    @pytest.mark.parametrize("bad", [2.5, "4", None, True])
    def test_devices_non_integer(self, bad):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            validate_devices(bad)

    def test_devices_accepts_positive_ints(self):
        assert validate_devices(1) == 1
        assert validate_devices(64) == 64

    def test_partitioning_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="hash, range"):
            validate_partitioning("round-robin")

    def test_session_validates_devices(self, ssb_db):
        with pytest.raises(ConfigurationError):
            connect(ssb_db, devices=0)

    def test_server_validates_devices(self, ssb_db):
        with pytest.raises(ConfigurationError):
            Server(ssb_db, devices=-2)

    def test_executor_validates_scheme(self):
        with pytest.raises(ConfigurationError):
            ScaleOutExecutor(2, partitioning="zigzag")


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_every_piece_assigned_exactly_once(self):
        loads = assign_pieces([5, 3, 8, 1, 9, 2], 3)
        assigned = sorted(piece for load in loads for piece in load.pieces)
        assert assigned == list(range(6))

    def test_deterministic(self):
        costs = [7, 7, 3, 3, 11, 2, 9, 5]
        first = assign_pieces(costs, 4)
        second = assign_pieces(costs, 4)
        assert [load.pieces for load in first] == [
            load.pieces for load in second
        ]

    def test_lpt_balances_skewed_pieces(self):
        # One huge piece plus many small ones: LPT puts the small
        # pieces on the other devices instead of stacking them behind
        # the straggler.
        costs = [100] + [10] * 10
        loads = assign_pieces(costs, 2)
        estimates = [load.estimated_bytes for load in loads]
        assert imbalance(estimates) < 1.2

    def test_fewer_pieces_than_devices(self):
        loads = assign_pieces([4], 3)
        assert sum(len(load.pieces) for load in loads) == 1

    def test_imbalance_of_even_loads_is_one(self):
        assert imbalance([3.0, 3.0, 3.0]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_range_selectors_cover_all_rows_in_order(self, ssb_db):
        fact = ssb_db.table("lineorder")
        selectors = partition_selectors(fact, 4, "range")
        covered = []
        for selector in selectors:
            covered.extend(range(*selector.indices(fact.num_rows)))
        assert covered == list(range(fact.num_rows))

    def test_hash_selectors_are_disjoint_and_complete(self, ssb_db):
        fact = ssb_db.table("lineorder")
        selectors = partition_selectors(fact, 3, "hash", "lo_orderkey")
        combined = np.concatenate(selectors)
        assert len(combined) == fact.num_rows
        assert len(np.unique(combined)) == fact.num_rows

    def test_pieces_registered_in_derived_catalog(self, ssb_db):
        partition_set = build_partitions(ssb_db, "lineorder", 4, "range")
        derived = partition_set.database
        assert set(ssb_db.table_names) <= set(derived.table_names)
        total = 0
        for piece in partition_set.pieces:
            assert piece.table_name == partition_name("lineorder", piece.index)
            total += derived.table(piece.table_name).num_rows
        assert total == ssb_db.table("lineorder").num_rows

    def test_refresh_is_noop_until_parent_mutates(self, ssb_db):
        partition_set = build_partitions(ssb_db, "lineorder", 2, "range")
        version_before = partition_set.database.fingerprint()
        partition_set.refresh(ssb_db)
        assert partition_set.database.fingerprint() == version_before

    def test_refresh_tracks_parent_mutation(self):
        from repro.storage import Column, Database, Table

        parent = Database(
            {"t": Table({"k": Column.int64(np.arange(10, dtype=np.int64))})}
        )
        partition_set = build_partitions(parent, "t", 2, "range")
        assert partition_set.pieces[0].rows == 5
        parent.replace(
            "t", Table({"k": Column.int64(np.arange(20, dtype=np.int64))})
        )
        partition_set.refresh(parent)
        assert partition_set.pieces[0].rows == 10
        assert sum(piece.rows for piece in partition_set.pieces) == 20


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class TestFleet:
    def test_devices_are_private(self):
        from repro.hardware import GTX970

        fleet = DeviceFleet(GTX970, 3)
        assert len(fleet.devices) == 3
        assert len({id(device.log) for device in fleet.devices}) == 3

    def test_residency_attaches_one_pool_per_device(self):
        from repro.hardware import GTX970

        fleet = DeviceFleet(GTX970, 2, residency=True)
        assert all(pool is not None for pool in fleet.pools)
        stats = fleet.placement_stats()
        assert stats is not None and stats.pools == 2

    def test_residency_warm_repeat_hits(self, ssb_db):
        executor = ScaleOutExecutor(2, residency=True)
        engine = make_engine("resolution")
        plan = ssb_plan("q1.1", ssb_db)
        executor.execute(engine, plan, ssb_db)
        cold = executor.placement_stats()
        executor.execute(engine, plan, ssb_db)
        warm = executor.placement_stats()
        assert warm.hits > cold.hits
        assert warm.misses == cold.misses  # nothing new transferred


# ----------------------------------------------------------------------
# executor invariants
# ----------------------------------------------------------------------
class TestExecutorAccounting:
    @pytest.fixture(scope="class")
    def runs(self, ssb_db):
        plan = ssb_plan("q2.1", ssb_db)
        single = Session(ssb_db, engine="resolution").execute(plan)
        executor = ScaleOutExecutor(4, partitioning="range")
        result = executor.execute(make_engine("resolution"), plan, ssb_db)
        return single, result

    def test_partition_bytes_sum_to_single_device_fact_bytes(self, runs):
        single, result = runs
        stats = result.scaleout
        accounted = stats.input_bytes - stats.broadcast_overhead_bytes
        assert accounted == single.input_bytes

    def test_partition_broadcast_split_is_consistent(self, runs):
        _single, result = runs
        stats = result.scaleout
        for share in result.scaleout.shares:
            assert share.input_bytes == (
                share.partition_bytes + share.broadcast_bytes
            )
        assert stats.broadcast_overhead_bytes > 0  # dims duplicated 4x

    def test_makespan_is_max_and_serial_is_sum(self, runs):
        _single, result = runs
        stats = result.scaleout
        busy = [share.busy_ms for share in stats.shares]
        assert stats.makespan_ms == pytest.approx(max(busy))
        assert stats.serial_ms == pytest.approx(sum(busy))
        assert result.total_ms == pytest.approx(stats.serial_ms)

    def test_four_devices_clear_the_strong_scaling_bar(self):
        """[sim] Once the fact table dominates the broadcast (SF 0.05),
        four range-partitioned devices finish q1.1 at least 1.5x sooner
        than one: modeled makespan against single-device total."""
        database = generate_ssb(0.05, seed=7)
        plan = ssb_plan("q1.1", database)
        single = connect(database, engine="resolution").execute(plan)
        result = ScaleOutExecutor(4, partitioning="range").execute(
            make_engine("resolution"), plan, database
        )
        assert result.table.sorted_rows() == single.table.sorted_rows()
        assert single.total_ms / result.scaleout.makespan_ms >= 1.5

    def test_per_device_morsels_cover_all_partitions(self, runs):
        _single, result = runs
        stats = result.scaleout
        assert sum(share.morsels for share in stats.shares) == stats.partitions

    def test_summary_mentions_scheme_and_devices(self, runs):
        _single, result = runs
        text = result.scaleout.summary()
        assert "4 devices" in text and "range" in text

    def test_fallback_on_virtual_final_pipeline(self, tpch_db):
        # q15/q17 aggregate over an intermediate: no base fact scan to
        # partition, so the executor runs single-device and says so.
        plan = tpch_plan("q15", tpch_db)
        single = Session(tpch_db, engine="resolution").execute(plan)
        executor = ScaleOutExecutor(4)
        result = executor.execute(make_engine("resolution"), plan, tpch_db)
        assert result.scaleout.fallback
        assert len(result.scaleout.shares) == 1  # ran on device 0 only
        assert result.table.sorted_rows() == single.table.sorted_rows()

    def test_order_by_limit_preserved(self, ssb_db):
        sql = (
            "select lo_orderkey, lo_revenue from lineorder "
            "where lo_discount >= 5 order by lo_revenue desc limit 7"
        )
        expected = Session(ssb_db).execute(sql).table.to_rows()
        got = Session(ssb_db, devices=3).execute(sql).table.to_rows()
        assert got == expected


# ----------------------------------------------------------------------
# surfaces: session, server, CLI, tracing, metrics
# ----------------------------------------------------------------------
class TestSurfaces:
    def test_session_smoke(self, ssb_db):
        session = connect(ssb_db, devices=2)
        result = session.execute(SSB_QUERIES["q1.1"])
        assert result.scaleout is not None
        assert result.scaleout.devices == 2
        assert "scaleout[2x" in result.engine

    def test_server_smoke(self, ssb_db):
        with Server(ssb_db, workers=2, devices=2, queue_size=8) as server:
            results = server.execute_many(
                [SSB_QUERIES["q1.1"], SSB_QUERIES["q2.1"]]
            )
            text = server.metrics_text()
        assert all(result.scaleout is not None for result in results)
        parsed = parse_prometheus_text(text)
        assert "repro_scaleout_devices" in parsed

    def test_cli_query_devices(self, capsys):
        code = main(
            [
                "query",
                "select sum(lo_revenue) as r from lineorder",
                "--scale-factor", "0.002",
                "--devices", "2",
            ]
        )
        assert code == 0
        assert "scaleout:" in capsys.readouterr().out

    def test_cli_rejects_bad_devices(self, capsys):
        code = main(
            [
                "query", "select 1",
                "--scale-factor", "0.002",
                "--devices", "0",
            ]
        )
        assert code == 2
        assert "valid values" in capsys.readouterr().err

    def test_chrome_trace_gets_device_lanes(self, ssb_db):
        session = connect(ssb_db, devices=2)
        with tracing():
            result = session.execute(SSB_QUERIES["q2.1"])
        trace = json.loads(result.trace.chrome_json())
        thread_names = [
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["name"] == "thread_name"
        ]
        assert "device[0] (simulated)" in thread_names
        assert "device[1] (simulated)" in thread_names
        device_roots = result.trace.spans("device")
        assert len(device_roots) == 2
        assert {span.attrs["device_lane"] for span in device_roots} == {0, 1}

    def test_single_device_trace_keeps_default_lanes(self, ssb_db):
        session = connect(ssb_db)
        with tracing():
            result = session.execute(SSB_QUERIES["q1.1"])
        trace = json.loads(result.trace.chrome_json())
        tids = {
            event["tid"]
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        assert tids <= {1, 2}

    def test_observe_metrics_exports_per_device_counters(self, ssb_db):
        result = ScaleOutExecutor(3).execute(
            make_engine("resolution"), ssb_plan("q1.1", ssb_db), ssb_db
        )
        registry = MetricsRegistry()
        observe_result(registry, result)
        parsed = parse_prometheus_text(registry.render())
        devices = parsed["repro_scaleout_devices"][0][1]
        assert devices == 3
        busy = parsed["repro_scaleout_device_busy_ms_total"]
        assert len(busy) == 3
        assert all(value > 0 for _labels, value in busy)

    def test_results_deterministic_across_runs(self, ssb_db):
        plan = ssb_plan("q3.2", ssb_db)
        executor = ScaleOutExecutor(3, partitioning="hash")
        engine = make_engine("resolution")
        first = executor.execute(engine, plan, ssb_db)
        second = executor.execute(engine, plan, ssb_db)
        assert first.table.to_rows() == second.table.to_rows()
        assert first.scaleout.makespan_ms == pytest.approx(
            second.scaleout.makespan_ms
        )
