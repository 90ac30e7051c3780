"""Tests for macro execution models (run-to-finish, kernel-at-a-time
derivation, batch streaming) including capacity failure injection."""

import numpy as np
import pytest

from repro.api import connect
from repro.engines import CompoundEngine, OperatorAtATimeEngine
from repro.errors import DeviceMemoryError, PlanError
from repro.expressions import col
from repro.hardware import GTX970, MemoryLevel, VirtualCoprocessor
from repro.macro import (
    BatchExecutor,
    batch_processing_movement,
    kernel_at_a_time_movement,
    run_to_finish,
)
from repro.macro.batch import execute_out_of_core
from repro.plan import PlanBuilder
from repro.plan.pipelines import extract_pipelines
from repro.telemetry import render_explain_analyze
from repro.storage.table import rows_approx_equal
from repro.workloads import star_join_aggregate_query, star_join_query, ssb_plan


class TestRunToFinish:
    def test_executes_normally(self, ssb_db, device):
        result = run_to_finish(
            CompoundEngine(), ssb_plan("q1.1", ssb_db), ssb_db, device
        )
        assert result.table.num_rows == 1

    def test_fails_when_data_exceeds_device_memory(self, ssb_db):
        """Section 2.1: run-to-finish 'only works if all input, output,
        and intermediate data is small enough to fit in GPU memory'."""
        tiny = GTX970.with_overrides(memory_capacity=100_000)
        device = VirtualCoprocessor(tiny)
        with pytest.raises(DeviceMemoryError):
            run_to_finish(CompoundEngine(), ssb_plan("q3.1", ssb_db), ssb_db, device)

    def test_batch_streaming_survives_where_run_to_finish_fails(self, ssb_db):
        """The paper's scalability argument: batch processing only keeps
        dimension state resident, so the same capacity suffices."""
        cramped = GTX970.with_overrides(memory_capacity=400_000)
        with pytest.raises(DeviceMemoryError):
            run_to_finish(
                CompoundEngine(),
                star_join_aggregate_query(),
                ssb_db,
                VirtualCoprocessor(cramped),
            )
        executor = BatchExecutor(block_bytes=16 * 1024)
        result = executor.execute(
            star_join_aggregate_query(), ssb_db, VirtualCoprocessor(cramped)
        )
        assert result.table.num_rows >= 1


class TestDerivedMovement:
    def test_kernel_at_a_time_exceeds_batch_pcie(self, ssb_db, device):
        """Figure 5: batch processing cuts PCIe volume by ~an order of
        magnitude versus kernel-at-a-time."""
        result = OperatorAtATimeEngine().execute(
            ssb_plan("q3.1", ssb_db), ssb_db, device
        )
        kaat = kernel_at_a_time_movement(result, device)
        batch = batch_processing_movement(result, device)
        assert kaat.pcie_bytes > 4 * batch.pcie_bytes
        assert kaat.global_bytes == batch.global_bytes
        assert kaat.pcie_ms > batch.pcie_ms

    def test_hash_table_traffic_stays_on_device(self, ssb_db, device):
        result = OperatorAtATimeEngine().execute(
            ssb_plan("q3.1", ssb_db), ssb_db, device
        )
        kaat = kernel_at_a_time_movement(result, device)
        assert kaat.pcie_bytes == result.profile.bytes_at(
            __import__("repro.hardware", fromlist=["MemoryLevel"]).MemoryLevel.GLOBAL
        ) - result.profile.table_bytes

    def test_rows_render(self, ssb_db, device):
        result = OperatorAtATimeEngine().execute(
            ssb_plan("q1.1", ssb_db), ssb_db, device
        )
        text = kernel_at_a_time_movement(result, device).row()
        assert "PCIe" in text and "GPU global" in text


class TestBatchExecutor:
    def test_matches_run_to_finish_aggregate(self, ssb_db, device):
        executor = BatchExecutor(block_bytes=32 * 1024)
        streamed = executor.execute(star_join_aggregate_query(), ssb_db, device)
        reference = CompoundEngine().execute(
            star_join_aggregate_query(), ssb_db, VirtualCoprocessor(GTX970)
        )
        assert rows_approx_equal(
            streamed.table.sorted_rows(), reference.table.sorted_rows()
        )
        assert streamed.num_blocks > 1

    def test_matches_run_to_finish_materialize(self, ssb_db, device):
        executor = BatchExecutor(block_bytes=32 * 1024)
        streamed = executor.execute(star_join_query(), ssb_db, device)
        reference = CompoundEngine().execute(
            star_join_query(), ssb_db, VirtualCoprocessor(GTX970)
        )
        assert rows_approx_equal(
            streamed.table.sorted_rows(), reference.table.sorted_rows()
        )

    def test_small_blocks_cost_more_overhead(self, ssb_db):
        small = BatchExecutor(block_bytes=4 * 1024).execute(
            star_join_aggregate_query(), ssb_db, VirtualCoprocessor(GTX970)
        )
        large = BatchExecutor(block_bytes=256 * 1024).execute(
            star_join_aggregate_query(), ssb_db, VirtualCoprocessor(GTX970)
        )
        assert small.num_blocks > large.num_blocks
        assert small.end_to_end_ms > large.end_to_end_ms

    def test_avg_streams(self, ssb_db, device):
        """AVG merges across blocks through the hidden SUM/COUNT
        decomposition scale-out uses (it used to raise PlanError)."""
        for group_by in ([], ["lo_discount"]):
            plan = (
                PlanBuilder.scan("lineorder")
                .filter(col("lo_discount") > 2)
                .aggregate(
                    group_by=group_by,
                    aggregates=[
                        ("avg", col("lo_revenue"), "a"),
                        ("sum", col("lo_quantity"), "s"),
                    ],
                )
                .build()
            )
            streamed = BatchExecutor(block_bytes=8 * 1024).execute(plan, ssb_db, device)
            reference = CompoundEngine().execute(plan, ssb_db, VirtualCoprocessor(GTX970))
            assert streamed.num_blocks > 1
            assert rows_approx_equal(
                streamed.table.sorted_rows(), reference.table.sorted_rows(),
                rel_tol=1e-9,
            )

    def test_avg_streams_through_the_residency_fallback(self, ssb_db):
        """Regression: an AVG query whose base columns exceed the device
        raised PlanError out of the automatic out-of-core fallback."""
        sql = (
            "select avg(lo_revenue) as a, sum(lo_quantity) as s "
            "from lineorder where lo_discount > 2"
        )
        small = GTX970.with_overrides(memory_capacity=150_000)
        result = connect(ssb_db, device=small, residency=True).execute(sql)
        assert result.placement.out_of_core
        assert rows_approx_equal(
            result.table.sorted_rows(),
            connect(ssb_db).execute(sql).table.sorted_rows(),
            rel_tol=1e-9,
        )

    @pytest.mark.parametrize(
        "query, block_bytes, end_to_end_ms, num_blocks, peak_device_bytes",
        [
            (star_join_aggregate_query, 4 * 1024, 0.8810330867556471, 24, 113664),
            (star_join_aggregate_query, 16 * 1024, 0.34103308675564686, 6, 162816),
            (star_join_aggregate_query, 32 * 1024, 0.25103308675564684, 3, 228352),
            (star_join_aggregate_query, 64 * 1024, 0.22103308675564684, 2, 359424),
            (star_join_aggregate_query, 256 * 1024, 0.19103308675564684, 1, 481280),
            (star_join_query, 32 * 1024, 0.25232458675564684, 3, 228352),
        ],
    )
    def test_breakdown_pinned(
        self, ssb_db, device, query, block_bytes, end_to_end_ms, num_blocks,
        peak_device_bytes,
    ):
        """The timing breakdown is read off the engine's own profile;
        these are the values the hand-rolled loop produced before —
        when the four result columns were four d2h transfers and each of
        the eight columns the three dimension builds read was an h2d of
        its own.  The result is one packed transfer now, and each build
        one load: 3 + (8 - 3) link latencies less."""
        result = BatchExecutor(block_bytes=block_bytes).execute(
            query(), ssb_db, device
        )
        packed_ms = end_to_end_ms - (3 + 5) * device.interconnect.latency * 1e3
        assert len(result.table.column_names) == 4
        assert result.end_to_end_ms == pytest.approx(packed_ms, rel=1e-12)
        assert result.num_blocks == num_blocks
        assert result.peak_device_bytes == peak_device_bytes

    def test_out_of_core_result_is_the_engines_own(self, ssb_db, device):
        """execute_out_of_core hands back what Engine.execute built:
        kernel sources included, one row of the query record per
        pipeline (plus ``finalize``) whose global bytes reconcile with
        the profile, EXPLAIN ANALYZE rows."""
        plan = ssb_plan("q3.1", ssb_db)
        result = execute_out_of_core(plan, ssb_db, device, block_bytes=32 * 1024)
        assert result.engine == "batch[lrgp_simd]"
        assert result.placement.out_of_core
        pipelines = extract_pipelines(plan, ssb_db).pipelines
        assert set(result.kernel_sources) == {p.name for p in pipelines}
        records = result.profile.pipelines
        assert [record.name for record in records] == [
            f"pipeline[{index}]" for index in range(len(pipelines))
        ] + ["finalize"]
        assert sum(record.bytes_at(MemoryLevel.GLOBAL) for record in records) == (
            result.profile.bytes_at(MemoryLevel.GLOBAL)
        )
        text = render_explain_analyze(result)
        assert "rows out" in text and "WARNING" not in text

    def test_virtual_final_source_rejected(self, ssb_db, device):
        plan = (
            PlanBuilder.scan("lineorder")
            .aggregate(group_by=["lo_custkey"], aggregates=[("count", None, "n")])
            .filter(col("n") > 2)
            .project(["lo_custkey", "n"])
            .build()
        )
        with pytest.raises(PlanError, match="base table"):
            BatchExecutor().execute(plan, ssb_db, device)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BatchExecutor(block_bytes=0)

    def test_timing_breakdown_consistency(self, ssb_db, device):
        result = BatchExecutor(block_bytes=64 * 1024).execute(
            star_join_aggregate_query(), ssb_db, device
        )
        assert result.end_to_end_ms == pytest.approx(
            result.build_ms
            + max(result.stream_transfer_ms, result.stream_kernel_ms)
            + result.overhead_ms
        )
        assert result.input_bytes > 0


class TestKernelAtATimeExecutor:
    def test_same_rows_as_run_to_finish(self, ssb_db, device):
        from repro.macro import KernelAtATimeExecutor
        from repro.workloads import ssb_plan

        plan = ssb_plan("q3.1", ssb_db)
        kaat = KernelAtATimeExecutor().execute(plan, ssb_db, device)
        reference = OperatorAtATimeEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970)
        )
        assert rows_approx_equal(
            kaat.table.sorted_rows(), reference.table.sorted_rows(),
            rel_tol=1e-3, abs_tol=0.5,
        )

    def test_pcie_dominates(self, ssb_db, device):
        """Figure 5a: per-kernel streaming makes PCIe the bottleneck."""
        from repro.macro import KernelAtATimeExecutor
        from repro.workloads import ssb_plan

        result = KernelAtATimeExecutor().execute(
            ssb_plan("q3.1", ssb_db), ssb_db, device
        )
        assert result.transfer_ms > result.kernel_ms

    def test_streams_more_than_batch_model(self, ssb_db, device):
        from repro.macro import KernelAtATimeExecutor
        from repro.workloads import ssb_plan

        plan = ssb_plan("q3.1", ssb_db)
        kaat = KernelAtATimeExecutor().execute(plan, ssb_db, device)
        batch = OperatorAtATimeEngine().execute(
            plan, ssb_db, VirtualCoprocessor(GTX970)
        )
        assert kaat.profile.transfer_bytes() > 3 * batch.profile.transfer_bytes()

    def test_hash_tables_stay_resident(self, ssb_db, device):
        """Build-kernel table writes must NOT appear as PCIe traffic."""
        from repro.macro import KernelAtATimeExecutor
        from repro.workloads import ssb_plan

        result = KernelAtATimeExecutor().execute(
            ssb_plan("q3.1", ssb_db), ssb_db, device
        )
        # Per-kernel streamed volume (excluding the final result copy).
        streamed = sum(
            record.nbytes
            for record in result.profile.transfers
            if record.label.endswith((".in", ".out"))
        )
        from repro.hardware import MemoryLevel

        global_bytes = result.profile.bytes_at(MemoryLevel.GLOBAL)
        table_bytes = result.profile.table_bytes
        assert streamed == global_bytes - table_bytes
