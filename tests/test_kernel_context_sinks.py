"""Detailed kernel-context accounting tests (sink helpers, reductions)."""

import numpy as np
import pytest

from repro.engines.runtime import QueryRuntime
from repro.errors import CompilationError
from repro.hardware import GTX970, MemoryLevel, VirtualCoprocessor
from repro.kernels import KernelContext
from repro.plan.logical import AggSpec, PlanSchema
from repro.plan.physical import AggregateSink, BuildSink
from repro.expressions import col
from repro.storage import DType


def _context(tiny_db, mode="atomic", sink=None, output_schema=None, n=512):
    device = VirtualCoprocessor(GTX970)
    runtime = QueryRuntime(device, tiny_db)
    rng = np.random.default_rng(17)
    scope = {
        "k": rng.integers(0, 8, n).astype(np.int32),
        "v": rng.integers(0, 100, n).astype(np.int32),
    }
    schema = PlanSchema({"k": DType.INT32, "v": DType.INT32}, {})
    ctx = KernelContext(
        runtime, scope, schema, mode=mode, sink=sink, output_schema=output_schema
    )
    return ctx, scope, runtime


class TestSinkAggregate:
    def _sink(self):
        sink = AggregateSink(
            group_keys=[("k", col("k"))],
            aggregates=[AggSpec("sum", col("v"), "total")],
        )
        schema = PlanSchema({"k": DType.INT32, "total": DType.INT64}, {})
        return sink, schema

    def test_atomic_mode_charges_per_tuple_rmw(self, tiny_db):
        sink, schema = self._sink()
        ctx, scope, _ = _context(tiny_db, "atomic", sink, schema)
        ctx.sink_aggregate(ctx.full_mask())
        assert ctx.meter.atomic_count == 512  # one RMW per input
        assert ctx.meter.atomic_chains["rmw"] > 0

    def test_lrgp_mode_charges_pre_aggregated_rmw(self, tiny_db):
        sink, schema = self._sink()
        ctx, scope, _ = _context(tiny_db, "lrgp_simd", sink, schema)
        ctx.sink_aggregate(ctx.full_mask())
        assert ctx.meter.atomic_count < 512
        assert ctx.meter.bytes_at(MemoryLevel.ONCHIP) > 0  # scratchpad sort

    def test_outputs_are_correct(self, tiny_db):
        sink, schema = self._sink()
        ctx, scope, _ = _context(tiny_db, "atomic", sink, schema)
        ctx.sink_aggregate(ctx.full_mask())
        expected = np.bincount(scope["k"], weights=scope["v"], minlength=8)
        assert np.allclose(ctx.outputs["total"], expected)

    def test_missing_sink_rejected(self, tiny_db):
        ctx, _, _ = _context(tiny_db, "atomic")
        with pytest.raises(CompilationError):
            ctx.sink_aggregate(ctx.full_mask())

    def test_single_tuple_uses_add_chains(self, tiny_db):
        sink = AggregateSink(group_keys=[], aggregates=[AggSpec("sum", col("v"), "s")])
        schema = PlanSchema({"s": DType.INT64}, {})
        ctx, _, _ = _context(tiny_db, "atomic", sink, schema)
        ctx.sink_aggregate(ctx.full_mask())
        assert ctx.meter.atomic_chains["add"] == 512
        assert ctx.meter.atomic_chains["rmw"] == 0

    def test_avg_counts_two_accumulators(self, tiny_db):
        sink = AggregateSink(group_keys=[], aggregates=[AggSpec("avg", col("v"), "a")])
        schema = PlanSchema({"a": DType.FLOAT64}, {})
        ctx_avg, _, _ = _context(tiny_db, "atomic", sink, schema)
        ctx_avg.sink_aggregate(ctx_avg.full_mask())
        sink_sum = AggregateSink(group_keys=[], aggregates=[AggSpec("sum", col("v"), "s")])
        schema_sum = PlanSchema({"s": DType.INT64}, {})
        ctx_sum, _, _ = _context(tiny_db, "atomic", sink_sum, schema_sum)
        ctx_sum.sink_aggregate(ctx_sum.full_mask())
        assert ctx_avg.meter.atomic_count == 2 * ctx_sum.meter.atomic_count


class TestSinkBuild:
    def test_pipelined_build_registers_table(self, tiny_db):
        sink = BuildSink(table_id="ht_test", keys=[col("k")], payload=["v"])
        ctx, scope, runtime = _context(tiny_db, "atomic", sink)
        mask = np.zeros(512, dtype=bool)
        # Select one row per distinct key (build keys must be unique).
        _, first = np.unique(scope["k"], return_index=True)
        mask[first] = True
        ctx.sink_build(mask, [scope["k"]])
        entry = runtime.hash_table("ht_test")
        assert entry.table.num_rows == len(first)
        assert set(entry.payload) == {"v"}
        # Payload and key writes were charged.
        assert ctx.meter.writes[MemoryLevel.GLOBAL] > 0
        assert ctx.meter.atomic_chains["rmw"] >= 1

    def test_missing_sink_rejected(self, tiny_db):
        ctx, scope, _ = _context(tiny_db, "atomic")
        with pytest.raises(CompilationError):
            ctx.sink_build(np.ones(512, dtype=bool), [scope["k"]])


class TestSingleAggregateCost:
    @pytest.mark.parametrize("mode", ["atomic", "lrgp_simd", "lrgp_we"])
    def test_charges_from_the_count_what_reducing_charged(self, tiny_db, mode):
        """One 4-byte reduction per accumulator, charged without
        allocating or summing ``count`` zeros."""
        ctx, _, _ = _context(tiny_db, mode)
        ctx.single_aggregate_cost(count=300, accumulators=3)
        reference, _, _ = _context(tiny_db, mode)
        values = np.zeros(300, dtype=np.float32)
        for _ in range(3):
            if mode == "atomic":
                reference.atomic_reduce(values, "sum")
            else:
                reference.lrgp_reduce(values, "sum")
        assert ctx.meter.snapshot() == reference.meter.snapshot()
        assert ctx.meter.instructions > 0


class TestReduceWrappers:
    def test_ctx_atomic_reduce(self, tiny_db):
        ctx, scope, _ = _context(tiny_db, "atomic")
        total = ctx.atomic_reduce(scope["v"], "sum")
        assert total == scope["v"].sum()
        assert ctx.meter.atomic_count == 512

    def test_ctx_lrgp_reduce_respects_mode(self, tiny_db):
        ctx_we, scope, _ = _context(tiny_db, "lrgp_we")
        ctx_we.lrgp_reduce(scope["v"], "sum")
        ctx_simd, scope2, _ = _context(tiny_db, "lrgp_simd")
        ctx_simd.lrgp_reduce(scope2["v"], "sum")
        # Work-efficient uses CTA-wide groups (fewer atomics) + barriers.
        assert ctx_we.meter.atomic_count < ctx_simd.meter.atomic_count
        assert ctx_we.meter.barriers > 0
