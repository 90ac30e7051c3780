"""The multi-pass query-compilation engine (Section 4).

Each fusion operator executes in three phases: the ``count`` launch
evaluates the cardinality-affecting primitives and writes selection
flags; a hierarchical device prefix sum (technique A1, library-style,
as the paper's boost::compute baseline) computes write positions; the
``write`` launch re-executes the primitives for flagged threads and
materializes the outputs.  Both launches run the pipeline's one
generated multi-pass kernel, on a count and on a write context.
Reduction sinks use the pipeline-breaking library implementations B1
(global reduce) and C1 (global sort + segmented reduce).
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from ..kernels.codegen import generate_count_kernel
from ..kernels.context import EstimateContext, KernelContext
from ..plan.physical import AggregateSink, BuildSink, MaterializeSink, Pipeline
from .base import Engine
from .runtime import QueryRuntime, charge_library_aggregate


class MultiPassEngine(Engine):
    """HorseQC: Multi-pass — count / prefix sum / write per pipeline."""

    name = "horseqc-multipass"

    def __init__(self):
        self.kernel_sources: dict[str, str] = {}

    fuses_siblings = True

    def lazy_capable(self, pipeline: Pipeline) -> bool:
        return True

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        write_ctx = self._run_passes(pipeline, runtime, KernelContext)
        sink = pipeline.sink
        if isinstance(sink, MaterializeSink):
            return write_ctx.outputs
        if isinstance(sink, BuildSink):
            runtime.build_hash_table(sink.table_id, *_materialized(pipeline, write_ctx))
            return None
        if isinstance(sink, AggregateSink):
            return self._finish_aggregate(pipeline, runtime, write_ctx)
        raise AssertionError(f"unhandled sink {type(sink).__name__}")

    def _run_passes(self, pipeline: Pipeline, runtime, context) -> KernelContext:
        """The three phases every sink shares, on ``context`` kernels;
        returns the write kernel's context."""
        device = runtime.device
        scope = runtime.load_source(
            pipeline, lazy_capable=self.lazy_capable(pipeline)
        )
        rows = runtime.source_rows(pipeline)

        def kernel_context(**sink) -> KernelContext:
            return context(
                runtime, scope, pipeline.scope_schema, mode="multipass", rows=rows,
                pipeline=pipeline, **sink,
            )

        # One kernel, looked up once, runs both the count and the write.
        kernel = generate_count_kernel(pipeline, device.log)

        # Phase 1: count kernel.
        count_ctx = kernel_context()
        runtime.list_kernel(f"{pipeline.name}.count", kernel.source)
        kernel(count_ctx)
        device.log.bodies += 1
        device.launch(f"count_{pipeline.name}", "count", count_ctx.n, count_ctx.meter)

        # Phase 2: hierarchical prefix sum over the materialized flags.
        scan = count_ctx.scan_flags(device, f"{pipeline.name}.prefix_sum")

        # Phase 3: write kernel (re-executes primitives for survivors).
        write_ctx = kernel_context(
            base_count=scan.total, sink=pipeline.sink, output_schema=pipeline.output_schema
        )
        write_ctx.install_flags(count_ctx.flags)
        write_ctx.set_positions(scan)
        runtime.list_kernel(f"{pipeline.name}.write", kernel.source)
        kernel(write_ctx)
        device.log.bodies += 1
        device.launch(f"write_{pipeline.name}", "write", write_ctx.n, write_ctx.meter)
        return write_ctx

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        write_ctx = self._run_passes(pipeline, runtime, EstimateContext)
        sink, rows = pipeline.sink, write_ctx.valid
        if isinstance(sink, BuildSink):
            runtime.build_table(pipeline, rows, *_materialized(pipeline, write_ctx))
        if not isinstance(sink, AggregateSink):
            return rows, 0
        groups = runtime.groups(pipeline, rows) if sink.group_keys else 1
        self._charge_reduction(pipeline, runtime.device, write_ctx, rows, groups)
        return rows, groups

    def _charge_reduction(self, pipeline, device, write_ctx, rows: int, groups: int) -> None:
        """The library reduction over the write kernel's intermediates."""
        itemsizes = {
            spec.name: write_ctx.intermediates[f"value:{spec.name}"].dtype.itemsize
            for spec in pipeline.sink.aggregates
            if spec.expr is not None
        }
        charge_library_aggregate(
            device, pipeline, rows, groups, itemsizes, sum(itemsizes.values())
        )

    # ------------------------------------------------------------------
    def _finish_aggregate(
        self,
        pipeline: Pipeline,
        runtime: QueryRuntime,
        write_ctx: KernelContext,
    ) -> dict[str, np.ndarray]:
        """Library reductions over the materialized intermediates."""
        sink = pipeline.sink
        assert isinstance(sink, AggregateSink)
        if pipeline.output_schema is None:
            raise PlanError(f"aggregate pipeline {pipeline.name} lacks an output schema")
        # write_ctx.scope carries the payload columns the probes added,
        # over the flagged rows only — so it takes the write kernel's
        # own final mask, not the source-length flags.
        result = runtime.aggregate_rows(
            sink, write_ctx.scope, write_ctx.final_mask, pipeline.output_schema
        )

        self._charge_reduction(
            pipeline, runtime.device, write_ctx, result.inputs, result.num_groups
        )
        return result.outputs


def _materialized(pipeline: Pipeline, write_ctx: KernelContext):
    """The key and payload columns a build pipeline's write kernel left
    for the stand-alone build kernel."""
    sink, made = pipeline.sink, write_ctx.intermediates
    return (
        [made[f"key{index}"] for index in range(len(sink.keys))],
        {name: made[f"payload:{name}"] for name in sink.payload},
    )
