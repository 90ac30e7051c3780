"""The multi-pass query-compilation engine (Section 4).

Each fusion operator executes in three phases: a generated ``count``
kernel evaluates the cardinality-affecting primitives and writes
selection flags; a hierarchical device prefix sum (technique A1,
library-style, as the paper's boost::compute baseline) computes write
positions; a generated ``write`` kernel re-executes the primitives for
flagged threads and materializes the outputs.  Reduction sinks use the
pipeline-breaking library implementations B1 (global reduce) and C1
(global sort + segmented reduce).
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from ..kernels.codegen import generate_count_kernel, generate_write_kernel
from ..kernels.context import KernelContext
from ..plan.physical import AggregateSink, BuildSink, MaterializeSink, Pipeline
from ..primitives.hashtable import JoinHashTable
from ..primitives.prefix import device_scan
from ..primitives.reduce import charge_device_reduce
from ..primitives.sortlib import device_radix_sort, device_segmented_reduce
from .base import Engine
from .runtime import HashTableEntry, QueryRuntime


class MultiPassEngine(Engine):
    """HorseQC: Multi-pass — count / prefix sum / write per pipeline."""

    name = "horseqc-multipass"

    def __init__(self):
        self.kernel_sources: dict[str, str] = {}

    def lazy_capable(self, pipeline: Pipeline) -> bool:
        return True

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        device = runtime.device
        scope = runtime.load_source(
            pipeline, lazy_capable=self.lazy_capable(pipeline)
        )

        # Phase 1: count kernel.
        count_ctx = KernelContext(
            runtime,
            scope,
            pipeline.scope_schema,
            mode="multipass",
            rows=runtime.source_rows(pipeline),
            pipeline=pipeline,
        )
        count_kernel = generate_count_kernel(pipeline)
        runtime.kernel_sources[f"{pipeline.name}.count"] = count_kernel.source
        count_kernel(count_ctx)
        device.launch(count_kernel.name, "count", count_ctx.n, count_ctx.meter)
        flags = count_ctx.flags
        assert flags is not None

        # Phase 2: hierarchical prefix sum over the materialized flags.
        scan = device_scan(device, flags, label=f"{pipeline.name}.prefix_sum")

        # Phase 3: write kernel (re-executes primitives for survivors).
        write_ctx = KernelContext(
            runtime,
            scope,
            pipeline.scope_schema,
            mode="multipass",
            base_count=scan.total,
            sink=pipeline.sink,
            output_schema=pipeline.output_schema,
            rows=runtime.source_rows(pipeline),
            pipeline=pipeline,
        )
        write_ctx.install_flags(flags)
        write_ctx.set_positions(scan)
        write_kernel = generate_write_kernel(pipeline)
        runtime.kernel_sources[f"{pipeline.name}.write"] = write_kernel.source
        write_kernel(write_ctx)
        device.launch(write_kernel.name, "write", write_ctx.n, write_ctx.meter)

        sink = pipeline.sink
        if isinstance(sink, MaterializeSink):
            return write_ctx.outputs
        if isinstance(sink, BuildSink):
            return self._finish_build(pipeline, runtime, write_ctx)
        if isinstance(sink, AggregateSink):
            return self._finish_aggregate(pipeline, runtime, write_ctx)
        raise AssertionError(f"unhandled sink {type(sink).__name__}")

    # ------------------------------------------------------------------
    def _finish_build(
        self, pipeline: Pipeline, runtime: QueryRuntime, write_ctx: KernelContext
    ) -> None:
        """Build the hash table from the materialized key columns."""
        sink = pipeline.sink
        assert isinstance(sink, BuildSink)
        keys = [
            write_ctx.intermediates[f"key{index}"] for index in range(len(sink.keys))
        ]
        table = JoinHashTable.build(
            runtime.device, keys, name=sink.table_id
        )
        payload: dict[str, np.ndarray] = {}
        for name in sink.payload:
            values = write_ctx.intermediates[f"payload:{name}"]
            runtime.device.allocate(values, label=f"{sink.table_id}.{name}")
            payload[name] = values
        runtime.register_hash_table(sink.table_id, HashTableEntry(table, payload))
        return None

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

        if result.codes is not None:
            # C1: global sort by group key, then reduce segments.
            value_bytes = sum(
                write_ctx.intermediates[f"value:{spec.name}"].dtype.itemsize
                for spec in sink.aggregates
                if spec.expr is not None
            )
            device_radix_sort(
                runtime.device,
                result.codes,
                payload_bytes=value_bytes,
                label=f"{pipeline.name}.group_sort",
            )
            device_segmented_reduce(
                runtime.device,
                np.sort(result.codes),
                value_bytes_per_row=max(value_bytes, 4),
                num_groups=result.num_groups,
                label=f"{pipeline.name}.group_reduce",
            )
        else:
            # B1: one hierarchical global reduce per aggregate, over
            # its materialized values (count(*) reduces 4-byte ones).
            # The result is already known; only the charge is due.
            for spec in sink.aggregates:
                values = write_ctx.intermediates.get(f"value:{spec.name}")
                charge_device_reduce(
                    runtime.device,
                    result.inputs,
                    4 if values is None else values.dtype.itemsize,
                    label=f"{pipeline.name}.{spec.name}",
                )
        return result.outputs
