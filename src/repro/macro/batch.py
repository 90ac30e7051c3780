"""Streaming batch-processing executor (Experiment 5, Figure 21).

Integrates a compound-kernel micro execution model with the batch
processing macro execution model: dimension pipelines run run-to-finish
(their hash tables stay resident in GPU global memory), then the fact
pipeline streams through the device in blocks.  Blocks are transferred
asynchronously, so the streaming phase's end-to-end time is the larger
of total transfer time and total kernel time, plus a per-block
scheduling overhead — which is why 0.5 MB blocks lag and >= 2 MB blocks
saturate PCIe in Figure 21.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engines.base import _cast_outputs
from ..engines.compound import CompoundEngine
from ..engines.runtime import QueryRuntime
from ..errors import PlanError
from ..hardware.device import VirtualCoprocessor
from ..kernels.codegen import generate_compound_kernel
from ..kernels.context import KernelContext
from ..plan.logical import LogicalPlan
from ..plan.physical import AggregateSink, MaterializeSink, PhysicalQuery, Pipeline
from ..plan.pipelines import extract_pipelines
from ..scaleout.merge import merge_partials
from ..storage.database import Database
from ..storage.table import Table

#: Per-block scheduling overhead (async copy enqueue + sync), seconds.
BLOCK_OVERHEAD = 20e-6


@dataclass
class BatchResult:
    """Timing breakdown of a streamed batch-processing execution."""

    table: Table
    block_bytes: int
    num_blocks: int
    build_ms: float
    stream_transfer_ms: float
    stream_kernel_ms: float
    overhead_ms: float
    input_bytes: int
    output_bytes: int
    peak_device_bytes: int
    #: Residency outcome (:class:`repro.placement.QueryPlacement`) when
    #: a buffer pool was attached to the device, else ``None``.
    placement: object | None = None
    #: Wire-compression accounting
    #: (:class:`repro.compression.CompressionStats`) when a compression
    #: policy was active, else ``None``.
    compression: object | None = None

    @property
    def stream_ms(self) -> float:
        """Streaming phase with transfer/compute overlap."""
        return max(self.stream_transfer_ms, self.stream_kernel_ms) + self.overhead_ms

    @property
    def end_to_end_ms(self) -> float:
        return self.build_ms + self.stream_ms


class BatchExecutor:
    """Run a query with resident hash tables + a streamed fact pipeline."""

    def __init__(self, block_bytes: int = 2 * 1024 * 1024, mode: str = "lrgp_simd"):
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self.engine = CompoundEngine(mode)

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: LogicalPlan | PhysicalQuery,
        database: Database,
        device: VirtualCoprocessor,
        seed: int = 42,
    ) -> BatchResult:
        if isinstance(plan, PhysicalQuery):
            query = plan
        else:
            query = extract_pipelines(plan, database)
        final = query.final_pipeline
        if final.source_is_virtual:
            raise PlanError(
                "batch streaming requires the final pipeline to scan a base "
                "table (stream the fact table, keep dimensions resident)"
            )

        pool = device.placement_pool
        if pool is None:
            device.reset_all()
        else:
            device.begin_query()
        runtime = QueryRuntime(device, database, seed=seed, pool=pool)
        try:
            # Phase 1: dimension pipelines, run-to-finish.  With a pool
            # attached, dimension columns become (and may stay)
            # device-resident; the streamed fact blocks below never do.
            for pipeline in query.pipelines[:-1]:
                produced = self.engine.execute_pipeline(pipeline, runtime)
                if pipeline.output_schema is not None and produced is not None:
                    runtime.register_virtual(
                        pipeline.output_name,
                        _cast_outputs(produced, pipeline.output_schema),
                        pipeline.output_schema,
                    )
            build_ms = device.log.total_time_ms
            build_marker_kernels = len(device.log.kernels)
            build_marker_transfers = len(device.log.transfers)
            build_input_bytes = runtime.input_bytes

            # Phase 2: stream the fact pipeline in blocks.
            table = database.table(final.source)
            rows_per_block = self._rows_per_block(final, table)
            total_rows = table.num_rows
            num_blocks = max(1, -(-total_rows // rows_per_block))

            partials: list[dict[str, np.ndarray]] = []
            counts: list[int] = []
            stream_input_bytes = 0
            peak = device.allocated_bytes
            for index in range(num_blocks):
                start = index * rows_per_block
                stop = min(start + rows_per_block, total_rows)
                scope = {}
                block_nbytes = 0
                block_wire = 0
                policy = runtime.compression
                for name in final.required_columns:
                    base = final.source_rename.get(name, name)
                    column = table.column(base)
                    values = column.values[start:stop]
                    scope[name] = values
                    block_nbytes += values.nbytes
                    if policy is not None:
                        # Each block slice ships in the column's chosen
                        # codec — exact per-block wire bytes.
                        encoded = policy.encode_slice(column, start, stop)
                        block_wire += encoded.wire_nbytes
                        runtime.compression_stats().record(
                            values.nbytes, encoded.wire_nbytes, encoded.codec
                        )
                if policy is not None and block_wire < block_nbytes:
                    device.record_stream_transfer(
                        block_wire,
                        "h2d",
                        label=f"block{index}",
                        raw_nbytes=block_nbytes,
                        codec="block",
                    )
                    # One decompression kernel covers the whole block.
                    runtime.charge_decode_raw(
                        block_wire,
                        block_nbytes,
                        stop - start,
                        f"block{index}",
                        "block",
                    )
                    stream_input_bytes += block_wire
                else:
                    device.record_stream_transfer(
                        block_nbytes, "h2d", label=f"block{index}"
                    )
                    stream_input_bytes += block_nbytes

                ctx = KernelContext(
                    runtime,
                    scope,
                    final.scope_schema,
                    mode=self.engine.mode,
                    sink=final.sink,
                    output_schema=final.output_schema,
                    rows=stop - start,
                )
                kernel = generate_compound_kernel(final)
                kernel(ctx)
                device.launch(f"{kernel.name}.block{index}", "compound", ctx.n, ctx.meter)
                partials.append(dict(ctx.outputs))
                if policy is not None:
                    self._ship_partial(
                        ctx.outputs, index, runtime, device, policy
                    )
                counts.append(
                    ctx.aggregation.inputs if ctx.aggregation is not None else 0
                )
                peak = max(peak, device.allocated_bytes + block_nbytes)

            merged = self._merge_partials(final, partials, counts)
            runtime.input_bytes = build_input_bytes + stream_input_bytes
            result_table = runtime.finalize(query, merged)

            stream_kernels = device.log.kernels[build_marker_kernels:]
            stream_transfers = device.log.transfers[build_marker_transfers:]
            stream_kernel_ms = sum(trace.time_ms for trace in stream_kernels)
            stream_transfer_ms = sum(record.time_ms for record in stream_transfers)
            return BatchResult(
                table=result_table,
                block_bytes=self.block_bytes,
                num_blocks=num_blocks,
                build_ms=build_ms,
                stream_transfer_ms=stream_transfer_ms,
                stream_kernel_ms=stream_kernel_ms,
                overhead_ms=num_blocks * BLOCK_OVERHEAD * 1e3,
                input_bytes=runtime.input_bytes,
                output_bytes=runtime.output_bytes,
                peak_device_bytes=peak,
                placement=runtime.query_placement(),
                compression=runtime.compression_stats(),
            )
        finally:
            runtime.close()

    # ------------------------------------------------------------------
    def _ship_partial(
        self,
        outputs: dict,
        index: int,
        runtime: QueryRuntime,
        device: VirtualCoprocessor,
        policy,
    ) -> None:
        """Ship one block's partial columns d2h as wire images.

        Mirrors the scale-out gather: columns that clear the wire-ratio
        gate pay a device-side encode kernel and cross the link
        compressed; the decode happens during the host merge
        (``host_decode_bytes``), never on the device.  Without a policy
        the partials stay un-charged, exactly as before compression
        existed (the plain-mode timing baselines depend on it).
        """
        stats = runtime.compression_stats()
        for name, values in outputs.items():
            arr = np.asarray(values)
            if arr.nbytes == 0:
                continue
            encoded = policy.encode_array(arr)
            label = f"partial.block{index}.{name}"
            if (
                encoded is not None
                and encoded.codec != "passthrough"
                and encoded.wire_nbytes < arr.nbytes
            ):
                runtime._charge_encode(encoded, label)
                device.record_stream_transfer(
                    encoded.wire_nbytes,
                    "d2h",
                    label=label,
                    raw_nbytes=arr.nbytes,
                    codec=encoded.codec,
                )
                if stats is not None:
                    stats.record(arr.nbytes, encoded.wire_nbytes, encoded.codec)
                    stats.host_decode_bytes += arr.nbytes
            else:
                device.record_stream_transfer(arr.nbytes, "d2h", label=label)
                if stats is not None:
                    stats.record(arr.nbytes, arr.nbytes, "passthrough")

    # ------------------------------------------------------------------
    def _rows_per_block(self, pipeline: Pipeline, table) -> int:
        """Rows such that each column block is ~block_bytes (the paper
        partitions each column into fixed-size blocks)."""
        widths = [
            table.column(pipeline.source_rename.get(name, name)).itemsize
            for name in pipeline.required_columns
        ]
        width = max(widths) if widths else 4
        return max(1, self.block_bytes // width)

    # ------------------------------------------------------------------
    def _merge_partials(
        self,
        pipeline: Pipeline,
        partials: list[dict[str, np.ndarray]],
        counts: list[int],
    ) -> dict[str, np.ndarray]:
        """Combine per-block outputs via the shared partial-merge layer
        (:mod:`repro.scaleout.merge`), which the scale-out executor
        uses too; ``counts`` (qualifying rows per block) keep empty
        blocks' min/max placeholders out of the merge."""
        sink = pipeline.sink
        if not isinstance(sink, (MaterializeSink, AggregateSink)):
            raise PlanError("batch streaming supports materialize and aggregate sinks")
        if isinstance(sink, AggregateSink):
            assert pipeline.output_schema is not None
        return merge_partials(
            sink, pipeline.output_schema, partials, counts=counts, context="blocks"
        )


def streaming_mode(engine) -> str:
    """The compound-kernel mode the streaming executor runs on behalf
    of ``engine``: compound engines keep their own mode, pass-based
    engines stream through the default resolution mode."""
    return engine.mode if isinstance(engine, CompoundEngine) else "lrgp_simd"


def execute_out_of_core(
    plan: LogicalPlan | PhysicalQuery,
    database: Database,
    device: VirtualCoprocessor,
    seed: int = 42,
    block_bytes: int = 2 * 1024 * 1024,
    mode: str = "lrgp_simd",
):
    """Run a query whose working set exceeds device memory by streaming,
    packaged as an ordinary :class:`~repro.engines.base.ExecutionResult`.

    This is the automatic fallback target of
    :func:`repro.placement.execute_with_placement`: dimension pipelines
    run run-to-finish (their hash tables resident), the fact pipeline
    streams through the device in ``block_bytes`` blocks, and the
    result's ``placement`` records ``out_of_core=True``.
    """
    from ..engines.base import ExecutionResult
    from ..placement.stats import QueryPlacement

    executor = BatchExecutor(block_bytes=block_bytes, mode=mode)
    batch = executor.execute(plan, database, device, seed=seed)
    inner = batch.placement
    placement = QueryPlacement(
        hits=inner.hits if inner is not None else 0,
        misses=inner.misses if inner is not None else 0,
        hit_bytes=inner.hit_bytes if inner is not None else 0,
        transferred_bytes=batch.input_bytes,
        out_of_core=True,
    )
    return ExecutionResult(
        table=batch.table,
        profile=device.log,
        engine=f"batch[{mode}]",
        device_name=device.profile.name,
        input_bytes=batch.input_bytes,
        output_bytes=batch.output_bytes,
        pcie_ms=device.pcie_baseline_ms(batch.input_bytes, batch.output_bytes),
        memory_bound_ms=device.memory_bound_ms(
            batch.input_bytes + batch.output_bytes
        ),
        placement=placement,
        compression=batch.compression,
    )
