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

from dataclasses import dataclass, field
from functools import partial

from ..engines.compound import (
    CompoundEngine, estimate_slices, merge_slices, run_compound, slice_bounds, sliced,
)
from ..engines.runtime import QueryRuntime
from ..errors import PlanError
from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import LogSlice
from ..kernels.context import EstimateContext, KernelContext, Segment
from ..plan.logical import LogicalPlan
from ..plan.physical import PhysicalQuery, Pipeline
from ..plan.pipelines import extract_pipelines
from ..storage.database import Database
from ..storage.table import Table

#: Per-block scheduling overhead (async copy enqueue + sync), seconds.
BLOCK_OVERHEAD = 20e-6


@dataclass
class BatchResult:
    """Timing breakdown of a streamed batch-processing execution, read
    off the query record of ``execution`` (the
    :class:`~repro.engines.base.ExecutionResult` the streamer returned):
    the build phase is what ran before the final pipeline's row, the
    streaming phase the rest — the packed result's d2h (``finalize``)
    counts as a streaming-phase transfer."""

    block_bytes: int
    num_blocks: int
    peak_device_bytes: int
    execution: object = field(repr=False, compare=False)

    @property
    def table(self) -> Table:
        return self.execution.table

    @property
    def input_bytes(self) -> int:
        return self.execution.input_bytes

    def _phases(self) -> tuple[LogSlice, LogSlice]:
        profile = self.execution.profile
        kernels, transfers, _ = profile.pipelines[-2].marks
        return (
            LogSlice(profile.kernels[:kernels], profile.transfers[:transfers]),
            LogSlice(profile.kernels[kernels:], profile.transfers[transfers:]),
        )

    @property
    def build_ms(self) -> float:
        return self._phases()[0].total_time_ms

    @property
    def stream_transfer_ms(self) -> float:
        return self._phases()[1].transfer_time_ms

    @property
    def stream_kernel_ms(self) -> float:
        return self._phases()[1].kernel_time_ms

    @property
    def overhead_ms(self) -> float:
        """Per-block scheduling overhead."""
        return self.num_blocks * BLOCK_OVERHEAD * 1e3

    @property
    def stream_ms(self) -> float:
        """Streaming phase with transfer/compute overlap."""
        return max(self.stream_transfer_ms, self.stream_kernel_ms) + self.overhead_ms

    @property
    def end_to_end_ms(self) -> float:
        return self.build_ms + self.stream_ms


class _BlockStreamer(CompoundEngine):
    """A :class:`CompoundEngine` that feeds the final pipeline in blocks;
    every other pipeline runs run-to-finish (dimension hash tables stay
    resident, pooled dimension columns too — fact blocks never do).

    The blocks are the segments of one pass of the final pipeline's
    compound kernel (:func:`~repro.engines.compound.run_compound`): the
    body runs once over the whole table, and each block reads its own
    wire images, ships just before its launch and is launched over its
    rows alone (so host memory grows with the table, not the block).

    One instance serves ONE query: it notes the block count and the
    device-memory peak — all a :class:`BatchResult` adds to the engine's
    own result and its query record.
    """

    def __init__(self, mode: str, block_bytes: int):
        super().__init__(mode)
        self.name = f"batch[{mode}]"
        self.block_bytes = block_bytes

    def execute_pipeline(self, pipeline: Pipeline, runtime: QueryRuntime):
        if not pipeline.is_final:
            return super().execute_pipeline(pipeline, runtime)
        contexts, scheme, shipped = self._stream(pipeline, runtime, KernelContext)
        self.num_blocks = len(shipped)
        # Block partials stay on the device until the merged result
        # ships (``assemble_result``): that one packed d2h is the only
        # one charged, with or without a compression policy.
        self.peak_device_bytes = runtime.device.allocated_bytes + max(shipped)
        return merge_slices(pipeline, contexts, scheme, "blocks")

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        """Price the final pipeline as :meth:`execute_pipeline` runs it:
        the same blocks, shipped by the same code, each launched over
        its row count."""
        if not pipeline.is_final:
            return super().estimate_pipeline(pipeline, runtime)
        contexts, _, _ = self._stream(pipeline, runtime, EstimateContext)
        return estimate_slices(pipeline, contexts, runtime)

    def _stream(self, pipeline: Pipeline, runtime: QueryRuntime, context):
        """Run the final pipeline's pass over its blocks on ``context``:
        the contexts it ran on, the :func:`~repro.engines.compound.sliced`
        merge scheme and each block's shipped bytes.  Under a policy a
        column's block ships in the column's chosen codec (exact
        per-block wire bytes) and stays wire-resident for the block,
        which decodes it in registers."""
        device, policy = runtime.device, runtime.compression
        table = runtime.database.table(pipeline.source)
        columns = [
            (name, base := pipeline.source_rename.get(name, name), table.column(base))
            for name in pipeline.required_columns
        ]
        # Rows such that each column block is ~block_bytes (the paper
        # partitions each column into fixed-size blocks).
        width = max((column.itemsize for *_, column in columns), default=4)
        stats = runtime.compression_stats()
        launched, scheme = sliced(pipeline)
        segments, shipped = [], []
        bounds = slice_bounds(table.num_rows, max(1, self.block_bytes // width))
        for index, (start, stop) in enumerate(bounds):
            raw = wire = 0
            images = None if policy is None else dict(runtime.lazy_columns)
            for _, base, column in columns:
                values = column.values[start:stop]
                raw += values.nbytes
                if policy is not None:
                    encoded = policy.encode_slice(column, start, stop)
                    wire += encoded.wire_nbytes
                    stats.record(encoded.codec)
                    runtime.register_wire((pipeline.source, base), encoded, values, images)
            # A block ships compressed only where that is smaller.
            compressed = policy is not None and wire < raw
            packed = {"raw_nbytes": raw, "codec": "block"} if compressed else {}
            shipped.append(wire if packed else raw)
            ship = partial(
                device.record_stream_transfer, shipped[-1], "h2d", label=f"block{index}", **packed
            )
            segments.append(Segment(launched, stop - start, f".block{index}", images, ship))
        scope = {name: column.values for name, _, column in columns}
        return run_compound(segments, runtime, self.mode, scope, context), scheme, shipped


class BatchExecutor:
    """Run a query with resident hash tables + a streamed fact pipeline."""

    def __init__(self, block_bytes: int = 2 * 1024 * 1024, mode: str = "lrgp_simd"):
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.block_bytes = block_bytes
        self.mode = mode

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
        if query.final_pipeline.source_is_virtual:
            raise PlanError(
                "batch streaming requires the final pipeline to scan a base "
                "table (stream the fact table, keep dimensions resident)"
            )
        streamer = _BlockStreamer(self.mode, self.block_bytes)
        result = streamer.execute(query, database, device, seed=seed)
        return BatchResult(
            block_bytes=self.block_bytes,
            num_blocks=streamer.num_blocks,
            peak_device_bytes=streamer.peak_device_bytes,
            execution=result,
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
    """Run a query whose working set exceeds device memory by streaming
    (``docs/architecture.md``, "one query loop"), and return the
    ordinary :class:`~repro.engines.base.ExecutionResult`.

    This is the automatic fallback target of
    :func:`repro.placement.execute_with_placement`; the result is
    labelled ``batch[mode]`` and its ``placement`` records
    ``out_of_core=True`` (also on a device without a buffer pool).
    """
    from ..placement.stats import QueryPlacement

    batch = BatchExecutor(block_bytes=block_bytes, mode=mode).execute(
        plan, database, device, seed=seed
    )
    result = batch.execution
    if result.placement is None:
        # No pool here, but a fleet's host fallback carries the pooled
        # devices' loads into this record.
        result.placement = QueryPlacement()
        result.placement.log = result.profile
    result.placement.out_of_core = True
    return result
