"""Strategy cost estimation: bytes per memory level, atomic pressure,
PCIe traffic, and simulated time per candidate strategy.

A :class:`StrategyChoice` names one point in the execution lattice the
paper's evaluation explores by hand:

* **macro** — run-to-finish vs. streaming out-of-core batches
  (Section 2, Experiment 5);
* **engine** (micro) — operator-at-a-time vs. multipass vs. compound
  (``pipelined``) vs. local-resolution variants (Sections 3-6);
* **devices** — 1..N with a partitioning scheme (the scale-out layer);
* **placement** — pooled residency vs. transient transfers.

No byte shape lives here.  The traffic of a pipeline under an engine is
what that engine's own kernels charge when they run over row *counts*
(:meth:`Engine.estimate_pipeline
<repro.engines.base.Engine.estimate_pipeline>` on an
:class:`~repro.engines.estimate.EstimateRuntime`): the generated kernel
text, the :class:`~repro.kernels.context.KernelContext` methods and the
library charges are the ones execution uses, each launch is priced by
the same :class:`~repro.hardware.costmodel.KernelCostModel`, and the
only inputs this module supplies are the cardinalities statistics can
estimate — a predicate's selectivity and a sink's group count.  What
the :class:`CostEstimator` adds on top is the arithmetic of the things
it decides between: link transfers (bytes and per-transfer latencies,
counted from the plan), residency, streaming blocks, the fleet's
makespan and merge.  An estimate is a pure function of (plan,
statistics, compression policy, what is resident: bytes and tables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..engines import make_engine
from ..engines.estimate import EstimateRuntime
from ..expressions.expr import (
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Not,
)
from ..hardware.costmodel import KernelCostModel
from ..hardware.interconnect import Interconnect
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import LogSlice, MemoryLevel, Profile
from ..macro.batch import BLOCK_OVERHEAD
from ..plan.physical import AggregateSink, BuildSink, PhysicalQuery, Pipeline
from ..scaleout.partition import MORSELS_PER_DEVICE
from ..storage.database import Database
from .stats import StatisticsCatalog, TableStats

#: The macro execution models the advisor chooses between.
MACRO_MODELS = ("run-to-finish", "out-of-core")

#: Placement modes: pooled residency vs. stateless transfers.
PLACEMENTS = ("pooled", "transient")

#: Micro execution models enumerated by default (GPU engines with
#: distinct cost shapes; the ``resolution-we`` variant shares the
#: ``resolution`` shape and is left to explicit pinning).
MICRO_ENGINES = ("operator-at-a-time", "multipass", "pipelined", "resolution")

#: Engines the streaming out-of-core executor can run (the compound
#: aliases; :func:`repro.macro.batch.streaming_mode` names their mode).
STREAMABLE_ENGINES = frozenset(
    {"pipelined", "resolution", "resolution-simd", "resolution-we"}
)

#: Default selectivity when a predicate cannot be estimated from stats.
DEFAULT_SELECTIVITY = 1.0 / 3.0

#: Host-side scatter-gather merge overhead for scale-out: a fixed cost
#: plus a per-partial term (modeled ms).
_MERGE_BASE_MS = 0.06
_MERGE_PER_PARTIAL_MS = 0.012


def merge_overhead_ms(pieces: int) -> float:
    """Modeled host merge cost of ``pieces`` gathered partials.  The
    estimator charges it and the executor observes it, so predicted and
    observed compare like with like on the simulated clock (the
    wall-clock merge stays on ``ScaleOutStats.merge_ms`` for reporting)."""
    return _MERGE_BASE_MS + _MERGE_PER_PARTIAL_MS * pieces


@dataclass(frozen=True)
class StrategyChoice:
    """One point in the execution-strategy lattice."""

    engine: str = "resolution"
    macro: str = "run-to-finish"
    devices: int = 1
    partitioning: str = "range"
    placement: str = "pooled"

    def describe(self) -> str:
        parts = [self.engine, self.macro]
        if self.devices > 1:
            parts.append(f"{self.devices}dev/{self.partitioning}")
        parts.append(self.placement)
        return "+".join(parts)


@dataclass
class PipelineEstimate:
    """Predicted cardinalities and traffic for one pipeline."""

    name: str
    source: str
    rows_in: int
    selectivity: float
    rows_out: int
    #: Exact bytes of the base columns the pipeline is first to read
    #: (what materializes in device memory for base-table pipelines).
    input_bytes: int
    #: Bytes that cross the link for those columns: the compressed wire
    #: size when a compression policy is set, else ``input_bytes``.
    wire_bytes: int = 0
    #: Those columns, ``(table, column)``: the ones not resident ship
    #: as one h2d transfer (``QueryRuntime.load_source``).
    first_reads: frozenset = frozenset()
    global_bytes: int = 0
    onchip_bytes: int = 0
    kernels: int = 1
    kernel_ms: float = 0.0
    #: Estimated result bytes this pipeline ships d2h (final only).
    output_bytes: int = 0
    groups: int = 0
    #: What was fused into the pipeline's kernels per wire-resident
    #: column (compressed scan or register decode), for EXPLAIN: the
    #: notes execution itself records in ``CompressionStats.scans``.
    scan_notes: list = field(default_factory=list)
    #: A build pipeline whose hash table is pool-resident under the
    #: strategy priced: it does not run (no kernels, traffic or loads;
    #: ``rows_out`` still sizes the table it stands for).
    resident: bool = False

    @property
    def result_rows(self) -> int:
        """Rows of the table the pipeline leaves behind."""
        return min(self.groups, max(self.rows_out, 1)) if self.groups else self.rows_out


@dataclass
class CostEstimate:
    """Full cost prediction for one candidate strategy."""

    strategy: StrategyChoice
    pipelines: list[PipelineEstimate] = field(default_factory=list)
    pcie_h2d_bytes: int = 0
    pcie_d2h_bytes: int = 0
    global_bytes: int = 0
    onchip_bytes: int = 0
    kernel_ms: float = 0.0
    transfer_ms: float = 0.0
    #: Scale-out merge + out-of-core block scheduling (host-side).
    overhead_ms: float = 0.0
    #: Predicted peak device allocation (feasibility input).
    peak_device_bytes: int = 0
    #: Link transfers the execution records, over all devices.
    transfers: int = 0
    feasible: bool = True
    reason: str = ""

    @property
    def pcie_bytes(self) -> int:
        return self.pcie_h2d_bytes + self.pcie_d2h_bytes

    @property
    def total_ms(self) -> float:
        """End-to-end prediction and the advisor's ranking key (kernels
        + transfers + host overheads, serialized — matching
        ``ExecutionResult.total_ms`` for one device and makespan+merge
        for a fleet)."""
        return self.kernel_ms + self.transfer_ms + self.overhead_ms


class CostEstimator:
    """Predicts per-strategy traffic and time for a compiled query."""

    def __init__(
        self,
        profile: DeviceProfile,
        interconnect: Interconnect | None,
        statistics: StatisticsCatalog | None = None,
        block_bytes: int = 2 * 1024 * 1024,
        compression=None,
    ):
        self.profile = profile
        self.interconnect = None if profile.zero_copy else interconnect
        self.statistics = statistics if statistics is not None else StatisticsCatalog()
        self.cost_model = KernelCostModel(profile)
        self.block_bytes = block_bytes
        #: Wire-compression policy execution will run under: columns are
        #: sized by the encodings execution ships (cached on them), and
        #: the engines charge the decode that pays for the link savings.
        self.compression = compression if self.interconnect is not None else None

    def stream_block_bytes(self) -> int:
        """Streaming block size, shrunk on small devices so double
        buffering never claims more than a quarter of device memory
        (the out-of-core executor is handed the same value)."""
        return max(64 * 1024, min(self.block_bytes,
                                  self.profile.memory_capacity // 8))

    # ------------------------------------------------------------------
    # selectivity / cardinality estimation
    # ------------------------------------------------------------------
    def predicate_selectivity(
        self, expr: Expr, stats: TableStats | None, renames: dict[str, str]
    ) -> float:
        """Fraction of rows satisfying ``expr`` (clamped to [0, 1])."""
        sel = self._selectivity(expr, stats, renames)
        return min(1.0, max(0.0, sel))

    def _column(self, name: str, stats: TableStats | None, renames):
        if stats is None:
            return None
        return stats.column(renames.get(name, name))

    def _selectivity(self, expr, stats, renames) -> float:
        if isinstance(expr, BooleanOp):
            parts = [
                self._selectivity(operand, stats, renames)
                for operand in expr.operands
            ]
            if expr.op == "and":
                sel = 1.0
                for part in parts:
                    sel *= part
                return sel
            miss = 1.0
            for part in parts:
                miss *= 1.0 - part
            return 1.0 - miss
        if isinstance(expr, Not):
            return 1.0 - self._selectivity(expr.operand, stats, renames)
        if isinstance(expr, Between):
            return self._between_selectivity(expr, stats, renames)
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, stats, renames)
        if isinstance(expr, InList):
            column = (
                self._column(expr.operand.name, stats, renames)
                if isinstance(expr.operand, ColumnRef)
                else None
            )
            if column is not None and column.distinct:
                return len(expr.options) / column.distinct
            return min(1.0, 0.1 * len(expr.options))
        if isinstance(expr, Literal):
            return 1.0 if expr.value else 0.0
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, expr: Comparison, stats, renames) -> float:
        column_side, literal_side, op = expr.left, expr.right, expr.op
        if isinstance(column_side, Literal) and isinstance(literal_side, ColumnRef):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            column_side, literal_side = literal_side, column_side
            op = flip.get(op, op)
        if not (isinstance(column_side, ColumnRef) and isinstance(literal_side, Literal)):
            return DEFAULT_SELECTIVITY
        column = self._column(column_side.name, stats, renames)
        value = literal_side.value
        if column is None or not isinstance(value, (int, float)):
            return DEFAULT_SELECTIVITY
        if op == "==":
            return 1.0 / max(1, column.distinct)
        if op == "!=":
            return 1.0 - 1.0 / max(1, column.distinct)
        width = column.width
        if width <= 0:
            # Constant column: the comparison is all-or-nothing.
            reference = column.minimum
            outcome = {
                "<": reference < value, "<=": reference <= value,
                ">": reference > value, ">=": reference >= value,
            }[op]
            return 1.0 if outcome else 0.0
        if op in ("<", "<="):
            return (value - column.minimum) / width
        return (column.maximum - value) / width

    def _between_selectivity(self, expr: Between, stats, renames) -> float:
        operand, low, high = expr.operand, expr.low, expr.high
        if not (
            isinstance(operand, ColumnRef)
            and isinstance(low, Literal)
            and isinstance(high, Literal)
        ):
            return DEFAULT_SELECTIVITY
        column = self._column(operand.name, stats, renames)
        if column is None:
            return DEFAULT_SELECTIVITY
        lo = max(column.minimum, float(low.value))
        hi = min(column.maximum, float(high.value))
        if hi < lo:
            return 0.0
        if column.width <= 0:
            return 1.0
        if column.integral:
            # Inclusive integer range: count the values, not the span.
            return (hi - lo + 1.0) / (column.width + 1.0)
        return (hi - lo) / column.width

    def expr_distinct(self, expr: Expr, stats: TableStats | None, renames) -> int:
        """Distinct-value estimate for a group-key expression."""
        if isinstance(expr, ColumnRef):
            column = self._column(expr.name, stats, renames)
            return column.distinct if column is not None else 1024
        if isinstance(expr, BinaryOp):
            operand_distinct = max(
                (self.expr_distinct(child, stats, renames)
                 for child in (expr.left, expr.right)
                 if not isinstance(child, Literal)),
                default=1024,
            )
            if expr.op == "%" and isinstance(expr.right, Literal) and isinstance(
                expr.right.value, (int, float)
            ) and expr.right.value:
                return min(operand_distinct, int(abs(expr.right.value)))
            return operand_distinct
        if isinstance(expr, Literal):
            return 1
        children = [
            self.expr_distinct(child, stats, renames) for child in expr.children()
        ]
        return max(children, default=1024)

    # What an :class:`~repro.engines.estimate.EstimateRuntime` asks for.
    def _stats(self, database: Database, pipeline: Pipeline) -> TableStats | None:
        if pipeline.source_is_virtual:
            return None
        return self.statistics.table_stats(database, pipeline.source)

    def selectivity(self, database: Database, pipeline: Pipeline, predicate: Expr) -> float:
        return self.predicate_selectivity(
            predicate, self._stats(database, pipeline), pipeline.source_rename
        )

    def groups(self, database: Database, pipeline: Pipeline, rows: int) -> int:
        """Groups ``rows`` rows reaching ``pipeline``'s sink fall into."""
        stats = self._stats(database, pipeline)
        product = 1
        for _name, expr in pipeline.sink.group_keys:
            product *= max(1, self.expr_distinct(expr, stats, pipeline.source_rename))
            product = min(product, max(1, rows))
        return product

    # ------------------------------------------------------------------
    # per-strategy estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: PhysicalQuery,
        database: Database,
        strategy: StrategyChoice,
        resident_columns: frozenset = frozenset(),
        resident_tables: frozenset[int] = frozenset(),
        record: Profile | None = None,
    ) -> CostEstimate:
        """Predict the full cost of executing ``query`` under
        ``strategy``.  What the pooled device already holds counts under
        pooled placement only: ``resident_tables`` are the indexes of
        the build pipelines whose hash tables are resident — execution
        skips them, so their kernels, traffic and column loads are not
        priced — and ``resident_columns`` (``(table, column)``) the base
        columns, of the pipelines that do run, already there: they leave
        the h2d charge, and a pipeline that is first to read none but
        them loads nothing.  The kernels a pricing looks up are logged
        on ``record``, the query's record (if any)."""
        estimate = CostEstimate(strategy=strategy)
        resident_bytes = sum(
            self._wire_nbytes(database.table(table).column(name))
            for table, name in resident_columns
        )
        table_budget = 0  # resident hash/aggregation tables
        raw_h2d_bytes = 0  # decoded footprint (device memory, not link)
        pipes = self._pipeline_estimates(
            query, database, strategy.engine,
            resident_tables if strategy.placement == "pooled" else frozenset(), record,
        )
        estimate.pipelines = list(pipes)
        for pipeline, pipe in zip(query.pipelines, pipes):
            estimate.global_bytes += pipe.global_bytes
            estimate.onchip_bytes += pipe.onchip_bytes
            estimate.kernel_ms += pipe.kernel_ms
            # The link carries wire (possibly compressed) bytes; the
            # decoded columns still occupy raw bytes on device.
            estimate.pcie_h2d_bytes += pipe.wire_bytes
            raw_h2d_bytes += pipe.input_bytes
            if isinstance(pipeline.sink, BuildSink):
                payload = len(pipeline.sink.payload)
                table_budget += pipe.rows_out * (16 + 8 * payload)
            elif isinstance(pipeline.sink, AggregateSink):
                width = 8 * (len(pipeline.sink.group_keys)
                             + len(pipeline.sink.aggregates))
                table_budget += max(pipe.groups, 1) * (8 + width)
        estimate.pcie_d2h_bytes = pipes[-1].output_bytes

        scratch = max(
            (16 * pipe.rows_in for pipe in estimate.pipelines), default=0
        )
        estimate.peak_device_bytes = (
            raw_h2d_bytes + resident_bytes + table_budget + scratch
            + estimate.pcie_d2h_bytes
        )
        if strategy.placement == "pooled":
            estimate.pcie_h2d_bytes = max(0, estimate.pcie_h2d_bytes - resident_bytes)
        else:
            resident_columns = frozenset()
        self._apply_macro(estimate, query, strategy, resident_columns)
        return estimate

    def _wire_nbytes(self, column) -> int:
        """What ``column`` occupies on the link and in a pool."""
        if self.compression is None:
            return column.nbytes
        return self.compression.wire_nbytes(column)

    # ------------------------------------------------------------------
    def _pipeline_estimates(
        self,
        query: PhysicalQuery,
        database: Database,
        engine_name: str,
        resident: frozenset[int] = frozenset(),
        record: Profile | None = None,
    ) -> list[PipelineEstimate]:
        """One estimate per pipeline: what ``engine_name``'s own kernels
        charge over the estimated cardinalities (the build pipelines at
        the ``resident`` indexes priced as not running).  A pure function
        of the plan, the micro engine, the device profile, the
        compression policy, the statistics' sample size, the catalog
        version and ``resident`` — so the plan object keeps it, for the
        candidates of one ``advise`` that differ only in macro model,
        device count or placement, and for every later ``advise`` of the
        same cached plan; an entry priced on another catalog version is
        replaced."""
        key = (
            engine_name,
            self.profile,
            self.compression.mode if self.compression is not None else None,
            self.statistics.sample_limit,
            resident,
        )
        version = database.fingerprint()
        cached = query.estimates.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        if resident:
            pipes = self._skip_resident(
                query, database,
                self._pipeline_estimates(query, database, engine_name, record=record),
                resident,
            )
            query.estimates[key] = (version, pipes)
            return pipes
        engine = make_engine(engine_name)
        runtime = EstimateRuntime(
            self.cost_model, self.interconnect, database, self, self.compression
        )
        log = runtime.device.log
        notes = getattr(runtime.compression_stats(), "scans", [])
        pipes, seen = [], frozenset()
        for pipeline in query.pipelines:
            first_reads = frozenset(pipeline.base_columns()) - seen
            seen |= first_reads
            marks, noted = (len(log.kernels), len(log.transfers)), len(notes)
            rows_in = runtime.source_rows(pipeline)
            rows_out, groups = engine.estimate_pipeline(pipeline, runtime)
            priced = LogSlice(log.kernels[marks[0]:], log.transfers[marks[1]:])
            pipe = PipelineEstimate(
                name=pipeline.name,
                source=pipeline.source,
                rows_in=rows_in,
                selectivity=rows_out / rows_in if rows_in else 0.0,
                rows_out=rows_out,
                input_bytes=priced.raw_transfer_bytes(),
                wire_bytes=priced.moved_bytes("h2d"),
                first_reads=first_reads,
                global_bytes=priced.bytes_at(MemoryLevel.GLOBAL),
                onchip_bytes=priced.bytes_at(MemoryLevel.ONCHIP),
                kernels=len(priced.kernels),
                kernel_ms=priced.kernel_time_ms,
                groups=groups,
                scan_notes=notes[noted:],
            )
            pipe.output_bytes = pipe.result_rows * self._output_width(pipeline)
            pipes.append(pipe)
            if not pipeline.is_final and pipeline.output_schema is not None:
                runtime.register_virtual_rows(
                    pipeline.output_name, pipe.result_rows, pipeline.output_schema
                )
        query.estimates[key] = (version, pipes)
        if record is not None:
            record.lookups += log.lookups
        return pipes

    def _skip_resident(
        self, query: PhysicalQuery, database: Database, pipes, resident: frozenset[int]
    ) -> list[PipelineEstimate]:
        """``pipes`` as execution goes on a pool holding the tables of
        the ``resident`` build pipelines: those pipelines launch and
        load nothing, and a base column one of them was first to read
        is loaded by the next pipeline that reads it."""
        first_reader: dict[tuple[str, str], int] = {}
        for index, pipeline in enumerate(query.pipelines):
            for key in pipeline.base_columns():
                first_reader.setdefault(key, index)
        out = []
        for index, (pipeline, pipe) in enumerate(zip(query.pipelines, pipes)):
            if index in resident:
                out.append(replace(
                    pipe, input_bytes=0, wire_bytes=0, first_reads=frozenset(),
                    global_bytes=0, onchip_bytes=0, kernels=0, kernel_ms=0.0,
                    scan_notes=[], resident=True,
                ))
                continue
            for key in pipeline.base_columns():
                if first_reader[key] in resident:
                    first_reader[key] = index
                    column = database.table(key[0]).column(key[1])
                    pipe = replace(
                        pipe, input_bytes=pipe.input_bytes + column.nbytes,
                        wire_bytes=pipe.wire_bytes + self._wire_nbytes(column),
                        first_reads=pipe.first_reads | {key},
                    )
            out.append(pipe)
        return out

    @staticmethod
    def _output_width(pipeline: Pipeline) -> int:
        """Bytes per row of what the pipeline produces (a build: none)."""
        sink = pipeline.sink
        if isinstance(sink, BuildSink):
            return 0
        dtypes = (pipeline.output_schema or pipeline.scope_schema).dtypes
        names = dtypes if isinstance(sink, AggregateSink) else sink.outputs
        return sum(
            dtypes[name].numpy_dtype.itemsize for name in names if name in dtypes
        )

    # ------------------------------------------------------------------
    # macro / devices / transfers
    # ------------------------------------------------------------------
    def _transfer_ms(
        self, h2d_bytes: int, d2h_bytes: int, loads: int, results: int = 1
    ) -> float:
        """Link time of ``loads`` h2d transfers moving ``h2d_bytes`` and
        ``results`` packed d2h transfers moving ``d2h_bytes``.  Each
        pays the link latency — but an empty result costs nothing
        (``Interconnect.transfer_time(0, ...)`` is 0)."""
        if self.interconnect is None:
            return 0.0
        seconds = 0.0
        if h2d_bytes:
            seconds += h2d_bytes / (self.interconnect.h2d_bandwidth * 1e9)
        latencies = loads
        if d2h_bytes:
            seconds += d2h_bytes / (self.interconnect.d2h_bandwidth * 1e9)
            latencies += results
        return (seconds + latencies * self.interconnect.latency) * 1e3

    def _apply_macro(self, estimate, query, strategy, resident: frozenset) -> None:
        """Transfers, streaming and the fleet on top of the pipelines.
        Every transfer pays the link latency, so they are counted as
        execution records them: one h2d per pipeline that is first to
        read a base column not ``resident`` (``QueryRuntime.load_source``),
        one d2h for the packed result (``QueryRuntime._ship_packed``)."""
        fact = estimate.pipelines[-1]
        streamed = strategy.macro == "out-of-core"
        if (streamed or strategy.devices > 1) and query.final_pipeline.source_is_virtual:
            estimate.feasible = False
            estimate.reason = (
                "streaming and scale-out partition the base table of the "
                "final pipeline; this one reads a virtual table"
            )
            return
        # The loads of the pipelines before the final one, and its own.
        *dims, last = [bool(pipe.first_reads - resident) for pipe in estimate.pipelines]
        loads = sum(dims)
        if strategy.devices > 1:
            self._apply_scaleout(estimate, strategy.devices, fact, loads, int(last))
            return
        if not streamed:
            estimate.transfers = loads + last + 1
            estimate.transfer_ms = self._transfer_ms(
                estimate.pcie_h2d_bytes, estimate.pcie_d2h_bytes, loads + last
            )
            return
        dims_h2d = max(0, estimate.pcie_h2d_bytes - fact.wire_bytes)
        block_bytes = self.stream_block_bytes()
        blocks = max(1, math.ceil(fact.input_bytes / block_bytes))
        # The fact columns arrive as one transfer per block.
        estimate.transfers = loads + blocks + 1
        estimate.transfer_ms = self._transfer_ms(dims_h2d, estimate.pcie_d2h_bytes, loads)
        estimate.kernel_ms -= fact.kernel_ms
        estimate.overhead_ms = (
            max(self._transfer_ms(fact.wire_bytes, 0, blocks), fact.kernel_ms)
            + blocks * BLOCK_OVERHEAD * 1e3
        )
        # Streaming never holds the whole fact table on device.
        estimate.peak_device_bytes += 2 * block_bytes - fact.input_bytes

    def _apply_scaleout(self, estimate, devices, fact, broadcast, per_morsel) -> None:
        pieces = devices * MORSELS_PER_DEVICE
        dims_h2d = max(0, estimate.pcie_h2d_bytes - fact.wire_bytes)
        dims_kernel_ms = estimate.kernel_ms - fact.kernel_ms
        # Every device pays the broadcast build sides; the fact share
        # and its gather parallelize across per-device links.  Link
        # charges use wire bytes (the scatter ships compressed blocks);
        # device peaks below stay raw.
        per_device_h2d = dims_h2d + fact.wire_bytes / devices
        gather_total = fact.output_bytes * pieces
        launch_ms = (
            self.profile.kernel_launch_overhead * fact.kernels * (pieces - 1) * 1e3
        )
        # Per device: one load per ``broadcast`` pipeline; per morsel
        # one of the fact columns (each piece is a table of its own) and
        # the partial, one packed transfer (``QueryRuntime.ship_partial``).
        estimate.transfers = devices * broadcast + pieces * (per_morsel + 1)
        estimate.kernel_ms = (
            dims_kernel_ms
            + (fact.kernel_ms + launch_ms) / devices
            + self._transfer_ms(
                int(per_device_h2d), int(gather_total / devices),
                broadcast + MORSELS_PER_DEVICE * per_morsel, MORSELS_PER_DEVICE,
            )
        )
        estimate.transfer_ms = 0.0
        estimate.overhead_ms = merge_overhead_ms(pieces)
        estimate.pcie_h2d_bytes = int(dims_h2d * devices + fact.wire_bytes)
        estimate.pcie_d2h_bytes = int(gather_total)
        # Per-device peak: broadcast dims + this device's fact share.
        estimate.peak_device_bytes = int(
            estimate.peak_device_bytes - fact.input_bytes * (1 - 1 / devices)
        )
