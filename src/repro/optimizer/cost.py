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

For each candidate the :class:`CostEstimator` predicts the per-pipeline
traffic a real execution would record in its
:class:`~repro.hardware.traffic.TrafficMeter` — GLOBAL/ONCHIP bytes,
atomic batches with conflict-chain lengths, kernel launches — and then
prices that synthetic meter through the *same*
:class:`~repro.hardware.costmodel.KernelCostModel` the simulator uses,
so predicted and observed times share one cost model and the only error
sources are cardinality estimates and the per-engine byte shapes
(which the calibration loop corrects online).

The per-engine byte shapes mirror what the engines actually emit (see
``tests/test_optimizer.py`` for the fidelity checks):

* compound engines stream every required column once and add hash-table
  traffic; ``pipelined`` pays same-address atomic chains (prefix sums,
  contended aggregation), ``resolution`` pays on-chip pre-aggregation
  traffic that grows with the group count;
* multipass adds the count/prefix/write passes (re-reading inputs);
* operator-at-a-time materializes every intermediate and, like
  multipass, falls back to sort-based grouping (~140 bytes/row) —
  the reason compound kernels win grouped aggregation by an order of
  magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..compression.lazy import (
    LazyColumn,
    flatten_conjuncts,
    plan_scan,
    register_decode,
)
from ..engines import make_engine
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
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from ..kernels.codegen import sink_input_columns
from ..macro.batch import BLOCK_OVERHEAD
from ..primitives.reduce import charge_atomic_reduce, charge_lrgp_reduce
from ..plan.physical import (
    AggregateSink,
    BuildSink,
    FilterStage,
    MapStage,
    MaterializeSink,
    PhysicalQuery,
    Pipeline,
    ProbeStage,
)
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

_GLOBAL = MemoryLevel.GLOBAL
_ONCHIP = MemoryLevel.ONCHIP

#: Host-side scatter-gather merge overhead for scale-out: a fixed cost
#: plus a per-partial term (modeled ms).
_MERGE_BASE_MS = 0.06
_MERGE_PER_PARTIAL_MS = 0.012


def merge_overhead_ms(pieces: int) -> float:
    """Modeled host merge cost of ``pieces`` gathered partials.  The
    estimator charges it and the executor observes it, so calibration
    compares like with like on the simulated clock (the wall-clock
    merge stays on ``ScaleOutStats.merge_ms`` for reporting)."""
    return _MERGE_BASE_MS + _MERGE_PER_PARTIAL_MS * pieces


@dataclass(frozen=True)
class StrategyChoice:
    """One point in the execution-strategy lattice."""

    engine: str = "resolution"
    macro: str = "run-to-finish"
    devices: int = 1
    partitioning: str = "range"
    placement: str = "pooled"

    def key(self) -> tuple:
        """Hashable identity (used by the plan cache and calibration)."""
        return (self.engine, self.macro, self.devices, self.partitioning,
                self.placement)

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
    #: Exact bytes of the distinct source columns the pipeline reads
    #: (what materializes in device memory for base-table pipelines).
    input_bytes: int
    #: Bytes that cross the link for those columns: the compressed wire
    #: size when a compression policy is set, else ``input_bytes``.
    wire_bytes: int = 0
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
    feasible: bool = True
    reason: str = ""
    #: ``total_ms`` after the calibration factor (advisor ranking key).
    calibrated_ms: float = 0.0

    @property
    def pcie_bytes(self) -> int:
        return self.pcie_h2d_bytes + self.pcie_d2h_bytes

    @property
    def total_ms(self) -> float:
        """Uncalibrated end-to-end prediction (kernels + transfers +
        host overheads, serialized — matching ``ExecutionResult.total_ms``
        for one device and makespan+merge for a fleet)."""
        return self.kernel_ms + self.transfer_ms + self.overhead_ms


class _FusedReads:
    """What a pipeline's kernels charge for its wire-resident input
    columns: the stage walk of :class:`~repro.kernels.context.KernelContext`
    (``filter_stage`` / ``touch``) over estimated rows, through the same
    :func:`~repro.compression.lazy.plan_scan` and
    :func:`~repro.compression.lazy.register_decode` — so EXPLAIN and
    execution cannot disagree about what a fused read costs."""

    def __init__(self):
        self.columns: dict[str, LazyColumn] = {}
        #: Raw bytes of those columns, which the kernels do not stream.
        self.raw_bytes = 0
        self.meter = TrafficMeter()
        self.notes: list[str] = []
        self._loaded: set[str] = set()

    def touch(self, names, rows: int) -> None:
        """First read of each column, ``rows`` rows alive."""
        for name in sorted(names):
            state = self.columns.get(name)
            if state is None or name in self._loaded:
                continue
            self._loaded.add(name)
            self.notes.append(state.decode(rows, self.meter))

    def filter(self, predicate: Expr, rows: int) -> None:
        """One FilterStage: a compressed scan per conjunct where
        ``plan_scan`` finds one, a first read of its columns otherwise."""
        if not self.columns:
            return
        for conjunct in flatten_conjuncts(predicate):
            names = conjunct.columns()
            name = next(iter(names), None)
            state = self.columns.get(name) if len(names) == 1 else None
            plan = None
            if state is not None and name not in self._loaded:
                plan = plan_scan(state, conjunct, name, rows)
            if plan is None:
                self.touch(names, rows)
            else:
                plan.charge(self.meter)
                self.notes.append(plan.note(state.label))

    def reread(self, rows: int) -> None:
        """A second kernel reading every column again (multi-pass)."""
        for state in self.columns.values():
            register_decode(state.encoded, rows, meter=self.meter)


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
        #: Wire-compression policy execution will run under: the model
        #: learns per-column compressed sizes (cached on the columns, so
        #: estimation shares the encodings execution will use) and
        #: prices the decode that pays for the link savings — fused into
        #: the reading kernels, or a kernel of its own where the engine
        #: materializes at load (``Engine.lazy_capable``).
        self.compression = compression if self.interconnect is not None else None
        self._pipelines_memo: tuple | None = None

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

    # ------------------------------------------------------------------
    # per-strategy estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: PhysicalQuery,
        database: Database,
        strategy: StrategyChoice,
        resident_bytes: int = 0,
    ) -> CostEstimate:
        """Predict the full cost of executing ``query`` under
        ``strategy``.  ``resident_bytes`` discounts the h2d charge for
        base columns already pooled on the device (pooled placement)."""
        estimate = CostEstimate(strategy=strategy)
        table_budget = 0  # resident hash/aggregation tables
        final = query.final_pipeline
        fact_pipeline_est: PipelineEstimate | None = None
        raw_h2d_bytes = 0  # decoded footprint (device memory, not link)
        pipes = self._pipeline_estimates(query, database, strategy.engine)
        for pipeline, pipe in zip(query.pipelines, pipes):
            estimate.pipelines.append(pipe)
            estimate.global_bytes += pipe.global_bytes
            estimate.onchip_bytes += pipe.onchip_bytes
            estimate.kernel_ms += pipe.kernel_ms
            if not pipeline.source_is_virtual:
                # The link carries wire (possibly compressed) bytes;
                # the decoded columns still occupy raw bytes on device.
                estimate.pcie_h2d_bytes += pipe.wire_bytes
                raw_h2d_bytes += pipe.input_bytes
            if isinstance(pipeline.sink, BuildSink):
                payload = len(pipeline.sink.payload)
                table_budget += pipe.rows_out * (16 + 8 * payload)
            elif isinstance(pipeline.sink, AggregateSink):
                width = 8 * (len(pipeline.sink.group_keys)
                             + len(pipeline.sink.aggregates))
                table_budget += max(pipe.groups, 1) * (8 + width)
            if pipeline is final:
                estimate.pcie_d2h_bytes += pipe.output_bytes
                fact_pipeline_est = pipe

        scratch = max(
            (16 * pipe.rows_in for pipe in estimate.pipelines), default=0
        )
        estimate.peak_device_bytes = (
            raw_h2d_bytes + resident_bytes + table_budget + scratch
            + estimate.pcie_d2h_bytes
        )
        #: Share of the base columns' bytes that still cross the link;
        #: their per-transfer latencies are charged in proportion.
        shipped = 1.0
        if strategy.placement == "pooled" and estimate.pcie_h2d_bytes:
            cold = estimate.pcie_h2d_bytes
            estimate.pcie_h2d_bytes = max(0, cold - resident_bytes)
            shipped = estimate.pcie_h2d_bytes / cold
        self._apply_macro(estimate, query, strategy, fact_pipeline_est, shipped)
        return estimate

    # ------------------------------------------------------------------
    def _pipeline_estimates(
        self, query: PhysicalQuery, database: Database, engine_name: str
    ) -> list[PipelineEstimate]:
        """One estimate per pipeline.  They depend on the micro engine
        alone, so the candidates of one ``advise`` that differ only in
        macro model, device count or placement share them (the advisor
        enumerates engine-major; the last answer is kept, keyed by the
        query object, the catalog version and the engine)."""
        key = (engine_name, database.fingerprint())
        memo = self._pipelines_memo
        if memo is not None and memo[0] is query and memo[1] == key:
            return memo[2]
        virtual_rows: dict[str, int] = {}
        #: build table id -> (match fraction, payload columns, rows)
        builds: dict[str, tuple[float, int, int]] = {}
        # Which pipelines read wire images is the engine's own answer.
        engine = make_engine(engine_name) if self.compression is not None else None
        pipes = []
        for pipeline in query.pipelines:
            pipe = self._estimate_pipeline(
                pipeline, database, engine_name, virtual_rows, builds,
                fused=engine is not None and engine.lazy_capable(pipeline),
            )
            pipes.append(pipe)
            if (
                pipeline is not query.final_pipeline
                and pipeline.output_schema is not None
            ):
                virtual_rows[pipeline.output_name] = pipe.rows_out
        self._pipelines_memo = (query, key, pipes)
        return pipes

    def _estimate_pipeline(
        self, pipeline: Pipeline, database, engine: str, virtual_rows, builds,
        fused: bool,
    ) -> PipelineEstimate:
        stats: TableStats | None = None
        renames = pipeline.source_rename
        #: The pipeline's wire-resident input columns by scope name, when
        #: its engine decodes them in the reading kernels (``fused``).
        reads = _FusedReads()
        if pipeline.source_is_virtual:
            rows_in = virtual_rows.get(pipeline.source, 1)
            input_bytes = 8 * rows_in * max(1, len(pipeline.required_columns))
            wire_bytes = input_bytes
        else:
            table = database.table(pipeline.source)
            stats = self.statistics.table_stats(database, pipeline.source)
            rows_in = stats.rows
            seen = set()
            input_bytes = 0
            wire_bytes = 0
            for name in pipeline.required_columns:
                base = renames.get(name, name)
                column = table.column(base)
                # Per-column wire encoding (cached on the column, so the
                # estimator prices the exact encodings execution ships).
                encoded = (
                    self.compression.encoded(column)
                    if self.compression is not None
                    else None
                )
                compressed = encoded is not None and encoded.codec != "passthrough"
                if fused and compressed:
                    reads.columns[name] = LazyColumn(
                        f"{pipeline.source}.{base}", encoded, column.values
                    )
                if base not in seen:
                    seen.add(base)
                    input_bytes += column.nbytes
                    wire_bytes += encoded.wire_nbytes if compressed else column.nbytes
                    if fused and compressed:
                        reads.raw_bytes += column.nbytes

        selectivity = 1.0
        probe_traffic = 0.0
        map_count = 0
        pred_bytes = 0
        rows = float(rows_in)
        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                reads.filter(stage.predicate, int(rows))
                stage_sel = self.predicate_selectivity(
                    stage.predicate, stats, renames
                )
                selectivity *= stage_sel
                if stats is not None and not pipeline.source_is_virtual:
                    for name in stage.predicate.columns():
                        base = renames.get(name, name)
                        column = stats.column(base)
                        if column is not None:
                            pred_bytes += 4 * rows_in
                rows = rows_in * selectivity
            elif isinstance(stage, ProbeStage):
                for key in stage.probe_keys:
                    reads.touch(key.columns(), int(rows))
                fraction, payload, _build_rows = builds.get(
                    stage.table_id, (1.0, 0, 0)
                )
                # Slot lookups for every surviving probe row; hits also
                # read the entry and fetch the payload columns.
                probe_traffic += rows * (8 + fraction * (16 + 8 * payload))
                if stage.kind == "inner":
                    selectivity *= min(1.0, fraction)
                if stage.residual is not None:
                    reads.touch(stage.residual.columns(), int(rows_in * selectivity))
                    selectivity *= self.predicate_selectivity(
                        stage.residual, None, renames
                    )
                rows = rows_in * selectivity
            elif isinstance(stage, MapStage):
                reads.touch(stage.expr.columns(), int(rows))
                map_count += 1
        rows_out = max(0, int(round(rows_in * selectivity)))
        reads.touch(sink_input_columns(pipeline.sink), rows_out)
        if engine == "multipass":
            # The write kernel re-reads for the flagged rows only.
            reads.reread(rows_out)

        groups = 0
        sink = pipeline.sink
        if isinstance(sink, AggregateSink):
            if sink.group_keys:
                product = 1
                for _name, expr in sink.group_keys:
                    product *= max(1, self.expr_distinct(expr, stats, renames))
                    product = min(product, max(1, rows_out))
                groups = max(1, product)
            else:
                groups = 1
        output_bytes = self._output_bytes(pipeline, rows_out, groups)
        if isinstance(sink, BuildSink):
            fraction = rows_out / rows_in if rows_in else 0.0
            builds[sink.table_id] = (fraction, len(sink.payload), rows_out)

        pipe = PipelineEstimate(
            name=pipeline.name,
            source=pipeline.source,
            rows_in=rows_in,
            selectivity=selectivity,
            rows_out=rows_out,
            input_bytes=input_bytes,
            wire_bytes=wire_bytes,
            output_bytes=output_bytes,
            groups=groups,
            scan_notes=reads.notes,
        )
        self._engine_traffic(
            pipe, pipeline, engine, probe_traffic, pred_bytes, map_count, reads,
        )
        if pipe.wire_bytes < pipe.input_bytes and not fused:
            # The engine materializes at load: a decompression kernel
            # reads the wire image and writes the raw columns back to
            # global memory before the pipeline proper starts.
            decode = TrafficMeter()
            decode.record_read(_GLOBAL, pipe.wire_bytes)
            decode.record_write(_GLOBAL, pipe.input_bytes)
            decode.record_instructions(2 * rows_in)
            breakdown = self.cost_model.breakdown(decode, kind="decode")
            pipe.kernel_ms += breakdown.total * 1e3
            pipe.global_bytes += pipe.wire_bytes + pipe.input_bytes
            pipe.kernels += 1
        return pipe

    def _output_bytes(self, pipeline: Pipeline, rows_out: int, groups: int) -> int:
        sink = pipeline.sink
        if isinstance(sink, BuildSink):
            return 0
        schema = pipeline.output_schema or pipeline.scope_schema
        if isinstance(sink, AggregateSink):
            result_rows = min(groups, max(rows_out, 1)) if groups else 1
            width = sum(
                dtype.numpy_dtype.itemsize for dtype in schema.dtypes.values()
            ) or 8 * (len(sink.group_keys) + len(sink.aggregates))
            return result_rows * width
        width = (
            sum(
                schema.dtypes[name].numpy_dtype.itemsize
                for name in sink.outputs
                if name in schema.dtypes
            )
            or 8 * len(sink.outputs)
        )
        return rows_out * width

    # ------------------------------------------------------------------
    # per-engine traffic shapes
    # ------------------------------------------------------------------
    def _engine_traffic(
        self,
        pipe: PipelineEstimate,
        pipeline: Pipeline,
        engine: str,
        probe_traffic: float,
        pred_bytes: int,
        map_count: int,
        reads: "_FusedReads",
    ) -> None:
        """Fill ``pipe.global_bytes/onchip_bytes/kernels/kernel_ms``
        with the byte shape of ``engine`` priced through the shared
        kernel cost model.  ``reads`` carries what the kernels charge
        for wire-resident input columns, in place of their raw bytes."""
        rows_in, rows_out = pipe.rows_in, pipe.rows_out
        #: Raw bytes the kernels stream from input columns.
        scanned = pipe.input_bytes - reads.raw_bytes
        sink = pipeline.sink
        is_agg = isinstance(sink, AggregateSink)
        is_build = isinstance(sink, BuildSink)
        groups = max(1, pipe.groups)
        n_aggs = len(sink.aggregates) if is_agg else 0
        payload = len(sink.payload) if is_build else 0
        out_dev = pipe.output_bytes
        build_traffic = 2 * rows_out * (16 + 8 * payload) if is_build else 0
        has_filter = any(
            isinstance(stage, FilterStage) for stage in pipeline.stages
        )

        meter = TrafficMeter()
        kind = "compound"
        if engine in ("pipelined", "resolution", "resolution-simd",
                      "resolution-we"):
            glob = scanned + probe_traffic + build_traffic + out_dev
            kernels = 1
            if is_agg and not sink.group_keys:
                # Single-tuple aggregation: the context's own charge
                # (``KernelContext.single_aggregate_cost``), per accumulator.
                for spec in sink.aggregates:
                    for _ in range(2 if spec.op == "avg" else 1):
                        if engine == "pipelined":
                            charge_atomic_reduce(meter, rows_out)
                        else:
                            charge_lrgp_reduce(
                                meter, rows_out, 4, self.profile,
                                "work_efficient" if engine == "resolution-we" else "simd",
                            )
            elif is_agg:
                if engine == "pipelined":
                    glob += 1.5 * rows_out * 8 * (1 + n_aggs)
                    meter.record_atomics(AtomicBatch(
                        count=max(1, rows_out),
                        max_chain=min(rows_out, max(4, rows_out // groups)),
                        kind="rmw",
                    ))
                else:
                    # Local-resolution pre-aggregation in scratchpad:
                    # each workgroup owns a private table of `groups`
                    # entries, flushed once at the end.
                    workgroups = max(1, rows_in // 900)
                    entry = 8 * (1 + n_aggs)
                    meter.record_read(
                        _ONCHIP, int(workgroups * groups * entry / 2)
                    )
                    meter.record_write(
                        _ONCHIP, int(workgroups * groups * entry / 2)
                    )
                    meter.record_barrier(workgroups * 128)
                    glob += min(workgroups, 8) * groups * entry / 8
                    flush_count = max(1, workgroups * min(groups, 128))
                    meter.record_atomics(AtomicBatch(
                        count=flush_count,
                        max_chain=min(4, flush_count), kind="rmw",
                    ))
            elif isinstance(sink, MaterializeSink) and rows_out:
                if engine == "pipelined":
                    meter.record_atomics(AtomicBatch(
                        count=rows_out, max_chain=rows_out, kind="fetch_add"
                    ))
                else:
                    workgroups = max(1, rows_in // 900)
                    meter.record_atomics(AtomicBatch(
                        count=workgroups, max_chain=min(4, workgroups),
                        kind="fetch_add",
                    ))
                    meter.record_read(_ONCHIP, 8 * rows_in)
                    meter.record_barrier(workgroups)
            if is_build and rows_out:
                meter.record_atomics(AtomicBatch(
                    count=rows_out, max_chain=min(4, rows_out), kind="rmw"
                ))
        elif engine == "multipass":
            kind = "write"
            flags = 4 * rows_in if has_filter else 0
            count_pass = scanned + flags
            prefix_pass = 16 * rows_in
            write_pass = (
                scanned + flags + 4 * rows_out + out_dev
                + build_traffic + probe_traffic
            )
            glob = count_pass + prefix_pass + write_pass + probe_traffic
            kernels = 5
            if is_agg:
                # Materialize groups, then sort-based aggregation:
                # 4 radix passes + segmented reduce.
                glob += rows_out * (128 + 14) + rows_out * 8 * (1 + n_aggs)
                kernels += 6
        else:  # operator-at-a-time (and anything unknown)
            kind = "scan"
            select_cost = (pred_bytes or pipe.input_bytes // 2) + 4 * rows_in
            prefix_pass = 16 * rows_in
            materialize = pipe.input_bytes + 16 * rows_out
            glob = (
                select_cost + prefix_pass + materialize
                + map_count * 16 * max(rows_out, 1)
                + 3 * probe_traffic + build_traffic + out_dev
            )
            kernels = 5 + map_count + 2 * sum(
                1 for stage in pipeline.stages if isinstance(stage, ProbeStage)
            )
            if is_agg:
                glob += rows_out * (128 + 14)
                kernels += 6
        meter.record_read(_GLOBAL, int(max(0, glob) * 0.6))
        meter.record_write(_GLOBAL, int(max(0, glob) * 0.4))
        meter.record_instructions(4 * rows_in)
        meter.merge(reads.meter)
        glob += reads.meter.bytes_at(_GLOBAL)
        breakdown = self.cost_model.breakdown(meter, kind=kind)
        launch = self.profile.kernel_launch_overhead * max(0, kernels - 1)
        pipe.global_bytes = int(glob)
        pipe.onchip_bytes = meter.bytes_at(_ONCHIP)
        pipe.kernels = kernels
        pipe.kernel_ms = (breakdown.total + launch) * 1e3

    # ------------------------------------------------------------------
    # macro / devices / transfers
    # ------------------------------------------------------------------
    def _transfer_ms(self, h2d_bytes: int, d2h_bytes: int, transfers: int = 2) -> float:
        if self.interconnect is None:
            return 0.0
        seconds = 0.0
        if h2d_bytes:
            seconds += h2d_bytes / (self.interconnect.h2d_bandwidth * 1e9)
        if d2h_bytes:
            seconds += d2h_bytes / (self.interconnect.d2h_bandwidth * 1e9)
        return (seconds + transfers * self.interconnect.latency) * 1e3

    def _apply_macro(
        self,
        estimate: CostEstimate,
        query: PhysicalQuery,
        strategy: StrategyChoice,
        fact: PipelineEstimate | None,
        shipped: float,
    ) -> None:
        # One h2d per base column that is not resident, plus the result.
        columns = sum(
            len(set(p.required_columns)) for p in query.pipelines
            if not p.source_is_virtual
        )
        transfers = round(columns * shipped) + 1
        if strategy.devices > 1:
            self._apply_scaleout(estimate, query, strategy, fact)
            return
        if strategy.macro == "out-of-core":
            if query.final_pipeline.source_is_virtual or fact is None:
                estimate.feasible = False
                estimate.reason = (
                    "out-of-core streaming needs a base-table final pipeline"
                )
                return
            dims_h2d = max(0, estimate.pcie_h2d_bytes - fact.wire_bytes)
            dims_kernel_ms = estimate.kernel_ms - fact.kernel_ms
            stream_transfer_ms = self._transfer_ms(fact.wire_bytes, 0, 0)
            block_bytes = self.stream_block_bytes()
            blocks = max(1, math.ceil(fact.input_bytes / block_bytes))
            stream_ms = (
                max(stream_transfer_ms, fact.kernel_ms)
                + blocks * BLOCK_OVERHEAD * 1e3
            )
            estimate.transfer_ms = self._transfer_ms(
                dims_h2d, estimate.pcie_d2h_bytes, transfers
            )
            estimate.kernel_ms = dims_kernel_ms
            estimate.overhead_ms = stream_ms
            # Streaming never holds the whole fact table on device.
            estimate.peak_device_bytes = (
                estimate.peak_device_bytes - fact.input_bytes
                + 2 * block_bytes
            )
            return
        estimate.transfer_ms = self._transfer_ms(
            estimate.pcie_h2d_bytes, estimate.pcie_d2h_bytes, transfers
        )

    def _apply_scaleout(
        self,
        estimate: CostEstimate,
        query: PhysicalQuery,
        strategy: StrategyChoice,
        fact: PipelineEstimate | None,
    ) -> None:
        devices = strategy.devices
        if query.final_pipeline.source_is_virtual or fact is None:
            estimate.feasible = False
            estimate.reason = (
                "scale-out cannot partition a virtual-table final pipeline"
            )
            return
        pieces = devices * MORSELS_PER_DEVICE
        dims_h2d = max(0, estimate.pcie_h2d_bytes - fact.wire_bytes)
        dims_kernel_ms = estimate.kernel_ms - fact.kernel_ms
        # Every device pays the broadcast build sides; the fact share
        # and its gather parallelize across per-device links.  Link
        # charges use wire bytes (the scatter ships compressed blocks);
        # device peaks below stay raw.
        per_device_h2d = dims_h2d + fact.wire_bytes / devices
        gather_per_piece = fact.output_bytes
        gather_total = gather_per_piece * pieces
        per_device_d2h = gather_total / devices
        launch_ms = (
            self.profile.kernel_launch_overhead * fact.kernels
            * (pieces - 1) * 1e3
        )
        makespan_ms = (
            dims_kernel_ms
            + fact.kernel_ms / devices
            + launch_ms / devices
            + self._transfer_ms(
                int(per_device_h2d), int(per_device_d2h),
                transfers=2 + MORSELS_PER_DEVICE,
            )
        )
        estimate.kernel_ms = makespan_ms
        estimate.transfer_ms = 0.0
        estimate.overhead_ms = merge_overhead_ms(pieces)
        estimate.pcie_h2d_bytes = int(dims_h2d * devices + fact.wire_bytes)
        estimate.pcie_d2h_bytes = int(gather_total)
        # Per-device peak: broadcast dims + this device's fact share.
        estimate.peak_device_bytes = int(
            estimate.peak_device_bytes - fact.input_bytes * (1 - 1 / devices)
        )
