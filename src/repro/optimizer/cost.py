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

No byte shape and no execution rule lives here: a candidate is priced
by the engine's own query loop (:meth:`Engine.run_pipelines
<repro.engines.base.Engine.run_pipelines>`) — an out-of-core one by the
block streamer's (:class:`~repro.macro.batch._BlockStreamer`), block by
block — run over row *counts* on an
:class:`~repro.engines.estimate.EstimateRuntime` — a fleet's by each
device turn the scale-out executor runs
(:func:`~repro.scaleout.executor.estimate_turn`) — and read off that
run's query record.  This module supplies the cardinalities statistics
can estimate — a predicate's selectivity and a sink's group count — and
the arithmetic of what the loop does not run: a one-device result's
d2h and a fleet's host merge.  An estimate is a pure function of (plan,
statistics, compression policy, what is resident).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..engines import make_engine
from ..engines.estimate import EstimateRuntime, Outpriced, check_bound
from ..expressions.expr import (
    Between, BinaryOp, BooleanOp, ColumnRef, Comparison, Expr, InList, Literal, Not,
)
from ..hardware.costmodel import KernelCostModel
from ..hardware.interconnect import Interconnect
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import MemoryLevel, PipelineRecord, Profile
from ..expressions.schema import infer_dtype
from ..macro.batch import _BlockStreamer, streaming_mode
from ..plan.physical import (
    AggregateSink, BuildSink, FilterStage, PhysicalQuery, Pipeline, ProbeStage,
)
from ..primitives.hashtable import TableEstimate
from ..placement.executor import base_columns
from ..scaleout.executor import estimate_turn
from ..scaleout.merge import rewrite_for_partials
from ..scaleout.partition import MORSELS_PER_DEVICE, fleet_partitions
from ..scaleout.scheduler import assign_pieces
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


def probe_ranks(
    query: PhysicalQuery, database: Database, statistics: StatisticsCatalog
) -> dict[str, float]:
    """The rank ``(s - 1) / c`` of probing each hash table ``query``
    builds, by table id.  ``s`` is the share of its source's rows the
    build keeps: its filters read off the sample
    (:meth:`StatisticsCatalog.sampled_selectivity`), a probe it makes
    keeping the share of the table it probes, as :class:`TableEstimate`
    assumes.  ``c`` is the bytes one probing row is expected to read of
    a table of ``s x rows`` rows (:meth:`TableEstimate.probe_row_bytes`).
    A lower rank drops more rows per byte read, so runs first
    (:func:`~repro.plan.waves.order_probes`).  A table the sample
    cannot size — built from a virtual source, through a residual or a
    filter it cannot evaluate, or probing such a table — has no rank."""
    shares: dict[str, float] = {}
    ranks: dict[str, float] = {}
    for pipeline in query.pipelines:
        sink = pipeline.sink
        if not isinstance(sink, BuildSink) or pipeline.source_is_virtual:
            continue
        share = 1.0
        for stage in pipeline.stages:
            if isinstance(stage, FilterStage):
                kept = statistics.sampled_selectivity(database, pipeline, stage.predicate)
            elif isinstance(stage, ProbeStage):
                probed = None if stage.residual is not None else shares.get(stage.table_id)
                kept = None if probed is None else {
                    "anti": 1.0 - probed, "left": 1.0
                }.get(stage.kind, probed)
            else:
                continue  # a map keeps every row
            if kept is None:
                break
            share *= kept
        else:
            dtypes = pipeline.scope_schema.dtypes
            table = TableEstimate(
                rows=int(round(share * database.table(pipeline.source).num_rows)),
                match_fraction=share,
                key_bytes=sum(infer_dtype(key, dtypes).itemsize for key in sink.keys),
                payload={name: np.zeros(1, dtypes[name].numpy_dtype) for name in sink.payload},
            )
            shares[sink.table_id] = share
            ranks[sink.table_id] = (share - 1.0) / table.probe_row_bytes()
    return ranks


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
    """Predicted cardinalities of one pipeline; its traffic is read off
    its row of the priced query record, as EXPLAIN ANALYZE reads an
    executed one."""

    name: str
    source: str
    rows_in: int
    rows_out: int
    groups: int = 0
    #: The base columns, ``(table, column)``, its load is first to read
    #: (a fused group's: its first member's), pool-resident or not.
    first_reads: frozenset = frozenset()
    #: Per wire-resident column, what its kernels fused (compressed scan
    #: or register decode): the notes of ``CompressionStats.scans``.
    scan_notes: list = field(default_factory=list)
    #: A build the pool serves under the strategy priced: it does not
    #: run (``rows_out`` still sizes the table it stands for).
    resident: bool = False

    #: Its row of the priced record.  Not a field: ``asdict`` / ``==`` /
    #: ``repr`` carry the cardinalities only.
    record = PipelineRecord()

    @property
    def result_rows(self) -> int:
        """Rows of the table the pipeline leaves behind."""
        return self.record.rows_out

    @property
    def kernels(self) -> int:
        return len(self.record.kernels)

    @property
    def kernel_ms(self) -> float:
        return self.record.kernel_time_ms

    @property
    def global_bytes(self) -> int:
        return self.record.bytes_at(MemoryLevel.GLOBAL)

    @property
    def input_bytes(self) -> int:  # what its load shipped, decoded
        return self.record.raw_transfer_bytes()

    @property
    def wire_bytes(self) -> int:  # what its load shipped, on the link
        return self.record.moved_bytes("h2d")


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
    #: The fleet's host-side merge of its partials.
    overhead_ms: float = 0.0
    #: Predicted peak device allocation (feasibility input).
    peak_device_bytes: int = 0
    #: Link transfers the execution records, over all devices.
    transfers: int = 0
    feasible: bool = True
    reason: str = ""

    #: The priced query record (a fleet's: its turns', merged).  Not a
    #: field: ``asdict`` / ``==`` / ``repr`` carry the prediction only.
    record = Profile()
    #: A run its bound stopped (:class:`~repro.engines.estimate.Outpriced`:
    #: the time it reached, the bound it passed).  Not a field.
    outpriced = None

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
        compression=None,
    ):
        self.profile = profile
        self.interconnect = None if profile.zero_copy else interconnect
        self.statistics = statistics if statistics is not None else StatisticsCatalog()
        self.cost_model = KernelCostModel(profile)
        #: Wire-compression policy execution will run under: columns are
        #: sized by the encodings execution ships (cached on them), and
        #: the engines charge the decode that pays for the link savings.
        self.compression = compression if self.interconnect is not None else None

    def stream_block_bytes(self) -> int:
        """Streaming block size *per column* (a block of ``k`` columns
        ships up to ``k`` times it): 2 MB, shrunk on small devices to an
        eighth of device memory; the out-of-core executor is handed the
        same value."""
        return max(64 * 1024, min(2 * 1024 * 1024, self.profile.memory_capacity // 8))

    # ------------------------------------------------------------------
    # selectivity / cardinality estimation
    # ------------------------------------------------------------------
    def predicate_selectivity(
        self, expr: Expr, stats: TableStats | None, renames: dict[str, str]
    ) -> float:
        """Fraction of rows satisfying ``expr`` (clamped to [0, 1]), by
        arithmetic over the column summaries ``stats``: the fallback for
        what a table's sample cannot evaluate."""
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
        """The share of the rows reaching ``predicate`` in ``pipeline``
        that it keeps: read off the source table's sample
        (:meth:`StatisticsCatalog.sampled_selectivity`), else by the
        arithmetic over its column summaries."""
        share = self.statistics.sampled_selectivity(database, pipeline, predicate)
        if share is not None:
            return share
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
        bound: float | None = None,
    ) -> CostEstimate:
        """Predict the full cost of executing ``query`` under
        ``strategy`` from its query loop's run (:meth:`_run`): the
        engine's, or for out-of-core the block streamer's.  What the
        pooled device already holds counts under pooled placement only:
        ``resident_tables``, the indexes of the builds whose hash tables
        are resident (the loop serves them), and ``resident_columns``
        (``(table, column)``), the base columns no load ships.  The
        kernels a pricing looks up are logged on ``record`` (if any).

        ``bound`` (ms) set: the run stops once the times it priced pass
        it — every launch and transfer adds a non-negative time, so the
        candidate costs more than ``bound`` — and the estimate is
        infeasible, :attr:`CostEstimate.outpriced` saying where it
        stopped.  Without a bound it prices in full."""
        streamed = strategy.macro == "out-of-core"
        if (streamed or strategy.devices > 1) and query.final_pipeline.source_is_virtual:
            return CostEstimate(strategy, feasible=False, reason=(
                "streaming and scale-out partition the base table of the "
                "final pipeline; this one reads a virtual table"
            ))
        pooled = strategy.placement == "pooled"
        run, _ = self._run(
            query, database, strategy.engine,
            resident_columns if pooled else None,
            resident_tables if pooled else frozenset(), record,
            self.stream_block_bytes() if streamed else None,
            (strategy.devices, strategy.partitioning) if strategy.devices > 1 else None,
            bound,
        )
        if isinstance(run, Outpriced):
            estimate = CostEstimate(strategy, feasible=False, reason=str(run))
            estimate.outpriced = run
            return estimate
        estimate = replace(run, strategy=strategy, pipelines=list(run.pipelines))
        estimate.record = run.record
        return estimate

    # ------------------------------------------------------------------
    def _run(
        self,
        query: PhysicalQuery,
        database: Database,
        engine_name: str,
        columns: frozenset | None,
        tables: frozenset[int],
        record: Profile | None = None,
        block_bytes: int | None = None,
        fleet: tuple[int, str] | None = None,
        bound: float | None = None,
    ) -> tuple[CostEstimate | Outpriced, dict]:
        """``query`` run through ``engine_name``'s query loop on one
        device — ``block_bytes`` set: :class:`_BlockStreamer`'s, in
        blocks of that size; ``fleet`` (devices, partitioning) set: each
        device turn of that fleet (:meth:`_fleet`) — its cost (with the
        record and one estimate per pipeline) and what was priced per
        pipeline.  ``columns`` / ``tables``: what the pooled device
        holds (base columns; indexes of resident builds);
        ``columns=None``: no pool.  The run to finish without a pool
        prices its pipelines (logging the lookups on ``record``); the
        others replay what it priced — a streamed run and a fleet all but
        its final pipeline — and price what it did not reach.  ``bound``
        set: the run stops once its priced times pass it and returns the
        :class:`Outpriced` in place of its cost.  The plan object keeps,
        per engine, block size, fleet, device profile, compression
        policy, statistics sample size and set of resident builds, the
        run without a pool and the latest pooled one — a stopped one with
        the bound it lost to, standing for any bound at or below it (a
        new catalog version replaces them)."""
        if fleet is not None and bound is not None:
            # What a fleet pays whatever its turns cost: the merge of its
            # ``devices * MORSELS_PER_DEVICE`` partials.
            floor = merge_overhead_ms(fleet[0] * MORSELS_PER_DEVICE)
            try:
                check_bound(floor, bound)
            except Outpriced as stopped:
                return stopped.with_traceback(None), {}
        mode = self.compression.mode if self.compression is not None else None
        key = (
            engine_name, block_bytes, fleet, self.profile, mode,
            self.statistics.sample_limit, tables,
        )
        version = database.fingerprint()
        entry = query.estimates.get(key)
        if entry is None or entry[0] != version:
            entry = query.estimates[key] = [version, None, None]
        # Slot 1: the run without a pool; slot 2: the latest pooled run.
        slot = 1 if columns is None else 2
        if entry[slot] is not None and entry[slot][0] == columns:
            run = entry[slot][1][0]
            if not isinstance(run, Outpriced) or (bound is not None and bound <= run.bound_ms):
                return entry[slot][1]
        priced: dict = {}
        try:
            if fleet is None and block_bytes is None and bound is not None:
                check_bound(self._load_floor_ms(query, database, columns, tables), bound)
            engine = make_engine(engine_name)
            resident = None
            if columns is not None or block_bytes is not None or fleet is not None:
                # Replayed: the run without a pool (a pooled fleet's: the fleet's).
                priced.update(self._run(
                    query, database, engine_name, None, frozenset(), record,
                    fleet=fleet if columns is not None else None, bound=bound,
                )[1])
            if block_bytes is not None:
                priced.pop(query.final_pipeline.name, None)
                engine = _BlockStreamer(streaming_mode(engine), block_bytes)
            if columns is not None:
                resident = frozenset(query.pipelines[index].name for index in tables)
                for name in resident - priced.keys():
                    priced[name] = self._built(query, database, engine_name, name, record)
            if fleet is not None:
                entry[slot] = columns, self._fleet(
                    query, database, engine, fleet, priced, resident, columns, record, bound
                )
                return entry[slot][1]
            runtime = self._runtime(database, priced, resident, columns, bound=bound)
            try:
                engine.run_pipelines(query.grouped(), runtime)
            finally:
                if record is not None:
                    record.lookups += runtime.device.log.lookups
        except Outpriced as stopped:
            entry[slot] = columns, (stopped.with_traceback(None), priced)
            return entry[slot][1]
        log = runtime.device.log
        run = CostEstimate(strategy=None)
        run.record = log
        run.pipelines, held = self._pipelines(runtime)
        run.global_bytes = log.bytes_at(MemoryLevel.GLOBAL)
        run.onchip_bytes = log.bytes_at(MemoryLevel.ONCHIP)
        run.kernel_ms = sum(pipe.kernel_ms for pipe in run.pipelines)
        # The link carries wire (possibly compressed) bytes; the decoded
        # columns still occupy raw bytes on device, loaded or resident.
        run.pcie_h2d_bytes = log.moved_bytes("h2d")
        # The result: the final pipeline's rows, shipped d2h.
        final = query.final_pipeline
        dtypes = (final.output_schema or final.scope_schema).dtypes
        names = dtypes if isinstance(final.sink, AggregateSink) else final.sink.outputs
        run.pcie_d2h_bytes = run.pipelines[-1].result_rows * sum(
            dtypes[name].numpy_dtype.itemsize for name in names if name in dtypes
        )
        # Each pays the link latency: the loads (and blocks) the record
        # logged, and one d2h for the packed result
        # (``QueryRuntime._ship_packed``).
        loads = len(log.transfers)
        run.transfers = loads + 1
        run.transfer_ms = self._transfer_ms(run.pcie_h2d_bytes, run.pcie_d2h_bytes, loads)
        # Scratch: 16 bytes a row a launch runs over; and a streamed
        # fact table is never on the device whole: a block's rows at a
        # time, two blocks in flight (double buffering).
        rows = [pipe.rows_in for pipe in run.pipelines]
        blocks = []
        if block_bytes is not None:
            fact = run.pipelines[-1].record
            rows[-1] = max(trace.elements for trace in fact.kernels)
            blocks = sorted(block.nbytes or block.raw_nbytes for block in fact.transfers)
        run.peak_device_bytes = (
            held + 16 * max(rows, default=0) + run.pcie_d2h_bytes + sum(blocks[-2:])
        )
        entry[slot] = columns, (run, runtime.runs)
        return entry[slot][1]

    def _load_floor_ms(self, query, database, columns, tables) -> float:
        """What a run to finish on one device pays its link at the least:
        each base column its pipelines read (not the resident builds
        ``tables``) that the pool does not hold (``columns``; ``None``: no
        pool) ships once, as :meth:`QueryRuntime.load_source
        <repro.engines.runtime.QueryRuntime.load_source>` ships it, in
        one transfer at the fewest."""
        if self.interconnect is None:
            return 0.0
        nbytes = 0
        for table, name, column in base_columns(query, database, skip=tables):
            if columns is not None and (table, name) in columns:
                continue
            encoded = None if self.compression is None else self.compression.encoded(column)
            if encoded is None or encoded.codec == "passthrough":
                nbytes += column.values.nbytes
            else:
                nbytes += encoded.wire_array.nbytes
        return self.interconnect.transfer_time(nbytes, "h2d") * 1e3

    def _built(self, query, database, engine_name, name, record):
        """What pricing build ``name`` left (a pooled run's resident
        build, which does not run, needs its table estimate): its table
        estimate depends on cardinalities only, so any engine's run
        without a pool that priced it serves, else this engine's, priced
        in full."""
        mode = self.compression.mode if self.compression is not None else None
        wanted = (None, None, self.profile, mode, self.statistics.sample_limit, frozenset())
        version = database.fingerprint()
        for key, entry in query.estimates.items():
            if key[1:] == wanted and entry[0] == version and entry[1] is not None:
                runs = entry[1][1][1]
                if name in runs:
                    return runs[name]
        return self._run(query, database, engine_name, None, frozenset(), record)[1][name]

    def _runtime(self, database, priced, resident, columns, spent_ms=0.0, bound=None):
        return EstimateRuntime(
            self.cost_model, self.interconnect, database, self, self.compression,
            priced=priced, resident=resident, resident_columns=columns,
            spent_ms=spent_ms, bound_ms=bound,
        )

    def _fleet(self, query, database, engine, fleet, priced, resident, columns, record, bound):
        """``query`` on a fleet of ``(devices, partitioning)``: each
        device turn the executor runs (:func:`estimate_turn`: the same
        pieces, assigned alike) on an estimate runtime of its own over
        the partitioned catalog, the builds replaying ``priced`` (a turn
        prices what it does not hold, and later turns replay that).  Link
        bytes and transfers are the turns' sums, the time and the peak
        the busiest / largest turn's, plus the host merge — which each
        turn's running sum starts at, against ``bound``.  A pooled
        fleet holds every piece of a fact column ``columns`` holds."""
        devices, partitioning = fleet
        fact = query.final_pipeline.source
        partitions = fleet_partitions(database, fact, devices, partitioning)
        pieces = partitions.pieces
        if columns is not None:
            columns = columns | {
                (piece.table_name, name)
                for table, name in columns if table == fact for piece in pieces
            }
        rewritten, _ = rewrite_for_partials(query.final_pipeline)
        first = len(query.pipelines) - 1
        merge_ms = merge_overhead_ms(partitions.parts)
        run = CostEstimate(strategy=None)
        run.record, turns = Profile(), []
        try:
            for load in assign_pieces([piece.nbytes for piece in pieces], devices):
                if not any(pieces[index].rows for index in load.pieces):
                    continue  # a device given no rows takes no turn
                runtime = self._runtime(
                    partitions.database, priced, resident, columns, merge_ms, bound
                )
                try:
                    estimate_turn(
                        engine, query, rewritten, [pieces[i] for i in load.pieces], runtime
                    )
                finally:
                    log = runtime.device.log
                    run.record.merge(log)
                    turns.append(log)
                pipes, held = self._pipelines(runtime)
                # The builds once; each morsel at its executed record index.
                run.pipelines += [
                    pipe for pipe in pipes if len(turns) == 1 or pipe.record.index >= first
                ]
                run.peak_device_bytes = max(
                    run.peak_device_bytes,
                    held + 16 * max(pipe.rows_in for pipe in pipes) + log.moved_bytes("d2h"),
                )
        finally:
            if record is not None:
                record.lookups += run.record.lookups
        run.pipelines.sort(key=lambda pipe: pipe.record.index)
        run.global_bytes = run.record.bytes_at(MemoryLevel.GLOBAL)
        run.onchip_bytes = run.record.bytes_at(MemoryLevel.ONCHIP)
        run.pcie_h2d_bytes = run.record.moved_bytes("h2d")
        run.pcie_d2h_bytes = run.record.moved_bytes("d2h")
        run.transfers = len(run.record.transfers)
        # No turn at all when no piece has a row: only the merge remains.
        busiest = max(turns, key=lambda log: log.total_time_ms, default=run.record)
        run.kernel_ms, run.transfer_ms = busiest.kernel_time_ms, busiest.transfer_time_ms
        run.overhead_ms = merge_ms
        return run, priced

    @staticmethod
    def _pipelines(runtime: EstimateRuntime) -> tuple[list[PipelineEstimate], int]:
        """One estimate per row of ``runtime``'s record, and what their
        data holds on the device: the raw base columns they were first
        to read and the hash / aggregation tables they leave."""
        pipes, held = [], 0
        for row in runtime.device.log.pipelines:
            pipeline, priced = row.pipeline, runtime.runs[row.pipeline.name]
            pipe = PipelineEstimate(
                name=pipeline.name,
                source=pipeline.source,
                rows_in=row.rows_in,
                rows_out=priced.rows,
                groups=priced.groups,
                first_reads=runtime.first_reads.get(pipeline.name, frozenset()),
                scan_notes=[] if row.resident else priced.notes,
                resident=row.resident,
            )
            pipe.record = row
            pipes.append(pipe)
            held += sum(
                runtime.database.table(table).column(name).nbytes
                for table, name in pipe.first_reads
            )
            if isinstance(pipeline.sink, BuildSink):
                held += pipe.rows_out * (16 + 8 * len(pipeline.sink.payload))
            elif isinstance(pipeline.sink, AggregateSink):
                width = 8 * (len(pipeline.sink.group_keys) + len(pipeline.sink.aggregates))
                held += max(pipe.groups, 1) * (8 + width)
        return pipes, held

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def _transfer_ms(self, h2d_bytes: int, d2h_bytes: int, loads: int) -> float:
        """Link time of ``loads`` h2d transfers moving ``h2d_bytes`` and
        one packed d2h transfer moving ``d2h_bytes``.  Each pays the
        link latency — but an empty result costs nothing
        (``Interconnect.transfer_time(0, ...)`` is 0)."""
        if self.interconnect is None:
            return 0.0
        seconds = 0.0
        if h2d_bytes:
            seconds += h2d_bytes / (self.interconnect.h2d_bandwidth * 1e9)
        latencies = loads
        if d2h_bytes:
            seconds += d2h_bytes / (self.interconnect.d2h_bandwidth * 1e9)
            latencies += 1
        return (seconds + latencies * self.interconnect.latency) * 1e3
