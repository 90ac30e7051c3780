"""The runtime a cost estimate runs the query loop on
(:meth:`Engine.run_pipelines <repro.engines.base.Engine.run_pipelines>`,
as execution does): the :class:`QueryRuntime` of an execution (the same
``load_source`` decides what ships, what is wire-resident and what is
decoded at load) over a device stand-in that prices launches and logs
loads but holds, moves and runs nothing — and, for a pooled estimate, a
pool stand-in that holds what it is told is resident.  Given a bound,
the device stand-in stops the run (:class:`Outpriced`) once what it
priced passes it."""

from __future__ import annotations

import contextlib
from types import SimpleNamespace

import numpy as np

from ..hardware.costmodel import KernelCostModel
from ..hardware.device import link_record
from ..hardware.traffic import KernelTrace, Profile, TrafficMeter
from ..kernels.context import count_column
from ..placement.pool import BufferPool
from ..plan.physical import BuildSink, Pipeline
from ..primitives.hashtable import TableEstimate, charge_build_kernel, charge_inserts
from .runtime import PipelineRun, QueryRuntime


#: How far past its bound a priced run may go before it stops: a total
#: sums the same terms in another order (and the advisor ranks totals
#: rounded to 1e-9 ms), so the margin is relative, plus 1e-8 ms.
OUTPRICE_MARGIN = 1e-6


class Outpriced(Exception):
    """A priced run passed its bound: what it had priced, ``reached_ms``,
    already costs more than ``bound_ms``, and every launch and transfer
    still to come costs a non-negative time more."""

    def __init__(self, reached_ms: float, bound_ms: float):
        super().__init__(f"outpriced: reached {reached_ms:.3f} ms > best {bound_ms:.3f} ms")
        self.reached_ms, self.bound_ms = reached_ms, bound_ms


def check_bound(spent_ms: float, bound_ms: float | None) -> None:
    """Stop a priced run (raise :class:`Outpriced`) whose ``spent_ms``
    passed ``bound_ms`` (``None``: no bound) by more than the margin."""
    if bound_ms is not None and spent_ms > bound_ms + OUTPRICE_MARGIN * (bound_ms + 0.01):
        raise Outpriced(spent_ms, bound_ms)


class PricedLaunches:
    """What an estimate needs of a device: a launch is priced and a load
    logged as ``VirtualCoprocessor`` does it, nothing is stored.  It
    keeps the running sum of the times it logged, from ``spent_ms`` (what
    the candidate pays whatever runs: a fleet's merge), and stops the
    run once that sum passes ``bound_ms`` (``None``: never)."""

    def __init__(
        self, cost_model: KernelCostModel, interconnect, compression,
        spent_ms: float = 0.0, bound_ms: float | None = None,
    ):
        self.cost_model = cost_model
        self.profile = cost_model.profile
        self.interconnect = interconnect
        self.compression = compression
        self.log = Profile()
        self._queue: list | None = None
        self.spent_ms, self.bound_ms = spent_ms, bound_ms

    def _spend(self, ms: float) -> None:
        self.spent_ms += ms
        check_bound(self.spent_ms, self.bound_ms)

    new_meter = staticmethod(TrafficMeter)

    def launch(self, name, kind, elements, meter, occupancy: float = 1.0) -> KernelTrace:
        trace = self.cost_model.trace(name, kind, elements, meter, occupancy)
        self.log.taped("launch", trace, occupancy)
        return self.relaunch(trace)

    def relaunch(self, trace: KernelTrace, occupancy: float = 1.0) -> KernelTrace:
        """Log a priced launch — queue it while :meth:`fusing`."""
        if self._queue is not None:
            self._queue.append(trace)
            return trace
        self.log.kernels.append(trace)
        self._spend(trace.time_ms)
        return trace

    @contextlib.contextmanager
    def fusing(self):
        """``VirtualCoprocessor.fusing``: queue the launches inside."""
        self._queue = []
        try:
            yield self._queue
        finally:
            self._queue = None

    def transfer_to_device(self, arrays, label="", raw_nbytes=0, codec="") -> None:
        nbytes = sum(array.nbytes for array in arrays)
        self.record_stream_transfer(nbytes, "h2d", label, raw_nbytes, codec)

    def record_stream_transfer(self, nbytes, direction, label="", raw_nbytes=0, codec="") -> None:
        link = link_record(self.interconnect, nbytes, direction, label, raw_nbytes, codec)
        self.log.transfers.append(link)
        self._spend(link.time_ms)

    def allocate(self, array, label="") -> None:
        pass  # decode scratch: inside the estimator's working-set bound


class PoolStandIn:
    """What an estimate needs of a :class:`BufferPool`: ``columns``
    (``(table, column)``) are hits, and a table is served iff its key is
    in ``tables`` (key -> its :class:`TableEstimate`): a resident
    build's, or one the query left."""

    table_key = staticmethod(BufferPool.table_key)

    def __init__(self, columns: frozenset):
        self.columns, self.tables = columns, {}

    def acquire(self, table, column_name, column, fingerprint, image):
        held = SimpleNamespace(buffer=SimpleNamespace(array=image), nbytes=image.nbytes)
        return held, (table, column_name) in self.columns

    def acquire_table(self, key, fingerprint):
        return SimpleNamespace(table=self.tables[key], nbytes=0) if key in self.tables else None


class EstimateRuntime(QueryRuntime):
    """Per-query state of one estimate.  ``cardinalities`` supplies the
    two numbers only statistics can: ``selectivity(database, pipeline,
    predicate)`` and ``groups(database, pipeline, rows)``.  ``priced``
    (name -> :class:`~repro.engines.runtime.PipelineRun`) is its
    :attr:`runs`: it fills as pipelines are priced, and what it holds is
    replayed (:meth:`QueryRuntime.run_pipeline`), as a fleet turn
    replays a build.  ``resident`` (``None``: no pool) names the builds
    whose tables the pool holds.  ``spent_ms`` / ``bound_ms``: the
    device stand-in's running sum and bound (:class:`PricedLaunches`)."""

    def __init__(
        self, cost_model, interconnect, database, cardinalities, compression,
        priced: dict | None = None, resident: frozenset | None = None,
        resident_columns: frozenset = frozenset(),
        spent_ms: float = 0.0, bound_ms: float | None = None,
    ):
        pool = None if resident is None else PoolStandIn(resident_columns)
        device = PricedLaunches(cost_model, interconnect, compression, spent_ms, bound_ms)
        super().__init__(device, database, pool=pool, runs={} if priced is None else priced)
        self.cardinalities = cardinalities
        self.resident = resident or frozenset()
        #: Pipeline name -> the base columns its load was first to read
        #: (a fused group's: its first member's), pool hits included.
        self.first_reads: dict[str, frozenset] = {}

    def selectivity(self, pipeline: Pipeline, predicate) -> float:
        return self.cardinalities.selectivity(self.database, pipeline, predicate)

    def groups(self, pipeline: Pipeline, rows: int) -> int:
        return self.cardinalities.groups(self.database, pipeline, rows)

    def record(self, engine, pipeline: Pipeline) -> dict[str, np.ndarray] | None:
        """Price ``pipeline`` with ``engine.estimate_pipeline``, note
        what it launched in :attr:`runs` and return its outputs."""
        notes = getattr(self.compression_stats(), "scans", [])
        noted, self.device.log.tape = len(notes), []
        try:
            rows, groups = engine.estimate_pipeline(pipeline, self)
        finally:
            tape, self.device.log.tape = self.device.log.tape, None
        # Its launches, and its effects on the query's kernel listing (a
        # replay leaves the runtime as pricing it would, so a pipeline
        # priced after it notes what it would): no lookup is logged twice.
        kept = [entry for entry in tape if entry[0] != "lookup"]
        table = self.hash_tables.get(pipeline.output_name)  # a build's
        priced = PipelineRun(kept, None, table, rows, groups, notes[noted:])
        if not isinstance(pipeline.sink, BuildSink):
            schema = pipeline.output_schema or pipeline.scope_schema
            priced = priced._replace(outputs={
                name: count_column(dtype.numpy_dtype, priced.result_rows)
                for name, dtype in schema.dtypes.items()
            })
        self.runs[pipeline.name] = priced
        return priced.outputs

    def produced_rows(self, pipeline: Pipeline, produced) -> int:
        return self.runs[pipeline.name].result_rows

    def load_source(self, pipeline: Pipeline, lazy_capable: bool = False, siblings=()):
        """:meth:`QueryRuntime.load_source`, noting what it is first to
        read."""
        known = set(self._transferred)
        scope = super().load_source(pipeline, lazy_capable, siblings)
        if len(self._transferred) > len(known):
            self.first_reads[pipeline.name] = frozenset(self._transferred - known)
        return scope

    def _ship_packed(self, segments, encode, label: str) -> tuple[int, int]:
        """Every segment raw: counts are no values a codec could shrink."""
        policy, self.compression = self.compression, None
        try:
            return super()._ship_packed(segments, encode, label)
        finally:
            self.compression = policy

    def resident_build(self, pipeline: Pipeline, key: tuple, record) -> bool:
        if pipeline.name in self.resident:
            self.pool.tables[key] = self.runs[pipeline.name].table
        return super().resident_build(pipeline, key, record)

    def keep_build(self, pipeline: Pipeline, key: tuple, restore_ms: float) -> None:
        self.pool.tables[key] = self.hash_tables[pipeline.sink.table_id]

    def build_table(self, pipeline: Pipeline, rows: int, keys, payload, meter=None) -> None:
        """Register the table ``pipeline``'s build sink leaves over the
        ``rows`` rows that reach it — one row each of its ``keys`` and
        ``payload`` columns is given — and charge its inserts to
        ``meter``: the kernel they are fused into, else (None) the
        stand-alone build kernel over materialized keys."""
        table_id, source_rows = pipeline.sink.table_id, self.source_rows(pipeline)
        table = self.hash_tables[table_id] = TableEstimate(
            rows=rows,
            match_fraction=rows / source_rows if source_rows else 0.0,
            key_bytes=sum(key.dtype.itemsize for key in keys),
            # At least a row each, for the one-row gathers of an estimate.
            payload={
                name: count_column(values.dtype, max(rows, 1)) for name, values in payload.items()
            },
        )
        if meter is not None:
            charge_inserts(meter, rows, table.attempts, table.max_contention)
        else:
            charge_build_kernel(
                self.device, table_id, rows, table.attempts, table.max_contention,
                rows * table.key_bytes,
            )
