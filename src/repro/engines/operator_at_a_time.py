"""The operator-at-a-time engine (the CoGaDB baseline, Figure 6).

Every relational operator runs as its own primitive-kernel sequence
with full materialization in GPU global memory between operators:

* select / probe -> flags kernel + hierarchical prefix sum + aligned
  write that compacts every live column;
* map            -> one streaming kernel reading inputs and writing
  the computed column;
* grouped aggregation -> sort-based C1 (global radix sort + segmented
  reduce), whose cost is dominated by the sort (Experiment 2);
* single-tuple aggregation -> hierarchical B1 reduce.

This is the memory-hungry baseline every HorseQC variant is compared
against: the repeated aligned writes are the 2.2 GB "gather" volumes of
Figure 5.
"""

from __future__ import annotations

import numpy as np

from ..expressions.eval import evaluate, over_rows
from ..expressions.expr import ColumnRef, Expr
from ..hardware.traffic import MemoryLevel
from ..kernels.codegen import sink_input_columns
from ..plan.physical import (
    AggregateSink,
    BuildSink,
    FilterStage,
    MapStage,
    MaterializeSink,
    Pipeline,
    ProbeStage,
)
from ..primitives.gather import INDEX_BYTES, random_access_volume
from ..primitives.prefix import charge_device_scan
from .base import Engine
from .runtime import QueryRuntime, charge_library_aggregate


class OperatorAtATimeEngine(Engine):
    """CoGaDB-style execution: materialize after every operator.

    One walk executes a pipeline and prices it.  Every kernel is
    launched from row counts and column widths; what depends on the rows
    themselves — which of them a predicate keeps, where a probe lands,
    the groups — is asked of ``data``: :class:`_Rows` computes it over
    the columns, :class:`_Counts` expects it from the statistics.
    """

    name = "operator-at-a-time"

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        return self._run(pipeline, runtime, _Rows(pipeline, runtime))[0]

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        return self._run(pipeline, runtime, _Counts(pipeline, runtime))[1:]

    def _run(self, pipeline: Pipeline, runtime, data: "_Rows"):
        """Returns the sink's outputs, the rows that reached it and the
        groups it aggregated them into (0: not an aggregation)."""
        device = runtime.device
        scope = data.columns(runtime.load_source(pipeline))
        count = runtime.source_rows(pipeline)
        live_after = _liveness(pipeline)

        for index, stage in enumerate(pipeline.stages):
            live = live_after[index]
            if isinstance(stage, FilterStage):
                scope, count = self._select(
                    device, data, scope, count, live, pipeline, index, stage.predicate
                )
            elif isinstance(stage, MapStage):
                scope[stage.name] = self._map(
                    device, data, scope, count, stage.expr, pipeline,
                    f"map_{stage.name}", self._itemsize(pipeline, stage.name),
                )
            elif isinstance(stage, ProbeStage):
                scope, count = self._probe(
                    device, runtime, data, scope, count, stage, live, pipeline, index
                )
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unknown stage {type(stage).__name__}")

        sink = pipeline.sink
        if isinstance(sink, MaterializeSink):
            return {name: scope[name] for name in sink.outputs}, count, 0
        if isinstance(sink, BuildSink):
            keys = [self._map(device, data, scope, count, key, pipeline) for key in sink.keys]
            data.build(keys, {name: scope[name] for name in sink.payload}, count)
            return None, count, 0
        if isinstance(sink, AggregateSink):
            outputs, groups = data.aggregate(scope, count)
            self._charge_aggregate(device, data, scope, count, groups, pipeline)
            return outputs, count, groups
        raise AssertionError(f"unhandled sink {type(sink).__name__}")

    def _itemsize(self, pipeline: Pipeline, name: str) -> int:
        dtype = pipeline.scope_schema.dtypes.get(name)
        return dtype.itemsize if dtype is not None else 4

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _select(
        self, device, data, scope, count: int, live: set[str], pipeline: Pipeline,
        index: int, predicate: Expr | None = None, selection=None,
    ) -> tuple[dict[str, np.ndarray], int]:
        """Keep the rows of ``selection`` (row ids, how many) or those
        ``predicate`` selects: its flags kernel (a probe's compaction has
        its flags already), the hierarchical prefix sum, and the aligned
        write that compacts every live column."""
        if predicate is not None:
            meter = device.new_meter()
            for name in sorted(predicate.columns()):
                meter.record_read(
                    MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name)
                )
            meter.record_write(MemoryLevel.GLOBAL, count * INDEX_BYTES)
            meter.record_instructions(count * predicate.size())
            device.launch(f"{pipeline.name}.select{index}", "scan", count, meter)
            selection = data.select(predicate, scope, count)
        rows, kept = selection
        charge_device_scan(device, count, label=f"{pipeline.name}.prefix{index}")
        keep = {name: values for name, values in scope.items() if name in live}
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, 2 * count * INDEX_BYTES)  # flags+prefix
        for values in keep.values():
            itemsize = values.dtype.itemsize
            meter.record_read(MemoryLevel.GLOBAL, count * itemsize)
            meter.record_write(MemoryLevel.GLOBAL, kept * itemsize)
        meter.record_instructions(count * max(len(keep), 1))
        device.launch(f"{pipeline.name}.write{index}", "gather", count, meter)
        return {name: values.take(rows) for name, values in keep.items()}, kept

    def _map(
        self, device, data, scope, count: int, expr: Expr, pipeline: Pipeline,
        label: str = "map_expr", itemsize: int | None = None,
    ) -> np.ndarray:
        """``expr`` over ``scope`` as a column, and the streaming kernel
        that reads its inputs and writes ``count`` values of it —
        ``itemsize`` bytes each, or at their own width for an expression
        that is not a plain column reference (which is materialized
        already and costs nothing)."""
        values = data.column(evaluate(expr, scope), count)
        if itemsize is not None or not isinstance(expr, ColumnRef):
            meter = device.new_meter()
            for name in sorted(expr.columns()):
                meter.record_read(
                    MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name)
                )
            meter.record_write(
                MemoryLevel.GLOBAL,
                count * (values.dtype.itemsize if itemsize is None else itemsize),
            )
            meter.record_instructions(count * expr.size())
            device.launch(f"{pipeline.name}.{label}", "map", count, meter)
        return values

    def _probe(
        self, device, runtime, data, scope, count: int, stage: ProbeStage,
        live: set[str], pipeline: Pipeline, index: int,
    ) -> tuple[dict[str, np.ndarray], int]:
        entry = runtime.hash_table(stage.table_id)
        # Kernel 1: read the key columns, probe, write match rows + flags.
        meter = device.new_meter()
        for key in stage.probe_keys:
            for name in sorted(key.columns()):
                meter.record_read(
                    MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name)
                )
        keys = [data.column(evaluate(key, scope), count) for key in stage.probe_keys]
        rows, selection = data.probe(entry, meter, keys, count, stage.kind)
        meter.record_write(MemoryLevel.GLOBAL, 2 * count * INDEX_BYTES)
        device.launch(f"{pipeline.name}.probe{index}", "probe", count, meter)

        defaults, found = {}, None
        if stage.kind == "left":
            # No compaction; the payload of a miss is its default.
            defaults, found = stage.payload_defaults, rows >= 0
        else:
            scope, count = self._select(
                device, data, scope, count, live, pipeline, index, selection=selection
            )
            rows = rows.take(selection[0])
        for name in stage.payload:
            # One gather kernel per payload column.
            source = entry.payload[name]
            itemsize = source.dtype.itemsize
            meter = device.new_meter()
            meter.record_read(MemoryLevel.GLOBAL, count * INDEX_BYTES)
            meter.record_read(
                MemoryLevel.GLOBAL,
                random_access_volume(
                    count, itemsize, source.nbytes, device.profile.l2_capacity
                ),
            )
            meter.record_write(MemoryLevel.GLOBAL, count * itemsize)
            meter.record_instructions(count)
            device.launch(f"{pipeline.name}.gather_{name}", "gather", count, meter)
            scope[name] = _gathered(source, rows, defaults.get(name), found)

        if stage.residual is not None:
            scope, count = self._select(
                device, data, scope, count, live, pipeline, index * 100 + 99,
                stage.residual,
            )
        return scope, count

    def _charge_aggregate(self, device, data, scope, count: int, groups: int, pipeline) -> None:
        """Materialize the computed key / value columns (map kernels),
        then the library reduction of ``count`` rows into ``groups``."""
        sink = pipeline.sink
        for _, expr in sink.group_keys:
            self._map(device, data, scope, count, expr, pipeline)
        itemsizes = {
            spec.name: self._map(
                device, data, scope, count, spec.expr, pipeline
            ).dtype.itemsize
            for spec in sink.aggregates
            if spec.expr is not None
        }
        charge_library_aggregate(
            device, pipeline, count, groups, itemsizes,
            max(sum(itemsizes.values()), 4),
        )


class _Rows:
    """What the operator walk computes over the rows of its columns."""

    def __init__(self, pipeline: Pipeline, runtime):
        self.pipeline, self.runtime = pipeline, runtime

    def columns(self, scope) -> dict[str, np.ndarray]:
        return {name: np.asarray(values) for name, values in scope.items()}

    def column(self, values, count: int) -> np.ndarray:
        return np.ascontiguousarray(over_rows(values, (count,)))

    def select(self, predicate: Expr, scope, count: int) -> tuple[np.ndarray, int]:
        """The row ids ``predicate`` keeps, and how many they are."""
        flags = over_rows(evaluate(predicate, scope), (count,), dtype=bool)
        rows = np.flatnonzero(flags)
        return rows, len(rows)

    def probe(self, entry, meter, keys, count: int, kind: str):
        """Probe ``keys`` (charged to ``meter``): the build row per probe
        row, and the selection the join kind makes of them."""
        rows = entry.table.probe(meter, keys, self.runtime.device.profile.l2_capacity)
        if kind == "left":
            return rows, None
        kept = np.flatnonzero(rows < 0 if kind == "anti" else rows >= 0)
        return rows, (kept, len(kept))

    def build(self, keys, payload, count: int) -> None:
        self.runtime.build_hash_table(
            self.pipeline.sink.table_id, keys,
            {name: np.ascontiguousarray(values) for name, values in payload.items()},
        )

    def aggregate(self, scope, count: int) -> tuple[dict[str, np.ndarray], int]:
        result = self.runtime.aggregate_rows(
            self.pipeline.sink, scope, np.ones(count, dtype=bool),
            self.pipeline.output_schema,
        )
        return result.outputs, result.num_groups


class _Counts(_Rows):
    """The same over a row *count*: every column is one row of its
    dtype (all a charge reads of it), and the data-dependent numbers
    are the expected ones (``runtime``: an ``EstimateRuntime``)."""

    _ROW = np.zeros(1, dtype=np.intp)

    def columns(self, scope):
        # An empty table's column still has its one row to charge.
        return {
            name: values[:1] if len(values) else np.zeros(1, values.dtype)
            for name, values in scope.items()
        }

    def column(self, values, count):
        return np.asarray(values)

    def select(self, predicate, scope, count):
        return self._ROW, int(round(count * self.runtime.selectivity(self.pipeline, predicate)))

    def probe(self, table, meter, keys, count, kind):
        hits = table.probe(meter, count, self.runtime.device.profile.l2_capacity)
        return self._ROW, (self._ROW, count - hits if kind == "anti" else hits)

    def build(self, keys, payload, count):
        self.runtime.build_table(self.pipeline, count, keys, payload)

    def aggregate(self, scope, count):
        grouped = self.pipeline.sink.group_keys
        return None, self.runtime.groups(self.pipeline, count) if grouped else 1


def _gathered(source: np.ndarray, rows: np.ndarray, default, found) -> np.ndarray:
    """Payload column ``source`` through the probe result ``rows``;
    ``default`` (left joins) fills the rows where ``found`` is false."""
    if len(source) == 0:
        values = np.zeros(len(rows), dtype=source.dtype)
    else:
        # mode="clip" reads row 0 for the -1 of a miss.
        values = source.take(rows, mode="clip")
    if default is not None:
        values = np.where(found, values, np.asarray(default).astype(source.dtype))
    return np.ascontiguousarray(values)


def _liveness(pipeline: Pipeline) -> list[set[str]]:
    """Columns that must survive the materialization after each stage."""
    stages = pipeline.stages
    live_after: list[set[str]] = [set() for _ in stages]
    later = set(sink_input_columns(pipeline.sink))
    for index in range(len(stages) - 1, -1, -1):
        stage = stages[index]
        if isinstance(stage, ProbeStage) and stage.residual is not None:
            later |= stage.residual.columns() - set(stage.payload)
        live_after[index] = set(later)
        if isinstance(stage, FilterStage):
            later |= stage.predicate.columns()
        elif isinstance(stage, MapStage):
            later.discard(stage.name)
            later |= stage.expr.columns()
        elif isinstance(stage, ProbeStage):
            later -= set(stage.payload)
            for key in stage.probe_keys:
                later |= key.columns()
    return live_after
