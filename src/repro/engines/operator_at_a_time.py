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
from ..primitives.hashtable import JoinHashTable
from ..primitives.prefix import device_scan
from ..primitives.reduce import charge_device_reduce
from ..primitives.sortlib import device_radix_sort, device_segmented_reduce
from .base import Engine
from .runtime import HashTableEntry, QueryRuntime


class OperatorAtATimeEngine(Engine):
    """CoGaDB-style execution: materialize after every operator."""

    name = "operator-at-a-time"

    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        device = runtime.device
        scope = {
            name: np.asarray(values)
            for name, values in runtime.load_source(pipeline).items()
        }
        count = self._source_rows(pipeline, runtime, scope)
        live_after = _liveness(pipeline)

        for index, stage in enumerate(pipeline.stages):
            live = live_after[index]
            if isinstance(stage, FilterStage):
                scope, count = self._run_filter(
                    device, scope, count, stage.predicate, live, pipeline, index
                )
            elif isinstance(stage, MapStage):
                self._run_map(device, scope, count, stage, pipeline)
            elif isinstance(stage, ProbeStage):
                scope, count = self._run_probe(
                    device, runtime, scope, count, stage, live, pipeline, index
                )
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unknown stage {type(stage).__name__}")

        sink = pipeline.sink
        if isinstance(sink, MaterializeSink):
            return {name: scope[name] for name in sink.outputs}
        if isinstance(sink, BuildSink):
            self._run_build(device, runtime, scope, count, sink, pipeline)
            return None
        if isinstance(sink, AggregateSink):
            return self._run_aggregate(device, runtime, scope, count, sink, pipeline)
        raise AssertionError(f"unhandled sink {type(sink).__name__}")

    # ------------------------------------------------------------------
    @staticmethod
    def _source_rows(pipeline: Pipeline, runtime: QueryRuntime, scope) -> int:
        if scope:
            return len(next(iter(scope.values())))
        if pipeline.source_is_virtual:
            return runtime.virtual_tables[pipeline.source].num_rows
        return runtime.database.table(pipeline.source).num_rows

    def _itemsize(self, pipeline: Pipeline, name: str) -> int:
        dtype = pipeline.scope_schema.dtypes.get(name)
        return dtype.itemsize if dtype is not None else 4

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _run_filter(
        self,
        device,
        scope: dict[str, np.ndarray],
        count: int,
        predicate: Expr,
        live: set[str],
        pipeline: Pipeline,
        index: int,
    ) -> tuple[dict[str, np.ndarray], int]:
        # Kernel 1: evaluate the predicate, write flags.
        meter = device.new_meter()
        for name in sorted(predicate.columns()):
            meter.record_read(MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name))
        meter.record_write(MemoryLevel.GLOBAL, count * INDEX_BYTES)
        meter.record_instructions(count * predicate.size())
        device.launch(f"{pipeline.name}.select{index}", "scan", count, meter)
        flags = over_rows(evaluate(predicate, scope), (count,), dtype=bool)

        # Kernels 2-4: hierarchical prefix sum.
        scan = device_scan(device, flags, label=f"{pipeline.name}.prefix{index}")

        # Kernel 5: aligned write — compact every live column.
        scope = self._aligned_write(
            device, scope, np.flatnonzero(flags), count, live, pipeline,
            f"write{index}",
        )
        return scope, scan.total

    def _run_map(self, device, scope, count: int, stage: MapStage, pipeline: Pipeline) -> None:
        meter = device.new_meter()
        for name in sorted(stage.expr.columns()):
            meter.record_read(MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name))
        meter.record_write(
            MemoryLevel.GLOBAL, count * self._itemsize(pipeline, stage.name)
        )
        meter.record_instructions(count * stage.expr.size())
        device.launch(f"{pipeline.name}.map_{stage.name}", "map", count, meter)
        values = over_rows(evaluate(stage.expr, scope), (count,))
        scope[stage.name] = np.ascontiguousarray(values)

    def _run_probe(
        self,
        device,
        runtime: QueryRuntime,
        scope: dict[str, np.ndarray],
        count: int,
        stage: ProbeStage,
        live: set[str],
        pipeline: Pipeline,
        index: int,
    ) -> tuple[dict[str, np.ndarray], int]:
        entry = runtime.hash_table(stage.table_id)

        # Kernel 1: probe, write match rows + flags.
        meter = device.new_meter()
        key_arrays = []
        for key in stage.probe_keys:
            for name in sorted(key.columns()):
                meter.record_read(
                    MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name)
                )
            values = over_rows(evaluate(key, scope), (count,))
            key_arrays.append(np.ascontiguousarray(values))
        rows = entry.table.probe(meter, key_arrays, device.profile.l2_capacity)
        meter.record_write(MemoryLevel.GLOBAL, 2 * count * INDEX_BYTES)
        device.launch(f"{pipeline.name}.probe{index}", "probe", count, meter)

        found = rows >= 0
        if stage.kind in ("inner", "semi"):
            flags = found
        elif stage.kind == "anti":
            flags = ~found
        else:  # left join: every probe row survives
            flags = np.ones(count, dtype=bool)

        if stage.kind == "left":
            new_count = count
            # No compaction; gather payload with defaults for misses.
            for name in stage.payload:
                scope[name] = self._gather_payload(
                    device, entry, rows, name, count, pipeline,
                    default=stage.payload_defaults.get(name), found=found,
                )
        else:
            scan = device_scan(device, flags, label=f"{pipeline.name}.prefix{index}")
            new_count = scan.total
            selected = np.flatnonzero(flags)
            scope = self._aligned_write(
                device, scope, selected, count, live, pipeline, f"write{index}"
            )
            matched_rows = rows.take(selected)
            for name in stage.payload:
                scope[name] = self._gather_payload(
                    device, entry, matched_rows, name, new_count, pipeline
                )
        count = new_count

        if stage.residual is not None:
            scope, count = self._run_filter(
                device, scope, count, stage.residual,
                live - set(), pipeline, index * 100 + 99,
            )
        return scope, count

    def _gather_payload(
        self, device, entry, rows: np.ndarray, name: str, count: int,
        pipeline: Pipeline, default=None, found: np.ndarray | None = None,
    ) -> np.ndarray:
        """One gather kernel; ``default`` (left joins) fills the rows
        where ``found`` — the stage's ``rows >= 0`` — is false."""
        source = entry.payload[name]
        itemsize = source.dtype.itemsize
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, count * INDEX_BYTES)
        meter.record_read(
            MemoryLevel.GLOBAL,
            random_access_volume(count, itemsize, source.nbytes, device.profile.l2_capacity),
        )
        meter.record_write(MemoryLevel.GLOBAL, count * itemsize)
        meter.record_instructions(count)
        device.launch(f"{pipeline.name}.gather_{name}", "gather", count, meter)
        if len(source) == 0:
            values = np.zeros(len(rows), dtype=source.dtype)
        else:
            # mode="clip" reads row 0 for the -1 of a miss.
            values = source.take(rows, mode="clip")
        if default is not None:
            fill = np.asarray(default).astype(source.dtype)
            values = np.where(found, values, fill)
        return np.ascontiguousarray(values)

    def _aligned_write(
        self,
        device,
        scope: dict[str, np.ndarray],
        selected: np.ndarray,
        count: int,
        live: set[str],
        pipeline: Pipeline,
        label: str,
    ) -> dict[str, np.ndarray]:
        """Compact every live column into a dense array (one kernel):
        the ``selected`` of its ``count`` rows, one index gather each."""
        keep = [name for name in scope if name in live]
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, 2 * count * INDEX_BYTES)  # flags+prefix
        for name in keep:
            itemsize = scope[name].dtype.itemsize
            meter.record_read(MemoryLevel.GLOBAL, count * itemsize)
            meter.record_write(MemoryLevel.GLOBAL, len(selected) * itemsize)
        meter.record_instructions(count * max(len(keep), 1))
        device.launch(f"{pipeline.name}.{label}", "gather", count, meter)
        return {name: scope[name].take(selected) for name in keep}

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def _run_build(
        self, device, runtime, scope, count: int, sink: BuildSink, pipeline: Pipeline
    ) -> None:
        key_arrays = []
        for key in sink.keys:
            key_arrays.append(self._materialize_expr(device, scope, count, key, pipeline))
        table = JoinHashTable.build(device, key_arrays, name=sink.table_id)
        payload: dict[str, np.ndarray] = {}
        for name in sink.payload:
            values = np.ascontiguousarray(scope[name])
            device.allocate(values, label=f"{sink.table_id}.{name}")
            payload[name] = values
        runtime.register_hash_table(sink.table_id, HashTableEntry(table, payload))

    def _run_aggregate(
        self, device, runtime, scope, count: int, sink: AggregateSink, pipeline: Pipeline
    ) -> dict[str, np.ndarray]:
        assert pipeline.output_schema is not None
        mask = np.ones(count, dtype=bool)
        # Materialize computed key / value columns first (map kernels).
        for _, expr in sink.group_keys:
            if not isinstance(expr, ColumnRef):
                self._materialize_expr(device, scope, count, expr, pipeline)
        value_bytes = 0
        #: Bytes per reduced value; count(*) reduces 4-byte ones.
        itemsizes = {spec.name: 4 for spec in sink.aggregates}
        for spec in sink.aggregates:
            if spec.expr is not None:
                values = self._materialize_expr(device, scope, count, spec.expr, pipeline)
                itemsizes[spec.name] = values.dtype.itemsize
                value_bytes += values.dtype.itemsize

        result = runtime.aggregate_rows(sink, scope, mask, pipeline.output_schema)
        if result.codes is not None:
            # C1: global sort by key, reduce segments (Experiment 2's
            # flat, sort-dominated curve).
            device_radix_sort(
                device, result.codes, payload_bytes=max(value_bytes, 4),
                label=f"{pipeline.name}.group_sort",
            )
            device_segmented_reduce(
                device,
                np.sort(result.codes),
                value_bytes_per_row=max(value_bytes, 4),
                num_groups=result.num_groups,
                label=f"{pipeline.name}.group_reduce",
            )
        else:
            # B1 per aggregate: aggregate_rows holds the results, so
            # only the charge is due.
            for spec in sink.aggregates:
                charge_device_reduce(
                    device,
                    count,
                    itemsizes[spec.name],
                    label=f"{pipeline.name}.{spec.name}",
                )
        return result.outputs

    def _materialize_expr(
        self, device, scope, count: int, expr: Expr, pipeline: Pipeline
    ) -> np.ndarray:
        """Evaluate an expression; charge a map kernel unless it is a
        plain column reference (already materialized)."""
        values = np.ascontiguousarray(
            over_rows(evaluate(expr, scope), (count,))
        )
        if not isinstance(expr, ColumnRef):
            meter = device.new_meter()
            for name in sorted(expr.columns()):
                meter.record_read(
                    MemoryLevel.GLOBAL, count * self._itemsize(pipeline, name)
                )
            meter.record_write(MemoryLevel.GLOBAL, values.nbytes)
            meter.record_instructions(count * expr.size())
            device.launch(f"{pipeline.name}.map_expr", "map", count, meter)
        return values


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
