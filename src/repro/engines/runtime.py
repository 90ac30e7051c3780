"""Shared query-execution runtime used by all engines.

Owns the per-query state: which base columns were already transferred
over PCIe, the hash tables built by earlier pipelines, virtual tables
produced by aggregation pipelines, and the final result assembly
(dictionary decode ordering, host-side sort/limit — the steps the paper
delegates to CoGaDB's original engine, Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compression import (
    CompressionPolicy,
    CompressionStats,
    decode_kernel_source,
    encode_kernel_source,
)
from ..compression.kernels import compressed_scan_source, register_decode_source
from ..compression.lazy import LazyColumn
from ..errors import PlanError
from ..expressions.eval import evaluate, over_rows
from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import MemoryLevel
from ..primitives.hashtable import JoinHashTable
from ..primitives.reduce import charge_device_reduce
from ..primitives.segmented import factorize, grouped_reduce
from ..primitives.sortlib import charge_radix_sort, charge_segmented_reduce, radix_passes
from ..storage.column import Column
from ..storage.database import Database
from ..storage.table import Table
from ..plan.logical import PlanSchema
from ..plan.physical import AggregateSink, PhysicalQuery, Pipeline


@dataclass
class HashTableEntry:
    """A built hash table plus its payload columns (device-resident)."""

    table: JoinHashTable
    payload: dict[str, np.ndarray]
    #: The device buffers behind it (slot array, then one per payload
    #: column): what a buffer pool takes over to keep the table.
    buffers: list = field(default_factory=list)


@dataclass
class VirtualTable:
    """An intermediate result, resident in device global memory."""

    arrays: dict[str, np.ndarray]
    schema: PlanSchema

    @property
    def num_rows(self) -> int:
        if not self.arrays:
            return 0
        return len(next(iter(self.arrays.values())))


@dataclass
class AggregationResult:
    """Aggregate outputs plus the cost drivers the engines account."""

    outputs: dict[str, np.ndarray]
    #: Dense group code per *input* row (None for single-tuple aggs).
    codes: np.ndarray | None
    num_groups: int
    #: Total bytes of one hash-table entry (key + all accumulators).
    entry_bytes: int
    #: Number of qualifying input rows.
    inputs: int


class QueryRuntime:
    """Mutable state threaded through the pipelines of one query.

    When a :class:`~repro.placement.BufferPool` is supplied, base
    column loads route through it: resident columns skip the PCIe
    charge (a placement hit, pinned until :meth:`close`), cold columns
    ship with their pipeline's one load and stay resident for later
    queries.  Build pipelines
    route through it as well: :meth:`resident_build` serves a pipeline
    the table an earlier query left, :meth:`keep_build` leaves this
    query's.
    """

    def __init__(
        self,
        device: VirtualCoprocessor,
        database: Database,
        seed: int = 42,
        pool=None,
    ):
        self.device = device
        self.database = database
        self.pool = pool
        self.rng = np.random.default_rng(seed)
        self.hash_tables: dict[str, HashTableEntry] = {}
        self.virtual_tables: dict[str, VirtualTable] = {}
        #: Generated kernel sources of THIS query (engines write here so
        #: concurrent queries sharing one engine instance cannot mix
        #: their sources; surfaced as ``ExecutionResult.kernel_sources``).
        self.kernel_sources: dict[str, str] = {}
        self._transferred: set[tuple[str, str]] = set()
        #: Pool entries pinned by this query (unpinned by :meth:`close`).
        self._pinned: list = []
        #: Result bytes moved device->host.
        self.output_bytes = 0
        #: Base-column loads served from device-resident buffers.
        self.placement_hits = 0
        self.placement_misses = 0
        #: PCIe bytes the placement hits avoided.
        self.placement_hit_bytes = 0
        #: Ids of the hash tables served from the pool (their build
        #: pipelines did not run) / built and handed to it.
        self.resident_tables: set[str] = set()
        self.table_hits = 0
        self.table_misses = 0
        #: table id -> build signature (None: not poolable) of every
        #: build pipeline seen so far, for the builds that probe them.
        self._signatures: dict[str, str | None] = {}
        #: Wire compression policy (``device.compression``).  Zero-copy
        #: devices never cross a link, so there is nothing to compress.
        self.compression = (
            device.compression if device.interconnect is not None else None
        )
        self._compression_stats = None
        if self.compression is not None:
            self._compression_stats = CompressionStats()
            self._compression_stats.log = device.log
        #: Wire-resident columns, decoded in registers by the kernels
        #: that read them, keyed by ``(source table, base column)``.
        self.lazy_columns: dict[tuple[str, str], LazyColumn] = {}

    # ------------------------------------------------------------------
    def source_rows(self, pipeline: Pipeline) -> int:
        """Row count of the pipeline's input, independent of how many
        columns it references (``count(*)`` reads none)."""
        if pipeline.source_is_virtual:
            virtual = self.virtual_tables.get(pipeline.source)
            if virtual is None or not virtual.arrays:
                return 0
            return len(next(iter(virtual.arrays.values())))
        return self.database.table(pipeline.source).num_rows

    def load_source(
        self, pipeline: Pipeline, lazy_capable: bool = False
    ) -> dict[str, np.ndarray]:
        """The pipeline's input scope: base columns or a virtual table
        already on the device.

        The one h2d loader: each base column the pipeline is first to
        read gets a device buffer of its own (a pool entry when a pool is
        set; a hit already has one), and those that are not resident
        ship as ONE transfer, so a pipeline pays the link latency once,
        not once per column.  Under a compression policy a column ships,
        and stays on the device, as its wire image: the record's
        ``nbytes`` is what crosses, and when any column is encoded its
        ``raw_nbytes`` is every column's raw size and its ``codec`` the
        ``+``-joined codecs.  ``lazy_capable=True`` (engines whose
        column reads are charged through
        :class:`~repro.kernels.context.KernelContext`) registers it as
        wire-resident: the kernels that read it decode in registers.
        Engines that charge column reads outside the context (the
        operator-at-a-time design) materialize it here instead, with a
        stand-alone ``decode.<column>`` kernel into raw scratch, after
        the transfer that carried it.
        """
        if pipeline.source_is_virtual:
            try:
                virtual = self.virtual_tables[pipeline.source]
            except KeyError:
                raise PlanError(
                    f"pipeline {pipeline.name} reads virtual table "
                    f"{pipeline.source!r} before it was produced"
                ) from None
            return dict(virtual.arrays)
        table = self.database.table(pipeline.source)
        scope: dict[str, np.ndarray] = {}
        shipped, raw_nbytes, codecs, wire = [], 0, [], []
        for name in pipeline.required_columns:
            base_name = pipeline.source_rename.get(name, name)
            column = table.column(base_name)
            scope[name] = column.values
            key = (pipeline.source, base_name)
            if key in self._transferred:
                continue
            self._transferred.add(key)
            label = f"{pipeline.source}.{base_name}"
            encoded = None
            if self.compression is not None:
                encoded = self.compression.encoded(column)
                if encoded.codec == "passthrough":
                    encoded = None
            codec = "" if encoded is None else encoded.codec
            if self.pool is not None:
                entry, hit = self.pool.acquire(
                    pipeline.source, base_name, column,
                    self.database.fingerprint(),
                )
                # What the pool holds: the wire image, else the column.
                resident = entry.buffer.array
                self._pinned.append(entry)
                self.device.log.phase(
                    f"placement {label}", "placement", hit=hit, nbytes=column.nbytes
                )
                # entry.nbytes is the resident footprint: the wire size
                # when the pool stores the column compressed.
                if hit:
                    self.placement_hits += 1
                    self.placement_hit_bytes += entry.nbytes
                else:
                    self.placement_misses += 1
            else:
                hit = False
                # What lands on the device: the wire image, else the column.
                resident = column.values if encoded is None else encoded.wire_array
                self.device.allocate(resident, label=label)
            if not hit:
                shipped.append(resident)
                raw_nbytes += column.nbytes
                if codec:
                    codecs.append(codec)
                if self._compression_stats is not None:
                    self._compression_stats.record(codec)
            if encoded is not None:
                wire.append((key, encoded, column.values, label))
        if shipped:
            self.device.transfer_to_device(
                shipped,
                label=pipeline.source,
                raw_nbytes=raw_nbytes if codecs else 0,
                codec="+".join(dict.fromkeys(codecs)),
            )
        for key, encoded, values, label in wire:
            if lazy_capable:
                self.register_wire(key, encoded, values)
            else:
                self.device.allocate(
                    np.empty(encoded.raw_nbytes, dtype=np.uint8),
                    label=f"decode.{label}",
                )
                self._charge_decode(encoded, label)
        return scope

    # ------------------------------------------------------------------
    # compressed-transfer accounting
    # ------------------------------------------------------------------
    def _charge_decode(self, encoded, label: str) -> None:
        """Charge one stand-alone decompression kernel: GLOBAL read of
        the wire bytes, GLOBAL write of the decoded raw bytes."""
        name = f"decode.{label}"
        meter = self.device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, encoded.wire_nbytes)
        meter.record_write(MemoryLevel.GLOBAL, encoded.raw_nbytes)
        meter.record_instructions(2 * encoded.length)
        trace = self.device.launch(name, "decode", encoded.length, meter)
        if name not in self.kernel_sources:
            self.kernel_sources[name] = decode_kernel_source(
                name,
                encoded.codec,
                str(encoded.dtype),
                encoded.length,
                encoded.wire_nbytes,
                encoded.raw_nbytes,
            )
        self._compression_stats.record_decode_kernel(encoded.codec, trace.time_ms)

    def _encode_for_d2h(self, encoded, label: str) -> bool:
        """Encode one segment (column) of a packed result / partial on
        the device before its D2H — if that pays: the modeled link time
        the wire image saves (the transfer's one latency cancels out)
        must exceed the encode kernel's own modeled time, launch
        overhead included.  Returns whether the wire image ships (the
        ``encode.<label>`` kernel has then been charged)."""
        if encoded.codec == "passthrough":
            return False
        meter = self.device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, encoded.raw_nbytes)
        meter.record_write(MemoryLevel.GLOBAL, encoded.wire_nbytes)
        meter.record_instructions(2 * encoded.length)
        link = self.device.interconnect
        saved = link.transfer_time(encoded.raw_nbytes, "d2h") - link.transfer_time(
            encoded.wire_nbytes, "d2h"
        )
        if saved <= self.device.cost_model.breakdown(meter, "encode").total:
            return False
        name = f"encode.{label}"
        self.device.launch(name, "encode", encoded.length, meter)
        if name not in self.kernel_sources:
            self.kernel_sources[name] = encode_kernel_source(
                name,
                encoded.codec,
                str(encoded.dtype),
                encoded.length,
                encoded.wire_nbytes,
                encoded.raw_nbytes,
            )
        return True

    def compression_stats(self):
        """Per-query compression accounting (None when disabled)."""
        return self._compression_stats

    # ------------------------------------------------------------------
    # wire-resident columns: decoded in registers by their readers
    # ------------------------------------------------------------------
    def register_wire(self, key: tuple[str, str], encoded, values) -> None:
        """The rows of ``key`` (table, base column) now on the device
        are ``encoded`` (the column's wire image, or the current
        streamed block's); a passthrough encoding un-registers it —
        those rows are raw."""
        if encoded.codec == "passthrough":
            self.lazy_columns.pop(key, None)
            return
        self.lazy_columns[key] = LazyColumn(".".join(key), encoded, values)
        self._compression_stats.deferred_columns += 1

    def lazy_gather(
        self, state: LazyColumn, rows: int, meter, span: int | None = None
    ) -> None:
        """Charge the running kernel (``meter``; ``span`` source rows)
        for reading ``rows`` values of a wire-resident column: the
        register decode, in place of a raw column read."""
        note = state.decode(int(rows), meter, span)
        stats = self._compression_stats
        stats.partial_decode_bytes += min(rows, state.n) * state.itemsize
        name = f"gather.{state.label}"
        if name not in self.kernel_sources:
            self.kernel_sources[name] = register_decode_source(name, state.codec, note)
            stats.scans.append(note)

    def record_scan(self, state: LazyColumn, plan, meter) -> None:
        """Account one compressed-scan conjunct: charge the fused
        strategy traffic and keep the decision visible (kernel source
        listing + stats note for EXPLAIN)."""
        plan.charge(meter)
        name = f"compressed_scan.{state.label}"
        if name not in self.kernel_sources:
            self.kernel_sources[name] = compressed_scan_source(
                name,
                plan.strategy,
                state.codec,
                plan.read_bytes,
                plan.instructions,
                plan.detail,
            )
        stats = self._compression_stats
        stats.compressed_scans += 1
        stats.scan_blocks += plan.blocks
        stats.scan_blocks_skipped += plan.blocks_skipped
        note = plan.note(state.label)
        if note not in stats.scans:
            stats.scans.append(note)

    # ------------------------------------------------------------------
    def query_placement(self):
        """This query's residency outcome (None when no pool is set)."""
        if self.pool is None:
            return None
        from ..placement.stats import QueryPlacement

        return QueryPlacement(
            hits=self.placement_hits,
            misses=self.placement_misses,
            hit_bytes=self.placement_hit_bytes,
            table_hits=self.table_hits,
            table_misses=self.table_misses,
        )

    def close(self) -> None:
        """End-of-query cleanup: unpin pool entries and reclaim every
        transient device allocation (scratch, and the hash tables no
        pool took over) so only pool-resident buffers stay on the
        device."""
        if self.pool is not None and self._pinned:
            self.pool.release(self._pinned)
            self._pinned = []
        self.device.release_transient()

    # ------------------------------------------------------------------
    # resident build sides
    # ------------------------------------------------------------------
    def table_key(self, pipeline: Pipeline) -> tuple | None:
        """The pool key of the table build ``pipeline`` leaves
        (:meth:`BufferPool.table_key
        <repro.placement.BufferPool.table_key>`); ``None`` without a
        pool, or when the table is not poolable."""
        if self.pool is None:
            return None
        return self.pool.table_key(pipeline, self._signatures, self.database)

    def resident_build(self, pipeline: Pipeline, key: tuple) -> bool:
        """Serve build ``pipeline`` from the pool: on a hit the resident
        table is registered under this query's table id and pinned until
        :meth:`close` — the pipeline need not run, and nothing of it
        does (no launch, no source column load, no kernel lookup)."""
        resident = self.pool.acquire_table(key, self.database.fingerprint())
        if resident is None:
            self.table_misses += 1
            return False
        self.table_hits += 1
        self._pinned.append(resident)
        table_id = pipeline.sink.table_id
        self.resident_tables.add(table_id)
        self.register_hash_table(table_id, resident.table)
        self.device.log.phase(
            f"placement {table_id}", "placement", hit=True, nbytes=resident.nbytes
        )
        return True

    def keep_build(self, pipeline: Pipeline, key: tuple, restore_ms: float) -> None:
        """Hand the table build ``pipeline`` just completed to the pool
        (pinned by this query like one it was served); ``restore_ms`` is
        the modeled time the pipeline took."""
        entry = self.hash_tables[pipeline.sink.table_id]
        self._pinned.append(
            self.pool.keep_table(
                key, self.database.fingerprint(), entry, entry.buffers, restore_ms
            )
        )

    # ------------------------------------------------------------------
    def register_hash_table(self, table_id: str, entry: HashTableEntry) -> None:
        self.hash_tables[table_id] = entry

    def register_built_table(
        self, table_id: str, table: JoinHashTable, payload: dict[str, np.ndarray]
    ) -> None:
        """Register ``table`` (its slot array just allocated) with its
        ``payload`` columns, which stay on the device."""
        buffers = [table.slots_buffer]
        try:
            for name, values in payload.items():
                buffers.append(self.device.allocate(values, label=f"{table_id}.{name}"))
        except BaseException:
            # Free the half-built table (slots + any payload columns
            # already allocated) so a failed build does not leak.
            for buffer in buffers:
                if buffer is not None and not buffer.freed:
                    self.device.free(buffer)
            raise
        self.register_hash_table(table_id, HashTableEntry(table, payload, buffers))

    def build_hash_table(
        self, table_id: str, keys: list[np.ndarray], payload: dict[str, np.ndarray]
    ) -> None:
        """Build ``table_id`` over materialized ``keys`` (one stand-alone
        kernel) and register it with its ``payload`` columns."""
        table = JoinHashTable.build(self.device, keys, name=table_id)
        self.register_built_table(table_id, table, payload)

    def hash_table(self, table_id: str) -> HashTableEntry:
        try:
            return self.hash_tables[table_id]
        except KeyError:
            raise PlanError(f"hash table {table_id!r} was never built") from None

    def register_virtual(self, name: str, arrays: dict[str, np.ndarray], schema: PlanSchema) -> None:
        self.virtual_tables[name] = VirtualTable(arrays=arrays, schema=schema)

    # ------------------------------------------------------------------
    def aggregate_rows(
        self,
        sink: AggregateSink,
        scope: dict[str, np.ndarray],
        mask: np.ndarray,
        output_schema: PlanSchema,
    ) -> AggregationResult:
        """Compute the aggregate outputs of a pipeline (ground truth).

        Engines charge the *cost* of this computation separately (C1,
        C2, or C3 accounting) using the returned cost drivers.
        ``mask`` is over the rows ``scope`` serves; a kernel context's
        scope holds survivors only, so its mask selects every row and
        nothing is gathered.
        """
        inputs = int(np.count_nonzero(mask))
        selected = None if inputs == mask.size else np.flatnonzero(mask)

        def qualifying(expr) -> np.ndarray:
            values = over_rows(evaluate(expr, scope), mask.shape)
            return values if selected is None else values.take(selected)

        outputs: dict[str, np.ndarray] = {}

        if sink.group_keys:
            key_arrays = [
                np.ascontiguousarray(qualifying(expr)) for _, expr in sink.group_keys
            ]
            codes, uniques = factorize(key_arrays)
            num_groups = len(uniques[0]) if uniques else 0
            for (name, _), unique in zip(sink.group_keys, uniques):
                outputs[name] = unique
        else:
            codes = None
            num_groups = 1

        for spec in sink.aggregates:
            values = qualifying(spec.expr) if spec.expr is not None else None
            outputs[spec.name] = _reduce_spec(spec, values, codes, num_groups, inputs)

        # Cast to the declared output types.
        for name, dtype in output_schema.dtypes.items():
            if name in outputs:
                outputs[name] = np.asarray(outputs[name]).astype(dtype.numpy_dtype)
        return AggregationResult(
            outputs=outputs,
            codes=codes,
            num_groups=num_groups,
            entry_bytes=sink.entry_bytes(output_schema),
            inputs=inputs,
        )

    # ------------------------------------------------------------------
    def finalize(
        self, query: PhysicalQuery, outputs: dict[str, np.ndarray]
    ) -> Table:
        """Assemble, transfer (d2h), and post-process the final result."""
        return assemble_result(query, outputs, ship=self._ship_result)

    def _ship_result(self, table: Table) -> None:
        """Charge the result's d2h: one packed transfer
        (:meth:`_ship_packed`)."""
        self.output_bytes, _ = self._ship_packed(
            table.columns, CompressionPolicy.encoded, "result"
        )

    def ship_partial(self, outputs: dict[str, np.ndarray], label: str) -> int:
        """Ship one partial result (a morsel's sink outputs) d2h as one
        packed transfer (:meth:`_ship_packed`); returns the bytes that
        crossed the link.  The host merge decodes the segments that
        crossed as wire images (``host_decode_bytes``)."""
        shipped, decoded = self._ship_packed(
            {name: np.asarray(array) for name, array in outputs.items()},
            CompressionPolicy.encode_array,
            label,
        )
        if decoded:
            self._compression_stats.host_decode_bytes += decoded
        return shipped

    def _ship_packed(self, segments, encode, label: str) -> tuple[int, int]:
        """Ship a sink's output columns d2h as ONE transfer of one
        packed device buffer, so a result pays the link latency once:
        ``segments`` (name -> column or array) lie back to back, each
        raw or — under a compression policy, when encoding it on the
        device first pays (:meth:`_encode_for_d2h`) — as the wire image
        ``encode(policy, segment)`` makes.  A wire image saves less link
        time than the raw bytes take (``raw / bandwidth``) and costs an
        encode kernel — at least one launch; when the first is within
        the second it cannot pay, and nothing is sampled, scored or
        encoded to find that out.  Returns the bytes that crossed the
        link and the raw bytes of the segments that crossed encoded."""
        policy = self.compression
        shipped = raw_total = decoded = 0
        codecs = []
        for name, segment in segments.items():
            raw = wire = segment.nbytes
            codec = ""
            if policy is not None:
                if (
                    raw / (self.device.interconnect.d2h_bandwidth * 1e9)
                    > self.device.profile.kernel_launch_overhead
                ):
                    encoded = encode(policy, segment)
                    if self._encode_for_d2h(encoded, f"{label}.{name}"):
                        wire, codec = encoded.wire_nbytes, encoded.codec
                        decoded += raw
                        codecs.append(codec)
                self._compression_stats.record(codec)
            raw_total += raw
            shipped += wire
        self.device.record_stream_transfer(
            shipped,
            "d2h",
            label=label,
            raw_nbytes=raw_total if codecs else 0,
            codec="+".join(dict.fromkeys(codecs)),
        )
        return shipped, decoded


def charge_library_aggregate(
    device,
    pipeline: Pipeline,
    rows: int,
    groups: int,
    itemsizes: dict[str, int],
    sort_payload: int,
) -> None:
    """The library reduction of ``rows`` materialized rows into
    ``groups`` (multi-pass, operator-at-a-time): C1 — global radix sort
    by group code carrying ``sort_payload`` bytes per row, then a
    segmented reduce; flat in the group count (Experiment 2) — when the
    sink groups, else B1 per aggregate over its ``itemsizes`` bytes
    (``count(*)`` reduces 4-byte ones).  Only the charge is due:
    :meth:`QueryRuntime.aggregate_rows` holds the results."""
    sink = pipeline.sink
    if not sink.group_keys:
        for spec in sink.aggregates:
            charge_device_reduce(
                device, rows, itemsizes.get(spec.name, 4),
                label=f"{pipeline.name}.{spec.name}",
            )
        return
    # The sort keys are the dense group codes ``factorize`` assigns:
    # 8-byte ids in [0, groups).
    charge_radix_sort(
        device, rows, 8, radix_passes(rows, 0, groups - 1), sort_payload,
        label=f"{pipeline.name}.group_sort",
    )
    charge_segmented_reduce(
        device, rows, max(sum(itemsizes.values()), 4), groups,
        label=f"{pipeline.name}.group_reduce",
    )


def assemble_result(
    query: PhysicalQuery, outputs: dict[str, np.ndarray], ship=None
) -> Table:
    """The host side of every execution path's result: cast the final
    pipeline's (or the merged partials') outputs to the query schema,
    let ``ship(table)`` charge the d2h (one packed transfer), then
    ORDER BY / LIMIT on the host (the original engine's job, Section 7)."""
    schema = query.output_schema
    assert schema is not None
    table = Table(
        {
            name: Column(
                schema.dtypes[name],
                np.asarray(outputs[name]).astype(schema.dtypes[name].numpy_dtype),
                schema.dictionaries.get(name),
            )
            for name in query.output_columns
        }
    )
    if ship is not None:
        ship(table)
    if query.sort_keys:
        table = table.take(_sort_order(table, query.sort_keys))
    if query.limit is not None:
        table = table.slice(0, query.limit)
    return table


def _reduce_spec(spec, values, codes, num_groups: int, selected: int):
    if codes is not None:
        if spec.op == "count":
            return grouped_reduce(codes, num_groups, np.zeros(0), "count")
        assert values is not None
        if spec.op == "avg":
            sums = grouped_reduce(codes, num_groups, values, "sum")
            counts = grouped_reduce(codes, num_groups, values, "count")
            return np.asarray(sums, dtype=np.float64) / np.maximum(counts, 1)
        return grouped_reduce(codes, num_groups, values, spec.op)
    # Single-tuple aggregation.
    if spec.op == "count":
        return np.array([selected], dtype=np.int64)
    assert values is not None
    if len(values) == 0:
        return np.array([0.0])
    if spec.op == "avg":
        return np.array([float(np.mean(values))])
    if spec.op == "sum":
        return np.array([np.sum(values)])
    if spec.op == "min":
        return np.array([np.min(values)])
    if spec.op == "max":
        return np.array([np.max(values)])
    raise PlanError(f"unknown aggregate op {spec.op!r}")


def _sort_order(table: Table, sort_keys) -> np.ndarray:
    """Stable multi-key sort order; string columns sort by dictionary
    code, which is lexicographic because dictionaries are
    order-preserving."""
    arrays = []
    for key in reversed(sort_keys):
        column = table.column(key.column)
        values = column.values
        if not key.ascending:
            if values.dtype == np.bool_:
                values = ~values
            else:
                values = -values.astype(np.float64) if values.dtype.kind == "f" else -values.astype(np.int64)
        arrays.append(values)
    return np.lexsort(arrays)
