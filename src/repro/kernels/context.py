"""Kernel execution context for generated kernels.

Generated kernel code (see :mod:`repro.kernels.codegen`) runs against a
:class:`KernelContext`: expression work happens inline in the generated
numpy code, while everything that touches the simulated memory system —
column loads, hash-table probes, prefix sums, aggregation — goes
through context methods so traffic is accounted exactly once and
identically across engines.

A context represents ONE kernel: its meter accumulates until the engine
launches it on the device.

On the device a filtered-out thread does nothing more, and every charge
here is a function of the alive count.  The host works the same way:
the context owns a *row domain* — the source rows still alive — and
:class:`RowScope` serves every column over that domain, so a stage
computes, probes and gathers survivors only.  ``mask`` in generated
source is a mask over the current domain; a stage that drops rows
re-bases the domain on the survivors and hands back an all-alive mask.
Source-row flags come back only where the device model needs thread
positions (:meth:`KernelContext.finish_count`,
:meth:`KernelContext.positions`, :meth:`KernelContext.store`).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..compression import lazy
from ..errors import CompilationError, PlanError
from ..expressions.eval import evaluate, over_rows
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import MemoryLevel, TrafficMeter
from ..plan.logical import PlanSchema
from ..primitives.gather import INDEX_BYTES, random_access_volume
from ..primitives import prefix, segmented
from ..primitives.prefix import ScanResult, atomic_positions, device_scan, lrgp_positions
from .. import primitives

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engines.runtime import QueryRuntime

#: Prefix-sum / reduction mode names accepted by compiled engines.
REDUCTION_MODES = ("multipass", "atomic", "lrgp_simd", "lrgp_we")


class RowScope(Mapping):
    """The columns a generated kernel sees, over the rows still alive.

    ``scope[name]`` is a *source* column gathered through the selection
    on first read, or a *computed* column (a map output, a join
    payload) the kernel assigned at domain length.  :meth:`narrow`
    re-bases both on a subset of the domain.
    """

    def __init__(self, source: dict[str, np.ndarray]):
        #: The pipeline's input arrays, at source length.
        self.source = source
        #: Ascending source-row ids of the domain; None = every row.
        self.selection: np.ndarray | None = None
        self._columns: dict[str, np.ndarray] = {}
        self._computed: set[str] = set()

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            pass
        values = self.over_domain(self.source[name])
        self._columns[name] = values
        return values

    def __setitem__(self, name: str, values) -> None:
        self._columns[name] = values
        self._computed.add(name)

    def __iter__(self):
        yield from self._computed
        yield from (name for name in self.source if name not in self._computed)

    def __len__(self) -> int:
        return len(self._computed | set(self.source))

    def is_source(self, name: str) -> bool:
        """Whether ``name`` still reads the pipeline's input column (a
        map output of the same name shadows it)."""
        return name in self.source and name not in self._computed

    def over_domain(self, values: np.ndarray) -> np.ndarray:
        """A source-length array taken through the selection."""
        return values if self.selection is None else values.take(self.selection)

    def narrow(self, index: np.ndarray) -> None:
        """Keep the domain rows ``index`` (ascending positions in the
        current domain).  Computed columns are compacted now; gathered
        source columns are dropped and re-gathered if read again, which
        a predicate column usually is not."""
        self.selection = index if self.selection is None else self.selection.take(index)
        columns = self._columns
        for name in list(columns):
            if name not in self._computed:
                del columns[name]
            elif np.ndim(columns[name]):  # a map of literals is 0-d
                columns[name] = columns[name].take(index)


class KernelContext:
    """Accounting + semantics facade for one generated kernel.

    Parameters
    ----------
    runtime:
        The query runtime (hash tables, rng).
    scope:
        Column arrays of the pipeline source (full block length);
        ``ctx.scope`` serves them over the row domain.
    schema:
        Scope schema (for per-column byte widths).
    mode:
        Reduction mode — governs how :meth:`positions` and the
        aggregation helpers behave and what they cost.
    base_count:
        Number of elements charged for a first column load.  The count
        kernel and compound kernel pass the block size; the write
        kernel of the multi-pass model passes the selected count, since
        only flagged threads re-read inputs.
    rows:
        Authoritative source cardinality.  When omitted it is inferred
        from the scope arrays — wrong for pipelines that reference no
        columns at all (``select count(*)`` without a predicate), whose
        scope is empty while the source still has rows.
    """

    def __init__(
        self,
        runtime: "QueryRuntime",
        scope: dict[str, np.ndarray],
        schema: PlanSchema,
        mode: str,
        base_count: int | None = None,
        sink=None,
        output_schema: PlanSchema | None = None,
        rows: int | None = None,
        pipeline=None,
    ):
        if mode not in REDUCTION_MODES:
            raise CompilationError(f"unknown reduction mode {mode!r}")
        self.np = np
        self.runtime = runtime
        self.scope = RowScope(scope)
        self.schema = schema
        self.mode = mode
        # ``rows`` is the authoritative source cardinality: a pipeline
        # that references no columns (``count(*)`` with no predicate)
        # has an empty scope but still iterates every source row.
        if rows is not None:
            self.n = rows
        else:
            self.n = len(next(iter(scope.values()))) if scope else 0
        self.base_count = self.n if base_count is None else base_count
        self.meter = TrafficMeter()
        self.outputs: dict[str, np.ndarray] = {}
        self.sink = sink
        self.output_schema = output_schema
        #: Final selection flags, one per *source* row (count kernel
        #: result / write kernel input).
        self.flags: np.ndarray | None = None
        #: The mask a multi-pass write kernel ended on, over its own
        #: final domain (``materialize_for_aggregate``).
        self.final_mask: np.ndarray | None = None
        #: Intermediates materialized by multi-pass write kernels.
        self.intermediates: dict[str, np.ndarray] = {}
        self.aggregation = None
        self._positions: ScanResult | None = None
        self._loaded: set[str] = set()
        self._valid = self.n if base_count is None else base_count
        #: The latest probe stage: the rows array handed to the
        #: generated code (its identity names the stage), those rows
        #: over the current domain, which of them hit (None: all), and
        #: the hit count at probe time, which each payload charges.
        self._probe: tuple[np.ndarray, np.ndarray, np.ndarray | None, int] | None = None
        #: The physical pipeline this kernel implements (None for
        #: hand-built contexts).  Names the table behind each input
        #: column (:meth:`_wire_column`) and gives :meth:`filter_stage`
        #: the predicate *expression tree* at runtime — generated
        #: source stays identical regardless of compression policy.
        self.pipeline = pipeline

    @property
    def profile(self) -> DeviceProfile:
        return self.runtime.device.profile

    # ------------------------------------------------------------------
    # column loads
    # ------------------------------------------------------------------
    def itemsize(self, name: str) -> int:
        dtype = self.schema.dtypes.get(name)
        if dtype is None:
            return 4
        return dtype.itemsize

    def touch(self, names: list[str], count: int | None = None) -> None:
        """Charge the first global-memory load of each named column: a
        raw read, or — for a wire-resident column — its register
        decode, fused into this kernel."""
        charge = self._valid if count is None else count
        charge = min(charge, self.base_count)
        for name in names:
            if name in self._loaded:
                continue
            self._loaded.add(name)
            state = self._wire_column(name)
            if state is not None:
                self.runtime.lazy_gather(state, charge, self.meter, self.n)
            else:
                self.meter.record_read(
                    MemoryLevel.GLOBAL, charge * self.itemsize(name)
                )

    def _wire_column(self, name: str):
        """The wire-resident state of input column ``name``, if the
        device holds it compressed (looked up by table and base column,
        so a slice or a gathered copy of the array finds it too)."""
        pipeline, registry = self.pipeline, self.runtime.lazy_columns
        if not registry or pipeline is None or not self.scope.is_source(name):
            return None
        return registry.get(
            (pipeline.source, pipeline.source_rename.get(name, name))
        )

    def mark_loaded(self, names: list[str]) -> None:
        """Treat columns as already in registers (no load charge)."""
        self._loaded.update(names)

    # ------------------------------------------------------------------
    # the row domain
    # ------------------------------------------------------------------
    def _narrow(self, keep: np.ndarray) -> np.ndarray | None:
        """Re-base the domain on the rows ``keep`` (a mask over the
        current domain) leaves alive.  Returns their positions in the
        old domain, or None when no row was dropped."""
        alive = int(np.count_nonzero(keep))
        self._valid = alive
        if alive == keep.size:
            return None
        index = np.flatnonzero(keep)
        self.scope.narrow(index)
        self._probe = None
        return index

    def _survivors(self, keep: np.ndarray) -> np.ndarray:
        """The mask a dropping stage hands back: ``keep`` itself when
        nothing was dropped, else all-alive over the re-based domain."""
        if self._narrow(keep) is None:
            return keep
        return np.ones(self._valid, dtype=bool)

    def _alive_index(self, mask: np.ndarray) -> np.ndarray | None:
        """Domain positions of the rows alive under ``mask``; None when
        that is all of them (the mask a re-based domain carries)."""
        if np.count_nonzero(mask) == mask.size:
            return None
        return np.flatnonzero(mask)

    def _selected(self, values, mask: np.ndarray, index: np.ndarray | None) -> np.ndarray:
        """``values`` (anything that broadcasts over the domain) for the
        rows ``index`` picks, as a column."""
        values = over_rows(values, mask.shape)
        return np.ascontiguousarray(values if index is None else values.take(index))

    def _source_rows(self, index: np.ndarray | None) -> np.ndarray | slice:
        """Source-row ids of the domain rows ``index`` picks."""
        selection = self.scope.selection
        if index is None:
            return slice(None) if selection is None else selection
        return index if selection is None else selection.take(index)

    def _source_flags(self, mask: np.ndarray) -> np.ndarray:
        """``mask`` expanded to one flag per source row — per device
        thread, which is what a scan and a thread group are made of."""
        if self.scope.selection is None:
            return mask
        flags = np.zeros(self.n, dtype=bool)
        flags[self._source_rows(self._alive_index(mask))] = True
        return flags

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def full_mask(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def apply_filter(self, mask: np.ndarray, flags: np.ndarray, cost: int) -> np.ndarray:
        """AND selection flags into the mask, charging ALU work.

        ``cost`` is the expression node count (per-element instruction
        estimate), charged for the rows still alive before the filter.
        """
        return self._filter(mask, flags, cost, None)

    def _filter(self, mask, flags, cost: int, predicate):
        """``predicate``: what ``flags`` evaluate (None: a probe's residual)."""
        self.meter.record_instructions(self._valid * cost)
        flags = over_rows(flags, mask.shape, dtype=bool)
        return self._survivors(mask & flags)

    def _scan(self, mask, plan, conjunct):
        """Fold a compressed scan's flags (one per column row) in."""
        return self._survivors(mask & self.scope.over_domain(plan.flags))

    def filter_stage(self, mask, index, fn, cost, columns):
        """Execute one FilterStage: load the predicate columns and AND
        its flags into the mask.

        Over wire-resident columns a single-column conjunct executes as
        a *compressed scan* — on RLE runs, dictionary-code LUTs, or
        min/max-skipped packed blocks — where
        :func:`repro.compression.lazy.plan_scan` finds one cheaper than
        unpacking the alive rows in registers; the rest of the
        predicate, and every other stage, takes the default path
        (touch + one apply_filter).  Both compute identical flags.
        """
        planned = []
        predicate = None
        if self.pipeline is not None:
            predicate = getattr(self.pipeline.stages[index], "predicate", None)
        if predicate is not None and self.runtime.lazy_columns:
            rows = min(self._valid, self.base_count)
            for conjunct in lazy.flatten_conjuncts(predicate):
                plan = state = None
                names = conjunct.columns()
                if len(names) == 1:
                    name = next(iter(names))
                    state = self._wire_column(name)
                    # A scan's flags are one per column row: a kernel
                    # over a slice of the column unpacks instead.
                    if (
                        state is not None
                        and state.n == self.n
                        and name not in self._loaded
                    ):
                        plan = lazy.plan_scan(state, conjunct, name, rows)
                planned.append((conjunct, plan, state))
        if any(plan is not None for _, plan, _ in planned):
            for conjunct, plan, state in planned:
                if plan is not None:
                    self.runtime.record_scan(state, plan, self.meter)
                    mask = self._scan(mask, plan, conjunct)
                else:
                    self.touch(sorted(conjunct.columns()))
                    mask = self._filter(
                        mask, evaluate(conjunct, self.scope), conjunct.size(), conjunct
                    )
            return mask
        self.touch(columns)
        return self._filter(mask, fn(self.scope), cost, predicate)

    def probe(
        self,
        table_id: str,
        key_arrays: list[np.ndarray],
        mask: np.ndarray,
        key_cost: int = 0,
    ) -> np.ndarray:
        """Probe a hash table for the rows still alive under ``mask``.

        Returns one build row index per domain row (-1 for a miss).
        Probe traffic is charged for the alive rows only — dead threads
        skip the probe — and since dropped rows leave the domain, the
        alive rows are normally all of them.
        """
        entry = self.runtime.hash_table(table_id)
        alive_count = int(np.count_nonzero(mask))
        if key_cost:
            self.meter.record_instructions(alive_count * key_cost)
        if not alive_count:
            return np.full(mask.size, -1, dtype=np.int64)
        keys = [over_rows(k, mask.shape) for k in key_arrays]
        if alive_count == mask.size:
            return entry.table.probe(self.meter, keys, self.profile.l2_capacity)
        # A mask with dead rows is one this context did not issue (a
        # hand-built caller's): they neither probe nor hit.
        alive = np.flatnonzero(mask)
        rows = np.full(mask.size, -1, dtype=np.int64)
        rows[alive] = entry.table.probe(
            self.meter, [k[alive] for k in keys], self.profile.l2_capacity
        )
        return rows

    def _probed(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, int]:
        """The stage ``rows`` names: its rows over the current domain,
        which of them hit (None: all) and the hit count at probe time,
        computed once (``apply_probe`` and every ``payload`` share it)."""
        if self._probe is None or self._probe[0] is not rows:
            found = rows >= 0
            hits = int(np.count_nonzero(found))
            self._probe = (rows, rows, None if hits == rows.size else found, hits)
        return self._probe[1:]

    def apply_probe(self, mask: np.ndarray, rows: np.ndarray, kind: str) -> np.ndarray:
        """Fold probe hits/misses into the mask per join kind."""
        current, found, hits = self._probed(rows)
        if kind == "inner" or kind == "semi":
            keep = mask if found is None else mask & found
        elif kind == "anti":
            keep = np.zeros_like(mask) if found is None else mask & ~found
        elif kind == "left":
            keep = mask  # all probe rows survive
        else:
            raise PlanError(f"unknown join kind {kind!r}")
        index = self._narrow(keep)
        if index is None:
            return keep
        # The stage's payloads come next and must see its rows over the
        # domain it just narrowed: inner/semi survivors all hit.
        if found is not None:
            found = None if kind in ("inner", "semi") else found.take(index)
        self._probe = (rows, current.take(index), found, hits)
        return np.ones(self._valid, dtype=bool)

    def payload(
        self,
        table_id: str,
        rows: np.ndarray,
        name: str,
        default: float | None = None,
    ) -> np.ndarray:
        """Fetch a payload column through the probe result (a gather).

        Charges one random global-memory read per alive hit; missing
        rows yield ``default`` (left joins) or an arbitrary value that
        no surviving row reads.
        """
        entry = self.runtime.hash_table(table_id)
        try:
            source = entry.payload[name]
        except KeyError:
            raise PlanError(f"hash table {table_id!r} has no payload {name!r}") from None
        rows, found, hits = self._probed(rows)
        itemsize = source.dtype.itemsize
        self.meter.record_read(
            MemoryLevel.GLOBAL,
            random_access_volume(hits, itemsize, source.nbytes, self.profile.l2_capacity),
        )
        self.meter.record_instructions(hits)
        if found is None:
            return source.take(rows)
        if len(source) == 0:
            # Empty build side: every probe missed; any fill value is
            # masked off downstream (or replaced by the left-join default).
            values = np.zeros(len(rows), dtype=source.dtype)
        else:
            # mode="clip" reads row 0 for the -1 of a miss.
            values = source.take(rows, mode="clip")
        if default is not None:
            fill = np.asarray(default).astype(source.dtype)
            values = np.where(found, values, fill)
        return values

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def positions(self, mask: np.ndarray) -> ScanResult:
        """Write positions for the selected rows, per reduction mode.

        Positions are indexed by source row: LRGP thread groups are
        groups of threads, and ``runtime.rng`` is drawn with the sizes
        the source gives, whatever the domain has shrunk to.
        """
        if self.mode == "multipass":
            raise CompilationError(
                "multipass kernels compute prefix sums in separate kernels; "
                "positions() is only valid in compound kernels"
            )
        flags = self._source_flags(mask)
        if self.mode == "atomic":
            return atomic_positions(self.meter, flags, self.runtime.rng)
        mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
        return lrgp_positions(
            self.meter, flags, self.profile, self.runtime.rng, mechanism
        )

    def set_positions(self, positions: ScanResult) -> None:
        """Install externally computed positions (multi-pass write
        kernel), charging the flag + prefix array reads."""
        self.meter.record_read(MemoryLevel.GLOBAL, 2 * self.n * INDEX_BYTES)
        self._positions = positions

    def atomic_reduce(self, values: np.ndarray, op: str):
        return primitives.atomic_reduce(self.meter, values, op)

    def lrgp_reduce(self, values: np.ndarray, op: str):
        mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
        return primitives.lrgp_reduce(self.meter, values, self.profile, op, mechanism)

    def hash_aggregate_cost(self, codes: np.ndarray, num_groups: int, entry_bytes: int):
        """Charge a pipelined grouped aggregation (C2 or C3)."""
        if self.mode == "atomic":
            return primitives.atomic_hash_aggregate(self.meter, codes, num_groups, entry_bytes)
        return primitives.segmented_hash_aggregate(
            self.meter, codes, num_groups, entry_bytes, self.profile
        )

    def single_aggregate_cost(self, count: int, accumulators: int) -> None:
        """Charge a pipelined single-tuple aggregation (B2 or B3): one
        reduction of ``count`` 4-byte values per accumulator."""
        for _ in range(max(accumulators, 1)):
            if self.mode == "atomic":
                primitives.charge_atomic_reduce(self.meter, count)
            else:
                mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
                primitives.charge_lrgp_reduce(
                    self.meter, count, 4, self.profile, mechanism
                )

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def compute(self, cost: int, count: int | None = None) -> None:
        """Charge ALU-only work (projection arithmetic)."""
        charge = self._valid if count is None else count
        self.meter.record_instructions(charge * cost)

    def write_output(self, name: str, values: np.ndarray, itemsize: int) -> None:
        """Charge the aligned write of one output column."""
        count = len(values)
        self.meter.record_write(MemoryLevel.GLOBAL, count * itemsize)
        self.outputs[name] = values

    def store(self, name: str, values: np.ndarray, mask: np.ndarray, positions: ScanResult) -> None:
        """Scatter the selected values to their write positions.

        With atomic/LRGP positions the output order is the (semi-)
        permuted allocation order of Section 6.1; with reference
        positions it is input order.
        """
        self.write_output(name, self._scattered(values, mask, positions), self.itemsize(name))

    def _scattered(self, values, mask: np.ndarray, positions: ScanResult) -> np.ndarray:
        index = self._alive_index(mask)
        selected = self._selected(values, mask, index)
        dense = np.empty(positions.total, dtype=selected.dtype)
        dense[positions.positions[self._source_rows(index)]] = selected
        return dense

    # ------------------------------------------------------------------
    # multi-pass count/write protocol
    # ------------------------------------------------------------------
    def finish_count(self, mask: np.ndarray) -> None:
        """Count kernel epilogue: write the selection flags array (one
        flag per source row — the prefix sum scans threads)."""
        self.meter.record_write(MemoryLevel.GLOBAL, self.n * INDEX_BYTES)
        self.flags = self._source_flags(mask)

    def scan_flags(self, device, label: str) -> ScanResult:
        """Phase 2 of the protocol: the hierarchical device prefix sum
        over the flags :meth:`finish_count` wrote."""
        return device_scan(device, self.flags, label=label)

    def install_flags(self, flags: np.ndarray) -> None:
        self.flags = flags

    def initial_mask(self) -> np.ndarray:
        """Write kernel prologue: threads consult their selection flag,
        and only the flagged ones re-execute the primitives — the domain
        starts on them."""
        if self.flags is None:
            raise CompilationError("write kernel needs flags from the count kernel")
        index = np.flatnonzero(self.flags)
        if index.size < self.n:
            self.scope.narrow(index)
        return np.ones(index.size, dtype=bool)

    def installed_positions(self) -> ScanResult:
        if self._positions is None:
            raise CompilationError("write kernel needs positions from the prefix sum")
        return self._positions

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def sink_aggregate(self, mask: np.ndarray) -> None:
        """Pipelined aggregation (compound kernels): compute the
        aggregates and charge B2/B3 (single tuple) or C2/C3 (grouped)."""
        if self.sink is None or self.output_schema is None:
            raise CompilationError("context has no aggregation sink bound")
        result = self.runtime.aggregate_rows(self.sink, self.scope, mask, self.output_schema)
        if result.codes is not None:
            self.hash_aggregate_cost(result.codes, result.num_groups, result.entry_bytes)
        else:
            self.single_aggregate_cost(result.inputs, self.sink.accumulators)
        self.outputs.update(result.outputs)
        self.aggregation = result

    def materialize_for_aggregate(self, mask: np.ndarray) -> None:
        """Multi-pass write kernel: materialize key and value columns
        for the library sort/reduce that follows (pipeline breaker)."""
        if self.sink is None:
            raise CompilationError("context has no aggregation sink bound")
        self.final_mask = mask
        selected = self._alive_index(mask)
        for index, (name, expr) in enumerate(self.sink.group_keys):
            values = self._selected(evaluate(expr, self.scope), mask, selected)
            self.meter.record_write(MemoryLevel.GLOBAL, values.nbytes)
            self.intermediates[f"key{index}:{name}"] = values
        for spec in self.sink.aggregates:
            if spec.expr is None:
                continue
            values = self._selected(evaluate(spec.expr, self.scope), mask, selected)
            self.meter.record_write(MemoryLevel.GLOBAL, values.nbytes)
            self.intermediates[f"value:{spec.name}"] = values

    def sink_build(self, mask: np.ndarray, key_arrays: list[np.ndarray]) -> None:
        """Pipelined hash-table build (compound kernels): selected rows
        insert themselves with atomic CAS, payload kept from registers."""
        if self.sink is None:
            raise CompilationError("context has no build sink bound")
        selected = self._alive_index(mask)
        keys = [self._selected(array, mask, selected) for array in key_arrays]
        payload = {
            name: self._selected(self.scope[name], mask, selected)
            for name in self.sink.payload
        }
        self._build_table(keys, payload)
        for values in [*payload.values(), *keys]:
            self.meter.record_write(MemoryLevel.GLOBAL, values.nbytes)

    def _build_table(self, keys: list[np.ndarray], payload: dict[str, np.ndarray]) -> None:
        """Insert ``keys`` (charged to this kernel) and register the
        table with its ``payload`` columns, which stay on the device."""
        from ..primitives.hashtable import JoinHashTable

        table_id = self.sink.table_id
        table = JoinHashTable.build_pipelined(
            self.meter, self.runtime.device, keys, name=table_id
        )
        self.runtime.register_built_table(table_id, table, payload)

    def materialize_for_build(self, mask: np.ndarray, key_arrays: list[np.ndarray]) -> None:
        """Multi-pass write kernel: materialize keys + payload; the
        engine then builds the hash table in a separate kernel."""
        if self.sink is None:
            raise CompilationError("context has no build sink bound")
        selected = self._alive_index(mask)
        for index, array in enumerate(key_arrays):
            values = self._selected(array, mask, selected)
            self.meter.record_write(MemoryLevel.GLOBAL, values.nbytes)
            self.intermediates[f"key{index}"] = values
        for name in self.sink.payload:
            values = self._selected(self.scope[name], mask, selected)
            self.meter.record_write(MemoryLevel.GLOBAL, values.nbytes)
            self.intermediates[f"payload:{name}"] = values

    @property
    def valid(self) -> int:
        return self._valid


class EstimateContext(KernelContext):
    """A kernel over a *cardinality* domain: the row domain is a count.

    The same generated kernel text runs against it and records the
    charges execution records — through the same methods, or through
    the count-taking charge an array-driven primitive is made of, fed
    expected cost drivers in place of measured ones.  ``scope`` serves
    one row of every column (expressions evaluate to their dtype),
    ``mask`` is an opaque token, and a stage that drops rows shrinks
    :attr:`valid` by the selectivity ``runtime`` (an
    :class:`~repro.engines.estimate.EstimateRuntime`) estimates, or by
    the match fraction of the table it probes.  A multi-pass write
    kernel (``base_count`` given) starts on the flagged rows, which
    pass every stage again.
    """

    def __init__(self, runtime, scope, *args, base_count: int | None = None, **kwargs):
        placeholders = {name: values[:1] for name, values in scope.items()}
        super().__init__(runtime, placeholders, *args, base_count=base_count, **kwargs)
        self._flagged = base_count is not None
        self._probe_stage = -1  # index of the latest probe stage
        #: Groups the sink aggregated into (0: not an aggregation).
        self.groups = 0

    # -- the domain -----------------------------------------------------
    def full_mask(self, mask=None):
        """Masks, flags and row indices of a count domain: a token."""
        return None

    initial_mask = _alive_index = _source_flags = full_mask

    def _keep(self, fraction: float) -> None:
        if not self._flagged:
            self._valid = int(round(self._valid * min(1.0, max(0.0, fraction))))

    def _selected(self, values, mask, index):
        return count_column(np.asarray(values).dtype, self._valid)

    def scan_flags(self, device, label):
        prefix.charge_device_scan(device, self.n, label=label)
        return ScanResult(total=self._valid)

    # -- stages ---------------------------------------------------------
    def _filter(self, mask, flags, cost, predicate):
        self.meter.record_instructions(self._valid * cost)
        if predicate is None:
            predicate = self.pipeline.stages[self._probe_stage].residual
        self._keep(self.runtime.selectivity(self.pipeline, predicate))

    def _scan(self, mask, plan, conjunct):
        self._keep(self.runtime.selectivity(self.pipeline, conjunct))

    def probe(self, table_id, key_arrays, mask, key_cost=0):
        """Charge the probes of the rows alive.  ``rows_<i>`` is a one-row
        token; the stage's expected hits ride on ``_probe`` as measured
        ones do, so :meth:`payload` charges and gathers as it is."""
        table = self.runtime.hash_table(table_id)
        stages = self.pipeline.stages
        stage = self._probe_stage = next(
            index
            for index in range(self._probe_stage + 1, len(stages))
            if getattr(stages[index], "table_id", None) == table_id
        )
        alive = self._valid
        self.meter.record_instructions(alive * key_cost)
        # Flagged survivors of an inner / semi probe all hit, of an anti
        # probe none; a left probe drops nobody.
        certain = {"inner": 1.0, "semi": 1.0, "anti": 0.0} if self._flagged else {}
        hits = table.probe(
            self.meter, alive, self.profile.l2_capacity, certain.get(stages[stage].kind)
        )
        rows = np.zeros(1, dtype=np.int64)
        self._probe = (rows, rows, None, hits)
        return rows

    def apply_probe(self, mask, rows, kind):
        hits = self._probed(rows)[2]
        if kind in ("inner", "semi"):
            self._valid = hits
        elif kind == "anti":
            self._valid -= hits

    # -- reductions and sinks -------------------------------------------
    def positions(self, mask):
        if self.mode == "atomic":
            prefix.charge_atomic_positions(self.meter, self.n, self._valid)
        else:
            mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
            prefix.charge_lrgp_positions(self.meter, self.n, self.profile, mechanism)
        return ScanResult(total=self._valid)

    def _scattered(self, values, mask, positions):
        return count_column(np.asarray(values).dtype, positions.total)

    def sink_aggregate(self, mask):
        sink, rows = self.sink, self._valid
        if not sink.group_keys:
            self.groups = 1
            self.single_aggregate_cost(rows, sink.accumulators)
            return
        self.groups = self.runtime.groups(self.pipeline, rows)
        entry_bytes = sink.entry_bytes(self.output_schema)
        hottest, pairs, ctas = segmented.uniform_group_drivers(rows, self.groups)
        if self.mode == "atomic":
            segmented.charge_atomic_hash_aggregate(self.meter, rows, hottest, entry_bytes)
        else:
            segmented.charge_segmented_hash_aggregate(
                self.meter, rows, pairs, ctas, entry_bytes
            )

    def _build_table(self, keys, payload):
        self.runtime.build_table(self.pipeline, self._valid, keys, payload, self.meter)


def count_column(dtype, rows: int) -> np.ndarray:
    """``rows`` rows nobody computed: a read-only zero-stride column of
    ``dtype`` (built directly: ``np.broadcast_to`` costs twice as much)."""
    column = np.ndarray((rows,), dtype, np.ones(1, dtype), strides=(0,))
    column.flags.writeable = False
    return column
