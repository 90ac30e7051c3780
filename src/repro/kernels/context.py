"""Kernel execution context for generated kernels.

Generated kernel code (see :mod:`repro.kernels.codegen`) runs against a
:class:`KernelContext`: expression work happens inline in the generated
numpy code, while everything that touches the simulated memory system —
column loads, hash-table probes, prefix sums, aggregation — goes
through context methods so traffic is accounted exactly once and
identically across engines.

A context represents ONE kernel: its meter accumulates until the engine
launches it on the device.

Generated source makes each primitive one call — :meth:`KernelContext.filter_stage`,
:meth:`KernelContext.map_stage`, :meth:`KernelContext.probe_stage`, a
sink method given its input columns — and the context runs the
bookkeeping around it in a fixed order (``touch`` the loaded columns,
the primitive, ``compute`` / ``apply_probe`` / ``payload``,
``mark_loaded``).  Every constant those calls need is an argument, so
the source alone determines what the kernel does.

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

from collections.abc import Callable, Mapping, Sequence
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..compression import lazy
from ..errors import CompilationError, PlanError
from ..expressions.eval import evaluate, over_rows
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import MemoryLevel, TrafficMeter
from ..plan.logical import PlanSchema
from ..primitives.common import segment_sums
from ..primitives.gather import INDEX_BYTES, random_access_volume
from ..primitives import prefix, segmented
from ..primitives.prefix import ScanResult, atomic_positions, device_scan, lrgp_positions
from .. import primitives

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engines.runtime import QueryRuntime

#: Prefix-sum / reduction mode names accepted by compiled engines.
REDUCTION_MODES = ("multipass", "atomic", "lrgp_simd", "lrgp_we")


#: What :attr:`KernelContext._all_alive` holds before any mask is made.
_NO_MASK = object()

#: :attr:`KernelContext.effects` of a one-segment kernel: made at once.
_AT_ONCE = (None,)


class Segment(NamedTuple):
    """One launch of a compound kernel's pass: ``pipeline`` over
    ``rows`` rows of the pass's scope (the segments' rows lie back to
    back), launched as the kernel's name plus ``suffix``.  ``wire``:
    the segment's own wire-resident columns, ``(table, base column) ->``
    :class:`~repro.compression.lazy.LazyColumn` (None: the runtime's,
    :attr:`QueryRuntime.lazy_columns`); ``ship``, if given, logs the
    segment's h2d just before its launch (a streamed block's)."""

    pipeline: object
    rows: int
    suffix: str = ""
    wire: dict | None = None
    ship: Callable[[], None] | None = None


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
        values = self._columns[name] = self.over_domain(self.source[name])
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
    segments:
        A :class:`Segment` (or a ``(pipeline, rows)`` pair) per slice of
        ``scope``, their rows back to back: the morsels of a fleet
        device's group (each over its own piece of one table), the
        vectors of a vector-at-a-time run or the streamed blocks of a
        batch run (each over its rows of one table).  None, or one
        segment: the one-segment case, ``pipeline`` over ``rows``.

    Segments
    --------
    The row domain is cut into segments, ``[edges[s], edges[s + 1])``,
    re-based with the domain; segment ``s`` is charged to its own
    meter, ``meters[s]``, and writes its own outputs,
    ``segment_outputs[s]``.  Every stage runs once over all rows and
    splits each charge per segment — alive counts, the slots each
    segment's rows probe, its hits, its groups — so a segment's meter
    and outputs equal, field for field, those of its pipeline run over
    its rows alone.  What is per segment stays per segment: its
    wire-resident columns (a register decode, or a compressed scan
    where its rows' encoding affords one), the columns it has loaded,
    its draws from ``runtime.rng`` (in segment order) and its effects
    on the query's stats and kernel listing (:attr:`effects`, which the
    caller makes in segment order after the pass).  A kernel of one
    pipeline is the one-segment case: ``meter`` and ``outputs`` are its
    only segment's, and its effects are made at once.
    """

    #: Segment edges over the domain (``_source_edges``: over the
    #: source rows) and the rows alive per segment — None: one segment,
    #: the whole domain, ``_valid`` rows alive.
    _edges: list[int] | None = None
    _alive: list[int] | None = None
    #: Per segment, the runtime effects two or more segments defer
    #: (None: made at once).
    effects: Sequence[list | None] = _AT_ONCE

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
        segments: Sequence[tuple] | None = None,
    ):
        if mode not in REDUCTION_MODES:
            raise CompilationError(f"unknown reduction mode {mode!r}")
        if segments is not None:
            if mode == "multipass" or base_count is not None:
                raise CompilationError("segments run compound kernels only")
            segments = [Segment(*segment) for segment in segments]
            pipeline = segments[0].pipeline
            rows = sum(segment.rows for segment in segments)
        #: Per segment, the wire-resident columns it reads.
        wires = [None] if segments is None else [segment.wire for segment in segments]
        self._wires = [runtime.lazy_columns if wire is None else wire for wire in wires]
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
        if segments is None or len(segments) == 1:
            self.meter = TrafficMeter()
            self.outputs: dict[str, np.ndarray] = {}
            #: The pipeline each segment runs, and the most elements its
            #: first column load charges.
            self.members, self._caps = (pipeline,), (self.base_count,)
            self._source_edges = (0, self.n)
            self.meters, self.segment_outputs = (self.meter,), (self.outputs,)
            #: The columns each segment has loaded.
            self._loaded: list[set[str]] = [set()]
        else:
            self.members = [segment.pipeline for segment in segments]
            self._caps = [segment.rows for segment in segments]
            self._source_edges = [0, *accumulate(self._caps)]
            self._edges = self._source_edges
            self._alive = list(self._caps)
            self.meters = [TrafficMeter() for _ in segments]
            self.segment_outputs = [{} for _ in segments]
            self.effects = [[] for _ in segments]
            self._loaded = [set() for _ in segments]
            self.meter, self.outputs = self.meters[0], self.segment_outputs[0]
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
        #: Per segment, what its aggregating sink computed.
        self.aggregations: list = []
        self._positions: ScanResult | None = None
        #: The mask object known to select the whole domain (see
        #: :meth:`_alive_mask`); none yet.
        self._all_alive = _NO_MASK
        self._valid = self.n if base_count is None else base_count
        #: The latest probe stage: the rows array handed to the
        #: generated code (its identity names the stage), those rows
        #: over the current domain, which of them hit (None: all), and
        #: the hits per segment at probe time, which each payload charges.
        self._probe: tuple[np.ndarray, np.ndarray, np.ndarray | None, list] | None = None
        #: The physical pipeline this kernel implements (None for
        #: hand-built contexts).  Names the table behind each input
        #: column (:meth:`_wire_column`) and gives :meth:`filter_stage`
        #: the predicate *expression tree* at runtime — generated
        #: source stays identical regardless of compression policy.
        self.pipeline = pipeline

    @property
    def profile(self) -> DeviceProfile:
        return self.runtime.device.profile

    @property
    def _counts(self) -> list[int]:
        """The rows alive per segment."""
        return [self._valid] if self._alive is None else self._alive

    def _charge(self, cost: int, count=None) -> None:
        """``cost`` instructions per row alive in each segment — or per
        ``count`` row, a per-segment figure (a :class:`SegmentedScan`'s
        ``total``; a number for one segment)."""
        if self._alive is None:
            self.meter.record_instructions((self._valid if count is None else count) * cost)
            return
        for meter, charge in zip(self.meters, self._alive if count is None else count):
            meter.record_instructions(charge * cost)

    # ------------------------------------------------------------------
    # column loads
    # ------------------------------------------------------------------
    def itemsize(self, name: str) -> int:
        dtype = self.schema.dtypes.get(name)
        if dtype is None:
            return 4
        return dtype.itemsize

    def touch(self, names: list[str], count=None) -> None:
        """Charge the first global-memory load of each named column: a
        raw read, or — for a wire-resident column — its register
        decode, fused into this kernel.  ``count`` (per segment)
        overrides the alive rows charged."""
        if self._alive is None:
            self._touch_segment(names, 0, self._valid if count is None else count)
            return
        for segment, charge in enumerate(self._alive if count is None else count):
            self._touch_segment(names, segment, charge)

    def _touch_segment(self, names, segment: int, charge: int) -> None:
        """:meth:`touch` of segment ``segment`` alone, ``charge`` rows
        a column."""
        loaded, meter = self._loaded[segment], self.meters[segment]
        charge = min(charge, self._caps[segment])
        for name in names:
            if name in loaded:
                continue
            loaded.add(name)
            state = self._wire_column(name, segment)
            if state is not None:
                span = self._source_edges[segment + 1] - self._source_edges[segment]
                self.runtime.lazy_gather(state, charge, meter, span, self.effects[segment])
            else:
                meter.record_read(MemoryLevel.GLOBAL, charge * self.itemsize(name))

    def _wire_column(self, name: str, segment: int = 0):
        """The wire-resident state of input column ``name`` of segment
        ``segment``, if the device holds it compressed (looked up by
        table and base column, so a slice or a gathered copy of the
        array finds it too)."""
        member, registry = self.members[segment], self._wires[segment]
        if not registry or member is None or not self.scope.is_source(name):
            return None
        return registry.get((member.source, member.source_rename.get(name, name)))

    def mark_loaded(self, names: list[str]) -> None:
        """Treat columns as already in registers (no load charge)."""
        for loaded in self._loaded:
            loaded.update(names)

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
        if self._edges is not None:
            edges = self._edges = np.searchsorted(index, self._edges).tolist()
            self._alive = [stop - start for start, stop in zip(edges, edges[1:])]
        self.scope.narrow(index)
        self._probe = None
        return index

    def _per_segment(self, flags: np.ndarray) -> list[int]:
        """How many of ``flags`` (over the domain) each segment holds."""
        if self._edges is None:
            return [flags.size if flags is self._all_alive else int(np.count_nonzero(flags))]
        if flags is self._all_alive or np.count_nonzero(flags) == flags.size:
            return self._alive
        return segment_sums(flags, self._edges).tolist()

    def _survivors(self, keep: np.ndarray) -> np.ndarray:
        """The mask a dropping stage hands back: ``keep`` itself when
        nothing was dropped, else all-alive over the re-based domain."""
        if self._narrow(keep) is None:
            return self._alive_mask(keep)
        return self._alive_mask(np.ones(self._valid, dtype=bool))

    def _alive_mask(self, mask: np.ndarray) -> np.ndarray:
        """``mask``, known to select every row of the domain: a stage
        handed it back skips combining with it and counting it."""
        self._all_alive = mask
        return mask

    def _and(self, mask: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """``mask & flags`` (``flags`` itself under the all-alive mask)."""
        return flags if mask is self._all_alive else mask & flags

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
        return self._alive_mask(np.ones(self.n, dtype=bool))

    def apply_filter(
        self, mask: np.ndarray, flags: np.ndarray, cost: int, columns: list[str] | None = None
    ) -> np.ndarray:
        """AND selection flags into the mask, charging ALU work.

        ``cost`` is the expression node count (per-element instruction
        estimate), charged for the rows still alive before the filter.
        ``columns`` (a probe's residual) are touched first.
        """
        if columns is not None:
            self.touch(columns)
        return self._filter(mask, flags, cost, None)

    def _filter(self, mask, flags, cost: int, predicate):
        """``predicate``: what ``flags`` evaluate (None: a probe's residual)."""
        self._charge(cost)
        flags = over_rows(flags, mask.shape, dtype=bool)
        return self._survivors(self._and(mask, flags))

    def _fold(self, mask, conjunct, plan):
        """AND one conjunct of a predicate, already charged, into the
        mask: a one-segment kernel's compressed ``plan`` holds its
        flags (one per column row), anything else evaluates them."""
        if plan is not None and self._edges is None:
            flags = self.scope.over_domain(plan.flags)
        else:
            flags = over_rows(evaluate(conjunct, self.scope), mask.shape, dtype=bool)
        return self._survivors(self._and(mask, flags))

    def filter_stage(self, mask, index, fn, cost, columns):
        """Execute one FilterStage: load the predicate columns and AND
        its flags into the mask.

        Over wire-resident columns a single-column conjunct executes as
        a *compressed scan* — on RLE runs, dictionary-code LUTs, or
        min/max-skipped packed blocks — where
        :func:`repro.compression.lazy.plan_scan` finds one cheaper than
        unpacking the alive rows in registers; the rest of the
        predicate, and every other stage, takes the default path
        (touch + one apply_filter).  Both compute identical flags, so
        the choice is a segment's: one whose piece affords a scan is
        charged conjunct by conjunct, the others the default path, and
        the flags are computed once.
        """
        predicate = planned = None
        if self.pipeline is not None:
            predicate = getattr(self.pipeline.stages[index], "predicate", None)
        if predicate is not None and any(self._wires):
            conjuncts = lazy.flatten_conjuncts(predicate)
            planned = [self._plan_scans(conjuncts, segment) for segment in range(len(self.members))]
        if planned is None or not any(planned):
            self.touch(columns)
            return self._filter(mask, fn(self.scope), cost, predicate)
        for segment, plans in enumerate(planned):
            if plans is None:
                charge = self._counts[segment]
                self._touch_segment(columns, segment, charge)
                self.meters[segment].record_instructions(charge * cost)
        for position, conjunct in enumerate(conjuncts):
            scanned = None
            for segment, plans in enumerate(planned):
                if plans is None:
                    continue
                plan, state = plans[position]
                meter = self.meters[segment]
                if plan is not None:
                    self.runtime.record_scan(state, plan, meter, self.effects[segment])
                    scanned = plan
                else:
                    charge = self._counts[segment]
                    self._touch_segment(sorted(conjunct.columns()), segment, charge)
                    meter.record_instructions(charge * conjunct.size())
            mask = self._fold(mask, conjunct, scanned)
        return mask

    def _plan_scans(self, conjuncts, segment: int) -> list | None:
        """``(scan plan or None, wire state)`` per conjunct for segment
        ``segment`` — None when no conjunct of it scans compressed."""
        rows = min(self._counts[segment], self._caps[segment])
        size = self._source_edges[segment + 1] - self._source_edges[segment]
        loaded = self._loaded[segment]
        plans, scanned = [], False
        for conjunct in conjuncts:
            plan = state = None
            names = conjunct.columns()
            if len(names) == 1:
                name = next(iter(names))
                state = self._wire_column(name, segment)
                # A scan's flags are one per column row: a kernel over a
                # slice of the column unpacks instead.
                if state is not None and state.n == size and name not in loaded:
                    plan = lazy.plan_scan(state, conjunct, name, rows)
            plans.append((plan, state))
            scanned = scanned or plan is not None
        return plans if scanned else None

    def map_stage(self, name: str, values, cost: int, columns: list[str]) -> None:
        """Execute one MapStage: load the expression's ``columns``,
        assign its ``values`` as ``name`` and charge its ``cost``."""
        self.touch(columns)
        self.scope[name] = values
        self.compute(cost)
        self.mark_loaded([name])

    def probe_stage(
        self,
        mask: np.ndarray,
        index: int,
        table_id: str,
        key_arrays: list[np.ndarray],
        key_columns: list[str],
        key_cost: int,
        kind: str,
        payload: list[str],
        defaults: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Execute ProbeStage ``index``: load the key columns, probe,
        fold the hits into the mask per ``kind``, then gather each
        ``payload`` column (a left join's miss reads its ``defaults``
        entry) over the domain the probe left."""
        self.touch(key_columns)
        rows = self.probe(table_id, key_arrays, mask, key_cost=key_cost)
        mask = self.apply_probe(mask, rows, kind=kind)
        if payload:
            scope = self.scope
            for name in payload:
                default = None if defaults is None else defaults.get(name)
                scope[name] = self.payload(table_id, rows, name, default)
            self.mark_loaded(payload)
        return mask

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
        alive rows are normally all of them.  Each segment is charged
        the slots its own rows inspect.
        """
        entry = self.runtime.hash_table(table_id)
        alive = self._per_segment(mask)
        if key_cost:
            for meter, count in zip(self.meters, alive):
                meter.record_instructions(count * key_cost)
        total = sum(alive)
        if not total:
            return np.full(mask.size, -1, dtype=np.int64)
        keys = [over_rows(k, mask.shape) for k in key_arrays]
        # Segment s (rows [edges[s], edges[s + 1])) is charged to its
        # meter; one segment is charged to the kernel's.
        meter, edges = (self.meter, None) if self._edges is None else (self.meters, self._edges)
        if total == mask.size:
            return entry.table.probe(meter, keys, self.profile.l2_capacity, edges=edges)
        # A mask with dead rows is one this context did not issue (a
        # hand-built caller's): they neither probe nor hit.
        rows_alive = np.flatnonzero(mask)
        if edges is not None:
            edges = np.searchsorted(rows_alive, edges).tolist()
        rows = np.full(mask.size, -1, dtype=np.int64)
        rows[rows_alive] = entry.table.probe(
            meter, [k[rows_alive] for k in keys], self.profile.l2_capacity, edges=edges
        )
        return rows

    def _probed(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, list]:
        """The stage ``rows`` names: its rows over the current domain,
        which of them hit (None: all) and the hits per segment at probe
        time, computed once (``apply_probe`` and every ``payload``
        share them)."""
        if self._probe is None or self._probe[0] is not rows:
            found = rows >= 0
            hits = self._per_segment(found)
            self._probe = (rows, rows, None if sum(hits) == rows.size else found, hits)
        return self._probe[1:]

    def apply_probe(self, mask: np.ndarray, rows: np.ndarray, kind: str) -> np.ndarray:
        """Fold probe hits/misses into the mask per join kind."""
        current, found, hits = self._probed(rows)
        if kind == "inner" or kind == "semi":
            keep = mask if found is None else self._and(mask, found)
        elif kind == "anti":
            keep = np.zeros_like(mask) if found is None else mask & ~found
        elif kind == "left":
            keep = mask  # all probe rows survive
        else:
            raise PlanError(f"unknown join kind {kind!r}")
        index = self._narrow(keep)
        if index is None:
            return self._alive_mask(keep)
        # The stage's payloads come next and must see its rows over the
        # domain it just narrowed: inner/semi survivors all hit.
        if found is not None:
            found = None if kind in ("inner", "semi") else found.take(index)
        self._probe = (rows, current.take(index), found, hits)
        return self._alive_mask(np.ones(self._valid, dtype=bool))

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
        volume = source.nbytes, self.profile.l2_capacity
        for meter, count in zip(self.meters, hits):
            meter.record_read(
                MemoryLevel.GLOBAL, random_access_volume(count, source.dtype.itemsize, *volume)
            )
            meter.record_instructions(count)
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
    def positions(self, mask: np.ndarray):
        """Write positions for the selected rows, per reduction mode:
        a :class:`ScanResult` — over two or more segments a
        :class:`SegmentedScan`, one per segment.

        Positions are indexed by source row: LRGP thread groups are
        groups of threads, and ``runtime.rng`` is drawn with the sizes
        the source gives, whatever the domain has shrunk to.
        """
        if self.mode == "multipass":
            raise CompilationError(
                "multipass kernels compute prefix sums in separate kernels; "
                "positions() is only valid in compound kernels"
            )
        flags, edges = self._source_flags(mask), self._source_edges
        parts = [
            self._positions_of(meter, flags if len(edges) == 2 else flags[start:stop])
            for meter, start, stop in zip(self.meters, edges, edges[1:])
        ]
        return parts[0] if len(parts) == 1 else SegmentedScan(parts)

    def _positions_of(self, meter: TrafficMeter, flags: np.ndarray) -> ScanResult:
        """Write positions for source-row ``flags``, charged to ``meter``."""
        if self.mode == "atomic":
            return atomic_positions(meter, flags, self.runtime.rng)
        mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
        return lrgp_positions(meter, flags, self.profile, self.runtime.rng, mechanism)

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

    def hash_aggregate_cost(
        self, codes: np.ndarray, num_groups: int, entry_bytes: int, meter=None
    ):
        """Charge a pipelined grouped aggregation (C2 or C3) to
        ``meter`` (default: this kernel's)."""
        meter = self.meter if meter is None else meter
        if self.mode == "atomic":
            return primitives.atomic_hash_aggregate(meter, codes, num_groups, entry_bytes)
        return primitives.segmented_hash_aggregate(
            meter, codes, num_groups, entry_bytes, self.profile
        )

    def single_aggregate_cost(self, count: int, accumulators: int, meter=None) -> None:
        """Charge a pipelined single-tuple aggregation (B2 or B3): one
        reduction of ``count`` 4-byte values per accumulator, to
        ``meter`` (default: this kernel's)."""
        meter = self.meter if meter is None else meter
        for _ in range(max(accumulators, 1)):
            if self.mode == "atomic":
                primitives.charge_atomic_reduce(meter, count)
            else:
                mechanism = "work_efficient" if self.mode == "lrgp_we" else "simd"
                primitives.charge_lrgp_reduce(meter, count, 4, self.profile, mechanism)

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def compute(self, cost: int, count=None) -> None:
        """Charge ALU-only work (projection arithmetic)."""
        self._charge(cost, count)

    def write_output(self, name: str, values: np.ndarray, itemsize: int, segment: int = 0) -> None:
        """Charge the aligned write of one output column of ``segment``."""
        count = len(values)
        self.meters[segment].record_write(MemoryLevel.GLOBAL, count * itemsize)
        self.segment_outputs[segment][name] = values

    def store(self, name: str, values: np.ndarray, mask: np.ndarray, positions) -> None:
        """Scatter the selected values to their write positions.

        With atomic/LRGP positions the output order is the (semi-)
        permuted allocation order of Section 6.1; with reference
        positions it is input order.
        """
        itemsize = self.itemsize(name)
        for segment, dense in enumerate(self._scattered(values, mask, positions)):
            self.write_output(name, dense, itemsize, segment)

    def _scattered(self, values, mask: np.ndarray, positions) -> list[np.ndarray]:
        """The selected ``values`` at their write positions: one dense
        column per segment."""
        index = self._alive_index(mask)
        selected = self._selected(values, mask, index)
        source = self._source_rows(index)
        parts = getattr(positions, "parts", None)
        if parts is None:
            dense = np.empty(positions.total, dtype=selected.dtype)
            dense[positions.positions[source]] = selected
            return [dense]
        if isinstance(source, slice):
            source = np.arange(self.n)
        edges = self._source_edges
        cuts = np.searchsorted(source, edges)
        scattered = []
        for part, start, stop, first in zip(parts, cuts, cuts[1:], edges):
            dense = np.empty(part.total, dtype=selected.dtype)
            dense[part.positions[source[start:stop] - first]] = selected[start:stop]
            scattered.append(dense)
        return scattered

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
        return self._alive_mask(np.ones(index.size, dtype=bool))

    def installed_positions(self) -> ScanResult:
        if self._positions is None:
            raise CompilationError("write kernel needs positions from the prefix sum")
        return self._positions

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def sink_aggregate(self, mask: np.ndarray, columns: list[str] | None = None) -> None:
        """Pipelined aggregation (compound kernels): compute the
        aggregates and charge B2/B3 (single tuple) or C2/C3 (grouped),
        per segment.

        Every sink method first touches its input ``columns``, if given."""
        if self.sink is None or self.output_schema is None:
            raise CompilationError("context has no aggregation sink bound")
        if columns is not None:
            self.touch(columns)
        runtime, sink = self.runtime, self.sink
        if self._edges is None:
            results = [runtime.aggregate_rows(sink, self.scope, mask, self.output_schema)]
        else:
            results = runtime.aggregate_segments(
                sink, self.scope, mask, self.output_schema, self._edges
            )
        for segment, (meter, result) in enumerate(zip(self.meters, results)):
            if result.codes is not None:
                self.hash_aggregate_cost(
                    result.codes, result.num_groups, result.entry_bytes, meter
                )
            else:
                self.single_aggregate_cost(result.inputs, sink.accumulators, meter)
            self.segment_outputs[segment].update(result.outputs)
        self.aggregations = results

    def materialize_for_aggregate(
        self, mask: np.ndarray, columns: list[str] | None = None
    ) -> None:
        """Multi-pass write kernel: materialize key and value columns
        for the library sort/reduce that follows (pipeline breaker)."""
        if self.sink is None:
            raise CompilationError("context has no aggregation sink bound")
        if columns is not None:
            self.touch(columns)
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

    def sink_build(
        self, mask: np.ndarray, key_arrays: list[np.ndarray], columns: list[str] | None = None
    ) -> None:
        """Pipelined hash-table build (compound kernels): selected rows
        insert themselves with atomic CAS, payload kept from registers."""
        if self.sink is None:
            raise CompilationError("context has no build sink bound")
        if len(self.members) > 1:
            raise CompilationError("a segmented kernel has no hash-table build sink")
        if columns is not None:
            self.touch(columns)
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

    def materialize_for_build(
        self, mask: np.ndarray, key_arrays: list[np.ndarray], columns: list[str] | None = None
    ) -> None:
        """Multi-pass write kernel: materialize keys + payload; the
        engine then builds the hash table in a separate kernel."""
        if self.sink is None:
            raise CompilationError("context has no build sink bound")
        if columns is not None:
            self.touch(columns)
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


class SegmentedScan:
    """Write positions of a segmented kernel: one :class:`ScanResult` per
    segment; ``total`` is the per-segment totals."""

    def __init__(self, parts: list[ScanResult]):
        self.parts = parts
        self.total = [part.total for part in parts]


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
        self._probe_stage = None  # the latest ProbeStage
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
            predicate = self._probe_stage.residual
        self._keep(self.runtime.selectivity(self.pipeline, predicate))

    def _fold(self, mask, conjunct, plan):
        self._keep(self.runtime.selectivity(self.pipeline, conjunct))

    def probe_stage(self, mask, index, *args, **kwargs):
        self._probe_stage = self.pipeline.stages[index]
        return super().probe_stage(mask, index, *args, **kwargs)

    def probe(self, table_id, key_arrays, mask, key_cost=0):
        """Charge the probes of the rows alive.  The rows are a one-row
        token; the stage's expected hits ride on ``_probe`` as measured
        ones do, so :meth:`payload` charges and gathers as it is."""
        table = self.runtime.hash_table(table_id)
        alive = self._valid
        self.meter.record_instructions(alive * key_cost)
        # Flagged survivors of an inner / semi probe all hit, of an anti
        # probe none; a left probe drops nobody.
        certain = {"inner": 1.0, "semi": 1.0, "anti": 0.0} if self._flagged else {}
        hits = table.probe(
            self.meter, alive, self.profile.l2_capacity, certain.get(self._probe_stage.kind)
        )
        rows = np.zeros(1, dtype=np.int64)
        self._probe = (rows, rows, None, [hits])
        return rows

    def apply_probe(self, mask, rows, kind):
        [hits] = self._probed(rows)[2]
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
        return [count_column(np.asarray(values).dtype, positions.total)]

    def sink_aggregate(self, mask, columns=None):
        if columns is not None:
            self.touch(columns)
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
