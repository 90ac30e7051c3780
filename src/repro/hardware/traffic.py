"""Traffic accounting for the simulated memory hierarchy.

The paper's entire argument rests on *bytes moved per memory level*
(Figures 5, 9, 13) and on pressure on the atomic functional units
(Sections 5.3 and 6).  This module provides the bookkeeping that replaces
the paper's nvprof/CodeXL DRAM counters: every primitive and every
generated kernel reports its reads, writes, atomics, and instruction
counts to a :class:`TrafficMeter`, and a :class:`KernelTrace` snapshots
one kernel launch for the profiler.
"""

from __future__ import annotations

import enum
from copy import copy
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import NamedTuple


class MemoryLevel(enum.Enum):
    """The memory levels of Figure 1, from host RAM down to registers."""

    HOST = "host"
    #: GPU global memory (device DRAM); main memory for an APU.
    GLOBAL = "global"
    #: On-chip scratchpad memory, registers, and caches, aggregated — the
    #: paper reports these together as "on-chip memory" (Figure 9).
    ONCHIP = "onchip"

    # Members are singletons compared by identity, so the identity hash
    # is the right one — and, unlike ``Enum.__hash__``, it runs in C:
    # every ``reads[level]`` / ``writes[level]`` of a launch hashes one.
    __hash__ = object.__hash__


_LEVELS = tuple(MemoryLevel)
_NO_BYTES = dict.fromkeys(_LEVELS, 0)

#: Atomic operation kinds, ordered by same-address cost:
#:
#: * ``"add"``       — atomic adds whose return value is unused; the
#:   hardware combines same-address adds (single-tuple aggregation,
#:   Appendix G.1 observes these are the cheapest);
#: * ``"fetch_add"`` — adds whose old value must be returned to the
#:   thread (the atomic prefix sum of Section 5.1);
#: * ``"rmw"``       — data-dependent read-modify-write chains that
#:   cannot combine (hash-table inserts and aggregation-table updates);
#:   their serialization is the contention cliff of Experiment 2.
ATOMIC_KINDS = ("add", "fetch_add", "rmw")
_NO_CHAINS = dict.fromkeys(ATOMIC_KINDS, 0)


@dataclass
class AtomicBatch:
    """A batch of atomic operations issued by one kernel.

    ``count`` is the total number of atomic operations; ``max_chain`` is
    the length of the longest same-address conflict chain, which bounds
    the serialized portion of the batch (e.g. for an atomic prefix sum on
    a single counter, ``max_chain == count``; for a hash aggregate it is
    the population of the hottest group).  ``kind`` selects the
    serialization rate (see :data:`ATOMIC_KINDS`).
    """

    count: int
    max_chain: int
    kind: str = "fetch_add"

    def __post_init__(self) -> None:
        if self.count < 0 or self.max_chain < 0:
            raise ValueError("atomic counts must be non-negative")
        if self.max_chain > self.count:
            raise ValueError("max_chain cannot exceed count")
        if self.kind not in ATOMIC_KINDS:
            raise ValueError(f"unknown atomic kind {self.kind!r}")


class TrafficMeter:
    """Accumulates traffic for one kernel launch (or one scope).

    All byte counts are exact: they are derived from the actual numpy
    array sizes touched by the simulated primitives, not estimated.
    """

    def __init__(self) -> None:
        self.reads: dict[MemoryLevel, int] = _NO_BYTES.copy()
        self.writes: dict[MemoryLevel, int] = _NO_BYTES.copy()
        self.atomic_count = 0
        self.atomic_chains: dict[str, int] = _NO_CHAINS.copy()
        self.instructions = 0
        self.barriers = 0
        #: Portion of GLOBAL traffic that targets device-resident hash
        #: tables (slots, entries, aggregation tables).  Kernel-at-a-time
        #: execution keeps this on the device while everything else moves
        #: over PCIe (Section 2.2).
        self.table_read_bytes = 0
        self.table_write_bytes = 0

    def record_read(self, level: MemoryLevel, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.reads[level] += int(nbytes)

    def record_write(self, level: MemoryLevel, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.writes[level] += int(nbytes)

    def record_table_read(self, nbytes: int) -> None:
        """A GLOBAL read that targets a device-resident hash table."""
        self.record_read(MemoryLevel.GLOBAL, nbytes)
        self.table_read_bytes += int(nbytes)

    def record_table_write(self, nbytes: int) -> None:
        """A GLOBAL write that targets a device-resident hash table."""
        self.record_write(MemoryLevel.GLOBAL, nbytes)
        self.table_write_bytes += int(nbytes)

    @property
    def table_bytes(self) -> int:
        """Total hash-table traffic (reads + writes)."""
        return self.table_read_bytes + self.table_write_bytes

    def record_atomics(self, batch: AtomicBatch) -> None:
        self.atomic_count += batch.count
        self.atomic_chains[batch.kind] = max(
            self.atomic_chains[batch.kind], batch.max_chain
        )

    @property
    def atomic_max_chain(self) -> int:
        """Longest same-address chain across all atomic kinds."""
        return max(self.atomic_chains.values())

    def record_instructions(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.instructions += int(count)

    def record_barrier(self, count: int = 1) -> None:
        self.barriers += int(count)

    def bytes_at(self, level: MemoryLevel) -> int:
        """Total read + write volume at one memory level."""
        return self.reads[level] + self.writes[level]

    def merge(self, other: "TrafficMeter") -> None:
        """Fold another meter's counts into this one."""
        for level in _LEVELS:
            self.reads[level] += other.reads[level]
            self.writes[level] += other.writes[level]
        self.atomic_count += other.atomic_count
        for kind in ATOMIC_KINDS:
            self.atomic_chains[kind] = max(
                self.atomic_chains[kind], other.atomic_chains[kind]
            )
        self.instructions += other.instructions
        self.barriers += other.barriers
        self.table_read_bytes += other.table_read_bytes
        self.table_write_bytes += other.table_write_bytes

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports and assertions."""
        return {
            "reads": {level.value: nbytes for level, nbytes in self.reads.items()},
            "writes": {level.value: nbytes for level, nbytes in self.writes.items()},
            "atomic_count": self.atomic_count,
            "atomic_max_chain": self.atomic_max_chain,
            "atomic_chains": dict(self.atomic_chains),
            "instructions": self.instructions,
            "barriers": self.barriers,
            "table_bytes": self.table_bytes,
        }


@dataclass
class KernelTrace:
    """The profiler record of a single simulated kernel launch."""

    name: str
    #: Coarse kernel category used when aggregating movement figures,
    #: e.g. "scan", "prefix_sum", "gather", "build", "probe", "compound".
    kind: str
    elements: int
    meter: TrafficMeter
    #: Simulated execution time in milliseconds (filled by the device).
    time_ms: float = 0.0
    #: Which cost-model component dominated ("memory", "compute",
    #: "atomics", "onchip", "launch") — used by tests and reports.
    bound_by: str = ""
    #: Issue order across the log's kernels *and* transfers, and the
    #: host clock (``perf_counter`` seconds) when the entry was logged.
    seq: int = field(default=0, compare=False)
    at: float = field(default=0.0, compare=False)

    @property
    def global_bytes(self) -> int:
        return self.meter.bytes_at(MemoryLevel.GLOBAL)

    @property
    def onchip_bytes(self) -> int:
        return self.meter.bytes_at(MemoryLevel.ONCHIP)


@dataclass
class TransferRecord:
    """The profiler record of one host<->device transfer.

    ``nbytes`` is what crossed the link — for a compressed transfer
    that is the *wire* size, with ``raw_nbytes`` holding the decoded
    size and ``codec`` naming the wire encoding (``raw_nbytes == 0``
    means the transfer was uncompressed; on a zero-copy device, which
    crosses no link, ``nbytes`` is 0 and ``raw_nbytes`` the host bytes).
    """

    nbytes: int
    direction: str  # "h2d", "d2h", or "stall" (a zero-byte delay)
    time_ms: float
    label: str = ""
    raw_nbytes: int = 0
    codec: str = ""
    #: Issue order and host clock, as on :class:`KernelTrace`.
    seq: int = field(default=0, compare=False)
    at: float = field(default=0.0, compare=False)


class KernelLookup(NamedTuple):
    """One lookup of a generated kernel: a cache hit, or a miss that
    compiled ``statements`` statements in ``compile_ms`` host
    milliseconds; ``at`` is the host clock (``perf_counter`` seconds)."""

    at: float
    name: str
    kind: str
    hit: bool
    compile_ms: float = 0.0
    statements: int = 0


@dataclass
class LogSlice:
    """A run of profiler entries and the sums every report takes over
    it: a whole query (:class:`Profile`) or what one pipeline issued
    (:class:`PipelineRecord`)."""

    kernels: list[KernelTrace] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)

    @property
    def entries(self) -> list:
        """Kernels and transfers in the order they were issued."""
        return sorted(self.kernels + self.transfers, key=lambda entry: entry.seq)

    @property
    def kernel_time_ms(self) -> float:
        return sum(trace.time_ms for trace in self.kernels)

    @property
    def transfer_time_ms(self) -> float:
        return sum(record.time_ms for record in self.transfers)

    @property
    def total_time_ms(self) -> float:
        return self.kernel_time_ms + self.transfer_time_ms

    def transfer_bytes(self, direction: str | None = None) -> int:
        return sum(
            record.nbytes
            for record in self.transfers
            if direction is None or record.direction == direction
        )

    def moved_bytes(self, direction: str) -> int:
        """Link bytes of ``direction`` (a zero-copy device's: the host bytes)."""
        return sum(r.nbytes or r.raw_nbytes for r in self.transfers if r.direction == direction)

    def raw_transfer_bytes(self) -> int:
        """Decoded bytes of every transfer."""
        return sum(r.raw_nbytes or r.nbytes for r in self.transfers)

    def bytes_at(self, level: MemoryLevel) -> int:
        return sum(trace.meter.bytes_at(level) for trace in self.kernels)

    def writes_at(self, level: MemoryLevel) -> int:
        return sum(trace.meter.writes[level] for trace in self.kernels)

    @property
    def atomic_count(self) -> int:
        return sum(trace.meter.atomic_count for trace in self.kernels)

    @property
    def table_bytes(self) -> int:
        return sum(trace.meter.table_bytes for trace in self.kernels)

    def kernels_of_kind(self, kind: str) -> list[KernelTrace]:
        return [trace for trace in self.kernels if trace.kind == kind]

    def by_kind(self) -> dict[str, dict]:
        """Aggregate volumes and times per kernel kind (Figure 5 style)."""
        summary: dict[str, dict] = {}
        for trace in self.kernels:
            entry = summary.setdefault(
                trace.kind,
                {"launches": 0, "global_bytes": 0, "onchip_bytes": 0, "time_ms": 0.0},
            )
            entry["launches"] += 1
            entry["global_bytes"] += trace.global_bytes
            entry["onchip_bytes"] += trace.onchip_bytes
            entry["time_ms"] += trace.time_ms
        return summary


@dataclass
class PipelineRecord(LogSlice):
    """What one pipeline run — or ``finalize`` (``pipeline is None``) —
    issued to the device: the entries logged between
    :meth:`Profile.open` and :meth:`Profile.close`, its cardinalities
    and its host interval.  Its sums run over that slice, so a row of
    EXPLAIN ANALYZE always reconciles with :meth:`Profile.bytes_at`."""

    #: Position among the query's pipelines (``None``: finalize).
    index: int | None = None
    pipeline: object | None = None
    rows_in: int = 0
    rows_out: int = 0
    #: A build the buffer pool served: nothing ran.
    resident: bool = False
    #: A build the buffer pool was asked for and did not hold: it ran.
    table_miss: bool = False
    #: For a member of a group of siblings that ran fused
    #: (``Engine.run_fused``: builds of one wave, or a fleet device's
    #: morsels): the index of the group's first member that ran, whose
    #: row holds the group's fused launches, its packed load and, for
    #: morsels, the packed gather — every other member's row (a
    #: pool-served member's too) holds no entry.  ``None``: the
    #: pipeline ran alone.
    fused_into: int | None = None
    #: Host clock (``perf_counter`` seconds) of the interval.
    started: float = 0.0
    ended: float = 0.0
    #: ``(kernels, transfers)`` logged before it began.
    marks: tuple = (0, 0)

    @property
    def name(self) -> str:
        return "finalize" if self.pipeline is None else f"pipeline[{self.index}]"

    @property
    def shape(self) -> str:
        return "result" if self.pipeline is None else self.pipeline.describe()

    @property
    def host_ms(self) -> float:
        return (self.ended - self.started) * 1e3


@dataclass
class Profile(LogSlice):
    """Everything observed while executing a query on a virtual device:
    the log, and — the *query record* — one :class:`PipelineRecord` per
    pipeline run, in execution order, and one for ``finalize``.  Always
    written; the span trace, EXPLAIN ANALYZE, flight records, the
    query's events, its compile counts and the perf baselines are views
    over it (``docs/observability.md``)."""

    pipelines: list[PipelineRecord] = field(default_factory=list)
    #: Stalls among ``transfers``: delays the fault layer charges
    #: *between* pipelines, so no record covers them.
    stalls: int = 0
    #: ``(host clock, kind, attrs)`` of each :meth:`note`, in host order.
    events: list[tuple] = field(default_factory=list)
    #: ``(started, ended, name, category, attrs)`` of each :meth:`phase`.
    phases: list[tuple] = field(default_factory=list)
    #: Every kernel the query looked up (:meth:`lookup`).
    lookups: list[KernelLookup] = field(default_factory=list)
    #: The pipeline rows of the records :meth:`carry` put before this
    #: one: what a failed attempt ran, which this log does not hold.
    carried: list[PipelineRecord] = field(default_factory=list)
    #: While a pipeline's run is recorded for a replay
    #: (``QueryRuntime.record``): its entries, in order.  Not a field.
    tape = None

    def taped(self, *entry) -> None:
        """Tape an allocation, free, launch, lookup or runtime effect."""
        if self.tape is not None:
            self.tape.append(entry)

    def append(self, entry: KernelTrace | TransferRecord) -> None:
        """Append a launch or a transfer, stamped with its issue order
        and the host clock."""
        entry.seq = len(self.kernels) + len(self.transfers)
        entry.at = perf_counter()
        if isinstance(entry, KernelTrace):
            self.kernels.append(entry)
        else:
            self.transfers.append(entry)
            self.stalls += entry.direction == "stall"

    def note(self, kind: str, **attrs) -> None:
        """Log an event only the record can hold (an eviction, a fault,
        a retry ...), stamped with the host clock.  It takes no issue
        order: every launch and transfer keeps its ``seq``."""
        self.events.append((perf_counter(), kind, attrs))

    def phase(self, name: str, category: str, started: float | None = None, **attrs) -> None:
        """Log a host phase only the record times (a pool acquisition, a
        fault firing, a fleet's partition step ...): from ``started``
        (``perf_counter`` seconds) until now, or a point now."""
        now = perf_counter()
        self.phases.append((now if started is None else started, now, name, category, attrs))

    def lookup(
        self, name: str, kind: str, hit: bool, compile_ms: float = 0.0, statements: int = 0
    ) -> None:
        """Log a kernel lookup, stamped with the host clock."""
        self.lookups.append(
            KernelLookup(perf_counter(), name, kind, hit, compile_ms, statements)
        )
        self.taped("lookup", name, kind)

    def carry(self, earlier: "Profile | None") -> None:
        """Put what ``earlier`` noted, timed and looked up before this
        record's own: an attempt that failed before this one ran, or
        what the optimizer compiled to price the query."""
        if earlier is not None:
            self.events[:0] = earlier.events
            self.phases[:0] = earlier.phases
            self.lookups[:0] = earlier.lookups
            self.carried[:0] = earlier.carried + earlier.pipelines

    def open(self, index: int | None, pipeline, rows_in: int) -> PipelineRecord:
        """Begin the record of pipeline ``index`` (``finalize``: both
        ``None``); every entry logged until :meth:`close` is its."""
        record = PipelineRecord(
            index=index, pipeline=pipeline, rows_in=rows_in, started=perf_counter(),
            marks=(len(self.kernels), len(self.transfers)),
        )
        self.pipelines.append(record)
        return record

    def close(self, record: PipelineRecord) -> None:
        """End ``record`` here.  Closing the latest record again extends
        it (a fleet morsel's row covers the gather of its partial)."""
        record.kernels = self.kernels[record.marks[0]:]
        record.transfers = self.transfers[record.marks[1]:]
        record.ended = perf_counter()

    @property
    def unaccounted(self) -> int:
        """Launches and transfers no pipeline or ``finalize`` record
        covers — 0 unless something reached the device outside
        ``Engine.run_pipelines`` (the ``accounting.mismatch`` event)."""
        covered = sum(
            len(record.kernels) + len(record.transfers) for record in self.pipelines
        )
        return len(self.kernels) + len(self.transfers) - covered - self.stalls

    def merge(self, other: "Profile") -> None:
        """Append ``other``'s log and records (another device's turn);
        the two devices' events interleave in host order."""
        self.kernels.extend(other.kernels)
        self.transfers.extend(other.transfers)
        self.pipelines.extend(other.pipelines)
        self.stalls += other.stalls
        self.events = sorted(self.events + other.events, key=lambda event: event[0])
        self.phases.extend(other.phases)
        self.lookups.extend(other.lookups)


def sum_stats(items):
    """The field-wise sum of the stats dataclasses ``items`` — numbers
    add, dicts add key by key, lists concatenate — or ``None`` when no
    item is left once ``None``s are skipped: how a fleet's device turns
    add up, and a server's pools."""
    items = [item for item in items if item is not None]
    if not items:
        return None
    total = {f.name: copy(getattr(items[0], f.name)) for f in fields(items[0])}
    for item in items[1:]:
        for name, value in total.items():
            if isinstance(value, dict):
                for key, count in getattr(item, name).items():
                    value[key] = value.get(key, 0) + count
            else:
                total[name] = value + getattr(item, name)
    return type(items[0])(**total)
