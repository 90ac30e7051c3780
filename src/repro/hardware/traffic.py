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
from dataclasses import dataclass, field


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
    means the transfer was uncompressed).
    """

    nbytes: int
    direction: str  # "h2d" or "d2h"
    time_ms: float
    label: str = ""
    raw_nbytes: int = 0
    codec: str = ""


@dataclass
class Profile:
    """Everything observed while executing a query on a virtual device."""

    kernels: list[KernelTrace] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)

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

    def bytes_at(self, level: MemoryLevel) -> int:
        return sum(trace.meter.bytes_at(level) for trace in self.kernels)

    def reads_at(self, level: MemoryLevel) -> int:
        return sum(trace.meter.reads[level] for trace in self.kernels)

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

    def merge(self, other: "Profile") -> None:
        self.kernels.extend(other.kernels)
        self.transfers.extend(other.transfers)
