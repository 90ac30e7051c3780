"""Placement metrics: per-query and per-pool residency counters.

This module is import-free (dataclasses only) so that the engine layer
can reference :class:`QueryPlacement` without creating an import cycle
with the rest of the placement package.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryPlacement:
    """Residency outcome of one query, on ``ExecutionResult.placement``."""

    #: Base-column loads served from device-resident buffers (no PCIe).
    hits: int = 0
    #: Base-column loads the pool transferred host->device (streamed
    #: out-of-core blocks are h2d the pool never sees: not counted).
    misses: int = 0
    #: Bytes the resident hits would otherwise have moved over PCIe.
    hit_bytes: int = 0
    #: True when the query ran through the streaming out-of-core path.
    out_of_core: bool = False
    #: Build pipelines whose hash table was served from the pool (the
    #: pipeline did not run: no launch, no column load) / was built —
    #: and kept — by this query.  ``hits`` / ``misses`` above keep
    #: meaning column loads, so a warm star join shows few of either.
    table_hits: int = 0
    table_misses: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    @classmethod
    def aggregate(cls, placements: "list[QueryPlacement]") -> "QueryPlacement":
        """One query's pool outcome over the devices of a fleet."""
        return cls(
            hits=sum(p.hits for p in placements),
            misses=sum(p.misses for p in placements),
            hit_bytes=sum(p.hit_bytes for p in placements),
            table_hits=sum(p.table_hits for p in placements),
            table_misses=sum(p.table_misses for p in placements),
        )


@dataclass
class PlacementStats:
    """A snapshot of one :class:`~repro.placement.BufferPool` (or the
    sum over several per-worker pools)."""

    #: Column acquisitions served without a PCIe transfer.
    hits: int = 0
    #: Column acquisitions that transferred (first use or re-fetch).
    misses: int = 0
    #: Resident columns dropped under capacity pressure.
    evictions: int = 0
    #: Resident columns dropped because the database fingerprint moved.
    invalidations: int = 0
    #: Queries that fell back to the streaming out-of-core executor.
    fallbacks: int = 0
    #: PCIe bytes saved by hits.
    hit_bytes: int = 0
    #: PCIe bytes paid by misses.
    transferred_bytes: int = 0
    #: PCIe bytes given back by evictions.
    evicted_bytes: int = 0
    #: Bytes currently resident on the device(s).
    resident_bytes: int = 0
    #: Number of columns currently resident.
    resident_columns: int = 0
    #: Device memory capacity (summed over pools when aggregated).
    capacity_bytes: int = 0
    #: Build pipelines served a resident hash table / that had to build.
    table_hits: int = 0
    table_misses: int = 0
    #: Number of built hash tables currently resident (their bytes are
    #: part of ``resident_bytes``; evictions and invalidations count
    #: tables and columns alike).
    resident_tables: int = 0
    #: Number of pools summed into this snapshot.
    pools: int = field(default=1)

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    @classmethod
    def aggregate(cls, snapshots: "list[PlacementStats]") -> "PlacementStats":
        """Sum per-worker pool snapshots into one server-wide view."""
        total = cls(pools=0)
        for snap in snapshots:
            total.hits += snap.hits
            total.misses += snap.misses
            total.evictions += snap.evictions
            total.invalidations += snap.invalidations
            total.fallbacks += snap.fallbacks
            total.hit_bytes += snap.hit_bytes
            total.transferred_bytes += snap.transferred_bytes
            total.evicted_bytes += snap.evicted_bytes
            total.resident_bytes += snap.resident_bytes
            total.resident_columns += snap.resident_columns
            total.capacity_bytes += snap.capacity_bytes
            total.table_hits += snap.table_hits
            total.table_misses += snap.table_misses
            total.resident_tables += snap.resident_tables
            total.pools += snap.pools
        return total

    def summary(self) -> str:
        return (
            f"resident {self.resident_bytes / 1e6:.1f} MB in "
            f"{self.resident_columns} columns + {self.resident_tables} tables  "
            f"hits {self.hits}/{self.hits + self.misses} "
            f"({self.hit_rate * 100:.0f}%)  "
            f"table hits {self.table_hits}/{self.table_hits + self.table_misses}  "
            f"saved {self.hit_bytes / 1e6:.1f} MB PCIe  "
            f"evictions {self.evictions}  "
            f"invalidations {self.invalidations}  "
            f"out-of-core {self.fallbacks}"
        )
