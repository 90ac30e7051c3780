"""Placement metrics: per-query residency outcome and per-pool counters.

This module imports dataclasses and the query record only, so that the
engine layer can reference :class:`QueryPlacement` without creating an
import cycle with the rest of the placement package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.traffic import Profile, sum_stats


@dataclass
class QueryPlacement:
    """Residency outcome of one query, on ``ExecutionResult.placement``,
    read off its query record ``log`` and what it carries (an attempt
    that ran out of memory, a fleet's turns before its host fallback):
    ``hits`` / ``misses`` are the base column loads its ``placement``
    phases log (those with a ``footprint``; streamed out-of-core blocks
    are h2d the pool never sees), ``hit_bytes`` the hits' resident
    footprint (a column the pool stores compressed: its wire size),
    ``table_hits`` / ``table_misses`` the builds whose hash table the
    pool served (they did not run) / had to build.  ``hits`` /
    ``misses`` keep meaning column loads, so a warm star join shows few
    of either."""

    #: True when the query ran through the streaming out-of-core path.
    out_of_core: bool = False

    #: The query record.  Not a field: ``asdict`` / ``==`` / ``repr``
    #: carry the tier's own fact only.
    log = Profile()

    def _loads(self, hit: bool) -> list[dict]:
        return [
            attrs for *_, category, attrs in self.log.phases
            if category == "placement" and "footprint" in attrs and attrs["hit"] == hit
        ]

    @property
    def hits(self) -> int:
        return len(self._loads(True))

    @property
    def misses(self) -> int:
        return len(self._loads(False))

    @property
    def hit_bytes(self) -> int:
        return sum(attrs["footprint"] for attrs in self._loads(True))

    @property
    def table_hits(self) -> int:
        return sum(row.resident for row in self.log.carried + self.log.pipelines)

    @property
    def table_misses(self) -> int:
        return sum(row.table_miss for row in self.log.carried + self.log.pipelines)

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


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
        """Per-worker pool snapshots summed into one server-wide view
        (:func:`~repro.hardware.traffic.sum_stats`; none: no pools)."""
        return sum_stats(snapshots) or cls(pools=0)

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
