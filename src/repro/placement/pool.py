"""The device buffer pool: cross-query residency of base columns and
of the join hash tables built from them.

The serving runtime re-executes the same dashboard queries over the
same base tables; without placement management every execution
re-charges a full PCIe transfer for every input column (the engine
layer's "no caching between queries" stance, Section 8.9 of the
paper).  A :class:`BufferPool` wraps one
:class:`~repro.hardware.device.VirtualCoprocessor` and makes residency
a first-class, cross-query concern:

* **First use** of a base column allocates a resident (*pooled*)
  buffer for it; the query's runtime ships every column a pipeline
  missed host->device as one transfer, charged against the
  interconnect model.
* **Subsequent queries** on the same worker acquire the resident
  buffer without touching the link — a placement *hit*.
* **Build sides** stay too: the hash table a completed build pipeline
  left (slot array + payload columns) becomes a resident under the
  pipeline's structural key (:meth:`BufferPool.keep_table`), and the
  next query whose plan holds a build of the same structure takes it
  (:meth:`BufferPool.acquire_table`) instead of running the pipeline —
  no launch, no source column load.
* **Capacity pressure** (a new column, a hash table, per-query
  scratch) evicts unpinned residents — columns and tables alike, one
  candidate list — cheapest to have back first: the price of evicting
  an entry is the modeled cost of restoring it (a column's re-transfer:
  bytes x the link's per-byte cost plus setup latency; a table's build:
  the modeled time its pipeline took).  Ties — including every column
  on a zero-copy device, where re-transfer is free — break least
  recently used first.  Buffers pinned by an in-flight query are never
  evicted.
* **Staleness** is impossible: entries carry the database fingerprint
  (catalog serial + mutation version) they were loaded or built under;
  any catalog mutation invalidates the entry on next acquire.

The pool does not decide *whether* a query can run on the device —
that is the working-set check in :mod:`repro.placement.executor`,
which routes provably oversized plans to the streaming out-of-core
executor instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..errors import PlacementError
from ..hardware.device import DeviceBuffer, VirtualCoprocessor
from ..plan.physical import BuildSink
from .stats import PlacementStats


@dataclass
class ResidentEntry:
    """One resident of device global memory: a base column (its one
    buffer) or a built join hash table (slot array + payload columns)."""

    #: (catalog serial, table name, column name | build signature) —
    #: stable across versions.
    key: tuple
    buffers: list[DeviceBuffer]
    #: Database fingerprint (serial, version) it was loaded / built under.
    fingerprint: tuple
    #: Modeled time in seconds to have it back once evicted — the
    #: eviction policy's cost input.  A column: its host->device
    #: re-transfer (0 on zero-copy devices).  A table: the kernels and
    #: transfers its build pipeline took.
    restore_cost: float
    #: The built table (:class:`~repro.engines.runtime.HashTableEntry`);
    #: ``None`` for a column.
    table: object | None = None
    #: Logical clock of the most recent acquire (LRU ordering).
    last_used: int = 0
    #: Number of in-flight queries holding this entry.
    pins: int = field(default=0)

    @property
    def kind(self) -> str:
        return "column" if self.table is None else "table"

    @property
    def buffer(self) -> DeviceBuffer:
        """A column's buffer (a table's slot array)."""
        return self.buffers[0]

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self.buffers)

    @property
    def pinned(self) -> bool:
        return self.pins > 0


class BufferPool:
    """Cross-query residency manager for one virtual device: base
    columns and built join hash tables in one entry map, under one
    eviction loop.

    Parameters
    ----------
    device:
        The coprocessor whose memory this pool manages.  The pool
        installs itself as ``device.placement_pool`` and hooks the
        device's allocation-pressure, reset and loss callbacks.
    """

    def __init__(self, device: VirtualCoprocessor):
        self.device = device
        self._entries: dict[tuple, ResidentEntry] = {}
        self._clock = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._fallbacks = 0
        self._table_hits = 0
        self._table_misses = 0
        self._hit_bytes = 0
        self._transferred_bytes = 0
        self._evicted_bytes = 0
        device.placement_pool = self
        device.pressure_callback = self._on_pressure
        device.reset_callback = self._on_reset
        device.lost_callback = self._on_lost

    # ------------------------------------------------------------------
    # acquisition / release
    # ------------------------------------------------------------------
    def acquire(
        self, table: str, column_name: str, column, fingerprint: tuple, image=None
    ) -> tuple[ResidentEntry, bool]:
        """Make ``table.column_name`` resident and pin it; returns
        ``(entry, hit)``.

        A hit is served the resident buffer.  A miss allocates a pooled
        one holding ``image`` — the load's *wire image* under a
        compression policy (:mod:`repro.compression.lazy`), else the
        column's values — and transfers nothing: the caller ships what
        a pipeline missed as one h2d (:meth:`QueryRuntime.load_source
        <repro.engines.runtime.QueryRuntime.load_source>`).  An entry
        whose fingerprint no longer matches the catalog is invalidated
        and allocated anew.  Pins are released by :meth:`release` at the
        end of the query.
        """
        key = (fingerprint[0], table, column_name)
        with self._lock:
            self._clock += 1
            entry = self._entries.get(key)
            if entry is not None and entry.fingerprint != fingerprint:
                self._invalidate(entry)
                entry = None
            if entry is not None:
                entry.pins += 1
                entry.last_used = self._clock
                self._hits += 1
                self._hit_bytes += entry.nbytes
                return entry, True
            # Miss: allocate (allocation pressure may evict through
            # _on_pressure, re-entrant under this RLock).
            buffer = self.device.allocate(
                column.values if image is None else image,
                label=f"{table}.{column_name}", pooled=True,
            )
            entry = ResidentEntry(
                key=key,
                buffers=[buffer],
                fingerprint=fingerprint,
                restore_cost=self._retransfer_cost(buffer.nbytes),
                last_used=self._clock,
                pins=1,
            )
            self._entries[key] = entry
            self._misses += 1
            self._transferred_bytes += buffer.nbytes
            return entry, False

    @staticmethod
    def table_key(pipeline, signatures: dict, database) -> tuple | None:
        """The key of the table build ``pipeline`` leaves: the catalog,
        the source table and the pipeline's structure (see
        :meth:`Pipeline.build_signature
        <repro.plan.physical.Pipeline.build_signature>`) — what two
        plans that build the same table agree on; ``None`` when it is
        not poolable.  ``signatures`` carries the plan's earlier builds
        (table id -> signature) from call to call."""
        signature = pipeline.build_signature(signatures)
        signatures[pipeline.sink.table_id] = signature
        if signature is None:
            return None
        return (database.fingerprint()[0], pipeline.source, signature)

    def resident_builds(self, pipelines, database) -> frozenset[int]:
        """Indexes of the build pipelines in ``pipelines`` (a plan's, in
        order) that :meth:`acquire_table` would serve right now — what
        the optimizer prices as not running.  Counts and pins nothing."""
        fingerprint = database.fingerprint()
        signatures: dict = {}
        resident = set()
        with self._lock:
            for index, pipeline in enumerate(pipelines):
                if not isinstance(pipeline.sink, BuildSink):
                    continue
                key = self.table_key(pipeline, signatures, database)
                entry = self._entries.get(key) if key is not None else None
                if entry is not None and entry.fingerprint == fingerprint:
                    resident.add(index)
        return frozenset(resident)

    def acquire_table(self, key: tuple, fingerprint: tuple) -> ResidentEntry | None:
        """The resident hash table under ``key`` — ``(catalog serial,
        source table, build signature)`` — pinned until :meth:`release`,
        or ``None`` when the caller has to build it (a table built under
        another catalog version is invalidated first)."""
        with self._lock:
            self._clock += 1
            entry = self._entries.get(key)
            if entry is not None and entry.fingerprint != fingerprint:
                self._invalidate(entry)
                entry = None
            if entry is None:
                self._table_misses += 1
                return None
            entry.pins += 1
            entry.last_used = self._clock
            self._table_hits += 1
            return entry

    def keep_table(
        self, key: tuple, fingerprint: tuple, table, buffers, restore_ms: float
    ) -> ResidentEntry:
        """Keep the hash table a *completed* build pipeline left (after
        :meth:`acquire_table` missed ``key``): ``buffers`` (its slot
        array and payload columns, transient until now) become pooled
        allocations of a new entry, pinned by the query that built it.
        ``restore_ms`` is the modeled time the build took.  Allocates
        nothing, so it cannot run out of memory."""
        with self._lock:
            self._clock += 1
            for buffer in buffers:
                self.device.keep_resident(buffer)
            entry = self._entries[key] = ResidentEntry(
                key=key,
                buffers=list(buffers),
                fingerprint=fingerprint,
                restore_cost=restore_ms / 1e3,
                table=table,
                last_used=self._clock,
                pins=1,
            )
            return entry

    def release(self, entries: "list[ResidentEntry]") -> None:
        """Unpin entries acquired by a finished (or failed) query."""
        with self._lock:
            for entry in entries:
                if entry.pins > 0:
                    entry.pins -= 1

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict(self, nbytes: int) -> int:
        """Evict unpinned residents, cheapest to restore first (ties
        least recently used first), until ``nbytes`` are freed or no
        candidates remain; returns the bytes actually freed."""
        freed = 0
        with self._lock:
            candidates = [e for e in self._entries.values() if not e.pinned]
            for entry in sorted(
                candidates, key=lambda e: (e.restore_cost, e.last_used)
            ):
                if freed >= nbytes:
                    break
                freed += entry.nbytes
                self._evict(entry)
        return freed

    def _evict(self, entry: ResidentEntry) -> None:
        if entry.pinned:
            raise PlacementError(
                f"attempt to evict pinned resident {entry.kind} {entry.key!r}"
            )
        self._drop(entry)
        self._evictions += 1
        self._evicted_bytes += entry.nbytes
        self.device.log.note(
            "placement.evicted",
            key=".".join(str(part) for part in entry.key)
            if isinstance(entry.key, tuple)
            else str(entry.key),
            bytes=entry.nbytes,
            entry=entry.kind,
        )

    def _invalidate(self, entry: ResidentEntry) -> None:
        if entry.pinned:
            raise PlacementError(
                f"resident {entry.kind} {entry.key!r} mutated while pinned by "
                "an in-flight query"
            )
        self._drop(entry)
        self._invalidations += 1

    def _drop(self, entry: ResidentEntry) -> None:
        del self._entries[entry.key]
        for buffer in entry.buffers:
            if not buffer.freed:
                self.device.free(buffer)

    def _on_pressure(self, shortfall: int) -> int:
        """Device allocation-pressure hook: reclaim ``shortfall`` bytes."""
        return self.evict(shortfall)

    def _on_reset(self) -> None:
        """Device ``reset_all`` hook: residency is gone; drop bookkeeping."""
        with self._lock:
            self._entries.clear()

    def _on_lost(self) -> None:
        """Device ``mark_lost`` hook: forget the tables.  A column is a
        copy of what the host holds; a table is work the lost device
        did, and the query it dies under may hold it half-used — pinned
        or not, it is rebuilt after the device returns."""
        with self._lock:
            for entry in [e for e in self._entries.values() if e.table is not None]:
                self._drop(entry)

    # ------------------------------------------------------------------
    # maintenance & stats
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every unpinned resident (e.g. between workloads)."""
        with self._lock:
            for entry in list(self._entries.values()):
                if not entry.pinned:
                    self._evict(entry)

    def record_fallback(self) -> None:
        """Count one query routed to the out-of-core streaming path."""
        with self._lock:
            self._fallbacks += 1

    def _retransfer_cost(self, nbytes: int) -> float:
        link = self.device.interconnect
        return link.transfer_time(nbytes, "h2d") if link is not None else 0.0

    def evictable_bytes(self, keep=frozenset()) -> int:
        """Bytes :meth:`evict` could free now: its unpinned residents',
        but for the entries ``keep`` names."""
        with self._lock:
            return sum(
                entry.nbytes for key, entry in self._entries.items()
                if not entry.pinned and key not in keep
            )

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> PlacementStats:
        with self._lock:
            tables = sum(e.table is not None for e in self._entries.values())
            return PlacementStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                fallbacks=self._fallbacks,
                hit_bytes=self._hit_bytes,
                transferred_bytes=self._transferred_bytes,
                evicted_bytes=self._evicted_bytes,
                resident_bytes=sum(e.nbytes for e in self._entries.values()),
                resident_columns=len(self._entries) - tables,
                capacity_bytes=self.device.profile.memory_capacity,
                table_hits=self._table_hits,
                table_misses=self._table_misses,
                resident_tables=tables,
            )
