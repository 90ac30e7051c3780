"""The device buffer pool: cross-query base-column residency.

The serving runtime re-executes the same dashboard queries over the
same base tables; without placement management every execution
re-charges a full PCIe transfer for every input column (the engine
layer's "no caching between queries" stance, Section 8.9 of the
paper).  A :class:`BufferPool` wraps one
:class:`~repro.hardware.device.VirtualCoprocessor` and makes residency
a first-class, cross-query concern:

* **First use** of a base column transfers it host->device (charged
  against the interconnect model, exactly as before) and keeps the
  buffer resident (a *pooled* allocation).
* **Subsequent queries** on the same worker acquire the resident
  buffer without touching the link — a placement *hit*.
* **Capacity pressure** (a new column, a hash table, per-query
  scratch) evicts unpinned resident columns by a cost-aware policy
  (modeled re-transfer cost, LRU tiebreak).  Buffers pinned by an
  in-flight query are never evicted.
* **Staleness** is impossible: entries carry the database fingerprint
  (catalog serial + mutation version) they were loaded under; any
  catalog mutation invalidates the entry on next acquire.

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
from ..telemetry.events import record_event
from .policy import PolicyFn, resolve_policy
from .stats import PlacementStats


@dataclass
class ResidentColumn:
    """One base column resident in device global memory."""

    #: (catalog serial, table name, column name) — stable across versions.
    key: tuple
    buffer: DeviceBuffer
    #: Database fingerprint (serial, version) the column was loaded under.
    fingerprint: tuple
    #: Modeled host->device re-transfer time in seconds (0 on zero-copy
    #: devices) — the eviction policy's cost input.
    retransfer_cost: float
    #: Logical clock of the most recent acquire (LRU ordering).
    last_used: int = 0
    #: Number of in-flight queries holding this column.
    pins: int = field(default=0)

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes

    @property
    def pinned(self) -> bool:
        return self.pins > 0


class BufferPool:
    """Cross-query column residency manager for one virtual device.

    Parameters
    ----------
    device:
        The coprocessor whose memory this pool manages.  The pool
        installs itself as ``device.placement_pool`` and hooks the
        device's allocation-pressure and reset callbacks.
    policy:
        Eviction policy: ``"cost"`` (default, re-transfer cost with LRU
        tiebreak), ``"lru"``, or a callable ordering candidates
        cheapest-to-evict first.
    """

    def __init__(self, device: VirtualCoprocessor, policy: "str | PolicyFn" = "cost"):
        self.device = device
        self.policy = resolve_policy(policy)
        self._entries: dict[tuple, ResidentColumn] = {}
        self._clock = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._fallbacks = 0
        self._hit_bytes = 0
        self._transferred_bytes = 0
        self._evicted_bytes = 0
        device.placement_pool = self
        device.pressure_callback = self._on_pressure
        device.reset_callback = self._on_reset

    # ------------------------------------------------------------------
    # acquisition / release
    # ------------------------------------------------------------------
    def acquire(
        self, table: str, column_name: str, column, fingerprint: tuple
    ) -> tuple[ResidentColumn, bool]:
        """Make ``table.column_name`` resident and pin it; returns
        ``(entry, hit)``.

        A hit pays no transfer; a miss charges the H2D transfer through
        the device's interconnect model.  An entry whose fingerprint no
        longer matches the catalog is invalidated and re-transferred.
        Pins are released by :meth:`release` at the end of the query.
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
            # Miss: transfer (allocation pressure may evict through
            # _on_pressure, re-entrant under this RLock).  With a
            # compression policy on the device, the resident buffer is
            # the *wire image*: more columns fit per device, eviction
            # and re-transfer are charged at the compressed size, and
            # the kernels that read it decode in registers (see
            # :mod:`repro.compression.lazy`; only an engine that
            # materializes at load decodes into transient scratch).
            policy = self.device.compression
            encoded = policy.encoded(column) if policy is not None else None
            if encoded is not None and encoded.codec != "passthrough":
                buffer = self.device.transfer_to_device(
                    encoded.wire_array,
                    label=f"{table}.{column_name}",
                    pooled=True,
                    raw_nbytes=column.nbytes,
                    codec=encoded.codec,
                )
            else:
                buffer = self.device.transfer_to_device(
                    column.values, label=f"{table}.{column_name}", pooled=True
                )
            entry = ResidentColumn(
                key=key,
                buffer=buffer,
                fingerprint=fingerprint,
                retransfer_cost=self._retransfer_cost(buffer.nbytes),
                last_used=self._clock,
                pins=1,
            )
            self._entries[key] = entry
            self._misses += 1
            self._transferred_bytes += buffer.nbytes
            return entry, False

    def release(self, entries: "list[ResidentColumn]") -> None:
        """Unpin entries acquired by a finished (or failed) query."""
        with self._lock:
            for entry in entries:
                if entry.pins > 0:
                    entry.pins -= 1

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict(self, nbytes: int) -> int:
        """Evict unpinned resident columns until ``nbytes`` are freed
        (or no candidates remain); returns the bytes actually freed."""
        freed = 0
        with self._lock:
            candidates = [e for e in self._entries.values() if not e.pinned]
            for entry in self.policy(candidates):
                if freed >= nbytes:
                    break
                freed += entry.nbytes
                self._evict(entry)
        return freed

    def _evict(self, entry: ResidentColumn) -> None:
        if entry.pinned:
            raise PlacementError(
                f"attempt to evict pinned resident column {entry.key!r}"
            )
        del self._entries[entry.key]
        if not entry.buffer.freed:
            self.device.free(entry.buffer)
        self._evictions += 1
        self._evicted_bytes += entry.nbytes
        record_event(
            "placement.evicted",
            key=".".join(str(part) for part in entry.key)
            if isinstance(entry.key, tuple)
            else str(entry.key),
            bytes=entry.nbytes,
        )

    def _invalidate(self, entry: ResidentColumn) -> None:
        if entry.pinned:
            raise PlacementError(
                f"resident column {entry.key!r} mutated while pinned by an "
                "in-flight query"
            )
        del self._entries[entry.key]
        if not entry.buffer.freed:
            self.device.free(entry.buffer)
        self._invalidations += 1

    def _on_pressure(self, shortfall: int) -> int:
        """Device allocation-pressure hook: reclaim ``shortfall`` bytes."""
        return self.evict(shortfall)

    def _on_reset(self) -> None:
        """Device ``reset_all`` hook: residency is gone; drop bookkeeping."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # maintenance & stats
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every unpinned resident column (e.g. between workloads)."""
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
                resident_columns=len(self._entries),
                capacity_bytes=self.device.profile.memory_capacity,
            )
