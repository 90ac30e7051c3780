"""Open-addressing join hash tables with simulated atomic inserts.

State-of-the-art GPU joins build a hash table over the (smaller) build
side in GPU global memory and probe it from the pipeline (Karnagel et
al., cited in Section 6).  Inserts use atomic compare-and-swap to claim
slots; probes are random global-memory reads — both are accounted here.

The table stores *row indices* into the build-side key columns, so
composite keys are compared exactly (no lossy packing).  Build keys
must be unique (all joins in the evaluated workloads are PK-FK joins or
joins against aggregated subplans); duplicate keys raise ``PlanError``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import PlanError
from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .common import segment_sums
from .gather import random_access_volume

#: Row indices are stored as 4-byte ints, as a real GPU build would.
_SLOT_BYTES = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_INT64_MAX = np.iinfo(np.int64).max


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer — a strong, cheap 64-bit mixer.

    Mixes *in place*: ``h`` must be a ``uint64`` buffer the caller owns.
    """
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _key_bits(array: np.ndarray) -> np.ndarray:
    """A fresh 64-bit pattern per key value (bit view for floats, so
    equal floats hash equally without lossy integer truncation)."""
    if array.dtype.kind == "f":
        # ``-0.0 == 0.0`` but their bit patterns differ; adding +0.0
        # maps both zeros to +0.0 and leaves every other value alone.
        return np.add(array, 0.0, dtype=np.float64).view(np.uint64)
    return array.astype(np.uint64)


def hash_key_columns(key_arrays: list[np.ndarray]) -> np.ndarray:
    """Combine one or more key columns into 64-bit hashes."""
    if not key_arrays:
        raise PlanError("hash join needs at least one key column")
    combined = None
    for array in key_arrays:
        bits = _key_bits(array)
        bits *= _GOLDEN
        if combined is not None:
            bits ^= combined
        combined = _splitmix64(bits)
    return combined


#: A dense index entry packs ``row + 1`` above the slots inspected.
_STEP_BITS = 32
_STEP_MASK = (1 << _STEP_BITS) - 1


class _DenseIndex(NamedTuple):
    """Per key value in ``[lo, hi]``, one int64 entry: the build row
    holding it plus one (0 when absent) in the high bits and the number
    of slots a linear probe for it inspects in the low
    :data:`_STEP_BITS` — one gather answers both."""

    lo: int
    hi: int
    entries: np.ndarray


def _next_power_of_two(value: int) -> int:
    power = 16
    while power < value:
        power *= 2
    return power


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def table_capacity(rows: int, load_factor: float = 0.5) -> int:
    return _next_power_of_two(max(16, int(rows / load_factor)))


def charge_inserts(meter: TrafficMeter, rows: int, attempts: int, max_contention: int) -> None:
    """The atomic-CAS slot traffic of inserting ``rows`` keys: every
    one of the ``attempts`` reads a slot, every success writes one."""
    meter.record_table_read(attempts * _SLOT_BYTES)
    meter.record_table_write(rows * _SLOT_BYTES)
    chain = max(max_contention, 1) if rows else 0
    meter.record_atomics(AtomicBatch(count=attempts, max_chain=chain, kind="rmw"))
    meter.record_instructions(3 * attempts)


def charge_build_kernel(
    device, name: str, rows: int, attempts: int, max_contention: int, key_bytes: int
) -> None:
    """The stand-alone build kernel: the inserts plus a read of the
    materialized key columns (``key_bytes`` in all)."""
    meter = device.new_meter()
    charge_inserts(meter, rows, attempts, max_contention)
    meter.record_read(MemoryLevel.GLOBAL, key_bytes)
    device.launch(f"build.{name}", "build", rows, meter)


def charge_probes(
    meter: TrafficMeter, steps: int, entry_bytes: int, structure_bytes: int,
    l2_capacity: int | None,
) -> None:
    """``steps`` slot inspections (a random read of one entry each) of
    a table whose slots and keys take ``structure_bytes``."""
    meter.record_table_read(
        random_access_volume(steps, entry_bytes, structure_bytes, l2_capacity)
    )
    meter.record_instructions(4 * steps)


@dataclass
class TableEstimate:
    """A hash table that was priced, not built: what the kernels that
    would build and probe it are charged from, with the expected cost
    drivers of uniformly hashed keys where :class:`JoinHashTable` has
    measured ones (linear probing at the table's load, Knuth 6.4)."""

    rows: int
    #: Share of its source's rows the build kept — the fraction of
    #: foreign keys that find a match, for keys spread evenly over them.
    match_fraction: float
    #: Bytes of one row's key columns.
    key_bytes: int
    #: Payload columns: ``rows`` zero-stride rows of the right dtype.
    payload: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.capacity = table_capacity(self.rows)
        load = self.rows / self.capacity
        # Knuth's Q_0(m, n - 1) and Q_1(m, n): sums of falling-factorial
        # terms, which a small table is far from the limit 1 / (1 - load)
        # of (its terms fall off faster than load ** k).
        q0 = q1 = term0 = term1 = 1.0
        k = 0
        while k < self.rows and (k + 2) * term1 > 1e-4:
            k += 1
            term0 *= (self.rows - k) / self.capacity
            term1 *= (self.rows - k + 1) / self.capacity
            q0 += term0
            q1 += (k + 1) * term1
        self._hit, self._miss = 0.5 * (1.0 + q0), 0.5 * (1.0 + q1)
        #: Slot reads of the build: a successful search per key, plus
        #: the re-read of every key that lost the first round's CAS
        #: race (about ``load / 2`` of them).
        self.attempts = int(round(self.rows * (self._hit + load / 2)))
        #: Worst same-slot contention: the largest of ~n Poisson(<= 0.5)
        #: slot populations is 4 to 6 from a thousand to a million rows.
        self.max_contention = min(self.rows, 5)

    @property
    def entry_bytes(self) -> int:
        return _SLOT_BYTES + self.key_bytes

    @property
    def structure_bytes(self) -> int:
        return self.capacity * _SLOT_BYTES + self.rows * self.key_bytes

    def probe_row_bytes(self) -> float:
        """Bytes one probing row is expected to read: its key, the slots
        its lookup inspects (a hit with probability ``match_fraction``)
        and, on a hit, the payload."""
        share = self.match_fraction
        steps = share * self._hit + (1.0 - share) * self._miss
        payload = sum(values.dtype.itemsize for values in self.payload.values())
        return self.key_bytes + steps * self.entry_bytes + share * payload

    def probe_steps(self, probes: int, hits: int) -> int:
        """Slots inspected by ``probes`` lookups of which ``hits`` match."""
        return int(round(hits * self._hit + (probes - hits) * self._miss))

    def probe(
        self, meter: TrafficMeter, probes: int, l2_capacity: int | None,
        match_fraction: float | None = None,
    ) -> int:
        """Charge ``probes`` lookups as :meth:`JoinHashTable.probe` does;
        returns how many of them hit."""
        share = self.match_fraction if match_fraction is None else match_fraction
        hits = int(round(probes * share))
        if probes:
            charge_probes(
                meter, self.probe_steps(probes, hits), self.entry_bytes,
                self.structure_bytes, l2_capacity,
            )
        return hits


class _Layout:
    """Where every build row lands, and what landing there cost.

    A pure function of the key *content* and the load factor — not of
    the device, the table name or the query — so every table built over
    the same keys shares one (see :func:`_layout_of`).  It holds the
    slot array, the insert counts every build kernel is charged from,
    and the direct-address index that probes grow on demand.  All of it
    is host bookkeeping: device memory is accounted by the tables, each
    of which allocates its own slot buffer.
    """

    def __init__(self, key_arrays: list[np.ndarray], name: str, load_factor: float):
        n = len(key_arrays[0])
        if any(len(array) != n for array in key_arrays):
            raise PlanError("join key columns must have equal length")
        capacity = table_capacity(n, load_factor)
        mask = np.uint64(capacity - 1)

        slots = np.full(capacity, -1, dtype=np.int64)
        hashes = hash_key_columns(key_arrays)
        position = (hashes & mask).astype(np.int64)
        pending = np.arange(n, dtype=np.int64)
        attempts = 0
        max_slot_contention = 0
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > capacity + 1:
                raise PlanError(f"hash table {name!r} insert did not converge")
            target = position[pending]
            occupant = slots[target]
            occupied = occupant >= 0
            # Duplicate-key check: an occupied slot holding an equal key
            # is a duplicate build key.
            if occupied.any():
                dup_rows = pending[occupied]
                dup_slots = occupant[occupied]
                equal = np.ones(len(dup_rows), dtype=bool)
                for array in key_arrays:
                    equal &= array[dup_slots] == array[dup_rows]
                if equal.any():
                    raise PlanError(
                        f"duplicate keys in build side of hash table {name!r}"
                    )
            free_rows = pending[~occupied]
            free_targets = target[~occupied]
            attempts += len(pending)
            if free_rows.size:
                contention = np.bincount(free_targets)
                max_slot_contention = max(max_slot_contention, int(contention.max()))
                unique_targets, winner_index = np.unique(free_targets, return_index=True)
                slots[unique_targets] = free_rows[winner_index]
                won = np.zeros(len(free_rows), dtype=bool)
                won[winner_index] = True
                losers = free_rows[~won]
            else:
                losers = free_rows
            # Collision rows saw a non-equal occupant and linear-probe
            # onward; CAS losers re-read the slot they lost (so that
            # duplicate keys racing for one slot are detected).
            colliders = pending[occupied]
            position[colliders] = (position[colliders] + 1) & (capacity - 1)
            pending = np.concatenate([colliders, losers])

        #: Read-only copies: the caller may reuse its buffers.
        self.keys = [_frozen(array.copy()) for array in key_arrays]
        self.load_factor = load_factor
        self.slots = _frozen(slots)
        self.capacity = capacity
        #: Slot reads of the insert loop / worst same-slot CAS contention.
        self.attempts = attempts
        self.max_contention = max_slot_contention
        #: Direct-address index (see :meth:`JoinHashTable._dense_index`)
        #: and the single-integer-key probe rows seen so far, over every
        #: table on this layout.  The tuple is replaced atomically; a
        #: lost ``probed_rows`` update only delays the index.
        self.dense: _DenseIndex | None = None
        self.probed_rows = 0

    @property
    def nbytes(self) -> int:
        dense = self.dense
        return (
            self.slots.nbytes
            + sum(array.nbytes for array in self.keys)
            + (dense.entries.nbytes if dense is not None else 0)
        )

    def lays_out(self, key_arrays: list[np.ndarray], load_factor: float) -> bool:
        """Is this the layout of exactly these keys?  Byte equality —
        what a digest hit is confirmed by."""
        return (
            load_factor == self.load_factor
            and len(key_arrays) == len(self.keys)
            and all(
                theirs.dtype == ours.dtype
                and theirs.shape == ours.shape
                and np.array_equal(theirs.view(np.uint8), ours.view(np.uint8))
                for theirs, ours in zip(key_arrays, self.keys)
            )
        )


@dataclass
class LayoutCacheStats:
    """A snapshot of the process-wide build-layout memo."""

    hits: int
    misses: int
    evictions: int
    bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Layouts are pure functions of key content and load factor, so the
#: content is the memo key: a broadcast build side is laid out once for
#: the whole fleet, and a dimension filtered the same way is laid out
#: once across queries, sessions and server workers.  LRU bounded by
#: host bytes (slots + key copies + index); lock-guarded like the
#: compiled-kernel cache in :mod:`repro.kernels.codegen`.
LAYOUT_CACHE_BYTES = 16 * 1024 * 1024
#: Widest key domain an index may cover on the strength of *earlier*
#: probes (at most 16 bytes per value: an eighth of the budget), so one
#: outlier key in a long-lived process cannot allocate without bound.
_SHARED_INDEX_SPAN = LAYOUT_CACHE_BYTES // 8 // 16
_layout_lock = threading.Lock()
_layouts: "OrderedDict[bytes, _Layout]" = OrderedDict()
_layout_hits = 0
_layout_misses = 0
_layout_evictions = 0


def layout_cache_stats() -> LayoutCacheStats:
    """Process-wide memo counters (see :class:`LayoutCacheStats`)."""
    with _layout_lock:
        return LayoutCacheStats(
            hits=_layout_hits,
            misses=_layout_misses,
            evictions=_layout_evictions,
            bytes=sum(layout.nbytes for layout in _layouts.values()),
        )


def clear_layout_cache() -> None:
    """Drop all memoised layouts and reset the counters (tests/benchmarks)."""
    global _layout_hits, _layout_misses, _layout_evictions
    with _layout_lock:
        _layouts.clear()
        _layout_hits = _layout_misses = _layout_evictions = 0


def _content_digest(key_arrays: list[np.ndarray], load_factor: float) -> bytes:
    digest = hashlib.blake2b(repr(load_factor).encode(), digest_size=16)
    for array in key_arrays:
        digest.update(f"|{array.dtype.str}{array.shape}".encode())
        digest.update(array.view(np.uint8))
    return digest.digest()


def _trim_layouts() -> None:
    """Evict least-recently-used layouts down to the byte budget (lock
    held).  A table keeps the layout it was built on either way."""
    global _layout_evictions
    total = sum(layout.nbytes for layout in _layouts.values())
    while total > LAYOUT_CACHE_BYTES:
        _, evicted = _layouts.popitem(last=False)
        total -= evicted.nbytes
        _layout_evictions += 1


def _layout_of(key_arrays: list[np.ndarray], name: str, load_factor: float) -> _Layout:
    """The memoised layout of these (contiguous) key columns."""
    global _layout_hits, _layout_misses
    digest = _content_digest(key_arrays, load_factor)
    with _layout_lock:
        layout = _layouts.get(digest)
        if layout is not None and layout.lays_out(key_arrays, load_factor):
            _layouts.move_to_end(digest)
            _layout_hits += 1
            return layout
        _layout_misses += 1
    # A PlanError (duplicate keys, ragged columns) leaves no entry.
    layout = _Layout(key_arrays, name, load_factor)
    with _layout_lock:
        _layouts[digest] = layout
        _layouts.move_to_end(digest)
        _trim_layouts()
    return layout


class JoinHashTable:
    """An open-addressing (linear probing) hash table over build rows.

    Created via :meth:`build`, which simulates the build kernel on a
    device; probed via :meth:`probe`, which accounts its traffic into
    the probing kernel's meter (probes happen *inside* pipelines).
    """

    def __init__(self, layout: _Layout, name: str):
        self._layout = layout
        self.key_arrays = layout.keys
        self.slots = layout.slots
        self.capacity = layout.capacity
        self.name = name
        #: Device buffer backing ``slots`` (set by the build paths so
        #: error handling can free a half-built table).
        self.slots_buffer = None

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.key_arrays[0])

    @property
    def entry_bytes(self) -> int:
        """Bytes read to inspect one slot: row index + stored key."""
        return _SLOT_BYTES + sum(array.dtype.itemsize for array in self.key_arrays)

    @property
    def table_bytes(self) -> int:
        """Global-memory footprint of the slot array."""
        return self.capacity * _SLOT_BYTES

    # ------------------------------------------------------------------
    @classmethod
    def _laid_out(cls, key_arrays: list[np.ndarray], name: str, load_factor: float):
        """A table over these keys.  Its build is charged from the
        layout's recorded counts (``attempts`` / ``max_contention``), so
        a memo hit charges exactly what computing it did."""
        keys = [np.ascontiguousarray(array) for array in key_arrays]
        return cls(_layout_of(keys, name, load_factor), name)

    @classmethod
    def build(
        cls,
        device: VirtualCoprocessor,
        key_arrays: list[np.ndarray],
        name: str = "hash_table",
        load_factor: float = 0.5,
    ) -> "JoinHashTable":
        """Build the table as one device kernel with atomic-CAS inserts.

        Reads materialized key columns from GPU global memory (the
        multi-pass and operator-at-a-time flow).
        """
        table = cls._laid_out(key_arrays, name, load_factor)
        layout = table._layout
        charge_build_kernel(
            device, name, table.num_rows, layout.attempts, layout.max_contention,
            sum(array.nbytes for array in table.key_arrays),
        )

        # The slot array stays resident in device global memory.
        table.slots_buffer = device.allocate(table.slots, label=f"{name}.slots")
        return table

    @classmethod
    def build_pipelined(
        cls,
        meter: TrafficMeter,
        device: VirtualCoprocessor,
        key_arrays: list[np.ndarray],
        name: str = "hash_table",
        load_factor: float = 0.5,
    ) -> "JoinHashTable":
        """Insert inside an enclosing compound kernel (fully pipelined).

        Keys arrive in registers, so no key reads are charged — only the
        atomic-CAS slot traffic.  This is the build path of a compound
        build pipeline (Section 5.2: "hash table operations" as function
        calls in the generated kernel).
        """
        table = cls._laid_out(key_arrays, name, load_factor)
        layout = table._layout
        charge_inserts(meter, table.num_rows, layout.attempts, layout.max_contention)
        table.slots_buffer = device.allocate(table.slots, label=f"{name}.slots")
        return table

    # ------------------------------------------------------------------
    def probe(
        self,
        meter: TrafficMeter,
        probe_arrays: list[np.ndarray],
        l2_capacity: int | None = None,
        edges: np.ndarray | None = None,
    ) -> np.ndarray:
        """Probe the table; returns the matching build row per probe row.

        The result holds the build-side row index for hits and -1 for
        misses.  Probe traffic (random slot reads + key comparisons) is
        recorded into the supplied meter — probes execute inside count,
        write, or compound kernels, never as kernels of their own.
        Tables larger than ``l2_capacity`` pay DRAM transaction
        amplification per slot access.

        What is *charged* is always the exact number of slots a linear
        probe inspects; how the host *finds* rows and that number is
        chosen per call (see :meth:`_dense_index`).

        With ``edges`` (``k + 1`` ascending offsets into the probe rows)
        the rows are ``k`` segments — the members of a morsel group —
        and ``meter`` is their ``k`` meters: segment ``s`` is charged
        the slots its own rows inspect, as if it probed alone (a segment
        without rows is charged nothing).
        """
        probe_arrays = [np.ascontiguousarray(array) for array in probe_arrays]
        if len(probe_arrays) != len(self.key_arrays):
            raise PlanError(
                f"probe key count {len(probe_arrays)} does not match build "
                f"key count {len(self.key_arrays)}"
            )
        if len(probe_arrays[0]) == 0:
            return np.empty(0, dtype=np.int64)
        index = self._dense_index(probe_arrays)
        per_row = edges is not None
        if index is None:
            result, steps = self._walk(probe_arrays, per_row)
        else:
            entries = index.entries.take(np.subtract(probe_arrays[0], index.lo, dtype=np.intp))
            result = entries >> _STEP_BITS
            result -= 1
            steps = np.bitwise_and(entries, _STEP_MASK, out=entries)
            if not per_row:
                steps = int(steps.sum())

        structure_bytes = self.capacity * _SLOT_BYTES + sum(
            array.nbytes for array in self.key_arrays
        )
        if not per_row:
            charge_probes(meter, steps, self.entry_bytes, structure_bytes, l2_capacity)
            return result
        for segment, total in zip(meter, segment_sums(steps, edges)):
            if total:
                charge_probes(segment, int(total), self.entry_bytes, structure_bytes, l2_capacity)
        return result

    def _walk(self, probe_arrays: list[np.ndarray], per_row: bool = False) -> tuple:
        """The general lookup: linear probing, one vectorised round per
        inspected slot.  Returns (build row per probe row, slots
        inspected in total — or, ``per_row``, by each probe row)."""
        n = len(probe_arrays[0])
        result = np.full(n, -1, dtype=np.int64)
        mask = self.capacity - 1
        position = (hash_key_columns(probe_arrays) & np.uint64(mask)).astype(np.int64)
        active = np.arange(n, dtype=np.int64)
        # A row inspects one slot per round until the round it leaves.
        left = np.empty(n, dtype=np.int64) if per_row else None
        steps = 0
        rounds = 0
        while active.size:
            rounds += 1
            if rounds > self.capacity + 1:
                raise PlanError(f"hash table {self.name!r} probe did not converge")
            steps += len(active)
            candidate = self.slots[position]
            # Empty slot -> miss; result stays -1.
            occupied = candidate >= 0
            if per_row:
                left[active[~occupied]] = rounds
            active = active[occupied]
            candidate = candidate[occupied]
            equal = np.ones(len(active), dtype=bool)
            for build, probe in zip(self.key_arrays, probe_arrays):
                equal &= build[candidate] == probe[active]
            result[active[equal]] = candidate[equal]
            if per_row:
                left[active[equal]] = rounds
            active = active[~equal]
            position = (position[occupied][~equal] + 1) & mask
        return result, (left if per_row else steps)

    def _dense_index(self, probe_arrays: list[np.ndarray]) -> _DenseIndex | None:
        """The direct-address index serving this probe, or None when the
        probe must :meth:`_walk`.

        A single integer key whose domain — the union of the build keys'
        and the probed keys' ``[min, max]`` — spans no more values than
        the layout has been probed with so far, over every table built
        on it, is answered by ``key - lo``: hashing the domain once is
        then cheaper than hashing every probe key, and the morsels of
        one scan and the devices of one fleet pay for one index between
        them.  (A filtered build side is routinely probed by keys
        outside its own range, hence the union.)  The index is kept on
        the layout and widened when a later probe reaches beyond it; it
        is host-side bookkeeping, not device memory.  Replacing the
        tuple is atomic, so concurrent probes need no lock.
        """
        # A full table has no empty slot to end a miss on; only the walk
        # reports that (nor does it pack into an index entry).
        if (
            len(probe_arrays) != 1
            or self.num_rows == self.capacity
            or self.capacity > _STEP_MASK
        ):
            return None
        probe, build = probe_arrays[0], self.key_arrays[0]
        if probe.dtype.kind not in "iu" or build.dtype.kind not in "iu":
            return None
        layout = self._layout
        layout.probed_rows += len(probe)
        lo, hi = int(probe.min()), int(probe.max())
        index = layout.dense
        if index is not None:
            if index.lo <= lo and hi <= index.hi:
                return index
            lo, hi = min(lo, index.lo), max(hi, index.hi)
        elif len(build):
            lo, hi = min(lo, int(build.min())), max(hi, int(build.max()))
        # A probe that pays for its index alone gets it; credit from
        # earlier probes buys only an index the memo can afford to keep.
        credit = max(len(probe), min(layout.probed_rows, _SHARED_INDEX_SPAN))
        if hi >= _INT64_MAX or hi - lo >= credit:
            return None
        index = layout.dense = self._build_dense_index(lo, hi)
        with _layout_lock:
            _trim_layouts()
        return index

    def _build_dense_index(self, lo: int, hi: int) -> _DenseIndex:
        """(build row, slots inspected) for every key value in [lo, hi].

        Tables are insert-only, so what a linear probe inspects follows
        from the built slot array: a key stored ``d`` slots past its
        home is found after ``d + 1`` reads (everything in between was
        occupied when it was inserted), and an absent key reads from its
        home through the next empty slot.
        """
        capacity = self.capacity
        mask = capacity - 1
        slot_ids = np.arange(capacity, dtype=np.intp)
        empty = self.slots < 0
        # Next empty slot at or after each slot, cyclically: slots past
        # the last empty one wrap around to the first.
        next_empty = np.where(empty, slot_ids, capacity + int(np.argmax(empty)))
        next_empty = np.minimum.accumulate(next_empty[::-1])[::-1]
        home = hash_key_columns([np.arange(lo, hi + 1, dtype=np.int64)])
        home = (home & np.uint64(mask)).astype(np.intp)
        # At most ``capacity`` (<= _STEP_MASK) per key.
        entries = (next_empty - slot_ids + 1).astype(np.int64).take(home)
        stored_slots = np.flatnonzero(~empty)
        stored_rows = self.slots[stored_slots]
        stored_at = np.subtract(self.key_arrays[0][stored_rows], lo, dtype=np.intp)
        entries[stored_at] = ((stored_rows + 1) << _STEP_BITS) | (
            ((stored_slots - home[stored_at]) & mask) + 1
        )
        return _DenseIndex(lo, hi, _frozen(entries))
