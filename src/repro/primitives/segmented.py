"""Grouped-aggregation primitives: techniques C1, C2, C3 (Table 4).

Grouped aggregation (``GROUP BY``) reduces qualifying tuples into a
table of per-group aggregates.  The paper's three implementations:

* **C1 — sort-based, multi-pass** (pipeline breaker): global sort by
  key, then a segmented reduction over the sorted runs.  Used by the
  operator-at-a-time engine; its cost is dominated by the sort and is
  therefore independent of the group count (Experiment 2).
* **C2 — atomic hash reduce** (pipelined): every qualifying tuple
  performs one atomic RMW on a global aggregation hash table.  With few
  groups the per-group conflict chains explode (the contention cliff of
  Figure 18).
* **C3 — segmented pre-aggregation** (pipelined): each CTA sorts its
  slice in scratchpad, reduces segments locally, and inserts only one
  pre-aggregate per distinct (CTA, key) pair into the global table
  (Section 6.1, Figure 15c) — up to 126x faster at small group counts.

This module provides the shared factorization/reduction machinery plus
the C2/C3 cost accounting; C1 is assembled from :mod:`sortlib` by the
engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExpressionError
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .common import DEFAULT_CTA_SIZE, log2_ceil, num_blocks


#: Integer keys whose combined value span is at most this many times
#: the row count (or at most :data:`DENSE_SPAN_FLOOR`) are grouped by a
#: presence bitmap over the span instead of a sort.
DENSE_SPAN_FACTOR = 4
DENSE_SPAN_FLOOR = 4096
_INT64_MAX = int(np.iinfo(np.int64).max)
#: Largest integer sum a float64 ``bincount`` still adds exactly.
_FLOAT_EXACT = 2**53


def dense_span_limit(n: int) -> int:
    """The widest combined key span :func:`factorize` groups densely."""
    return max(DENSE_SPAN_FACTOR * n, DENSE_SPAN_FLOOR)


def factorize(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map composite keys to dense group codes.

    Returns ``(codes, unique_keys)`` where ``codes[i]`` is the dense
    group id of row ``i`` and ``unique_keys[k][g]`` is the ``k``-th key
    component of group ``g``.  Group ids are assigned in sorted key
    order, making results deterministic across engines.  Integer keys
    of a narrow span take :func:`_dense_factorize`; the output is the
    same either way.
    """
    if not key_arrays:
        raise ExpressionError("factorize needs at least one key array")
    n = len(key_arrays[0])
    if any(len(array) != n for array in key_arrays):
        raise ExpressionError("key arrays must have equal length")
    if n == 0:
        return np.zeros(0, dtype=np.int64), [array[:0] for array in key_arrays]
    dense = _dense_factorize(key_arrays, dense_span_limit(n))
    if dense is not None:
        return dense
    if len(key_arrays) == 1:
        uniques, inverse = np.unique(key_arrays[0], return_inverse=True)
        return inverse.astype(np.int64), [uniques]
    order = np.lexsort(tuple(reversed(key_arrays)))
    sorted_cols = [array[order] for array in key_arrays]
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for column in sorted_cols:
        boundary[1:] |= column[1:] != column[:-1]
    group_of_sorted = np.cumsum(boundary) - 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = group_of_sorted
    uniques = [column[boundary] for column in sorted_cols]
    return codes, uniques


def _dense_factorize(key_arrays: list[np.ndarray], limit: int):
    """:func:`factorize` in O(rows + span) for integer keys, or ``None``.

    Each column's offset from its minimum is folded mixed-radix into one
    code, first column most significant, so ascending codes are the
    sorted key order; a presence bitmap over the codes and its prefix
    sum give each row its group.  ``None`` when a column is not integral,
    holds a value beyond int64 (uint64 >= 2**63), or the product of the
    spans exceeds ``limit``.
    """
    bounds = []
    total = 1
    for array in key_arrays:
        if array.dtype.kind not in "iu":
            return None
        low, high = int(array.min()), int(array.max())
        total *= high - low + 1
        if high > _INT64_MAX or total > limit:
            return None
        bounds.append((low, high - low + 1))
    combined = None
    for array, (low, span) in zip(key_arrays, bounds):
        offset = array.astype(np.int64)
        offset -= low
        if combined is None:
            combined = offset
        else:
            combined *= span
            combined += offset
    present = np.zeros(total, dtype=bool)
    present[combined] = True
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    codes = rank[combined]
    seen = np.flatnonzero(present)
    uniques = []
    for array, (low, span) in reversed(list(zip(key_arrays, bounds))):
        uniques.append((seen % span + low).astype(array.dtype))
        seen //= span
    return codes, uniques[::-1]


def grouped_reduce(codes: np.ndarray, num_groups: int, values: np.ndarray, op: str) -> np.ndarray:
    """Reduce ``values`` into ``num_groups`` buckets keyed by ``codes``.

    Integer values reduce exactly: a sum goes through float64
    ``bincount`` only where no partial sum can pass 2**53, else it
    accumulates in int64 (wrapping like ``np.sum``); min and max stay in
    the values' own dtype.
    """
    if op == "count":
        return np.bincount(codes, minlength=num_groups).astype(np.int64)
    values = np.asarray(values)
    integral = values.dtype.kind in "iu"
    if op == "sum":
        if integral and len(values) and (
            max(int(values.max()), -int(values.min())) * len(values) >= _FLOAT_EXACT
        ):
            out = np.zeros(num_groups, dtype=np.int64)
            np.add.at(out, codes, values.astype(np.int64))
            return out
        sums = np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups)
        return sums.astype(np.int64) if integral else sums
    if op not in ("min", "max"):
        raise ExpressionError(f"unknown aggregate {op!r}")
    reduce = np.minimum if op == "min" else np.maximum
    if integral:
        info = np.iinfo(values.dtype)
        out = np.full(num_groups, info.max if op == "min" else info.min, dtype=values.dtype)
        reduce.at(out, codes, values)
        return out
    out = np.full(num_groups, np.inf if op == "min" else -np.inf)
    reduce.at(out, codes, values.astype(np.float64))
    return out


@dataclass
class HashAggregateCost:
    """Observed cost drivers of a pipelined hash aggregation."""

    inputs: int
    groups: int
    global_atomics: int
    max_chain: int


# ----------------------------------------------------------------------
# C2 — atomic hash reduce
# ----------------------------------------------------------------------
def charge_atomic_hash_aggregate(meter: TrafficMeter, n: int, max_chain: int, entry_bytes: int) -> None:
    """C2's charge: one atomic RMW per tuple against its group's entry;
    ``max_chain`` is the population of the hottest group."""
    meter.record_atomics(AtomicBatch(count=n, max_chain=max_chain, kind="rmw"))
    # Hash + probe instructions and the RMW traffic on the global table.
    meter.record_instructions(4 * n)
    meter.record_table_read(n * entry_bytes)
    meter.record_table_write(n * entry_bytes)


def atomic_hash_aggregate(
    meter: TrafficMeter,
    codes: np.ndarray,
    num_groups: int,
    entry_bytes: int,
) -> HashAggregateCost:
    """Account a per-tuple atomic hash-table update (C2).

    Every qualifying tuple performs one atomic RMW against its group's
    table entry, so the longest conflict chain is the population of the
    hottest group — with 2 groups that is ~n/2 serialized atomics, which
    is the cliff on the left of Figure 18.
    """
    n = len(codes)
    max_chain = int(np.bincount(codes, minlength=max(num_groups, 1)).max()) if n else 0
    charge_atomic_hash_aggregate(meter, n, max_chain, entry_bytes)
    return HashAggregateCost(
        inputs=n, groups=num_groups, global_atomics=n, max_chain=max_chain
    )


# ----------------------------------------------------------------------
# C3 — segmented pre-aggregation in scratchpad
# ----------------------------------------------------------------------
def charge_segmented_hash_aggregate(
    meter: TrafficMeter,
    n: int,
    distinct_pairs: int,
    max_chain: int,
    entry_bytes: int,
    cta_size: int = DEFAULT_CTA_SIZE,
) -> None:
    """C3's charge for ``n`` tuples: the scratchpad sort and segmented
    reduce of every CTA, then one insert per distinct (CTA, key) pair;
    ``max_chain`` is the most CTAs any one group was seen by."""
    blocks = num_blocks(n, cta_size)
    # Bitonic sort in scratchpad: ~log^2(cta)/2 compare-exchange stages.
    stages = log2_ceil(cta_size) * (log2_ceil(cta_size) + 1) // 2
    meter.record_read(MemoryLevel.ONCHIP, stages * n * entry_bytes)
    meter.record_write(MemoryLevel.ONCHIP, stages * n * entry_bytes)
    meter.record_instructions(stages * n)
    meter.record_barrier(blocks * stages)
    # Segmented reduce over the sorted slice.
    meter.record_read(MemoryLevel.ONCHIP, n * entry_bytes)
    meter.record_write(MemoryLevel.ONCHIP, n * entry_bytes)
    meter.record_instructions(2 * n)
    meter.record_atomics(AtomicBatch(count=distinct_pairs, max_chain=max_chain, kind="rmw"))
    meter.record_table_read(distinct_pairs * entry_bytes)
    meter.record_table_write(distinct_pairs * entry_bytes)


def segmented_hash_aggregate(
    meter: TrafficMeter,
    codes: np.ndarray,
    num_groups: int,
    entry_bytes: int,
    profile: DeviceProfile,
    cta_size: int = DEFAULT_CTA_SIZE,
) -> HashAggregateCost:
    """Account the sort-merge pre-aggregation of Figure 15c (C3).

    Each CTA sorts its slice by key in scratchpad (bitonic network),
    reduces segments, and inserts one pre-aggregate per distinct
    (CTA, key) pair into the global hash table.  The conflict chain per
    group therefore shrinks from its population to the number of CTAs
    that saw the group.
    """
    n = len(codes)
    distinct_pairs, max_chain = cta_group_drivers(codes, num_groups, cta_size)
    charge_segmented_hash_aggregate(meter, n, distinct_pairs, max_chain, entry_bytes, cta_size)
    return HashAggregateCost(
        inputs=n,
        groups=num_groups,
        global_atomics=distinct_pairs,
        max_chain=max_chain,
    )


def cta_group_drivers(codes: np.ndarray, num_groups: int, cta_size: int = DEFAULT_CTA_SIZE):
    """C3's observed drivers: the distinct (CTA, group) pairs among the
    ``codes`` (each CTA a ``cta_size`` slice), and the most CTAs any one
    group is seen by.  Each slice is sorted on its own, as the CTA sorts
    it in scratchpad; the last one is padded with its own final code,
    which adds no pair."""
    n = len(codes)
    if not n:
        return 0, 0
    blocks = num_blocks(n, cta_size)
    pad = blocks * cta_size - n
    # Quicksort is vectorized for 16-, 32- and 64-bit integers, and the
    # narrowest is fastest; codes are in [0, num_groups).
    narrow = np.int16 if num_groups <= 1 << 15 else np.int32 if num_groups <= 1 << 31 else np.int64
    slices = codes.astype(narrow)
    if pad:
        slices = np.concatenate([slices, np.full(pad, slices[-1], dtype=slices.dtype)])
    slices = np.sort(slices.reshape(blocks, cta_size), axis=1)
    first = np.empty(slices.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(slices[:, 1:], slices[:, :-1], out=first[:, 1:])
    seen = slices[first]
    max_chain = int(np.bincount(seen, minlength=max(num_groups, 1)).max())
    return len(seen), max_chain


def uniform_group_drivers(n: int, num_groups: int, cta_size: int = DEFAULT_CTA_SIZE):
    """The cost drivers of aggregating ``n`` tuples spread uniformly over
    ``num_groups``: C2's hottest-group population, and C3's distinct
    (CTA, key) pairs and the CTAs the busiest group is seen by."""
    if not n:
        return 0, 0, 0
    groups = max(num_groups, 1)
    blocks = num_blocks(n, cta_size)
    seen = 1.0 - (1.0 - 1.0 / groups) ** min(cta_size, n)
    pairs = min(n, max(blocks, int(round(blocks * groups * seen))))
    return -(-n // groups), pairs, min(pairs, max(1, int(round(blocks * seen))))
