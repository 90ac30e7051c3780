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


def factorize(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map composite keys to dense group codes.

    Returns ``(codes, unique_keys)`` where ``codes[i]`` is the dense
    group id of row ``i`` and ``unique_keys[k][g]`` is the ``k``-th key
    component of group ``g``.  Group ids are assigned in sorted key
    order, making results deterministic across engines.
    """
    if not key_arrays:
        raise ExpressionError("factorize needs at least one key array")
    n = len(key_arrays[0])
    if any(len(array) != n for array in key_arrays):
        raise ExpressionError("key arrays must have equal length")
    if n == 0:
        return np.zeros(0, dtype=np.int64), [array[:0] for array in key_arrays]
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


def grouped_reduce(codes: np.ndarray, num_groups: int, values: np.ndarray, op: str) -> np.ndarray:
    """Reduce ``values`` into ``num_groups`` buckets keyed by ``codes``."""
    if op == "count":
        return np.bincount(codes, minlength=num_groups).astype(np.int64)
    values = np.asarray(values)
    if op == "sum":
        if np.issubdtype(values.dtype, np.integer):
            return np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups).astype(np.int64)
        return np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups)
    if op == "min":
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, codes, values.astype(np.float64))
        return out.astype(values.dtype) if np.issubdtype(values.dtype, np.integer) else out
    if op == "max":
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, codes, values.astype(np.float64))
        return out.astype(values.dtype) if np.issubdtype(values.dtype, np.integer) else out
    raise ExpressionError(f"unknown aggregate {op!r}")


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
    if n:
        cta_of = np.arange(n, dtype=np.int64) // cta_size
        pairs = np.unique(cta_of * max(num_groups, 1) + codes)
        distinct_pairs = len(pairs)
        pair_groups = pairs % max(num_groups, 1)
        max_chain = int(np.bincount(pair_groups, minlength=max(num_groups, 1)).max())
    else:
        distinct_pairs = 0
        max_chain = 0
    charge_segmented_hash_aggregate(meter, n, distinct_pairs, max_chain, entry_bytes, cta_size)
    return HashAggregateCost(
        inputs=n,
        groups=num_groups,
        global_atomics=distinct_pairs,
        max_chain=max_chain,
    )


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
