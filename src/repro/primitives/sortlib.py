"""Device sort and segmented-reduce primitives (for C1 and ORDER BY).

The operator-at-a-time engine implements grouped aggregation the
state-of-the-art way (Section 5.1): sort the input by key, then reduce
the sorted segments.  Experiment 2 shows its cost is dominated by the
sort, independent of the group count — this module reproduces that by
charging a multi-pass radix sort.
"""

from __future__ import annotations

import numpy as np

from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import MemoryLevel

#: Radix sort digit width in bits (8-bit digits, the common choice).
_RADIX_BITS = 8
_INDEX_BYTES = 4


def radix_passes(n: int, low: int, high: int) -> int:
    """Number of radix passes over ``n`` keys in ``[low, high]``: a
    library sort (boost::compute) processes the full key width, so the
    cost is independent of the observed value range — which is why
    operator-at-a-time grouped aggregation is flat in the group count
    (Experiment 2)."""
    if n == 0:
        return 1
    bits = 32 if high < 2**31 and low >= -(2**31) else 64
    return bits // _RADIX_BITS


def charge_radix_sort(
    device: VirtualCoprocessor,
    n: int,
    key_bytes: int,
    passes: int,
    payload_bytes: int = 0,
    label: str = "sort",
) -> None:
    """Launch ``passes`` LSD radix passes over ``n`` (key, row-index)
    pairs: each streams the key and index arrays through GPU global
    memory twice (scatter included), carrying ``payload_bytes`` per
    element along."""
    element = key_bytes + _INDEX_BYTES + payload_bytes
    for rank in range(passes):
        meter = device.new_meter()
        meter.record_read(MemoryLevel.GLOBAL, n * element)
        meter.record_write(MemoryLevel.GLOBAL, n * element)
        meter.record_read(MemoryLevel.ONCHIP, n * 4)
        meter.record_write(MemoryLevel.ONCHIP, n * 4)
        meter.record_instructions(3 * n)
        device.launch(f"{label}.radix_pass{rank}", "sort", n, meter)


def device_radix_sort(
    device: VirtualCoprocessor,
    keys: np.ndarray,
    payload_bytes: int = 0,
    label: str = "sort",
) -> np.ndarray:
    """:func:`charge_radix_sort` for ``keys`` (0 ``payload_bytes`` when
    payloads are gathered afterwards); returns the sorting permutation."""
    keys = np.asarray(keys)
    low, high = (int(keys.min()), int(keys.max())) if len(keys) else (0, 0)
    passes = radix_passes(len(keys), low, high)
    charge_radix_sort(device, len(keys), keys.dtype.itemsize, passes, payload_bytes, label)
    return np.argsort(keys, kind="stable").astype(np.int64)


def charge_segmented_reduce(
    device: VirtualCoprocessor,
    n: int,
    value_bytes_per_row: int,
    num_groups: int,
    label: str = "reduce_segments",
) -> None:
    """Launch C1's segment-boundary detection + reduction kernels over
    ``n`` rows sorted by group code: one flags segment heads, one
    reduces each segment."""
    code_bytes = n * 4

    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, 2 * code_bytes)
    meter.record_write(MemoryLevel.GLOBAL, n)  # head flags (1 byte)
    meter.record_instructions(n)
    device.launch(f"{label}.head_flags", "reduce", n, meter)

    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, n * value_bytes_per_row + n)
    meter.record_write(MemoryLevel.GLOBAL, num_groups * value_bytes_per_row)
    meter.record_read(MemoryLevel.ONCHIP, n * value_bytes_per_row)
    meter.record_write(MemoryLevel.ONCHIP, n * value_bytes_per_row)
    meter.record_instructions(2 * n)
    device.launch(f"{label}.segment_reduce", "reduce", n, meter)


def device_segmented_reduce(
    device: VirtualCoprocessor,
    sorted_codes: np.ndarray,
    value_bytes_per_row: int,
    num_groups: int,
    label: str = "reduce_segments",
) -> None:
    """:func:`charge_segmented_reduce` for data already sorted by group
    code.  Only accounting — the caller computes the actual aggregates
    with :func:`repro.primitives.segmented.grouped_reduce`."""
    charge_segmented_reduce(device, len(sorted_codes), value_bytes_per_row, num_groups, label)
