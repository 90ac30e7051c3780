"""Single-tuple aggregation primitives: techniques B1, B2, B3 (Table 4).

A single-tuple aggregation (``SUM(...)`` without ``GROUP BY``) reduces
all qualifying elements to one value.  The three implementations mirror
the prefix-sum family:

* **B1 — multi-pass reduce** (pipeline breaker): hierarchical two-kernel
  tree reduction over materialized input.
* **B2 — atomic reduce** (pipelined): one atomic read-modify-write per
  qualifying element on a single global accumulator.
* **B3 — local resolution reduce** (pipelined): on-chip pre-reduction
  per thread group, then one atomic per group (Appendix G.1).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExpressionError
from ..hardware.device import VirtualCoprocessor
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .common import DEFAULT_CTA_SIZE, log2_ceil, num_blocks

_AGG_FUNCTIONS = {
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
}

#: Identity elements, used when the qualifying set is empty.
_IDENTITY = {"sum": 0, "count": 0, "min": None, "max": None}


def reduce_reference(values: np.ndarray, op: str):
    """Ground-truth reduction used by tests and by all simulations."""
    if op == "count":
        return int(len(values))
    if op not in _AGG_FUNCTIONS:
        raise ExpressionError(f"unknown aggregate {op!r}")
    if len(values) == 0:
        return _IDENTITY[op]
    return _AGG_FUNCTIONS[op](values)


# ----------------------------------------------------------------------
# B1 — multi-pass hierarchical reduction
# ----------------------------------------------------------------------
def charge_device_reduce(
    device: VirtualCoprocessor,
    n: int,
    item: int,
    cta_size: int = DEFAULT_CTA_SIZE,
    label: str = "reduce",
) -> None:
    """Launch B1's two kernels for ``n`` values of ``item`` bytes.  The
    charge depends on the count alone, so a caller that already holds
    the result (or needs none) reduces nothing."""
    blocks = num_blocks(n, cta_size)

    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, n * item)
    meter.record_write(MemoryLevel.GLOBAL, blocks * item)
    meter.record_read(MemoryLevel.ONCHIP, n * item)
    meter.record_write(MemoryLevel.ONCHIP, n * item)
    meter.record_instructions(n)
    meter.record_barrier(blocks * log2_ceil(cta_size))
    device.launch(f"{label}.block_reduce", "reduce", n, meter)

    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, blocks * item)
    meter.record_write(MemoryLevel.GLOBAL, item)
    meter.record_instructions(blocks)
    device.launch(f"{label}.final_reduce", "reduce", blocks, meter)


def device_reduce(
    device: VirtualCoprocessor,
    values: np.ndarray,
    op: str = "sum",
    cta_size: int = DEFAULT_CTA_SIZE,
    label: str = "reduce",
):
    """Two-kernel tree reduction over device-resident data (B1)."""
    values = np.asarray(values)
    charge_device_reduce(device, len(values), values.dtype.itemsize, cta_size, label)
    return reduce_reference(values, op)


# ----------------------------------------------------------------------
# B2 — atomic reduce (inside a compound kernel)
# ----------------------------------------------------------------------
def charge_atomic_reduce(meter: TrafficMeter, count: int) -> None:
    """B2's charge for ``count`` qualifying elements.

    Unlike the atomic prefix sum, the returned value is not consumed by
    later pipeline work, which relaxes the dependency; the hardware can
    stream-aggregate these.  We still charge the full conflict chain —
    the paper attributes the Kepler/Maxwell difference in Appendix G.1
    to exactly this pressure.
    """
    meter.record_atomics(AtomicBatch(count=count, max_chain=count, kind="add"))
    meter.record_instructions(count)


def atomic_reduce(meter: TrafficMeter, values: np.ndarray, op: str = "sum"):
    """One atomic RMW per qualifying element on a global accumulator."""
    values = np.asarray(values)
    charge_atomic_reduce(meter, len(values))
    return reduce_reference(values, op)


# ----------------------------------------------------------------------
# B3 — local resolution, global propagation reduce
# ----------------------------------------------------------------------
def charge_lrgp_reduce(
    meter: TrafficMeter,
    n: int,
    item: int,
    profile: DeviceProfile,
    mechanism: str = "simd",
    cta_size: int = DEFAULT_CTA_SIZE,
) -> None:
    """B3's charge for ``n`` qualifying elements of ``item`` bytes."""
    item = max(item, 4)
    if mechanism == "work_efficient":
        group = cta_size
        steps = log2_ceil(group)
        meter.record_barrier(num_blocks(n, group) * steps)
    elif mechanism == "simd":
        group = profile.simd_width
        steps = log2_ceil(group)
    else:
        raise ValueError(f"unknown local resolution mechanism {mechanism!r}")

    groups = num_blocks(n, group)
    meter.record_read(MemoryLevel.ONCHIP, steps * n * item)
    meter.record_write(MemoryLevel.ONCHIP, steps * n * item)
    meter.record_instructions((steps + 1) * n)
    meter.record_atomics(AtomicBatch(count=groups, max_chain=groups, kind="add"))


def lrgp_reduce(
    meter: TrafficMeter,
    values: np.ndarray,
    profile: DeviceProfile,
    op: str = "sum",
    mechanism: str = "simd",
    cta_size: int = DEFAULT_CTA_SIZE,
):
    """On-chip pre-reduction, then one atomic per thread group (B3)."""
    values = np.asarray(values)
    charge_lrgp_reduce(
        meter, len(values), values.dtype.itemsize, profile, mechanism, cta_size
    )
    return reduce_reference(values, op)
