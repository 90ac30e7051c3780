"""Prefix-sum primitives: the paper's techniques A1, A2, A3 (Table 4).

A prefix sum over selection flags yields the dense, unique write
positions of the "aligned write" phase.  The paper contrasts:

* **A1 — multi-pass** (pipeline breaker): a hierarchical device scan in
  its own kernels, with flags and prefix arrays materialized in GPU
  global memory (Section 4).
* **A2 — atomic prefix sum** (pipelined): ``wp = atom_add(&sum, 1)``
  per selected element, inside the compound kernel (Section 5.1).
  Unique but unordered positions; every selected element hits the same
  counter, so the same-address conflict chain equals the output size.
* **A3 — local resolution, global propagation** (pipelined): each CTA
  pre-scans its slice on-chip (work-efficient or SIMD mechanism), then
  a single atomic per thread group allocates a segment of output
  positions (Section 6.1, Figure 14).  Output is ordered within
  segments and semi-ordered between them.

A1 launches kernels on a device; A2/A3 record their cost into the
enclosing compound kernel's :class:`TrafficMeter`.
"""

from __future__ import annotations

import numpy as np

from ..hardware.device import VirtualCoprocessor
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .common import (
    DEFAULT_CTA_SIZE,
    exclusive_cumsum,
    log2_ceil,
    num_blocks,
    segment_exclusive_cumsum,
    segment_totals,
    semi_ordered_permutation,
)

_FLAG_BYTES = 4  # flags/prefix entries are 4-byte ints on the device


class ScanResult:
    """Write positions for the selected elements of a pipeline.

    ``positions[i]`` is the output slot of element ``i`` where
    ``flags[i]`` is true and -1 elsewhere; ``total`` is the number of
    selected elements.  Positions are a permutation of ``range(total)``.

    An ordered scan (:func:`reference_positions`) is a pure function of
    its flags, so it keeps the flags and computes ``positions`` on first
    read: only a materializing sink ever reads them, while every
    multi-pass pipeline needs ``total``.  An estimated scan is its
    ``total`` alone.
    """

    def __init__(
        self,
        total: int,
        positions: np.ndarray | None = None,
        flags: np.ndarray | None = None,
    ):
        self.total = total
        self._positions = positions
        self._flags = flags

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            self._positions = np.where(
                self._flags, exclusive_cumsum(self._flags), -1
            )
        return self._positions


def sequential_prefix_sum(flags) -> list[int]:
    """The paper's sequential reference loop (Section 5.1).

    Returns the dense write position per flagged element (-1 when the
    flag is false).  Used as the ground truth in tests.
    """
    positions = []
    running = 0
    for flag in flags:
        if flag:
            positions.append(running)
            running += 1
        else:
            positions.append(-1)
    return positions


def reference_positions(flags: np.ndarray) -> ScanResult:
    """Vectorized ordered positions (equivalent to A1's semantics)."""
    flags = np.asarray(flags, dtype=bool)
    return ScanResult(total=int(np.count_nonzero(flags)), flags=flags)


# ----------------------------------------------------------------------
# A1 — multi-pass hierarchical scan (pipeline breaker)
# ----------------------------------------------------------------------
def charge_device_scan(
    device: VirtualCoprocessor,
    n: int,
    cta_size: int = DEFAULT_CTA_SIZE,
    label: str = "prefix_sum",
) -> None:
    """Launch the classic three-kernel Blelloch-style hierarchical scan
    over ``n`` flags (block scan, scan of block totals, offset add), each
    reading and writing GPU global memory — exactly the round trips the
    compound kernel eliminates."""
    blocks = num_blocks(n, cta_size)
    flag_bytes = n * _FLAG_BYTES
    block_bytes = blocks * _FLAG_BYTES

    # Kernel 1: per-block scan; reads flags, writes partial prefix and
    # block totals.
    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, flag_bytes)
    meter.record_write(MemoryLevel.GLOBAL, flag_bytes + block_bytes)
    meter.record_read(MemoryLevel.ONCHIP, 2 * flag_bytes)
    meter.record_write(MemoryLevel.ONCHIP, 2 * flag_bytes)
    meter.record_instructions(2 * n)
    meter.record_barrier(blocks * 2 * log2_ceil(cta_size))
    device.launch(f"{label}.block_scan", "prefix_sum", n, meter)

    # Kernel 2: scan the block totals (single block; recursion depth 1
    # suffices for every size we simulate, cost is proportional anyway).
    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, block_bytes)
    meter.record_write(MemoryLevel.GLOBAL, block_bytes)
    meter.record_instructions(2 * blocks)
    device.launch(f"{label}.block_totals", "prefix_sum", blocks, meter)

    # Kernel 3: add block offsets to the partial prefix sums.
    meter = device.new_meter()
    meter.record_read(MemoryLevel.GLOBAL, flag_bytes + block_bytes)
    meter.record_write(MemoryLevel.GLOBAL, flag_bytes)
    meter.record_instructions(n)
    device.launch(f"{label}.offset_add", "prefix_sum", n, meter)


def device_scan(
    device: VirtualCoprocessor,
    flags: np.ndarray,
    cta_size: int = DEFAULT_CTA_SIZE,
    label: str = "prefix_sum",
) -> ScanResult:
    """:func:`charge_device_scan` over ``flags``, and their positions."""
    flags = np.asarray(flags, dtype=bool)
    charge_device_scan(device, len(flags), cta_size, label)
    return reference_positions(flags)


# ----------------------------------------------------------------------
# A2 — atomic prefix sum (fully pipelined, no local resolution)
# ----------------------------------------------------------------------
def charge_atomic_positions(meter: TrafficMeter, n: int, total: int) -> None:
    """A2's charge: ``total`` of ``n`` threads add to one counter."""
    meter.record_atomics(AtomicBatch(count=total, max_chain=total))
    meter.record_instructions(n)


def atomic_positions(
    meter: TrafficMeter,
    flags: np.ndarray,
    rng: np.random.Generator,
) -> ScanResult:
    """``if (is_selected) wp = atom_add(&sum, 1)`` (Section 5.1).

    Every selected element performs one atomic add on the *same*
    global counter, so the conflict chain length equals the output
    cardinality — the bottleneck Experiment 1 exposes at high
    selectivity.  Returned positions are unique but unordered.
    """
    flags = np.asarray(flags, dtype=bool)
    total = int(np.count_nonzero(flags))
    charge_atomic_positions(meter, len(flags), total)
    positions = np.full(len(flags), -1, dtype=np.int64)
    if total:
        order = rng.permutation(total).astype(np.int64)
        positions[np.flatnonzero(flags)] = order
    return ScanResult(positions=positions, total=total)


# ----------------------------------------------------------------------
# Decoupled look-back (Merrill & Garland), for comparison (Section 10)
# ----------------------------------------------------------------------
def charge_lookback_scan(
    meter: TrafficMeter,
    n: int,
    cta_size: int = DEFAULT_CTA_SIZE,
    lookback_window: int = 4,
    item_bytes: int = _FLAG_BYTES,
) -> None:
    """Charge an *ordered* single-pass prefix scan over ``n`` items of
    ``item_bytes`` to the enclosing kernel: the CTA-local scan on chip,
    then one global propagation per CTA by decoupled look-back.

    Shared by :func:`lookback_positions` and by the register decode of
    a ``delta`` column (:func:`repro.compression.register_decode`),
    whose values are an ordered prefix sum over the packed differences.
    """
    blocks = num_blocks(n, cta_size)
    # Local scan (same on-chip work as work-efficient local resolution).
    scan_steps = 2 * log2_ceil(cta_size)
    meter.record_read(MemoryLevel.ONCHIP, scan_steps * n * item_bytes)
    meter.record_write(MemoryLevel.ONCHIP, scan_steps * n * item_bytes)
    meter.record_instructions((scan_steps + 1) * n)
    meter.record_barrier(blocks * scan_steps)
    # Publish per-CTA aggregate + status flag, then look back: on
    # average each CTA re-reads `lookback_window` predecessor entries
    # (8-byte descriptor) before composing its inclusive prefix.
    descriptor = 8
    meter.record_write(MemoryLevel.GLOBAL, blocks * descriptor)
    meter.record_read(MemoryLevel.GLOBAL, blocks * lookback_window * descriptor)
    meter.record_instructions(blocks * lookback_window)


def lookback_positions(
    meter: TrafficMeter,
    flags: np.ndarray,
    rng: np.random.Generator,
    cta_size: int = DEFAULT_CTA_SIZE,
    lookback_window: int = 4,
) -> ScanResult:
    """Single-pass scan with decoupled look-back (related work, §10).

    Each CTA publishes its aggregate to global memory, then *looks
    back* over predecessors' published state to compose its exclusive
    prefix — no atomics, but every CTA spins on global-memory flags of
    its predecessors.  The paper contrasts this with local resolution,
    global propagation, which trades those re-reads for one atomic per
    group and gains out-of-order freedom.

    Output positions are strictly ordered (unlike A2/A3).
    """
    flags = np.asarray(flags, dtype=bool)
    charge_lookback_scan(meter, len(flags), cta_size, lookback_window)
    return reference_positions(flags)


# ----------------------------------------------------------------------
# A3 — local resolution, global propagation
# ----------------------------------------------------------------------
def charge_lrgp_positions(
    meter: TrafficMeter,
    n: int,
    profile: DeviceProfile,
    mechanism: str = "simd",
    cta_size: int = DEFAULT_CTA_SIZE,
) -> int:
    """A3's charge for ``n`` threads — it does not depend on how many
    are selected.  Returns the thread-group size.

    ``mechanism`` selects the local-resolution algorithm (Figure 15):

    * ``"work_efficient"`` — Blelloch tree scan over the whole CTA;
      ``2*log2(cta_size)`` barrier generations, one atomic per CTA.
    * ``"simd"`` — warp/wavefront scan (Sengupta et al.); no barriers,
      one atomic per SIMD group of ``profile.simd_width`` threads.
    """
    if mechanism == "work_efficient":
        group = cta_size
        scan_steps = 2 * log2_ceil(group)
        meter.record_barrier(num_blocks(n, group) * scan_steps)
    elif mechanism == "simd":
        group = profile.simd_width
        scan_steps = log2_ceil(group)
    else:
        raise ValueError(f"unknown local resolution mechanism {mechanism!r}")

    groups = num_blocks(n, group)
    # On-chip traffic of the local scan (registers + scratchpad).
    meter.record_read(MemoryLevel.ONCHIP, scan_steps * n * _FLAG_BYTES)
    meter.record_write(MemoryLevel.ONCHIP, scan_steps * n * _FLAG_BYTES)
    meter.record_instructions((scan_steps + 1) * n)
    # Global propagation: one atomic add per thread group, all on the
    # same global counter.
    meter.record_atomics(AtomicBatch(count=groups, max_chain=groups))
    return group


def lrgp_positions(
    meter: TrafficMeter,
    flags: np.ndarray,
    profile: DeviceProfile,
    rng: np.random.Generator,
    mechanism: str = "simd",
    cta_size: int = DEFAULT_CTA_SIZE,
) -> ScanResult:
    """Local resolution, global propagation: :func:`charge_lrgp_positions`."""
    flags = np.asarray(flags, dtype=bool)
    n = len(flags)
    group = charge_lrgp_positions(meter, n, profile, mechanism, cta_size)
    groups = num_blocks(n, group)

    totals = segment_totals(flags.astype(np.int64), group)
    local = segment_exclusive_cumsum(flags.astype(np.int64), group)
    # Undefined (but local) group completion order -> semi-ordered output.
    order = semi_ordered_permutation(groups, rng)
    global_offsets = np.empty(groups, dtype=np.int64)
    global_offsets[order] = exclusive_cumsum(totals[order])
    element_group = np.arange(n, dtype=np.int64) // group
    positions = np.where(flags, global_offsets[element_group] + local, -1)
    return ScanResult(positions=positions, total=int(np.count_nonzero(flags)))
