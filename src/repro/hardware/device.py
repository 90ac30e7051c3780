"""The virtual coprocessor: allocator, transfer engine, kernel launcher.

This is the substrate that stands in for the paper's physical GPUs.  It
does three jobs:

1. **Capacity accounting** — device buffers are allocated against the
   profile's memory capacity; exceeding it raises
   :class:`~repro.errors.DeviceMemoryError`, which is how the
   run-to-finish macro model fails to scale (Section 2.1).
2. **Transfer simulation** — host<->device copies are timed with the
   interconnect model and logged (the PCIe volumes of Figure 5).
3. **Kernel launch simulation** — a kernel is a completed
   :class:`TrafficMeter`; the cost model converts it into simulated
   milliseconds and the launch is appended to the device profile log.

The actual *data* lives in ordinary numpy arrays; "device resident" is a
bookkeeping property.  That keeps computation exact while the memory
system is simulated.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import AllocationError, DeviceLostError, DeviceMemoryError
from .costmodel import KernelCostModel
from .interconnect import PCIE3, Interconnect
from .profiles import DeviceProfile
from .traffic import KernelTrace, Profile, TrafficMeter, TransferRecord


def link_record(
    interconnect: Interconnect | None,
    nbytes: int,
    direction: str,
    label: str = "",
    raw_nbytes: int = 0,
    codec: str = "",
) -> TransferRecord:
    """The log entry of moving ``nbytes`` over ``interconnect`` — free on
    a zero-copy device (``None``), which keeps them as ``raw_nbytes``."""
    if interconnect is None:
        return TransferRecord(0, direction, 0.0, label, raw_nbytes=nbytes)
    seconds = interconnect.transfer_time(nbytes, direction)
    return TransferRecord(nbytes, direction, seconds * 1e3, label, raw_nbytes, codec)


@dataclass
class DeviceBuffer:
    """A numpy array accounted as resident in device global memory.

    ``pooled`` marks buffers owned by a cross-query
    :class:`~repro.placement.BufferPool`: they survive
    :meth:`VirtualCoprocessor.begin_query` /
    :meth:`VirtualCoprocessor.release_transient`, which reclaim all
    per-query (transient) allocations.
    """

    array: np.ndarray
    device: "VirtualCoprocessor"
    label: str = ""
    freed: bool = field(default=False, compare=False)
    pooled: bool = field(default=False, compare=False)

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def __len__(self) -> int:
        return len(self.array)

    def free(self) -> None:
        self.device.free(self)


class VirtualCoprocessor:
    """A simulated GPU-style coprocessor with a memory hierarchy.

    Parameters
    ----------
    profile:
        Static hardware description (bandwidths, capacities, ...).
    interconnect:
        Host link model.  Ignored (forced to ``None``) for zero-copy
        devices such as the A10 APU, which access host memory directly.
    """

    def __init__(self, profile: DeviceProfile, interconnect: Interconnect | None = PCIE3):
        self.profile = profile
        self.interconnect = None if profile.zero_copy else interconnect
        self.cost_model = KernelCostModel(profile)
        #: False once the device has dropped out (injected fault or real
        #: failure): allocations, transfers, and launches raise
        #: :class:`~repro.errors.DeviceLostError`; the cleanup paths
        #: (``free``/``release_transient``) keep working so failure
        #: handling can reclaim transient buffers.
        self.alive = True
        self.allocated_bytes = 0
        self.peak_allocated = 0
        #: Bytes held by pooled (cross-query resident) buffers.
        self.pooled_bytes = 0
        self.log = Profile()
        self._live_buffers: dict[int, DeviceBuffer] = {}
        #: Buffer pool attached to this device (set by
        #: :class:`~repro.placement.BufferPool`); engines route base
        #: column loads through it when present.
        self.placement_pool = None
        #: Called with the byte shortfall when an allocation would
        #: exceed capacity; a buffer pool hooks this to evict resident
        #: columns before the allocation is retried.
        self.pressure_callback = None
        #: Called by :meth:`reset_all` so an attached pool can drop its
        #: residency bookkeeping along with the device accounting.
        self.reset_callback = None
        #: Called by :meth:`mark_lost`: what a pool kept of work this
        #: device did (built hash tables) does not outlive it.
        self.lost_callback = None
        #: Optional :class:`~repro.compression.CompressionPolicy`: when
        #: set, transfer points ship compressed wire bytes over the
        #: interconnect and charge decode kernels on arrival.  ``None``
        #: (the default) moves raw bytes, exactly as before.
        self.compression = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, array: np.ndarray, label: str = "", pooled: bool = False) -> DeviceBuffer:
        """Account ``array`` as a device-resident buffer.

        When the allocation would exceed capacity and a
        ``pressure_callback`` is installed, it is given one chance to
        reclaim memory (evict unpinned pooled buffers) before
        :class:`~repro.errors.DeviceMemoryError` is raised.
        """
        self._check_alive()
        nbytes = array.nbytes
        available = self.profile.memory_capacity - self.allocated_bytes
        if nbytes > available and self.pressure_callback is not None:
            self.pressure_callback(nbytes - available)
            available = self.profile.memory_capacity - self.allocated_bytes
        if nbytes > available:
            raise DeviceMemoryError(nbytes, available, self.profile.memory_capacity)
        buffer = DeviceBuffer(array=array, device=self, label=label, pooled=pooled)
        self.allocated_bytes += nbytes
        if pooled:
            self.pooled_bytes += nbytes
        self.peak_allocated = max(self.peak_allocated, self.allocated_bytes)
        self._live_buffers[id(buffer)] = buffer
        self.log.taped("allocate", buffer)
        return buffer

    def allocate_empty(self, shape, dtype, label: str = "") -> DeviceBuffer:
        return self.allocate(np.empty(shape, dtype=dtype), label=label)

    def free(self, buffer: DeviceBuffer) -> None:
        if buffer.freed:
            raise AllocationError(f"double free of device buffer {buffer.label!r}")
        if id(buffer) not in self._live_buffers:
            raise AllocationError("buffer does not belong to this device")
        buffer.freed = True
        del self._live_buffers[id(buffer)]
        self.log.taped("free", buffer)
        self.allocated_bytes -= buffer.nbytes
        if buffer.pooled:
            self.pooled_bytes -= buffer.nbytes

    def keep_resident(self, buffer: DeviceBuffer) -> None:
        """Hand a live transient buffer over to the attached pool: from
        here on it survives :meth:`release_transient` and counts in
        :attr:`pooled_bytes` (how a hash table a query built becomes a
        pool resident without being allocated twice)."""
        if buffer.freed or buffer.pooled or id(buffer) not in self._live_buffers:
            raise AllocationError(
                f"only a live transient buffer can become resident: {buffer.label!r}"
            )
        buffer.pooled = True
        self.pooled_bytes += buffer.nbytes

    @property
    def resident_bytes(self) -> int:
        """Bytes pinned across queries by an attached buffer pool."""
        return self.pooled_bytes

    def release_transient(self, keep: frozenset | None = None) -> None:
        """Free every live buffer that is not pool-owned.

        Engines call this at the end of a query: per-query scratch and
        every hash table no pool took over (:meth:`keep_resident`) are
        reclaimed, while pooled base columns and build sides stay
        resident for the next query.

        ``keep`` (a :meth:`transient_snapshot`) limits the sweep to
        buffers allocated *after* the snapshot — the failure-path
        cleanup of one morsel attempt, which must not reclaim the
        build-side hash tables earlier pipelines left on the device.
        """
        for buffer in [b for b in self._live_buffers.values() if not b.pooled]:
            if keep is not None and id(buffer) in keep:
                continue
            self.free(buffer)

    def transient_snapshot(self) -> frozenset:
        """An opaque snapshot of the currently live buffers, for
        scoped failure cleanup via ``release_transient(keep=...)``."""
        return frozenset(self._live_buffers)

    @contextlib.contextmanager
    def scoped(self, *buffers: DeviceBuffer):
        """Free the given buffers when the scope exits."""
        try:
            yield buffers
        finally:
            for buffer in buffers:
                if not buffer.freed:
                    self.free(buffer)

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer_to_device(
        self, arrays, label: str = "", raw_nbytes: int = 0, codec: str = ""
    ) -> None:
        """Fill the device buffers allocated for the host ``arrays`` as
        ONE h2d transfer (PCIe, or free on APUs), so a load pays the link
        latency once however many buffers it fills; ``raw_nbytes`` /
        ``codec`` label arrays among them that are compressed wire
        images."""
        nbytes = sum(array.nbytes for array in arrays)
        self.record_stream_transfer(nbytes, "h2d", label, raw_nbytes, codec)

    def transfer_to_host(self, buffer: DeviceBuffer, label: str = "") -> np.ndarray:
        """Move a device buffer back to the host and free it."""
        array = buffer.array
        self.record_stream_transfer(array.nbytes, "d2h", label or buffer.label)
        self.free(buffer)
        return array

    def record_stream_transfer(
        self,
        nbytes: int,
        direction: str,
        label: str = "",
        raw_nbytes: int = 0,
        codec: str = "",
    ) -> None:
        """Log a transfer; on its own, one that is not device-resident
        afterwards (batch processing blocks, consumed and discarded)."""
        self._check_alive()
        self.log.append(
            link_record(self.interconnect, nbytes, direction, label, raw_nbytes, codec)
        )

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def new_meter(self) -> TrafficMeter:
        return TrafficMeter()

    def launch(
        self,
        name: str,
        kind: str,
        elements: int,
        meter: TrafficMeter,
        occupancy: float = 1.0,
    ) -> KernelTrace:
        """Record one kernel launch and assign its simulated time."""
        self._check_alive()
        trace = self.cost_model.trace(name, kind, elements, meter, occupancy)
        self.log.append(trace)
        self.log.taped("launch", trace, occupancy)
        return trace

    def relaunch(self, trace: KernelTrace, occupancy: float = 1.0) -> KernelTrace:
        """Launch what ``trace`` charged again (a replay), priced here."""
        return self.launch(trace.name, trace.kind, trace.elements, trace.meter, occupancy)

    @contextlib.contextmanager
    def fusing(self):
        """Queue, unpriced and unlogged, the kernels launched inside: a
        member of a fused group (``Engine.run_fused``) hands its phases
        to the group, which launches each phase once over the members'
        merged meters.  Yields the queue."""
        queued: list[KernelTrace] = []

        def queue(name, kind, elements, meter, occupancy=1.0) -> KernelTrace:
            self._check_alive()
            queued.append(KernelTrace(name, kind, elements, meter))
            self.log.taped("launch", queued[-1], occupancy)
            return queued[-1]

        self.launch = queue
        try:
            yield queued
        finally:
            del self.launch

    # ------------------------------------------------------------------
    # liveness (fault injection / recovery)
    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if not self.alive:
            raise DeviceLostError(self.profile.name)

    def mark_lost(self, detail: str = "") -> None:
        """Drop the device out of service: every subsequent allocation,
        transfer, or launch raises :class:`~repro.errors.DeviceLostError`
        until :meth:`revive` (a new query on a recovered fleet)."""
        self.alive = False
        if self.lost_callback is not None:
            self.lost_callback()

    def revive(self) -> None:
        """Return a lost device to service (fleet recovery between
        queries); allocation accounting is left untouched."""
        self.alive = True

    def stall(self, delay_ms: float, label: str = "stall") -> None:
        """Charge an artificial delay to this device's simulated clock
        (a zero-byte log entry: stragglers slow the device down without
        moving data).  Used by the fault-injection layer."""
        self._check_alive()
        if delay_ms < 0:
            raise ValueError(f"stall delay must be >= 0, got {delay_ms}")
        self.log.append(
            TransferRecord(nbytes=0, direction="stall", time_ms=delay_ms, label=label)
        )

    # ------------------------------------------------------------------
    # baselines & bookkeeping
    # ------------------------------------------------------------------
    def pcie_baseline_ms(self, h2d_bytes: int, d2h_bytes: int) -> float:
        """The dashed 'PCIe transfer' baseline of every evaluation figure.

        Zero-copy devices stream the same volume through main memory
        instead, so the baseline uses their memory bandwidth.
        """
        if self.interconnect is None:
            total = h2d_bytes + d2h_bytes
            return total / (self.profile.global_bandwidth * 1e9) * 1e3
        return self.interconnect.balanced_time(h2d_bytes, d2h_bytes) * 1e3

    def memory_bound_ms(self, nbytes: int) -> float:
        """The solid 'memory bound' baseline (input+output streamed once)."""
        return self.cost_model.memory_bound_time(nbytes) * 1e3

    def reset(self) -> None:
        """Clear the profiler log (allocations are left untouched)."""
        self.log = Profile()

    def begin_query(self) -> None:
        """Start a fresh query: clear the profiler log and reclaim
        transient allocations, keeping pooled buffers resident."""
        self.release_transient()
        self.log = Profile()
        self.peak_allocated = self.allocated_bytes

    def reset_all(self) -> None:
        """Clear the profiler log and ALL allocation accounting —
        including pool-resident buffers (the attached pool, if any, is
        notified so its bookkeeping stays consistent)."""
        self.log = Profile()
        self.allocated_bytes = 0
        self.peak_allocated = 0
        self.pooled_bytes = 0
        for buffer in self._live_buffers.values():
            buffer.freed = True
        self._live_buffers.clear()
        if self.reset_callback is not None:
            self.reset_callback()
