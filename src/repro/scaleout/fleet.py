"""A fleet of virtual devices for data-parallel execution.

Each fleet member is a fully independent :class:`VirtualCoprocessor`
with its **own** :class:`~repro.hardware.profiles.DeviceProfile` copy,
its own simulated clock (the device profile log), and — when residency
is enabled — its own :class:`~repro.placement.BufferPool`, mirroring
how the serving layer gives every worker a private device (profiler
state is per-query and must not be shared across concurrent work).
"""

from __future__ import annotations

from dataclasses import replace

from ..hardware.device import VirtualCoprocessor
from ..hardware.interconnect import PCIE3, Interconnect
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import sum_stats
from ..placement import BufferPool
from ..placement.stats import PlacementStats


class DeviceFleet:
    """N private virtual devices (and optional per-device pools)."""

    def __init__(
        self,
        profile: DeviceProfile,
        count: int,
        interconnect: Interconnect = PCIE3,
        residency: bool = False,
        compression=None,
    ):
        if count < 1:
            raise ValueError("fleet needs at least one device")
        self.profile = profile
        self.compression = compression
        self.devices = [
            VirtualCoprocessor(replace(profile), interconnect=interconnect)
            for _ in range(count)
        ]
        for device in self.devices:
            device.compression = compression
        self.pools: list[BufferPool | None] = [
            BufferPool(device) if residency else None for device in self.devices
        ]
        self._interconnect = interconnect
        #: Reserve device for the host out-of-core fallback (created on
        #: first use): when every fleet member is lost mid-query, the
        #: whole query re-runs through the streaming
        #: :class:`~repro.macro.batch.BatchExecutor` on this device,
        #: modeling the host-managed degradation path.
        self._host_device: VirtualCoprocessor | None = None

    def __len__(self) -> int:
        return len(self.devices)

    def revive_all(self) -> None:
        """Return every lost device to service (start-of-query recovery:
        an injected loss lasts for the query that suffered it)."""
        for device in self.devices:
            if not device.alive:
                device.revive()

    def host_device(self) -> VirtualCoprocessor:
        """The lazily created host-fallback device (no buffer pool:
        the fallback streams out-of-core and keeps nothing resident)."""
        if self._host_device is None:
            self._host_device = VirtualCoprocessor(
                replace(self.profile), interconnect=self._interconnect
            )
            self._host_device.compression = self.compression
        return self._host_device

    def begin_query(self, device_index: int) -> None:
        """Start a fresh query on one device: keep pool-resident
        buffers when residency is on, full reset otherwise."""
        device = self.devices[device_index]
        if self.pools[device_index] is not None:
            device.begin_query()
        else:
            device.reset_all()

    def placement_stats(self) -> PlacementStats | None:
        """Aggregated residency counters (None without residency)."""
        return sum_stats(pool.stats() for pool in self.pools if pool is not None)
