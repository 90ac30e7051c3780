"""Scale-out execution statistics.

``ScaleOutStats.recovery`` embeds the per-query
:class:`~repro.faults.recovery.RecoveryStats` (itself import-light) so
every result of the recovering executor carries its fault accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.recovery import RecoveryStats
from ..hardware.traffic import LogSlice, Profile


@dataclass
class DeviceShare:
    """One device's share of a scale-out execution: the morsels it ran,
    and its link bytes and times as read off its device's log of each
    turn it took (one per recovery wave it ran in)."""

    device: int
    #: Fact morsels this device executed.
    morsels: int = 0
    #: Fact rows this device scanned.
    rows: int = 0

    #: Not fields (``asdict`` / ``==`` / ``repr`` carry the executor's
    #: own facts only): the device's log of each turn, in wave order,
    #: and the record index of the first fact morsel — in each log the
    #: h2d before it is the broadcast build sides', the rest partitions'.
    logs = ()
    first_morsel = 0

    @property
    def input_bytes(self) -> int:
        """Total PCIe h2d bytes this device paid."""
        return sum(log.moved_bytes("h2d") for log in self.logs)

    @property
    def broadcast_bytes(self) -> int:
        """h2d bytes of the build sides, broadcast to every device."""
        return sum(self._broadcast(log) for log in self.logs)

    @property
    def partition_bytes(self) -> int:
        """h2d bytes of this device's (disjoint) fact partitions."""
        return self.input_bytes - self.broadcast_bytes

    @property
    def gather_bytes(self) -> int:
        """d2h bytes of the partial results gathered back to the host."""
        return sum(log.moved_bytes("d2h") for log in self.logs)

    @property
    def kernel_ms(self) -> float:
        return sum(log.kernel_time_ms for log in self.logs)

    @property
    def transfer_ms(self) -> float:
        return sum(log.transfer_time_ms for log in self.logs)

    @property
    def busy_ms(self) -> float:
        """Simulated busy time (kernels + transfers) on this device."""
        return sum(log.total_time_ms for log in self.logs)

    @property
    def pcie_bytes(self) -> int:
        """Total bytes over this device's link (h2d + d2h)."""
        return self.input_bytes + self.gather_bytes

    def _broadcast(self, log: Profile) -> int:
        morsels = [r for r in log.pipelines if (r.index or 0) >= self.first_morsel]
        mark = morsels[0].marks[1] if morsels else len(log.transfers)
        return LogSlice(transfers=log.transfers[:mark]).moved_bytes("h2d")


@dataclass
class ScaleOutStats:
    """Fleet-level accounting, attached as ``ExecutionResult.scaleout``."""

    devices: int
    partitions: int
    scheme: str
    fact_table: str | None
    shares: list[DeviceShare] = field(default_factory=list)
    #: Host-side scatter-gather merge time (wall clock).
    merge_ms: float = 0.0
    #: True when the query could not be partitioned (virtual-table
    #: final pipeline) and ran whole on one device instead.
    fallback: bool = False
    #: Per-query fault/recovery accounting (``None`` on the
    #: unpartitioned fallback path, which bypasses the morsel recovery
    #: machinery).
    recovery: RecoveryStats | None = None

    # ------------------------------------------------------------------
    @property
    def makespan_ms(self) -> float:
        """Parallel completion time: the busiest device's clock."""
        return max((share.busy_ms for share in self.shares), default=0.0)

    @property
    def serial_ms(self) -> float:
        """Total device work (what one device would have to do)."""
        return sum(share.busy_ms for share in self.shares)

    @property
    def imbalance(self) -> float:
        """makespan / mean busy over participating devices (1.0 = even)."""
        active = [share.busy_ms for share in self.shares if share.busy_ms > 0]
        if not active:
            return 1.0
        return max(active) / (sum(active) / len(active))

    @property
    def input_bytes(self) -> int:
        return sum(share.input_bytes for share in self.shares)

    @property
    def gather_bytes(self) -> int:
        return sum(share.gather_bytes for share in self.shares)

    @property
    def broadcast_overhead_bytes(self) -> int:
        """Extra h2d bytes paid for duplicating the build sides beyond
        the one copy a single device would transfer."""
        per_device = [share.broadcast_bytes for share in self.shares if share.morsels]
        if not per_device:
            return 0
        return sum(per_device) - max(per_device)

    def summary(self) -> str:
        mode = "fallback (unpartitionable final pipeline)" if self.fallback else (
            f"{self.partitions} {self.scheme} partitions of {self.fact_table}"
        )
        text = (
            f"{self.devices} devices, {mode}; "
            f"makespan {self.makespan_ms:.3f} ms "
            f"(serial {self.serial_ms:.3f} ms, imbalance {self.imbalance:.2f}), "
            f"broadcast overhead {self.broadcast_overhead_bytes / 1e6:.2f} MB, "
            f"gather {self.gather_bytes / 1e3:.1f} KB"
        )
        if self.recovery is not None and self.recovery.faulted:
            text += f"; recovery: {self.recovery.summary()}"
        return text
