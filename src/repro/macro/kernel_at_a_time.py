"""A real kernel-at-a-time executor (Figure 3), not just the analysis.

"To process large data on coprocessors, we can execute each kernel on
blocks of data ... Blocks are first moved via PCIe from the host to
the coprocessor and then read by the kernel from GPU global memory
(output passes both levels vice-versa)" (Section 2.2).

This executor runs the operator-at-a-time micro model on a device
whose launcher streams every kernel's non-hash-table I/O over the PCIe
link: kernel inputs arrive host→device right before the launch, kernel
outputs return device→host right after. Hash-table state (builds,
probes, aggregation tables) stays resident, exactly as the paper's
accounting assumes. The result is an end-to-end time where PCIe
dominates — Figure 5a's ~350 ms vs ~58 ms story, executable.
"""

from __future__ import annotations

from ..engines.base import ExecutionResult
from ..engines.operator_at_a_time import OperatorAtATimeEngine
from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import KernelTrace, MemoryLevel, TrafficMeter
from ..plan.logical import LogicalPlan
from ..storage.database import Database


class _StreamingDevice(VirtualCoprocessor):
    """A device that moves each kernel's I/O over PCIe (Figure 3)."""

    def transfer_to_device(self, arrays, label: str = "", **_link_accounting):
        """No up-front column loads in this model: the first kernel that
        reads a column streams it (charged at launch below)."""

    def launch(
        self,
        name: str,
        kind: str,
        elements: int,
        meter: TrafficMeter,
        occupancy: float = 1.0,
    ) -> KernelTrace:
        h2d = meter.reads[MemoryLevel.GLOBAL] - meter.table_read_bytes
        d2h = meter.writes[MemoryLevel.GLOBAL] - meter.table_write_bytes
        if h2d > 0:
            self.record_stream_transfer(h2d, "h2d", label=f"{name}.in")
        trace = super().launch(name, kind, elements, meter, occupancy=occupancy)
        if d2h > 0:
            self.record_stream_transfer(d2h, "d2h", label=f"{name}.out")
        return trace


class KernelAtATimeExecutor:
    """Operator-at-a-time with per-kernel PCIe streaming (Figure 3).

    Only hash tables persist on the device, so scalability is bounded
    by their size alone — the model's advantage — while every other
    byte crosses the link once per kernel — its downfall.
    """

    name = "kernel-at-a-time"

    def __init__(self):
        self._engine = OperatorAtATimeEngine()

    def execute(
        self,
        plan: LogicalPlan,
        database: Database,
        device: VirtualCoprocessor,
        seed: int = 42,
    ) -> ExecutionResult:
        streaming = _StreamingDevice(device.profile, interconnect=device.interconnect)
        result = self._engine.execute(plan, database, streaming, seed=seed)
        result.engine = self.name
        return result
