"""Kernel cost model: traffic + atomics + compute -> simulated time.

The paper's experiments report *kernel execution times* that are, for
well-behaved kernels, explained by GPU global memory traffic divided by
bandwidth, and for atomic-heavy kernels by pressure on the atomic
functional units (Sections 5.3 and 8.4).  We model one kernel launch as
a set of concurrently streaming resources; the slowest resource
determines execution time:

``time = launch_overhead + barrier_cost + max(memory, onchip, compute, atomics)``

where

* ``memory``  = global-memory bytes / global bandwidth,
* ``onchip``  = on-chip bytes / on-chip bandwidth,
* ``compute`` = instruction count / compute throughput,
* ``atomics`` = max(total atomics / atomic throughput,
  longest same-address conflict chain / same-address rate).

The max() mirrors how a GPU overlaps memory, ALU, and atomic traffic
across thousands of resident threads; the same-address chain term is the
serialization the paper attributes to pipelined prefix sums (Section
5.3) and contended aggregation hash tables (Experiment 2).
"""

from __future__ import annotations

from typing import NamedTuple

from .profiles import DeviceProfile
from .traffic import KernelTrace, MemoryLevel, TrafficMeter

#: Fraction of peak DRAM bandwidth each kernel kind achieves.
#:
#: The paper's operator-at-a-time baseline launches many small,
#: latency-bound primitive kernels; its kernel times exceed the pure
#: bandwidth estimate by factors of 2-4 ("compute and latencies further
#: increase the problem", Experiment 3).  Generated fused kernels
#: (count/write/compound) stream coalesced and reach close to peak —
#: Experiment 1 shows Resolution:SIMD hitting the memory-bound line.
#: These factors are calibration parameters (see DESIGN.md).
MEMORY_EFFICIENCY = {
    "compound": 1.0,
    "count": 0.95,
    "write": 0.95,
    "scan": 0.45,
    "map": 0.55,
    "probe": 0.40,
    "gather": 0.40,
    "build": 0.50,
    "prefix_sum": 0.50,
    "reduce": 0.50,
    "sort": 0.45,
}

DEFAULT_EFFICIENCY = 0.9

_GLOBAL, _ONCHIP = MemoryLevel.GLOBAL, MemoryLevel.ONCHIP


class CostBreakdown(NamedTuple):
    """Per-resource seconds for one kernel launch."""

    memory: float
    onchip: float
    compute: float
    atomics: float
    launch: float
    barriers: float

    @property
    def total(self) -> float:
        return self.launch + self.barriers + max(
            self.memory, self.onchip, self.compute, self.atomics
        )

    @property
    def bound_by(self) -> str:
        """Which streaming resource dominates the launch (the first of
        memory, onchip, compute, atomics on a tie)."""
        dominant, seconds = "memory", self.memory
        if self.onchip > seconds:
            dominant, seconds = "onchip", self.onchip
        if self.compute > seconds:
            dominant, seconds = "compute", self.compute
        if self.atomics > seconds:
            dominant, seconds = "atomics", self.atomics
        return "launch" if seconds < self.launch else dominant


class KernelCostModel:
    """Turns a :class:`TrafficMeter` into simulated seconds for a device."""

    def __init__(self, profile: DeviceProfile):
        self.profile = profile

    def breakdown(
        self, meter: TrafficMeter, kind: str = "compound", occupancy: float = 1.0
    ) -> CostBreakdown:
        """``occupancy`` < 1 models an under-subscribed launch: too few
        threads to hide memory latency (the reason cache-sized vectors
        fail on GPUs, Section 3).  Memory and compute terms slow down
        proportionally."""
        if not 0 < occupancy <= 1.0:
            raise ValueError("occupancy must be in (0, 1]")
        profile = self.profile
        efficiency = MEMORY_EFFICIENCY.get(kind, DEFAULT_EFFICIENCY)
        if profile.kind == "cpu":
            # CPU operators are tight loops with hardware prefetching —
            # they do not suffer the latency-bound underutilization of
            # small GPU kernels (this is what lets MonetDB win the
            # cheapest queries in Experiment 6).
            efficiency = max(efficiency, 0.85)
        reads, writes = meter.reads, meter.writes
        memory = (reads[_GLOBAL] + writes[_GLOBAL]) / (
            profile.global_bandwidth * 1e9 * efficiency * occupancy
        )
        onchip = (reads[_ONCHIP] + writes[_ONCHIP]) / (
            profile.onchip_bandwidth * 1e9 * occupancy
        )
        compute = meter.instructions / (profile.compute_throughput * occupancy)
        atomics = 0.0
        if meter.atomic_count:
            chains = meter.atomic_chains
            atomics = max(
                meter.atomic_count / profile.atomic_throughput,
                chains["add"]
                / (profile.same_address_atomic_rate * profile.plain_add_speedup),
                chains["fetch_add"] / profile.same_address_atomic_rate,
                chains["rmw"] / profile.contended_rmw_rate,
            )
        return CostBreakdown(
            memory,
            onchip,
            compute,
            atomics,
            profile.kernel_launch_overhead,
            meter.barriers * profile.barrier_overhead,
        )

    def trace(
        self,
        name: str,
        kind: str,
        elements: int,
        meter: TrafficMeter,
        occupancy: float = 1.0,
    ) -> KernelTrace:
        """The profiler record of one launch charged ``meter``: what a
        device logs when the kernel runs, and what an estimate of the
        same kernel is priced as."""
        breakdown = self.breakdown(meter, kind, occupancy=occupancy)
        return KernelTrace(
            name=name,
            kind=kind,
            elements=elements,
            meter=meter,
            time_ms=breakdown.total * 1e3,
            bound_by=breakdown.bound_by,
        )

    def memory_bound_time(self, nbytes: int) -> float:
        """Lower bound: streaming ``nbytes`` through global memory.

        This is the solid "memory bound" baseline drawn in every
        evaluation figure (Section 8.2).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / (self.profile.global_bandwidth * 1e9)
