"""Simulated-clock accounting of one pass over a workload's items.

Everything here is read off ``ExecutionResult`` objects (profile,
scale-out shares, placement, compression, optimizer decision): numbers
the simulator itself produced, which repeat exactly for one seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.hardware import GTX970

#: Every workload runs on GTX 970 profiles (possibly with less memory).
LAUNCH_OVERHEAD_MS = GTX970.kernel_launch_overhead * 1e3

#: The counts the determinism self-check requires to be bit-identical.
EXACT = (
    "sim_ms_total",
    "hardware.h2d_bytes",
    "hardware.d2h_bytes",
    "hardware.global_bytes",
    "hardware.onchip_bytes",
    "hardware.atomics",
    "hardware.kernel_launches",
    "hardware.peak_alloc_bytes",
)


def sim_ms(result) -> float:
    """A result's simulated end-to-end time: the fleet makespan for
    scale-out results (``total_ms`` is their *serial* device work)."""
    if result.scaleout is not None:
        return result.scaleout.makespan_ms
    return result.total_ms


class Accounting:
    """Running totals over one pass."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.sim_by_item: dict[str, float] = {}
        self._imbalance: list[float] = []
        self._candidates: list[int] = []
        self._hits = self._misses = 0
        self._raw = self._wire = 0

    def add(self, item, result, peak_alloc: int | None = None) -> None:
        totals = self.totals
        profile = result.profile
        spent = sim_ms(result)
        self.sim_by_item[item.name] = spent
        totals["sim_ms_total"] += spent
        if item.engine is not None:
            totals[f"engines.sim_ms.{item.engine}"] += spent
        for record in profile.transfers:
            if record.direction in ("h2d", "d2h"):
                totals[f"hardware.sim_{record.direction}_ms"] += record.time_ms
                totals[f"hardware.{record.direction}_bytes"] += record.nbytes
        totals["hardware.sim_kernel_ms"] += profile.kernel_time_ms
        totals["hardware.sim_launch_overhead_ms"] += (
            len(profile.kernels) * LAUNCH_OVERHEAD_MS
        )
        totals["hardware.sim_first_pass_ms"] += result.memory_bound_ms
        totals["hardware.global_bytes"] += result.global_memory_bytes
        totals["hardware.onchip_bytes"] += result.onchip_bytes
        totals["hardware.atomics"] += profile.atomic_count
        totals["hardware.kernel_launches"] += len(profile.kernels)
        if peak_alloc is not None:
            totals["hardware.peak_alloc_bytes"] = max(
                totals["hardware.peak_alloc_bytes"], peak_alloc
            )
        compression = result.compression
        if compression is not None:
            totals["compression.columns_encoded"] += compression.encoded_columns
            totals["compression.decode_kernel_sim_ms"] += sum(
                compression.decode_ms_by_codec.values()
            )
            self._raw += compression.raw_bytes
            self._wire += compression.wire_bytes
        placement = result.placement
        if placement is not None:
            self._hits += placement.hits
            self._misses += placement.misses
            totals["placement.pcie_saved_bytes"] += placement.hit_bytes
            totals["placement.out_of_core_queries"] += int(placement.out_of_core)
        scaleout = result.scaleout
        if scaleout is not None:
            totals["scaleout.morsels"] += sum(s.morsels for s in scaleout.shares)
            totals["scaleout.sim_makespan_ms"] += scaleout.makespan_ms
            totals["scaleout.sim_serial_ms"] += scaleout.serial_ms
            self._imbalance.append(scaleout.imbalance)
        if result.optimizer is not None:
            self._candidates.append(len(result.optimizer.candidates))

    def metrics(self) -> dict[str, float]:
        out = dict(self.totals)
        probes = self._hits + self._misses
        out["placement.hit_rate"] = self._hits / probes if probes else 0.0
        out["compression.wire_ratio"] = self._raw / self._wire if self._wire else 0.0
        out["scaleout.imbalance"] = (
            statistics.fmean(self._imbalance) if self._imbalance else 0.0
        )
        out["optimizer.candidates"] = (
            statistics.fmean(self._candidates) if self._candidates else 0.0
        )
        return out

    def exact(self) -> dict[str, float]:
        """The values two passes from fresh state must agree on."""
        return {name: self.totals[name] for name in EXACT}
