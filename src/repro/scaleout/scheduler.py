"""Morsel scheduling with per-device load accounting.

The executor over-partitions the fact table into more pieces (morsels)
than devices and assigns them with a deterministic longest-processing-
time (LPT) greedy: heaviest remaining morsel to the least-loaded
device.  With skewed partitions (hash partitioning of a Zipf-skewed
key) piece sizes vary widely; over-partitioning plus LPT redistributes
the small morsels around the straggler so the makespan approaches the
mean load instead of the max piece.  The assignment is computed from
*estimated* cost (piece bytes) before execution — not from observed
host timings — so results merge in deterministic piece order and the
simulated timeline is reproducible run to run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class DeviceLoad:
    """Per-device load account, filled during scheduling and execution."""

    device: int
    pieces: list[int] = field(default_factory=list)
    #: Scheduling-time estimate (piece bytes).
    estimated_bytes: int = 0


def assign_pieces(
    costs: Sequence[int],
    devices: int,
    eligible: Sequence[Sequence[int]] | None = None,
) -> list[DeviceLoad]:
    """LPT assignment of pieces (indexed 0..n-1, weighted by ``costs``)
    onto ``devices`` devices; deterministic (ties break on the lower
    piece index, then the lower device index).

    ``eligible`` (one device-index collection per piece) restricts
    which devices each piece may land on — the recovery path uses it to
    re-schedule failed morsels onto *surviving* devices that have not
    already failed them.  A piece with no eligible device raises
    ``ValueError`` (the executor turns that into
    :class:`~repro.errors.MorselExhaustedError` before scheduling).
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    loads = [DeviceLoad(device=index) for index in range(devices)]
    order = sorted(range(len(costs)), key=lambda piece: (-costs[piece], piece))
    if eligible is None:
        heap: list[tuple[int, int]] = [(0, index) for index in range(devices)]
        heapq.heapify(heap)
        for piece in order:
            load_bytes, device = heapq.heappop(heap)
            loads[device].pieces.append(piece)
            loads[device].estimated_bytes = load_bytes + costs[piece]
            heapq.heappush(heap, (loads[device].estimated_bytes, device))
    else:
        if len(eligible) != len(costs):
            raise ValueError("eligible must list candidate devices per piece")
        for piece in order:
            candidates = sorted(set(eligible[piece]))
            if not candidates:
                raise ValueError(f"piece {piece} has no eligible device")
            if any(d < 0 or d >= devices for d in candidates):
                raise ValueError(
                    f"piece {piece} names an unknown device in {candidates}"
                )
            device = min(candidates, key=lambda d: (loads[d].estimated_bytes, d))
            loads[device].pieces.append(piece)
            loads[device].estimated_bytes += costs[piece]
    for load in loads:
        load.pieces.sort()  # execute (and merge) in piece order
    return loads


def imbalance(values: Sequence[float]) -> float:
    """Max/mean ratio over the non-zero loads (1.0 = perfectly even)."""
    active = [value for value in values if value > 0]
    if not active:
        return 1.0
    return max(active) / (sum(active) / len(active))
