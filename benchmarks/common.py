"""Shared infrastructure for the per-table/figure benchmark harnesses.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant workload through the relevant engines on the simulated
device, prints the same rows/series the paper reports, and writes the
report to ``benchmarks/results/`` so ``pytest benchmarks/`` leaves a
reviewable artifact even without ``-s``.

Scale factors default to laptop-friendly values and can be raised with
the ``REPRO_BENCH_SF`` environment variable; all simulated volumes and
times scale linearly with SF (see EXPERIMENTS.md).
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.hardware import PCIE3, VirtualCoprocessor, get_profile
from repro.workloads import generate_ssb

#: Scale factor used by the benchmark harnesses (paper: SF 10).
BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.02"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@functools.lru_cache(maxsize=None)
def ssb_database(scale_factor: float = BENCH_SF):
    return generate_ssb(scale_factor, seed=7)


def gpu(name: str = "gtx970") -> VirtualCoprocessor:
    """A fresh virtual device by profile name."""
    return VirtualCoprocessor(get_profile(name), interconnect=PCIE3)


def emit(name: str, report: str) -> str:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 78}\n{name}\n{'=' * 78}\n"
    text = banner + report + "\n"
    print(text)
    (RESULTS_DIR / f"{name}.txt").write_text(report + "\n")
    return report
