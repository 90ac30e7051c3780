"""Perf-regression sentinel: baseline store + drift checking.

The simulator is deterministic: for a fixed workload recipe, device
profile, and engine, every benchmark query's cost-model outputs —
simulated time, PCIe and global-memory byte volumes, kernel-launch
count, peak device allocation — are exactly reproducible.  That makes
them a **perf fingerprint**: any code change that silently shifts the
cost model or the executor's data movement shows up as drift against a
committed baseline, long before a human notices a benchmark curve
moved.

Workflow (see ``docs/observability.md``)::

    repro baseline record          # write benchmarks/baselines/*.json
    repro baseline check           # compare a fresh run; exit 1 on drift

Byte/count metrics must match exactly; simulated-time metrics get a
small relative tolerance band (float arithmetic across numpy versions)
that ``--tolerance`` widens.  :func:`check_baselines` returns a
:class:`DriftReport` whose ``render()`` is the human-readable
per-metric drift table CI prints on failure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

__all__ = [
    "BASELINE_QUERIES",
    "DEFAULT_BASELINE_PATH",
    "DriftEntry",
    "DriftReport",
    "check_baselines",
    "load_baselines",
    "measure_fingerprint",
    "record_baselines",
]

DEFAULT_BASELINE_PATH = os.path.join(
    "benchmarks", "baselines", "perf_baselines.json"
)

#: (workload, query) pairs fingerprinted by record/check.  The SSB four
#: cover the chaos suite's star-join shapes; the TPC-H two cover the
#: scan-heavy aggregate and the multi-aggregate group-by.
BASELINE_QUERIES: tuple = (
    ("ssb", "q1.1"),
    ("ssb", "q2.1"),
    ("ssb", "q3.2"),
    ("ssb", "q4.1"),
    ("tpch", "q1"),
    ("tpch", "q6"),
)

#: Relative tolerance per metric.  Bytes, launches, and rows are exact
#: integers of the deterministic simulation — zero drift allowed; the
#: simulated-time floats get a narrow band.
METRIC_TOLERANCES = {
    "sim_ms": 0.01,
    "kernel_ms": 0.01,
    "pcie_bytes": 0.0,
    "global_bytes": 0.0,
    "kernel_launches": 0.0,
    "peak_alloc_bytes": 0.0,
    "rows": 0.0,
}

_STORE_VERSION = 1


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure_fingerprint(
    workload: str,
    name: str,
    database,
    profile,
    engine_name: str = "resolution",
    seed: int = 42,
    compression=None,
) -> dict:
    """One query's perf fingerprint on a fresh device.

    ``compression`` (a mode string or policy) fingerprints the
    compression-aware transfer path: ``pcie_bytes`` then counts wire
    (compressed) bytes and ``global_bytes`` the register decodes and
    compressed scans, so codec or chooser drift is caught exactly."""
    from ..compression import resolve_compression
    from ..engines import make_engine
    from ..hardware.device import VirtualCoprocessor
    from ..workloads import ssb_plan, tpch_plan
    from .recorder import result_fingerprint

    plan = (
        tpch_plan(name, database) if workload == "tpch" else ssb_plan(name, database)
    )
    device = VirtualCoprocessor(profile)
    device.compression = resolve_compression(compression)
    result = make_engine(engine_name).execute(plan, database, device, seed=seed)
    fingerprint = result_fingerprint(result)
    fingerprint["peak_alloc_bytes"] = int(device.peak_allocated)
    return fingerprint


def _measure_all(config: dict) -> dict:
    from ..hardware.profiles import get_profile
    from ..workloads import generate_ssb, generate_tpch

    profile = get_profile(config["device"])
    databases = {}
    fingerprints = {}
    for workload, name in BASELINE_QUERIES:
        if workload not in databases:
            if workload == "tpch":
                databases[workload] = generate_tpch(
                    config["scale_factor"], seed=config["data_seed"]
                )
            else:
                databases[workload] = generate_ssb(
                    config["scale_factor"], seed=config["data_seed"]
                )
        fingerprints[f"{workload}:{name}"] = measure_fingerprint(
            workload,
            name,
            databases[workload],
            profile,
            engine_name=config["engine"],
            seed=config["seed"],
        )
        # Compressed-transfer twin: same query under compression="auto".
        # Wire bytes and fused-decode traffic are exactly deterministic,
        # so codec / chooser / scan-strategy drift fails the check too
        # (and a twin slower than its plain query is a policy that lost).
        fingerprints[f"{workload}:{name}:compressed"] = measure_fingerprint(
            workload,
            name,
            databases[workload],
            profile,
            engine_name=config["engine"],
            seed=config["seed"],
            compression="auto",
        )
        # The alias: compression="lazy" must stay the same policy.
        fingerprints[f"{workload}:{name}:lazy"] = measure_fingerprint(
            workload,
            name,
            databases[workload],
            profile,
            engine_name=config["engine"],
            seed=config["seed"],
            compression="lazy",
        )
    return fingerprints


def record_baselines(
    path: str | None = None,
    scale_factor: float = 0.002,
    device: str = "gtx970",
    engine: str = "resolution",
    data_seed: int = 7,
    seed: int = 42,
) -> dict:
    """Measure every baseline query; write the store when ``path`` set."""
    config = {
        "scale_factor": scale_factor,
        "device": device,
        "engine": engine,
        "data_seed": data_seed,
        "seed": seed,
    }
    store = {
        "version": _STORE_VERSION,
        "config": config,
        "queries": _measure_all(config),
    }
    if path is not None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(store, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return store


def load_baselines(path: str) -> dict:
    from ..errors import ConfigurationError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            store = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"cannot read baseline store {path}: {error}"
        ) from None
    if not isinstance(store, dict) or "queries" not in store or "config" not in store:
        raise ConfigurationError(
            f"{path} is not a baseline store (missing 'config'/'queries')"
        )
    return store


# ----------------------------------------------------------------------
# drift checking
# ----------------------------------------------------------------------
@dataclass
class DriftEntry:
    query: str
    metric: str
    baseline: float
    current: float
    drift: float  # relative, abs
    tolerance: float
    ok: bool


@dataclass
class DriftReport:
    """Per-metric comparison of a fresh run against the baseline store."""

    entries: list = field(default_factory=list)
    missing: list = field(default_factory=list)  # in store, not measured
    unexpected: list = field(default_factory=list)  # measured, not in store

    @property
    def passed(self) -> bool:
        return (
            not self.missing
            and not self.unexpected
            and all(entry.ok for entry in self.entries)
        )

    @property
    def failures(self) -> list:
        return [entry for entry in self.entries if not entry.ok]

    def render(self) -> str:
        lines = []
        verdict = "PASS" if self.passed else "FAIL"
        checked = {entry.query for entry in self.entries}
        lines.append(
            f"baseline check: {verdict} "
            f"({len(checked)} queries, {len(self.entries)} metrics, "
            f"{len(self.failures)} drifted)"
        )
        for query in self.missing:
            lines.append(f"  MISSING  {query}: in baseline store, not measured")
        for query in self.unexpected:
            lines.append(f"  NEW      {query}: measured, not in baseline store")
        for entry in self.failures:
            lines.append(
                f"  DRIFT    {entry.query} {entry.metric}: "
                f"baseline {entry.baseline:g} -> current {entry.current:g} "
                f"({entry.drift * 100:+.2f}% vs ±{entry.tolerance * 100:.2f}%)"
            )
        if self.passed:
            for entry in self.entries:
                if entry.drift > 0:
                    lines.append(
                        f"  ok       {entry.query} {entry.metric}: "
                        f"{entry.drift * 100:+.3f}% within ±"
                        f"{entry.tolerance * 100:.2f}%"
                    )
        return "\n".join(lines)


def check_baselines(
    store: dict | str,
    tolerance_scale: float = 1.0,
    current: dict | None = None,
) -> DriftReport:
    """Compare a fresh measurement run against a baseline store.

    ``store`` is the dict from :func:`record_baselines`/
    :func:`load_baselines` or a path; ``tolerance_scale`` multiplies
    every metric's band (``--tolerance 2`` doubles them, 0 demands
    exact equality everywhere); ``current`` injects pre-measured
    fingerprints (tests use this to simulate drift)."""
    if isinstance(store, str):
        store = load_baselines(store)
    if current is None:
        current = _measure_all(store["config"])
    report = DriftReport()
    baseline_queries = store["queries"]
    report.missing = sorted(set(baseline_queries) - set(current))
    report.unexpected = sorted(set(current) - set(baseline_queries))
    for query in sorted(set(baseline_queries) & set(current)):
        recorded = baseline_queries[query]
        measured = current[query]
        for metric in sorted(set(recorded) | set(measured)):
            base = float(recorded.get(metric, 0.0))
            now = float(measured.get(metric, 0.0))
            if base == 0.0:
                drift = 0.0 if now == 0.0 else float("inf")
            else:
                drift = abs(now - base) / abs(base)
            tolerance = METRIC_TOLERANCES.get(metric, 0.0) * tolerance_scale
            report.entries.append(
                DriftEntry(
                    query=query,
                    metric=metric,
                    baseline=base,
                    current=now,
                    drift=drift,
                    tolerance=tolerance,
                    ok=drift <= tolerance,
                )
            )
    return report
