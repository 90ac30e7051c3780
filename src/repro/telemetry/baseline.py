"""The simulated-clock pin: one case matrix, one store, one exact check.

The simulator is deterministic: for a fixed database, plan, engine,
compression policy and fleet, every launch's name, elements and traffic
meter, every link byte, the simulated milliseconds and the result
itself are exactly reproducible.  This module holds the one committed
pin of those quantities, so any code change that shifts the cost model
or the executor's data movement shows up as drift (see
``docs/observability.md``)::

    repro baseline record          # measure the matrix, write the store
    repro baseline check           # re-measure, compare exactly; exit 1 on drift

The matrix (:func:`measure`) is 448 cases on the SSB SF 0.004 seed 7 and
TPC-H SF 0.004 seed 11 databases:

* 41 plans (13 SSB queries, 16 TPC-H builders, 9 micro plans and 3
  edge plans) x 5 engines x compression ``off`` / ``auto`` (``lazy``
  is its alias), each on a fresh one-device session:
  ``"<plan>|<engine>|<compression>"``;
* SSB q2.1 / q3.1 / q4.1 on a 4-device fleet: plain, pooled cold,
  pooled warm (the second execution) and with device 1 lost at its
  first morsel: ``"fleet:<query>|<mode>"``;
* the 13 SSB queries x compression ``off`` / ``auto`` streamed out of
  core (:func:`~repro.macro.batch.execute_out_of_core`, 32 KB a column:
  three blocks of ``lineorder``) on a fresh session's device:
  ``"stream:<query>|<compression>"``.

Each case runs on a session from :func:`repro.connect` and is reduced from
``result.profile`` to one row: every simulated time as exact ``repr``
text, every byte and count as an integer, the launch list, the
``CompressionStats`` and the result (values in output order) as
digests.  :func:`check_baselines` compares the rows with ``==`` and
returns a :class:`DriftReport`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from ..faults import FaultPlan, FaultSpec

__all__ = [
    "COMPRESSION",
    "DEFAULT_BASELINE_PATH",
    "ENGINES",
    "LOSS",
    "DriftReport",
    "check_baselines",
    "load_baselines",
    "measure",
    "record_baselines",
]

DEFAULT_BASELINE_PATH = os.path.join(
    "benchmarks", "baselines", "perf_baselines.json"
)

ENGINES = ("resolution", "pipelined", "multipass", "vector", "operator-at-a-time")
COMPRESSION = ("off", "auto")
FLEET_QUERIES = ("q2.1", "q3.1", "q4.1")
FLEET_MODES = ("plain", "residency-cold", "residency-warm", "loss")
FLEET_DEVICES = 4
#: Bytes of a streamed block's column (``stream:`` cases).
STREAM_BLOCK_BYTES = 32 * 1024

_STORE_VERSION = 2

#: Every pinned quantity and how the store holds it (``[t]``: one entry
#: per fleet device).  ``peak_alloc_bytes`` is on one-device cases only
#: (streamed ones included),
#: the fleet clocks and per-device lists on fleet cases only.
_FIELDS = {
    "launches": int,
    "launch_digest": str,
    "total_ms": str,
    "kernel_ms": str,
    "input_bytes": int,
    "output_bytes": int,
    "global_bytes": int,
    "peak_alloc_bytes": int,
    "compression": (str, type(None)),
    "rows": int,
    "result": str,
    "makespan_ms": str,
    "serial_ms": str,
    "share_kernel_ms": [str],
    "share_transfer_ms": [str],
    "share_busy_ms": [str],
    # Kernels of each device's last turn.
    "device_launches": [int],
}


#: Device 1 dies at its first morsel; the survivors re-run the build
#: sides in a second wave and take over its pieces.
LOSS = FaultPlan(specs=(FaultSpec(kind="device-loss", device=1, op="morsel"),))


# ----------------------------------------------------------------------
# the case matrix
# ----------------------------------------------------------------------
def _plans(ssb, tpch) -> dict:
    """``name -> (database, plan)``: the 13 SSB queries, all sixteen
    TPC-H builders (q1 / q6 are the scan-heavy pair, the rest add semi
    joins, a left join with defaults and virtual-table sources),
    ``perf``'s nine micro plans and :func:`_edge_plans`."""
    from ..workloads import SSB_QUERIES, TPCH_PLANS, microbench, ssb_plan, tpch_plan

    out = {f"ssb:{name}": (ssb, ssb_plan(name, ssb)) for name in SSB_QUERIES}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, tpch_plan(name, tpch))
    for x in (0, 25):
        out[f"micro:proj-x{x}"] = (ssb, microbench.projection_query(x))
        out[f"micro:agg-x{x}"] = (ssb, microbench.aggregation_query(x))
    for groups in (1, 64, 16384):
        out[f"micro:groupby-g{groups}"] = (ssb, microbench.group_by_query(groups))
    out["micro:star-join"] = (ssb, microbench.star_join_query())
    out["micro:star-join-agg"] = (ssb, microbench.star_join_aggregate_query())
    for name, plan in _edge_plans().items():
        out[f"edge:{name}"] = (ssb, plan)
    return out


def _edge_plans() -> dict:
    """What no benchmark query does: an anti join, a residual over a
    payload after a narrowing probe, a left join with a default, each
    followed by more stages, and a projection (``store``) after two
    narrowing stages."""
    from ..expressions import col
    from ..plan import PlanBuilder

    year_1993 = PlanBuilder.scan("date").filter(col("d_year") == 1993)
    asia = PlanBuilder.scan("supplier").filter(col("s_region") == "ASIA")
    return {
        "anti-project": PlanBuilder.scan("lineorder")
        .filter(col("lo_discount") < 4)
        .join(year_1993, ["d_datekey"], ["lo_orderdate"], kind="anti")
        .filter(col("lo_quantity") < 30)
        .project(["lo_orderkey", ("net", col("lo_revenue") - col("lo_supplycost"))])
        .build(),
        "residual-group": PlanBuilder.scan("lineorder")
        .join(year_1993, ["d_datekey"], ["lo_orderdate"], kind="semi")
        .join(
            PlanBuilder.scan("supplier"),
            ["s_suppkey"],
            ["lo_suppkey"],
            payload=["s_nation", "s_suppkey"],
            residual=col("lo_quantity") > col("s_suppkey") % 50,
        )
        .aggregate(
            group_by=["s_nation"],
            aggregates=[("sum", col("lo_revenue"), "revenue"), ("count", None, "n")],
        )
        .build(),
        "left-default": PlanBuilder.scan("lineorder")
        .filter(col("lo_quantity") < 10)
        .join(
            asia,
            ["s_suppkey"],
            ["lo_suppkey"],
            payload=["s_suppkey"],
            kind="left",
            payload_defaults={"s_suppkey": -7},
        )
        .filter(col("lo_discount") > 1)
        .aggregate(
            group_by=[("asian", col("s_suppkey") >= 0)],
            aggregates=[("sum", col("lo_revenue"), "revenue"), ("avg", col("s_suppkey"), "key")],
        )
        .build(),
    }


def _cases(ssb, tpch) -> dict:
    """``case -> (database, query, connect options, executions)``; a
    ``stream:`` case's query streams once through its session's device."""
    from ..workloads import SSB_QUERIES, ssb_plan

    cases = {
        f"{name}|{engine}|{compression}": (
            database, plan, {"engine": engine, "compression": compression}, 1
        )
        for name, (database, plan) in _plans(ssb, tpch).items()
        for engine in ENGINES
        for compression in COMPRESSION
    }
    for name in FLEET_QUERIES:
        for mode in FLEET_MODES:
            options = {
                "devices": FLEET_DEVICES,
                "residency": mode.startswith("residency"),
                "fault_plan": LOSS if mode == "loss" else None,
            }
            executions = 2 if mode == "residency-warm" else 1
            cases[f"fleet:{name}|{mode}"] = (ssb, SSB_QUERIES[name], options, executions)
    for name in SSB_QUERIES:
        for compression in COMPRESSION:
            cases[f"stream:{name}|{compression}"] = (
                ssb, ssb_plan(name, ssb), {"compression": compression}, 1
            )
    return cases


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:20]


def _observe(session, result) -> tuple[dict, list]:
    """One case's pinned row, and its launch list in full."""
    from .recorder import table_checksum

    launches = [
        [trace.name, trace.elements, trace.meter.snapshot()]
        for trace in result.profile.kernels
    ]
    stats = None
    if result.compression is not None:
        stats = asdict(result.compression)
        for name in ("raw_bytes", "wire_bytes", "decode_kernels", "encode_kernels"):
            stats[name] = getattr(result.compression, name)
        stats["decode_ms_by_codec"] = {
            codec: repr(ms) for codec, ms in stats["decode_ms_by_codec"].items()
        }
    row = {
        "launches": len(launches),
        "launch_digest": _digest(launches),
        "total_ms": repr(result.total_ms),
        "kernel_ms": repr(result.kernel_ms),
        "input_bytes": int(result.input_bytes),
        "output_bytes": int(result.output_bytes),
        "global_bytes": int(result.global_memory_bytes),
        "compression": None if stats is None else _digest(stats),
        "rows": result.table.num_rows,
        # Per column: dtype + raw values, in output order.
        "result": _digest(table_checksum(result.table)),
    }
    if session.scaleout is None:
        row["peak_alloc_bytes"] = int(session.device.peak_allocated)
        return row, launches
    fleet = result.scaleout
    for name in ("kernel_ms", "transfer_ms", "busy_ms"):
        row[f"share_{name}"] = [repr(getattr(share, name)) for share in fleet.shares]
    row["makespan_ms"] = repr(fleet.makespan_ms)
    row["serial_ms"] = repr(fleet.serial_ms)
    row["device_launches"] = [
        len(device.log.kernels) for device in session.scaleout.fleet.devices
    ]
    return row, launches


def measure(keys=None, dump: str | None = None) -> dict:
    """``case -> row`` for every case of the matrix, or for ``keys``.

    ``dump`` also writes each row with its launches in full
    (``launch_list``: name, elements, meter), to diff two commits when
    a ``launch_digest`` moves."""
    import repro
    from ..macro.batch import execute_out_of_core
    from ..workloads import generate_ssb, generate_tpch

    cases = _cases(
        generate_ssb(scale_factor=0.004, seed=7),
        generate_tpch(scale_factor=0.004, seed=11),
    )
    rows = {}
    launch_lists = {}
    for key in cases if keys is None else keys:
        database, query, options, executions = cases[key]
        session = repro.connect(database, **options)
        for _ in range(executions):
            if key.startswith("stream:"):
                result = execute_out_of_core(
                    query, database, session.device, block_bytes=STREAM_BLOCK_BYTES
                )
            else:
                result = session.execute(query)
        rows[key], launch_lists[key] = _observe(session, result)
    if dump is not None:
        with open(dump, "w", encoding="utf-8") as handle:
            json.dump(
                {key: dict(row, launch_list=launch_lists[key]) for key, row in rows.items()},
                handle,
                sort_keys=True,
            )
    return rows


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
def record_baselines(path: str | None = None) -> dict:
    """Measure the matrix; write the store when ``path`` is set."""
    store = {"version": _STORE_VERSION, "cases": measure()}
    if path is not None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(store, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return store


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(item, kind[0]) for item in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _shape_problem(store) -> str | None:
    if not isinstance(store, dict) or not isinstance(store.get("cases"), dict):
        return "missing 'cases'"
    if store.get("version") != _STORE_VERSION:
        return f"version {store.get('version')!r}, expected {_STORE_VERSION}"
    for case, row in store["cases"].items():
        if not isinstance(row, dict):
            return f"case {case!r} is not a row"
        for name, value in row.items():
            if name not in _FIELDS or not _fits(value, _FIELDS[name]):
                return f"case {case!r} has {name} = {value!r}"
    return None


def load_baselines(path: str) -> dict:
    """The store at ``path``; :class:`~repro.errors.ConfigurationError`
    (naming the path) if it is unreadable or not this version's shape."""
    from ..errors import ConfigurationError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            store = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"cannot read baseline store {path}: {error}"
        ) from None
    problem = _shape_problem(store)
    if problem is not None:
        raise ConfigurationError(f"{path} is not a baseline store: {problem}")
    return store


# ----------------------------------------------------------------------
# the check
# ----------------------------------------------------------------------
_ABSENT = "(absent)"


@dataclass
class DriftReport:
    """An exact comparison of measured rows against the store."""

    cases: int = 0
    quantities: int = 0
    #: ``case -> {quantity: (pinned, measured)}`` for every inequality.
    drifted: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # in store, not measured
    unexpected: list = field(default_factory=list)  # measured, not in store

    @property
    def passed(self) -> bool:
        return not (self.drifted or self.missing or self.unexpected)

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"baseline check: {verdict} ({self.cases} cases, "
            f"{self.quantities} quantities, {len(self.drifted)} drifted)"
        ]
        lines += [f"  MISSING  {case}: in baseline store, not measured" for case in self.missing]
        lines += [f"  NEW      {case}: measured, not in baseline store" for case in self.unexpected]
        for case, quantities in self.drifted.items():
            for name, (pinned, measured) in quantities.items():
                lines.append(f"  DRIFT    {case} {name}: {pinned!r} -> {measured!r}")
        return "\n".join(lines)


def check_baselines(
    store: dict | str, current: dict | None = None, dump: str | None = None
) -> DriftReport:
    """Compare measured rows against a store, exactly.

    ``store`` is the dict from :func:`record_baselines` /
    :func:`load_baselines` or a path; ``current`` injects rows already
    measured (else :func:`measure` runs the matrix, passing ``dump``)."""
    if isinstance(store, str):
        store = load_baselines(store)
    if current is None:
        current = measure(dump=dump)
    pinned = store["cases"]
    report = DriftReport(
        missing=sorted(set(pinned) - set(current)),
        unexpected=sorted(set(current) - set(pinned)),
    )
    for case in sorted(set(pinned) & set(current)):
        names = sorted(set(pinned[case]) | set(current[case]))
        pairs = {
            name: (pinned[case].get(name, _ABSENT), current[case].get(name, _ABSENT))
            for name in names
        }
        report.cases += 1
        report.quantities += len(names)
        moved = {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}
        if moved:
            report.drifted[case] = moved
    return report
