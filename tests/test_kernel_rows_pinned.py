"""Accounting pinned across the row-domain change.

``kernel_rows_pinned.json`` was written by :func:`observe` on the commit
*before* generated kernels started carrying only their surviving rows
(``KernelContext``'s row domain, ``ScanResult.positions`` on demand,
index-gather compaction in the operator-at-a-time interpreter).  How
rows are carried on the host must not show on the simulated device, so
for every plan x engine x compression policy below the file holds

* per launch: ``name``, ``elements`` and ``TrafficMeter.snapshot()``
  (as one digest over the launch list, plus the launch count),
* ``total_ms``, the ``CompressionStats`` counters,
* a checksum of the result **in output order** — the projection plans
  under ``resolution`` / ``pipelined`` pin the order ``runtime.rng`` is
  drawn in through ``lrgp_positions`` / ``atomic_positions``.

``python tests/test_kernel_rows_pinned.py --write`` regenerates the
file (only on purpose: a change that means to move the simulated
clock); ``--dump FILE`` writes every launch in full, to diff two
commits when a digest differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.expressions import col
from repro.plan import PlanBuilder
from repro.telemetry.recorder import table_checksum
from repro.workloads import (
    SSB_QUERIES,
    TPCH_PLANS,
    generate_ssb,
    generate_tpch,
    microbench,
    ssb_plan,
    tpch_plan,
)

PINNED_PATH = Path(__file__).parent / "kernel_rows_pinned.json"
ENGINES = ("resolution", "pipelined", "multipass", "vector", "operator-at-a-time")
COMPRESSION = ("off", "auto", "lazy")
#: All sixteen builders: q1 / q6 are the scan-heavy pair, the rest add
#: semi joins, a left join with defaults (q13) and virtual-table sources.
TPCH = tuple(TPCH_PLANS)


def plans():
    """``name -> (database, plan)``; SSB SF 0.004 seed 7, TPC-H SF 0.004
    seed 11 (the conftest databases), ``perf``'s nine micro plans and
    :func:`edge_plans`."""
    ssb = generate_ssb(scale_factor=0.004, seed=7)
    tpch = generate_tpch(scale_factor=0.004, seed=11)
    out = {f"ssb:{name}": (ssb, ssb_plan(name, ssb)) for name in SSB_QUERIES}
    for name in TPCH:
        out[f"tpch:{name}"] = (tpch, tpch_plan(name, tpch))
    for x in (0, 25):
        out[f"micro:proj-x{x}"] = (ssb, microbench.projection_query(x))
        out[f"micro:agg-x{x}"] = (ssb, microbench.aggregation_query(x))
    for groups in (1, 64, 16384):
        out[f"micro:groupby-g{groups}"] = (ssb, microbench.group_by_query(groups))
    out["micro:star-join"] = (ssb, microbench.star_join_query())
    out["micro:star-join-agg"] = (ssb, microbench.star_join_aggregate_query())
    for name, plan in edge_plans().items():
        out[f"edge:{name}"] = (ssb, plan)
    return out


def edge_plans() -> dict:
    """What no benchmark query does: an anti join, a residual over a
    payload after a narrowing probe, a left join with a default, each
    followed by more stages, and a projection (``store``) after two
    narrowing stages."""
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


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:20]


def observe(database, plan, engine: str, compression: str, full: bool = False) -> dict:
    """One execution on a fresh session, reduced to what is pinned
    (``full``: plus every launch as it is, for ``--dump``)."""
    session = repro.connect(database, engine=engine, compression=compression)
    result = session.execute(plan)
    launches = [
        [trace.name, trace.elements, trace.meter.snapshot()]
        for trace in result.profile.kernels
    ]
    stats = None
    if result.compression is not None:
        stats = asdict(result.compression)
        # Simulated milliseconds as exact text, like total_ms.
        stats["decode_ms_by_codec"] = {
            codec: repr(ms) for codec, ms in stats["decode_ms_by_codec"].items()
        }
    seen = {
        "launches": len(launches),
        "launch_digest": _digest(launches),
        "total_ms": repr(result.total_ms),
        "input_bytes": result.input_bytes,
        "output_bytes": result.output_bytes,
        "compression": None if stats is None else _digest(stats),
        "rows": result.table.num_rows,
        # Per column: dtype + raw values, in output order.
        "result": _digest(table_checksum(result.table)),
    }
    if full:
        seen["launch_list"] = launches
    return seen


def observe_all(full: bool = False) -> dict:
    return {
        f"{name}|{engine}|{compression}": observe(
            database, plan, engine, compression, full
        )
        for name, (database, plan) in plans().items()
        for engine in ENGINES
        for compression in COMPRESSION
    }


@pytest.fixture(scope="module")
def all_plans():
    return plans()


PINNED = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}


def test_the_pinned_matrix_is_complete():
    assert len(PINNED) == (13 + len(TPCH) + 9 + 3) * len(ENGINES) * len(COMPRESSION)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("compression", COMPRESSION)
def test_accounting_and_output_order_are_what_they_were(
    all_plans, engine, compression
):
    differing = {}
    for name, (database, plan) in all_plans.items():
        key = f"{name}|{engine}|{compression}"
        seen = observe(database, plan, engine, compression)
        if seen != PINNED[key]:
            differing[key] = {
                field: (PINNED[key][field], value)
                for field, value in seen.items()
                if PINNED[key][field] != value
            }
    assert not differing, f"(pinned, seen) per field: {differing}"


if __name__ == "__main__":
    if "--write" in sys.argv:
        PINNED_PATH.write_text(json.dumps(observe_all(), indent=0, sort_keys=True) + "\n")
        print(f"wrote {PINNED_PATH}")
    elif "--dump" in sys.argv:
        target = Path(sys.argv[sys.argv.index("--dump") + 1])
        target.write_text(json.dumps(observe_all(full=True), sort_keys=True))
        print(f"wrote {target}")
    else:
        sys.exit(__doc__)
