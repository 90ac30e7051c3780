"""Non-finite float constants in generated kernels.

``repr(math.inf)`` is ``inf`` — a free name, not a literal — so a
kernel whose source spelled constants with ``repr`` raised
``NameError`` on every compiled engine while the interpreted ones
answered.  Each plan below puts ``inf``, ``-inf`` or ``nan`` at one
place the generator writes a constant: a filter, a map, an IN list and
a left join's payload default.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.expressions import col, lit
from repro.plan import PlanBuilder

ENGINES = ("operator-at-a-time", "vector", "multipass", "pipelined", "resolution")


def _plans() -> dict:
    asia = (
        PlanBuilder.scan("supplier")
        .filter(col("s_region") == lit("ASIA"))
        .map("w", col("s_suppkey") * lit(0.5))
        .map("v", col("s_suppkey") * lit(0.25))
    )
    return {
        "filter": PlanBuilder.scan("lineorder")
        .filter((col("lo_quantity") < lit(math.inf)) & (col("lo_discount") > lit(-math.inf)))
        .project(["lo_orderkey", "lo_quantity"])
        .build(),
        "map": PlanBuilder.scan("lineorder")
        .filter(col("lo_discount") < 3)
        .map("capped", col("lo_quantity") * lit(math.inf))
        .map("missing", col("lo_discount") + lit(math.nan))
        .project(["lo_orderkey", "capped", "missing"])
        .build(),
        "in_list": PlanBuilder.scan("lineorder")
        .filter(col("lo_quantity").isin([1.0, math.inf, -math.inf, math.nan, 7.0]))
        .project(["lo_orderkey", "lo_quantity"])
        .build(),
        "left_default": PlanBuilder.scan("lineorder")
        .filter(col("lo_discount") < 2)
        .join(
            asia, build_keys=["s_suppkey"], probe_keys=["lo_suppkey"],
            payload=["w", "v"], kind="left",
            payload_defaults={"w": math.inf, "v": math.nan},
        )
        .project(["lo_orderkey", "w", "v"])
        .build(),
    }


PLANS = _plans()


@pytest.fixture(scope="module")
def database():
    return repro.generate_ssb(scale_factor=0.001, seed=1)


def _rows(table) -> list[tuple]:
    """Sorted rows with floats spelled out, so ``nan`` equals itself."""
    return sorted(
        tuple(repr(float(value)) if isinstance(value, float) else value for value in row)
        for row in table.sorted_rows()
    )


@pytest.mark.parametrize("name", sorted(PLANS))
def test_every_engine_matches_cpu(database, name):
    plan = PLANS[name]
    expected = _rows(
        repro.connect(database, device=repro.XEON_E5, engine="cpu").execute(plan).table
    )
    assert expected
    if name in ("map", "left_default"):
        assert any("inf" in row and "nan" in row for row in expected)
    for engine in ENGINES:
        result = repro.connect(database, engine=engine).execute(plan)
        assert _rows(result.table) == expected, engine
