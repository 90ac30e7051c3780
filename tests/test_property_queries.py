"""Property-based engine equivalence over randomized queries.

Hypothesis generates random filter/map/join/aggregate plans over the
tiny star schema; every engine must return the same multiset of rows
as every other. This is the strongest correctness property the system
offers and mirrors the paper's implicit claim that micro execution
models are semantics-preserving.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines import (
    CompoundEngine,
    CpuOperatorAtATimeEngine,
    MultiPassEngine,
    OperatorAtATimeEngine,
    VectorAtATimeEngine,
    make_cpu_device,
)
from repro.expressions import col, lit
from repro.expressions.expr import BooleanOp, Comparison
from repro.hardware import GTX970, VirtualCoprocessor
from repro.plan import PlanBuilder
from repro.storage import Column, Database, Table
from repro.storage.table import rows_approx_equal


def _make_db(seed: int) -> Database:
    rng = np.random.default_rng(seed)
    n = 300
    fact = Table(
        {
            "f_key": Column.int32(rng.integers(0, 12, n)),
            "f_a": Column.int32(rng.integers(0, 50, n)),
            "f_b": Column.int32(rng.integers(-20, 20, n)),
        }
    )
    dim = Table(
        {
            "d_key": Column.int32(np.arange(12)),
            "d_tag": Column.from_strings([f"T{index % 3}" for index in range(12)]),
            "d_weight": Column.int32(rng.integers(1, 9, 12)),
        }
    )
    return Database({"fact": fact, "dim": dim})


DB = _make_db(99)

_COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(["f_a", "f_b", "f_key"]))
    op = draw(st.sampled_from(_COMPARISONS))
    value = draw(st.integers(-25, 55))
    clause = Comparison(op, col(column), lit(value))
    if draw(st.booleans()):
        other = draw(predicates())
        joiner = draw(st.sampled_from(["and", "or"]))
        return BooleanOp(joiner, (clause, other))
    return clause


ENGINES = [
    OperatorAtATimeEngine,
    MultiPassEngine,
    lambda: CompoundEngine("atomic"),
    lambda: CompoundEngine("lrgp_simd"),
]


def _assert_engines_agree(plan):
    reference = None
    for factory in ENGINES:
        result = factory().execute(plan, DB, VirtualCoprocessor(GTX970))
        rows = result.table.sorted_rows()
        if reference is None:
            reference = rows
        else:
            assert rows_approx_equal(reference, rows, rel_tol=1e-6, abs_tol=1e-6)
    return reference


@given(predicates())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_filter_projection(predicate):
    plan = (
        PlanBuilder.scan("fact")
        .filter(predicate)
        .project(["f_a", ("expr", col("f_a") * 2 + col("f_b"))])
        .build()
    )
    _assert_engines_agree(plan)


@given(predicates(), st.sampled_from(["inner", "semi", "anti", "left"]))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_filter_then_join(predicate, kind):
    payload = ["d_weight"] if kind in ("inner", "left") else []
    defaults = {"d_weight": 0} if kind == "left" else {}
    builder = (
        PlanBuilder.scan("fact")
        .filter(predicate)
        .join(
            PlanBuilder.scan("dim").filter(col("d_weight") > 2),
            build_keys=["d_key"],
            probe_keys=["f_key"],
            payload=payload,
            kind=kind,
            payload_defaults=defaults,
        )
    )
    if kind in ("inner", "left"):
        plan = builder.aggregate(
            group_by=[], aggregates=[("sum", col("d_weight") * col("f_a"), "s"),
                                     ("count", None, "n")]
        ).build()
    else:
        plan = builder.aggregate(
            group_by=[], aggregates=[("sum", col("f_a"), "s"), ("count", None, "n")]
        ).build()
    _assert_engines_agree(plan)


@given(predicates(), st.sampled_from(["sum", "min", "max", "avg", "count"]))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_grouped_aggregation(predicate, op):
    expr = None if op == "count" else col("f_a")
    plan = (
        PlanBuilder.scan("fact")
        .filter(predicate)
        .join(
            PlanBuilder.scan("dim"),
            build_keys=["d_key"],
            probe_keys=["f_key"],
            payload=["d_tag"],
        )
        .aggregate(group_by=["d_tag"], aggregates=[(op, expr, "agg")])
        .build()
    )
    _assert_engines_agree(plan)


# ----------------------------------------------------------------------
# filter / join chains at the selectivities that stress a row domain
# ----------------------------------------------------------------------
#: Predicates over ``f_a`` (uniform in 0..49) and over ``d_key``
#: (0..11) that keep no row, a few, about half, and every row.
_FACT_LEVELS = {
    "none": col("f_a") < 0,
    "tiny": col("f_a") == 7,
    "half": col("f_a") < 25,
    "all": col("f_a") >= 0,
}
_DIM_LEVELS = {
    "none": col("d_key") < 0,
    "tiny": col("d_key") == 3,
    "half": col("d_key") < 6,
    "all": col("d_key") >= 0,
}
_LEVELS = st.sampled_from(["none", "tiny", "half", "all"])

_steps = st.one_of(
    st.tuples(st.just("filter"), _LEVELS),
    st.tuples(st.sampled_from(["inner", "semi", "anti", "left"]), _LEVELS),
)


@given(st.lists(_steps, min_size=1, max_size=4), st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_chains_match_the_cpu_engine(steps, project):
    """Every engine carries only the surviving rows from stage to
    stage; whatever a chain of filters and joins leaves alive — nothing,
    a handful, half, everything — each returns the cpu engine's rows."""
    builder = PlanBuilder.scan("fact")
    weighted = False
    for step, level in steps:
        if step == "filter":
            builder = builder.filter(_FACT_LEVELS[level])
            continue
        # The first inner / left join brings the payload along.
        carries = step in ("inner", "left") and not weighted
        weighted = weighted or carries
        builder = builder.join(
            PlanBuilder.scan("dim").filter(_DIM_LEVELS[level]),
            build_keys=["d_key"],
            probe_keys=["f_key"],
            payload=["d_weight"] if carries else [],
            kind=step,
            payload_defaults={"d_weight": -3} if carries and step == "left" else {},
        )
    value = col("f_a") * col("d_weight") if weighted else col("f_a") + col("f_b")
    if project:
        plan = builder.project(["f_key", ("value", value)]).build()
    else:
        plan = builder.aggregate(
            group_by=["f_key"],
            aggregates=[("sum", value, "s"), ("count", None, "n")],
        ).build()
    expected = (
        CpuOperatorAtATimeEngine().execute(plan, DB, make_cpu_device()).table.sorted_rows()
    )
    for factory in ENGINES + [
        lambda: CompoundEngine("lrgp_we"),
        lambda: VectorAtATimeEngine(vector_rows=64),
    ]:
        engine = factory()
        rows = engine.execute(plan, DB, VirtualCoprocessor(GTX970)).table.sorted_rows()
        assert rows == expected, engine.name


def test_reference_cross_check_with_python():
    """One fixed plan checked against an independent Python loop."""
    plan = (
        PlanBuilder.scan("fact")
        .filter(col("f_a") >= 25)
        .join(
            PlanBuilder.scan("dim"),
            build_keys=["d_key"],
            probe_keys=["f_key"],
            payload=["d_tag", "d_weight"],
        )
        .aggregate(
            group_by=["d_tag"],
            aggregates=[("sum", col("f_a") * col("d_weight"), "total")],
        )
        .build()
    )
    rows = _assert_engines_agree(plan)

    import collections

    fact = DB["fact"]
    dim = DB["dim"]
    tags = dim["d_tag"].decoded()
    weights = dim["d_weight"].values
    expected = collections.defaultdict(int)
    for index in range(fact.num_rows):
        a = int(fact["f_a"].values[index])
        if a < 25:
            continue
        key = int(fact["f_key"].values[index])
        expected[tags[key]] += a * int(weights[key])
    assert rows == sorted((tag, total) for tag, total in expected.items())
