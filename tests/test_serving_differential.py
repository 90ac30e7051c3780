"""Differential engine-agreement harness through the serving runtime.

Hypothesis generates random SSB/microbench-style filter+aggregate SQL;
every query must produce identical results (as multisets, with float
tolerance for accumulation order) from all five engines, through BOTH
the :class:`~repro.serving.Server` path and the direct
:class:`~repro.api.Session` path, with cold AND warm caches.  This is
the paper's central invariant — the micro execution model changes *how*
a pipeline executes, never *what* it computes — extended to the
serving layer: caching and concurrency must never change results.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.kernels.codegen import clear_kernel_cache
from repro.serving import PlanCache, Server
from repro.storage.table import rows_approx_equal
from repro.telemetry import FlightRecorder, table_checksum
from repro.workloads import SSB_QUERIES

#: The five engine aliases the differential harness exercises.
ENGINES = ["operator-at-a-time", "multipass", "pipelined", "resolution", "vector"]

_AGGREGATES = [
    ("sum", "sum(lo_revenue)"),
    ("sum_expr", "sum(lo_extendedprice * lo_discount)"),
    ("min", "min(lo_revenue)"),
    ("max", "max(lo_extendedprice)"),
    ("count", "count(*)"),
    ("avg", "avg(lo_quantity)"),
]


@st.composite
def filter_aggregate_sql(draw) -> str:
    """A random single-table or star filter+aggregate query."""
    q_lo = draw(st.integers(min_value=1, max_value=50))
    q_hi = draw(st.integers(min_value=1, max_value=50))
    if q_lo > q_hi:
        q_lo, q_hi = q_hi, q_lo
    d_lo = draw(st.integers(min_value=0, max_value=10))
    d_hi = draw(st.integers(min_value=0, max_value=10))
    if d_lo > d_hi:
        d_lo, d_hi = d_hi, d_lo
    _, agg = draw(st.sampled_from(_AGGREGATES))
    join_date = draw(st.booleans())
    group = draw(st.sampled_from([None, "lo_discount", "d_year"]))
    if group == "d_year" and not join_date:
        group = "lo_discount"

    predicates = [
        f"lo_quantity between {q_lo} and {q_hi}",
        f"lo_discount between {d_lo} and {d_hi}",
    ]
    tables = ["lineorder"]
    if join_date:
        tables.append("date")
        predicates.insert(0, "lo_orderdate = d_datekey")
        if draw(st.booleans()):
            predicates.append(f"d_year = {draw(st.integers(1992, 1998))}")
    select = [f"{agg} as v"]
    tail = ""
    if group is not None:
        select.append(group)
        tail = f" group by {group}"
    return (
        f"select {', '.join(select)} from {', '.join(tables)} "
        f"where {' and '.join(predicates)}{tail}"
    )


@pytest.fixture(scope="module")
def server(ssb_db) -> Server:
    with Server(ssb_db, workers=2, queue_size=32) as srv:
        yield srv


@pytest.fixture(scope="module")
def cached_session(ssb_db) -> Session:
    return Session(ssb_db, plan_cache=PlanCache(capacity=512))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=filter_aggregate_sql())
def test_engines_agree_through_server_and_session(sql, ssb_db, server, cached_session):
    """Zero result disagreements across 5 engines x 2 paths x warm/cold."""
    reference = None
    disagreements = []
    for engine in ENGINES:
        runs = {
            "session-cold": Session(ssb_db, engine=engine).execute(sql),
            "server-cold": server.execute(sql, engine=engine),
            "server-warm": server.execute(sql, engine=engine),
            "cached-session-warm": cached_session.execute(sql, engine=engine),
        }
        for label, result in runs.items():
            rows = result.table.sorted_rows()
            if reference is None:
                reference = rows
            elif not rows_approx_equal(reference, rows, rel_tol=1e-3, abs_tol=0.5):
                disagreements.append(f"{engine}/{label}")
    assert not disagreements, f"result disagreements for {sql!r}: {disagreements}"


def test_vector_min_ignores_empty_vector_partials(ssb_db):
    """Regression (found by this harness): vectors where no row passed
    the filter emitted a placeholder 0 that poisoned min/max merges."""
    sql = (
        "select min(lo_revenue) as v from lineorder "
        "where lo_quantity between 1 and 1 and lo_discount between 0 and 0"
    )
    expected = Session(ssb_db, engine="resolution").execute(sql).table.sorted_rows()
    actual = Session(ssb_db, engine="vector").execute(sql).table.sorted_rows()
    assert actual == expected


def test_vector_engine_merges_cross_vector_avg(ssb_db):
    sql = "select avg(lo_quantity) as v from lineorder where lo_discount < 5"
    expected = Session(ssb_db, engine="resolution").execute(sql).table.sorted_rows()
    actual = Session(ssb_db, engine="vector").execute(sql).table.sorted_rows()
    assert rows_approx_equal(actual, expected, rel_tol=1e-9)


def test_server_warm_path_hits_plan_cache(server):
    sql = "select sum(lo_revenue) as r from lineorder where lo_quantity < 30"
    cold = server.execute(sql)
    warm = server.execute(sql)
    assert warm.serving.plan_cache_hit
    assert rows_approx_equal(
        cold.table.sorted_rows(), warm.table.sorted_rows()
    )


# ----------------------------------------------------------------------
# lifecycle parity: Server workers run Session's own lifecycle, so the
# two front doors must agree on everything but the queue
# ----------------------------------------------------------------------
#: One configuration per rung of the dispatch ladder.
ROUTES = {
    "bare": {},
    "residency": {"residency": True},
    "devices2": {"devices": 2},
    "auto": {"engine": "auto"},
}
#: The repeat exercises the plan-cache and residency hit paths.
PARITY_QUERIES = ("q1.1", "q2.1", "q3.1", "q1.1")
#: ServingStats fields that are the queue's, or host wall-clock.
_UNCOMPARABLE = {
    "queue_wait_ms", "worker", "admission", "plan_ms", "execute_ms",
    "started", "planned_at",
}
#: ServingStats properties read off the query record, compared by name.
_READ_OFF_RECORD = ("compile_hits", "compile_misses")


def _run_door(door: str, database, config: dict, tmp_path):
    """Run PARITY_QUERIES through one front door from cold caches;
    returns (results, flight records)."""
    clear_kernel_cache()
    recorder = FlightRecorder(postmortem_dir=str(tmp_path / door))
    kwargs = dict({"residency": False}, **config)
    if door == "session":
        session = Session(
            database, plan_cache=PlanCache(), recorder=recorder, **kwargs
        )
        results = [session.execute(SSB_QUERIES[name]) for name in PARITY_QUERIES]
    else:
        with Server(
            database, workers=1, plan_cache=PlanCache(), recorder=recorder, **kwargs
        ) as server:
            results = [
                server.execute(SSB_QUERIES[name]) for name in PARITY_QUERIES
            ]
    return results, recorder.records()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_session_and_server_share_one_lifecycle(route, ssb_db, tmp_path):
    direct, direct_flights = _run_door("session", ssb_db, ROUTES[route], tmp_path)
    served, served_flights = _run_door("server", ssb_db, ROUTES[route], tmp_path)
    for mine, theirs in zip(direct, served, strict=True):
        assert table_checksum(mine.table) == table_checksum(theirs.table)
        for counter in (
            "global_memory_bytes", "input_bytes", "output_bytes", "total_ms",
        ):
            assert getattr(mine, counter) == getattr(theirs, counter), counter
        assert len(mine.profile.kernels) == len(theirs.profile.kernels)
        comparable = [
            {key: value for key, value in asdict(result.serving).items()
             if key not in _UNCOMPARABLE}
            | {key: getattr(result.serving, key) for key in _READ_OFF_RECORD}
            for result in (mine, theirs)
        ]
        assert comparable[0] == comparable[1]
        assert (mine.serving.worker, theirs.serving.worker) == (-1, 0)
    for mine, theirs in zip(direct_flights, served_flights, strict=True):
        kinds = [
            [event["kind"] for event in record.events
             if event["kind"] != "query.admitted"]
            for record in (mine, theirs)
        ]
        assert kinds[0] == kinds[1]
        assert kinds[0][0] == "query.planned" and kinds[0][-1] == "query.executed"
        assert set(mine.strategy) == set(theirs.strategy)


def test_session_serving_stats_carry_placement(ssb_db):
    """Both doors report a query's residency outcome in one place,
    ``result.placement`` (``ServingStats`` kept a copy of it once, and
    only the Server's lifecycle filled it)."""
    session = Session(ssb_db, plan_cache=PlanCache(), residency=True)
    session.execute(SSB_QUERIES["q2.1"])
    repeat = session.execute(SSB_QUERIES["q2.1"])
    with Server(ssb_db, workers=1, plan_cache=PlanCache()) as server:
        server.execute(SSB_QUERIES["q2.1"])
        served = server.execute(SSB_QUERIES["q2.1"])
    assert repeat.placement.hits > 0 and repeat.placement.hit_bytes > 0
    counts = ("hits", "misses", "hit_bytes", "table_hits", "table_misses", "out_of_core")
    assert [getattr(repeat.placement, name) for name in counts] == [
        getattr(served.placement, name) for name in counts
    ]
    assert not hasattr(repeat.serving, "placement_hits")
