"""Empty tables: every SSB query over an empty fact table or an empty
dimension answers on every engine, one device or two, as the CPU
reference does — under ``engine="auto"`` too, whose estimator prices
the plan over zero rows — and the SQL front end takes the fact table
from the join graph (the table every equi-join touches), not from row
counts, so an empty ``lineorder`` stays the fact table.  A pooled,
compressed 4-device fleet answers the same over two passes, with an
empty table and with a date filter no row passes, whose zero-row build
the first device turn runs and every later turn replays.  ``engine="auto"``
picks over zero rows what pricing every candidate in full would."""

from __future__ import annotations

import pytest

import repro
from repro.engines.runtime import QueryRuntime
from repro.plan.pipelines import extract_pipelines
from repro.sql import plan_sql
from repro.storage.database import Database
from repro.workloads import SSB_QUERIES, generate_ssb
from repro.workloads.tpch.queries import Q1_SQL, Q6_SQL

ENGINES = ("cpu", "resolution", "operator-at-a-time", "auto")


@pytest.fixture(scope="module")
def tiny_ssb() -> Database:
    return generate_ssb(0.001)


def _emptied(database: Database, name: str) -> Database:
    """``database`` with table ``name`` replaced by its first 0 rows."""
    emptied = Database({table: database.table(table) for table in database.table_names})
    emptied.replace(name, database.table(name).slice(0, 0))
    return emptied


@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("empty", ["lineorder", "date"])
def test_empty_table_answers_as_cpu(tiny_ssb, empty, devices):
    database = _emptied(tiny_ssb, empty)
    reference = repro.connect(database, engine="cpu")
    expected = {
        name: reference.execute(sql).table.sorted_rows()
        for name, sql in SSB_QUERIES.items()
    }
    for engine in ENGINES:
        session = repro.connect(database, engine=engine, devices=devices)
        for name, sql in sorted(SSB_QUERIES.items()):
            rows = session.execute(sql).table.sorted_rows()
            assert rows == expected[name], (engine, name)


def _inputs(tiny_ssb, empty):
    """The database and SSB queries of case ``empty``: a table emptied,
    or a date filter no row passes."""
    if empty == "no date passes":
        return tiny_ssb, {
            name: sql.replace("lo_orderdate = d_datekey", "lo_orderdate = d_datekey and d_year < 1900")
            for name, sql in SSB_QUERIES.items()
        }
    return _emptied(tiny_ssb, empty), SSB_QUERIES


@pytest.mark.parametrize("devices", [1, "auto"])
@pytest.mark.parametrize("empty", ["lineorder", "date", "part", "no date passes"])
def test_auto_picks_the_full_pricing_pick(tiny_ssb, fully_priced, empty, devices):
    """Over zero rows the advisor's bounded walk picks what pricing
    every candidate in full ranks first, cold and warm, and answers as
    the CPU does."""
    database, queries = _inputs(tiny_ssb, empty)
    reference = repro.connect(database, engine="cpu")
    session = repro.connect(database, engine="auto", devices=devices)
    for cold in (True, False):
        for name, sql in sorted(queries.items()):
            pick, _, _ = fully_priced(session.auto, session.physical(sql), database)
            result = session.execute(sql)
            assert result.optimizer.chosen == pick.strategy, (name, cold)
            assert result.table.sorted_rows() == reference.execute(sql).table.sorted_rows()


@pytest.mark.parametrize("empty", ["lineorder", "date", "part", "no date passes"])
def test_a_pooled_compressed_fleet_answers_as_cpu(tiny_ssb, monkeypatch, empty):
    replays = []
    run_pipeline = QueryRuntime.run_pipeline

    def counting(self, engine, pipeline):
        replays.append(self.runs is not None and pipeline.name in self.runs)
        return run_pipeline(self, engine, pipeline)

    monkeypatch.setattr(QueryRuntime, "run_pipeline", counting)
    database, queries = _inputs(tiny_ssb, empty)
    reference = repro.connect(database, engine="cpu")
    expected = {name: reference.execute(sql).table.sorted_rows() for name, sql in queries.items()}
    for engine in ("resolution", "multipass", "operator-at-a-time"):
        session = repro.connect(
            database, engine=engine, devices=4, compression="auto", residency=True
        )
        for cold in (True, False):
            for name, sql in sorted(queries.items()):
                rows = session.execute(sql).table.sorted_rows()
                assert rows == expected[name], (engine, name, cold)
    assert any(replays)


def test_sql_plans_keep_their_fact_table(ssb_db, tpch_db, tiny_ssb):
    """Every committed SQL query keeps the fact table the largest-table
    rule gave it; with ``lineorder`` empty every star join over more
    than one dimension still scans it."""
    for database, fact, queries in (
        (ssb_db, "lineorder", SSB_QUERIES.values()),
        (tpch_db, "lineitem", (Q1_SQL, Q6_SQL)),
    ):
        for sql in queries:
            query = extract_pipelines(plan_sql(sql, database), database)
            assert query.final_pipeline.source == fact, sql
    empty = _emptied(tiny_ssb, "lineorder")
    for sql in SSB_QUERIES.values():
        query = extract_pipelines(plan_sql(sql, empty), empty)
        if len(query.pipelines) > 2:
            assert query.final_pipeline.source == "lineorder", sql
