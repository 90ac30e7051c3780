"""Cache-correctness tests: normalization, invalidation, no collisions.

The plan cache must be *invisible* except for speed: a mutated catalog
must never be served a stale plan, and identical SQL against two
different databases must never share an entry.  The kernel cache must
report hits on repeated pipeline structures after a cold start.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, connect
from repro.kernels.codegen import clear_kernel_cache, kernel_cache_stats
from repro.plan.logical import LogicalPlan
from repro.serving import PlanCache, Server, normalize_sql
from repro.sql.translate import plan_sql
from repro.storage import Column, Database, Table


def _orders_db(revenues) -> Database:
    revenues = np.asarray(revenues)
    n = len(revenues)
    return Database(
        {
            "orders": Table(
                {
                    "o_revenue": Column.int32(revenues),
                    "o_quantity": Column.int32(np.arange(1, n + 1)),
                }
            )
        }
    )


SQL = "select sum(o_revenue) as total from orders where o_quantity >= 1"


# ----------------------------------------------------------------------
# normalize_sql
# ----------------------------------------------------------------------
def test_normalize_collapses_whitespace_and_case():
    assert (
        normalize_sql("SELECT   sum(x)\n\tFROM  t  WHERE y = 1;")
        == "select sum(x) from t where y = 1"
    )


def test_normalize_preserves_string_literals():
    a = normalize_sql("select * from t where r = 'ASIA'")
    b = normalize_sql("select * from t where r = 'asia'")
    assert a != b
    assert "'ASIA'" in a and "'asia'" in b
    # Whitespace inside literals survives byte-for-byte.
    assert "'A  B'" in normalize_sql("SELECT * FROM t WHERE r = 'A  B'")


def test_variant_spellings_share_a_plan_cache_entry():
    database = _orders_db([10, 20, 30])
    cache = PlanCache()
    _, hit1 = cache.lookup(SQL, database)
    _, hit2 = cache.lookup(
        "SELECT  SUM(o_revenue)  AS total\nFROM orders\nWHERE o_quantity >= 1;",
        database,
    )
    assert (hit1, hit2) == (False, True)
    assert len(cache) == 1


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------
def test_replace_invalidates_and_serves_fresh_results():
    database = _orders_db([10, 20, 30])
    session = connect(database, plan_cache=PlanCache())
    first = session.execute(SQL)
    assert first.table.sorted_rows() == [(60,)]
    assert not first.serving.plan_cache_hit
    warm = session.execute(SQL)
    assert warm.serving.plan_cache_hit

    # Append rows: replace the table with a longer one.
    old = database["orders"]
    database.replace(
        "orders",
        Table(
            {
                "o_revenue": Column.int32(
                    np.concatenate([old["o_revenue"].values, [40]])
                ),
                "o_quantity": Column.int32(
                    np.concatenate([old["o_quantity"].values, [4]])
                ),
            }
        ),
    )
    after = session.execute(SQL)
    assert not after.serving.plan_cache_hit, "stale plan served after mutation"
    assert after.table.sorted_rows() == [(100,)]


def test_add_and_drop_bump_the_fingerprint():
    database = _orders_db([1, 2])
    before = database.fingerprint()
    database.add("extra", Table({"x": Column.int32([1])}))
    assert database.fingerprint() != before
    middle = database.fingerprint()
    database.drop("extra")
    assert database.fingerprint() not in (before, middle)


def test_identical_sql_on_two_databases_does_not_collide():
    db_a = _orders_db([10, 20, 30])
    db_b = _orders_db([1000, 2000, 3000])  # same schema, different data
    cache = PlanCache()
    session_a = Session(db_a, plan_cache=cache)
    session_b = Session(db_b, plan_cache=cache)
    assert session_a.execute(SQL).table.sorted_rows() == [(60,)]
    result_b = session_b.execute(SQL)
    assert not result_b.serving.plan_cache_hit, "cross-database cache collision"
    assert result_b.table.sorted_rows() == [(6000,)]
    assert len(cache) == 2
    # Warm repeats on each database hit their own entry.
    assert session_a.execute(SQL).serving.plan_cache_hit
    assert session_b.execute(SQL).serving.plan_cache_hit


def test_server_plan_cache_invalidation_end_to_end():
    database = _orders_db([5, 5, 5])
    with Server(database, workers=2) as server:
        assert server.execute(SQL).table.sorted_rows() == [(15,)]
        database.replace(
            "orders",
            Table(
                {
                    "o_revenue": Column.int32([5, 5, 5, 85]),
                    "o_quantity": Column.int32([1, 2, 3, 4]),
                }
            ),
        )
        fresh = server.execute(SQL)
        assert not fresh.serving.plan_cache_hit
        assert fresh.table.sorted_rows() == [(100,)]


# ----------------------------------------------------------------------
# eviction & bypass
# ----------------------------------------------------------------------
def test_plan_cache_lru_eviction():
    database = _orders_db([1, 2, 3])
    cache = PlanCache(capacity=2)
    texts = [
        "select sum(o_revenue) as a from orders",
        "select min(o_revenue) as b from orders",
        "select max(o_revenue) as c from orders",
    ]
    for text in texts:
        cache.lookup(text, database)
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.size == 2
    # The oldest entry was evicted; the newest two still hit.
    assert cache.lookup(texts[0], database)[1] is False
    assert cache.lookup(texts[2], database)[1] is True


def test_concurrent_misses_of_one_statement_plan_it_once(monkeypatch):
    """A lookup that arrives while another thread plans the same text
    waits for that plan and counts as a hit; a different text is not
    held up.  (Planning twice made a 4-worker server count 14 misses
    for 13 statements when a worker was descheduled mid-plan.)"""
    import threading

    from repro.serving import plan_cache as plan_cache_module

    database = _orders_db([1, 2, 3])
    cache = PlanCache()
    planning, release = threading.Event(), threading.Event()
    planned = []
    real_plan_sql = plan_cache_module.plan_sql

    def slow_plan_sql(query, db):
        planned.append(query)
        if query == SQL:
            planning.set()
            assert release.wait(timeout=30)
        return real_plan_sql(query, db)

    monkeypatch.setattr(plan_cache_module, "plan_sql", slow_plan_sql)
    results = {}

    def look(name):
        results[name] = cache.lookup(SQL, database)

    first = threading.Thread(target=look, args=("first",))
    first.start()
    assert planning.wait(timeout=30)
    second = threading.Thread(target=look, args=("second",))
    second.start()
    other = "select min(o_revenue) as m from orders"
    assert cache.lookup(other, database)[1] is False  # not held up
    release.set()
    first.join(timeout=30)
    second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert planned == [SQL, other]
    assert results["first"][1] is False and results["second"][1] is True
    assert results["second"][0] is results["first"][0]
    stats = cache.stats()
    assert (stats.misses, stats.hits) == (2, 1)


def test_logical_plans_bypass_the_cache():
    database = _orders_db([7, 7])
    plan = plan_sql(SQL, database)
    assert isinstance(plan, LogicalPlan)
    cache = PlanCache()
    resolved = []
    for _ in range(2):
        physical, hit = cache.lookup(plan, database)
        assert hit is False
        assert physical.pipelines
        resolved.append(physical)
    assert len(cache) == 0
    # Neither a hit nor a miss: the counters are over SQL text only, so
    # plan-object traffic cannot drag a hit rate it never touched.
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.hit_rate) == (0, 0, 0.0)
    assert stats.size == 0
    # The plan object keeps what it resolved to: the second lookup is
    # the same physical plan, with its pipelines' kernels and estimates.
    assert resolved[1] is resolved[0]


def _counting_extractions(monkeypatch) -> list:
    import repro.serving.plan_cache as plan_cache

    calls = []
    real = plan_cache.extract_pipelines

    def counted(plan, database):
        calls.append(plan)
        return real(plan, database)

    monkeypatch.setattr(plan_cache, "extract_pipelines", counted)
    return calls


def test_a_catalog_mutation_re_extracts_a_plan_object(monkeypatch):
    database = _orders_db([7, 7])
    plan = plan_sql(SQL, database)
    cache = PlanCache()
    calls = _counting_extractions(monkeypatch)
    before, _ = cache.lookup(plan, database)
    assert cache.lookup(plan, database)[0] is before
    assert len(calls) == 1
    database.replace(
        "orders",
        Table({"o_revenue": Column.int32([5, 6, 7]), "o_quantity": Column.int32([1, 2, 3])}),
    )
    after, hit = cache.lookup(plan, database)
    assert hit is False
    assert after is not before
    assert len(calls) == 2
    assert cache.lookup(plan, database)[0] is after
    assert len(calls) == 2
    # The same object against another catalog resolves anew as well.
    other = _orders_db([1])
    assert cache.lookup(plan, other)[0] is not after
    assert len(calls) == 3
    session = connect(database, plan_cache=cache)
    assert session.execute(plan).table.sorted_rows() == [(18,)]


def test_an_equal_rebuilt_plan_object_does_not_share_an_entry(monkeypatch):
    database = _orders_db([7, 7])
    plan, rebuilt = plan_sql(SQL, database), plan_sql(SQL, database)
    assert plan == rebuilt and plan is not rebuilt
    cache = PlanCache()
    calls = _counting_extractions(monkeypatch)
    first, _ = cache.lookup(plan, database)
    second, _ = cache.lookup(rebuilt, database)
    assert second is not first
    assert len(calls) == 2 and calls[0] is plan and calls[1] is rebuilt
    assert cache.stats().size == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# ----------------------------------------------------------------------
# kernel cache
# ----------------------------------------------------------------------
def test_kernel_cache_hits_on_repeat_structures():
    database = _orders_db(np.arange(64))
    clear_kernel_cache()
    session = connect(database, plan_cache=PlanCache(), engine="pipelined")
    cold = session.execute(SQL)
    assert cold.serving.compile_misses > 0
    assert cold.serving.compile_hits == 0
    warm = session.execute(SQL)
    assert warm.serving.compile_misses == 0
    assert warm.serving.compile_hits > 0
    stats = kernel_cache_stats()
    assert stats.hits >= warm.serving.compile_hits
    assert stats.size > 0
    clear_kernel_cache()
    assert kernel_cache_stats().size == 0
