"""Concurrency tests for the serving runtime.

A mixed workload (all 13 SSB queries x several engines, >= 64 queries)
runs through a 4-worker :class:`~repro.serving.Server` and must match a
serial single-session baseline row-for-row, with consistent cache
accounting and no per-query state (``kernel_sources``) leaking between
in-flight queries — the re-entrancy property the tentpole refactor
moved onto :class:`~repro.engines.runtime.QueryRuntime`.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Session
from repro.engines import CompoundEngine, make_engine
from repro.errors import AdmissionError, ServingError
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.serving import PlanCache, Server
from repro.storage.table import rows_approx_equal
from repro.workloads import SSB_QUERIES

#: >= 64 mixed queries: 13 SSB texts under 5 engine aliases.
MIXED_ENGINES = ["operator-at-a-time", "multipass", "pipelined", "resolution", "vector"]
MIXED_WORKLOAD = [
    (name, sql, engine)
    for engine in MIXED_ENGINES
    for name, sql in sorted(SSB_QUERIES.items())
]


def test_mixed_workload_matches_serial_baseline(ssb_db):
    assert len(MIXED_WORKLOAD) >= 64
    baseline = {}
    for name, sql, engine in MIXED_WORKLOAD:
        result = Session(ssb_db, engine=engine).execute(sql)
        baseline[(name, engine)] = result.table.sorted_rows()

    # A cache of its own: the baseline's sessions planned on the catalog's.
    with Server(ssb_db, workers=4, queue_size=16, plan_cache=PlanCache()) as server:
        futures = [
            (name, engine, server.submit(sql, engine=engine))
            for name, sql, engine in MIXED_WORKLOAD
        ]
        mismatches = []
        for name, engine, future in futures:
            rows = future.result(timeout=120).table.sorted_rows()
            if not rows_approx_equal(baseline[(name, engine)], rows):
                mismatches.append(f"{name}/{engine}")
        stats = server.stats()

    assert not mismatches, f"server results diverge from serial baseline: {mismatches}"
    assert stats.submitted == len(MIXED_WORKLOAD)
    assert stats.completed == len(MIXED_WORKLOAD)
    assert stats.failed == 0
    # Every submission probes the plan cache exactly once.
    assert stats.plan_hits + stats.plan_misses == stats.submitted
    # 13 distinct texts: the first pass misses, the other 4 engines hit.
    assert stats.plan_misses == len(SSB_QUERIES)
    assert sum(stats.per_worker) == stats.completed


def test_no_kernel_source_leaks_across_queries(ssb_db):
    """Each result's kernel_sources describes *its* query, nobody else's
    — what this execution launched: all of the query's pipelines, less
    the builds a worker's pool served a resident table for (the
    ``table_hits`` leading pipelines of an SSB star join)."""
    queries = sorted(SSB_QUERIES.items())
    expected = {}
    session = Session(ssb_db, engine="pipelined")
    for name, sql in queries:
        expected[name] = session.execute(sql).kernel_sources
    assert any(expected.values()), "pipelined engine should emit kernel sources"

    with Server(ssb_db, engine="pipelined", workers=4) as server:
        futures = [
            (name, server.submit(sql)) for name, sql in queries for _ in range(3)
        ]
        served = 0
        for name, future in futures:
            result = future.result(timeout=120)
            sources, launched = expected[name], result.kernel_sources
            builds = len(sources) - 1
            assert result.placement.table_hits + result.placement.table_misses == builds
            assert len(launched) == len(sources) - result.placement.table_hits
            assert sources.items() >= launched.items(), (
                f"kernel_sources for {name} polluted by a concurrent query"
            )
            assert list(sources)[-1] in launched  # the fact pipeline always runs
            # A fused launch of sibling builds runs every member's kernel.
            members = [name for trace in result.profile.kernels for name in trace.name.split("+")]
            assert len(members) == len(launched)
            served += result.placement.table_hits
    assert served > 0


def test_shared_engine_instance_is_reentrant(ssb_db):
    """Regression: one CompoundEngine shared by many threads at once.

    Before per-query state moved to QueryRuntime, concurrent executes
    interleaved writes into ``engine.kernel_sources`` and could return
    another query's kernels.
    """
    engine = CompoundEngine("lrgp_simd")
    queries = sorted(SSB_QUERIES.items())[:4]
    session = Session(ssb_db, engine=engine)
    expected = {name: session.execute(sql).kernel_sources for name, sql in queries}

    errors: list[str] = []

    def hammer(name: str, sql: str) -> None:
        device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
        physical = Session(ssb_db).physical(sql)
        for _ in range(5):
            result = engine.execute(physical, ssb_db, device)
            if result.kernel_sources != expected[name]:
                errors.append(name)

    threads = [
        threading.Thread(target=hammer, args=(name, sql)) for name, sql in queries
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"shared engine leaked kernel sources across threads: {errors}"


def test_admission_queue_applies_backpressure(ssb_db):
    started = threading.Event()
    release = threading.Event()
    inner = make_engine("resolution")

    class BlockingEngine:
        def execute(self, physical, database, device, seed=42):
            started.set()
            assert release.wait(timeout=30)
            return inner.execute(physical, database, device, seed=seed)

    sql = "select count(*) as n from lineorder"
    with Server(ssb_db, workers=1, queue_size=1) as server:
        first = server.submit(sql, engine=BlockingEngine())
        assert started.wait(timeout=30)  # worker busy, queue empty
        second = server.submit(sql)  # fills the queue
        with pytest.raises(AdmissionError):
            server.submit(sql, block=False)
        with pytest.raises(AdmissionError):
            server.submit(sql, timeout=0.01)
        release.set()
        assert first.result(timeout=60).table.num_rows == 1
        assert second.result(timeout=60).table.num_rows == 1

    stats = server.stats()
    assert stats.submitted == stats.completed == 2


def test_closed_server_rejects_submissions(ssb_db):
    server = Server(ssb_db, workers=1)
    server.close()
    with pytest.raises(ServingError):
        server.submit("select count(*) as n from lineorder")


def test_execute_many_preserves_input_order(ssb_db):
    queries = [sql for _, sql in sorted(SSB_QUERIES.items())]
    expected = [
        Session(ssb_db).execute(sql).table.sorted_rows() for sql in queries
    ]
    with Server(ssb_db, workers=4) as server:
        results = server.execute_many(queries * 2, workers=4)
    assert len(results) == 2 * len(queries)
    for index, result in enumerate(results):
        assert rows_approx_equal(
            expected[index % len(queries)], result.table.sorted_rows()
        )
