"""A warm query pays for its rows, not for itself — as counts.

Everything between the SQL text and the first column read is resolved
once per (statement, database version) for every :class:`Session`
over a catalog: the statement's plan comes from the catalog's plan
cache, its kernels from the pipeline objects of that plan.  Wall-clock says nothing repeatable
about that on a shared box, so these tests count calls instead: the
second execute of a statement must not parse, extract or emit a single
line of kernel source, on any execution path.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.cli import main as cli_main
from repro.hardware import PCIE3
from repro.hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from repro.kernels import codegen
from repro.kernels.codegen import clear_kernel_cache, kernel_cache_stats
from repro.placement import base_column_bytes
from repro.plan.pipelines import extract_pipelines
from repro.serving import PlanCache, Server, normalize_sql
from repro.sql.translate import plan_sql
from repro.storage import Column, Table
from repro.telemetry import FlightRecorder
from repro.telemetry.recorder import BUNDLE_MANIFEST
from repro.workloads import SSB_QUERIES, generate_ssb

Q11, Q21 = SSB_QUERIES["q1.1"], SSB_QUERIES["q2.1"]
#: A single-tuple AVG: sliced runs (vectors, morsels) execute it on its
#: hidden-SUM-and-COUNT rewrite, a pipeline derived at run time.
AVG = "select avg(lo_revenue) as r, count(*) as n from lineorder where lo_discount < 5"
SSB_RECIPE = {"workload": "ssb", "scale_factor": 0.004, "seed": 7}


def _counted(monkeypatch, function) -> list:
    """Count calls of ``function`` under every name a loaded ``repro``
    module bound it to (``from x import f`` copies the reference)."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, counting)
    assert calls == []
    return calls


def _quarter_device(database, sql):
    """A device holding a quarter of ``sql``'s base columns: the query
    streams out of core (the ``partitioned_execution`` recipe)."""
    working_set = base_column_bytes(repro.connect(database).physical(sql), database)
    profile = repro.GTX970.with_overrides(
        name="GTX970-quarter", memory_capacity=working_set // 4
    )
    return repro.VirtualCoprocessor(profile, interconnect=PCIE3)


#: label -> (session options, statement, kernel lookups per execution —
#: the numbers the commit before the identity lookup reported as warm
#: ``compile_hits`` with a shared ``PlanCache``, halved for multi-pass,
#: whose count and write phases share one kernel per pipeline).
PATHS = {
    "resolution": (dict(engine="resolution"), Q21, 4),
    "pipelined": (dict(engine="pipelined"), Q21, 4),
    "multipass": (dict(engine="multipass"), Q21, 4),
    "vector": (dict(engine="vector"), Q21, 4),
    "operator-at-a-time": (dict(engine="operator-at-a-time"), Q21, 0),
    "fleet": (dict(devices=4), Q21, 20),
    "out-of-core": (dict(residency=True), Q11, 2),
    "vector-avg": (dict(engine="vector"), AVG, 1),
    "fleet-avg": (dict(devices=4), AVG, 8),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_second_execute_resolves_nothing(ssb_db, fresh_ssb, monkeypatch, path):
    options, sql, lookups = PATHS[path]
    if path == "out-of-core":
        options = dict(options, device=_quarter_device(ssb_db, sql))
    clear_kernel_cache()
    parsed = _counted(monkeypatch, plan_sql)
    extracted = _counted(monkeypatch, extract_pipelines)
    emitted = _counted(monkeypatch, codegen._emit_stages)
    session = repro.connect(fresh_ssb, **options)  # no plan_cache= given

    cold = session.execute(sql)
    assert cold.serving.plan_cache_hit is False
    assert (len(parsed), len(extracted)) == (1, 1)
    assert bool(emitted) == bool(lookups)
    assert cold.serving.compile_hits + cold.serving.compile_misses == lookups
    if path == "out-of-core":
        assert cold.placement.out_of_core

    del parsed[:], extracted[:], emitted[:]
    warm = session.execute(sql)
    assert warm.serving.plan_cache_hit is True
    assert (parsed, extracted, emitted) == ([], [], [])
    # A build pipeline whose hash table is pool-resident does not run,
    # so it looks up no kernel and lists no source (residency only).
    served = warm.placement.table_hits if options.get("residency") else 0
    assert served == (1 if path == "out-of-core" else 0)
    builds = [pipeline.name for pipeline in session.physical(sql).pipelines[:served]]
    # The identity lookup is a kernel-cache hit like any other.
    assert (warm.serving.compile_hits, warm.serving.compile_misses) == (
        lookups - served, 0
    )
    assert warm.kernel_sources == {
        name: source
        for name, source in cold.kernel_sources.items()
        if name not in builds
    }
    assert warm.table.sorted_rows() == cold.table.sorted_rows()
    assert warm.total_ms == cold.total_ms or options.get("residency")


def test_catalog_changes_replan(monkeypatch):
    lineorder = Table({"lo_revenue": Column.int32([1, 2, 3])})
    database = repro.Database({"lineorder": lineorder})
    sql = "select sum(lo_revenue) as r from lineorder"
    parsed = _counted(monkeypatch, plan_sql)
    session = repro.connect(database)
    assert session.execute(sql).table.sorted_rows() == [(6,)]
    assert session.execute(sql).serving.plan_cache_hit

    changes = (
        lambda: database.replace("lineorder", Table({"lo_revenue": Column.int32([5, 5])})),
        lambda: database.add("extra", lineorder),
        lambda: database.drop("extra"),
    )
    for count, change in enumerate(changes, start=2):
        change()
        result = session.execute(sql)
        assert not result.serving.plan_cache_hit
        assert len(parsed) == count
        assert result.table.sorted_rows() == [(10,)]
        assert session.execute(sql).serving.plan_cache_hit


def test_who_shares_a_plan_cache(fresh_ssb, tpch_db):
    """Every session and server over one catalog built without
    ``plan_cache=`` shares the catalog's one cache."""
    first, second = repro.connect(fresh_ssb), repro.connect(fresh_ssb, engine="multipass")
    assert isinstance(first.plan_cache, PlanCache)
    assert first.plan_cache is second.plan_cache is fresh_ssb.plan_cache
    assert not first.execute(Q11).serving.plan_cache_hit
    assert second.execute(Q11).serving.plan_cache_hit
    # Sessions over two catalogs do not share.
    other = generate_ssb(0.004, seed=7)
    assert repro.connect(other).plan_cache is other.plan_cache is not first.plan_cache
    assert not repro.connect(other).execute(Q11).serving.plan_cache_hit
    assert repro.connect(tpch_db).plan_cache is not first.plan_cache
    # ``plan_cache=`` keeps its meaning: use this one.
    private = PlanCache()
    assert repro.connect(fresh_ssb, plan_cache=private).plan_cache is private
    assert not repro.connect(fresh_ssb, plan_cache=private).execute(
        Q11
    ).serving.plan_cache_hit
    # A sibling (what a Server worker is) shares its session's cache.
    sibling = first._sibling()
    assert sibling.plan_cache is first.plan_cache
    assert sibling.execute(Q11).serving.plan_cache_hit
    # A server and a session over one catalog share one cache.
    with Server(fresh_ssb, workers=2) as server:
        assert server.plan_cache is first.plan_cache
        assert {worker.plan_cache for worker in server._sessions} == {server.plan_cache}
        assert server.execute(Q11).serving.plan_cache_hit
    # Clearing it clears it for every session over the catalog.
    first.plan_cache.clear()
    assert not second.execute(Q11).serving.plan_cache_hit


def test_sessions_over_one_catalog_plan_once(monkeypatch):
    """The ``compressed_link`` round: an ``auto`` and a ``lazy`` session
    over a new SSB database between them parse and extract each of the
    13 statements once (26 times when each session planned apart),
    round after round."""
    parsed = _counted(monkeypatch, plan_sql)
    extracted = _counted(monkeypatch, extract_pipelines)
    counts = []
    for _ in range(2):
        database = generate_ssb(0.01, seed=12)
        for mode in ("auto", "lazy"):
            session = repro.connect(database, compression=mode)
            for _name, sql in sorted(SSB_QUERIES.items()):
                session.execute(sql)
        counts.append((len(parsed), len(extracted)))
        del parsed[:], extracted[:]
    assert counts == [(len(SSB_QUERIES), len(SSB_QUERIES))] * 2


def test_sessions_racing_to_a_new_catalog_plan_once(monkeypatch):
    """Eight threads connect to one new catalog at once and run one
    statement: they get the catalog's one cache, and it parses the
    statement once."""
    database = generate_ssb(0.002, seed=5)
    parsed = _counted(monkeypatch, plan_sql)
    threads = 8
    start = threading.Barrier(threads)

    def run(_):
        start.wait()
        session = repro.connect(database)
        return session.plan_cache, session.execute(Q11).table.sorted_rows()

    with ThreadPoolExecutor(threads) as pool:
        outcomes = list(pool.map(run, range(threads)))
    assert {id(cache) for cache, _rows in outcomes} == {id(database.plan_cache)}
    assert len(parsed) == 1
    assert all(rows == outcomes[0][1] for _cache, rows in outcomes)


def test_seen_text_is_not_normalized_again(ssb_db, monkeypatch):
    import repro.serving.plan_cache as module

    normalized = []
    monkeypatch.setattr(
        module, "normalize_sql", lambda text: normalized.append(text) or normalize_sql(text)
    )
    cache = PlanCache()
    shouted = Q11.upper()  # no string literal in q1.1: same normalized text
    for text in (Q11, Q11, shouted, Q11, shouted):
        cache.lookup(text, ssb_db)
    assert normalized == [Q11, shouted]
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.size) == (4, 1, 1)
    cache.clear()
    cache.lookup(Q11, ssb_db)
    assert normalized == [Q11, shouted, Q11]


def test_clear_kernel_cache_is_cold_again_under_a_cached_plan(ssb_db, monkeypatch):
    clear_kernel_cache()
    emitted = _counted(monkeypatch, codegen._emit_stages)
    session = repro.connect(ssb_db, engine="multipass")
    cold = session.execute(Q21)
    assert (cold.serving.compile_hits, cold.serving.compile_misses) == (0, 4)
    clear_kernel_cache()
    del emitted[:]
    again = session.execute(Q21)
    # The plan is a cache hit; its pipelines' kernels are gone with the
    # cache that was cleared (``tiny_cold_frontend`` stays cold).
    assert again.serving.plan_cache_hit
    assert (again.serving.compile_hits, again.serving.compile_misses) == (0, 4)
    assert len(emitted) == 4
    stats = kernel_cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (0, 4, 4)
    warm = session.execute(Q21)
    assert (warm.serving.compile_hits, warm.serving.compile_misses) == (4, 0)
    assert kernel_cache_stats().hits == 4


def test_tiny_kernel_cache_stays_bounded_and_correct(ssb_db, monkeypatch):
    clear_kernel_cache()
    monkeypatch.setattr(codegen, "KERNEL_CACHE_CAPACITY", 2)
    reference = repro.connect(ssb_db, device=repro.XEON_E5, engine="cpu")
    session = repro.connect(ssb_db, engine="multipass")
    for _ in range(2):
        for name in ("q1.1", "q2.1", "q3.1"):
            sql = SSB_QUERIES[name]
            result = session.execute(sql)
            assert result.table.sorted_rows() == reference.execute(sql).table.sorted_rows()
            assert kernel_cache_stats().size <= 2
    assert kernel_cache_stats().evictions > 0
    # Evicted from the LRU or not, a cached plan keeps its own kernels.
    assert session.execute(SSB_QUERIES["q1.1"]).serving.compile_misses == 0


@pytest.mark.parametrize("options", (dict(), dict(devices=4)), ids=("single", "fleet"))
def test_no_memo_outlives_its_plan(options):
    """The lifetime rule: kernels and derived pipelines hang off the
    plan's own pipeline objects, and the plan cache hangs off its
    catalog, so dropping the database (and the sessions over it) frees
    the cache and its plans."""
    database = generate_ssb(0.004, seed=7)
    session = repro.connect(database, **options)
    session.execute(AVG)
    cache = weakref.ref(database.plan_cache)
    plan = weakref.ref(session.physical(AVG))
    pipeline = weakref.ref(plan().final_pipeline)
    assert pipeline().kernels or pipeline().derived
    del session, database
    gc.collect()
    assert cache() is None and plan() is None and pipeline() is None


def test_memory_level_and_meter_api_unchanged():
    for level in MemoryLevel:
        assert pickle.loads(pickle.dumps(level)) is level
        assert MemoryLevel(level.value) is level
    assert len({hash(level) for level in MemoryLevel}) == 3
    meter, other = TrafficMeter(), TrafficMeter()
    assert list(meter.reads) == list(meter.writes) == list(MemoryLevel)
    meter.record_read(MemoryLevel.GLOBAL, 100)
    meter.record_write(MemoryLevel.ONCHIP, 7)
    meter.reads[MemoryLevel.GLOBAL] -= 1  # the dicts stay writable
    other.record_table_write(5)
    other.record_atomics(AtomicBatch(4, 2, "rmw"))
    other.record_instructions(9)
    other.record_barrier()
    meter.merge(other)
    assert other.reads[MemoryLevel.GLOBAL] == 0  # no dict shared between meters
    assert meter.snapshot() == {
        "reads": {"host": 0, "global": 99, "onchip": 0},
        "writes": {"host": 0, "global": 5, "onchip": 7},
        "atomic_count": 4,
        "atomic_max_chain": 2,
        "atomic_chains": {"add": 0, "fetch_add": 0, "rmw": 2},
        "instructions": 9,
        "barriers": 1,
        "table_bytes": 5,
    }
    assert TrafficMeter().snapshot()["reads"] == {"host": 0, "global": 0, "onchip": 0}


def test_plain_session_flight_record_carries_plan_cache_hit(fresh_ssb, tmp_path, capsys):
    with FlightRecorder(
        postmortem_dir=str(tmp_path), database_recipe=SSB_RECIPE
    ) as recorder:
        session = repro.connect(fresh_ssb, recorder=recorder)
        session.execute(Q11)
        assert recorder.last().metrics["plan_cache_hit"] is False
        session.execute(Q11)
        record = recorder.last()
        assert record.metrics["plan_cache_hit"] is True
        bundle = recorder.capture(record, name="warm")
    # A bundle written before plain sessions recorded the key replays.
    path = os.path.join(bundle, BUNDLE_MANIFEST)
    with open(path) as handle:
        text = handle.read()
    assert '"plan_cache_hit"' in text
    manifest = json.loads(text)
    _strip(manifest, "plan_cache_hit")
    with open(path, "w") as handle:
        json.dump(manifest, handle)
    assert cli_main(["replay", bundle]) == 0
    assert "MATCH" in capsys.readouterr().out


def _strip(node, key) -> None:
    if isinstance(node, dict):
        node.pop(key, None)
        for value in node.values():
            _strip(value, key)
    elif isinstance(node, list):
        for value in node:
            _strip(value, key)


def test_workers_racing_on_one_cached_plan(ssb_db):
    """More workers than cores on one statement with a tiny switch
    interval: every worker launches the same pipeline objects (and
    memoises their build signatures on them).  A lost update on the
    shared hit counter, or a kernel seen half-resolved, would break the
    totals or a result."""
    clear_kernel_cache()
    queries, lookups = 48, 4  # q2.1 on multipass: one kernel per pipeline
    expected = repro.connect(ssb_db, engine="multipass").execute(Q21).table.sorted_rows()
    clear_kernel_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(ssb_db, workers=6, engine="multipass", queue_size=queries) as server:
            futures = [server.submit(Q21) for _ in range(queries)]
            results = [future.result(timeout=120) for future in futures]
            stats = server.stats()
    finally:
        sys.setswitchinterval(interval)
    assert all(result.table.sorted_rows() == expected for result in results)
    # A worker's first execution builds the three dimension tables and
    # leaves them in its pool; from then on it launches — and looks up
    # the one kernel of — the fact pipeline only.
    looked_up = 0
    for result in results:
        serving, placement = result.serving, result.placement
        assert placement.table_hits + placement.table_misses == 3
        assert placement.table_hits in (0, 3)
        assert serving.compile_hits + serving.compile_misses == (
            lookups - placement.table_hits
        )
        looked_up += serving.compile_hits + serving.compile_misses
    cold = sum(result.placement.table_misses == 3 for result in results)
    assert 1 <= cold <= 6  # one per worker that took a query
    assert looked_up == cold * lookups + (queries - cold) * 1
    assert stats.compile_hits + stats.compile_misses == looked_up
    cache = kernel_cache_stats()
    assert cache.hits + cache.misses == looked_up
    assert cache.size == lookups
