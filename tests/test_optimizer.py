"""Adaptive cost-based optimizer tests.

Covers the subsystem layers (statistics, cost model, accuracy window,
advisor) plus the integration surfaces: auto executions stay
byte-identical to pinned ones, the advisor never strands a query on an
out-of-memory pick (Hypothesis property), the chosen strategy's
observed simulated time carries bounded regret against a brute-force
pinned oracle, and plan-cache entries for auto and pinned
configurations never collide.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.engines import make_engine
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.expressions.expr import col, lit
from repro.hardware import GTX970, NVLINK1, PCIE3, VirtualCoprocessor
from repro.optimizer import (
    AccuracyWindow,
    Advisor,
    AutoExecutor,
    CostEstimator,
    StatisticsCatalog,
    StrategyChoice,
    collect_table_stats,
)
from repro.placement import base_column_bytes
from repro.plan.pipelines import extract_pipelines
from repro.serving.plan_cache import PlanCache
from repro.sql.translate import plan_sql
from repro.storage.table import rows_approx_equal
from repro.workloads import SSB_QUERIES, TPCH_PLANS, microbench

#: Small enough that SSB sf=0.004 working sets overflow run-to-finish.
TINY_GPU = GTX970.with_overrides(memory_capacity=512 << 10)

PINNED_ENGINES = ["operator-at-a-time", "multipass", "pipelined", "resolution"]


def _physical(plan, database):
    return extract_pipelines(plan, database)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_column_stats_capture_domain(ssb_db):
    stats = collect_table_stats("lineorder", ssb_db.table("lineorder"))
    quantity = stats.column("lo_quantity")
    assert quantity is not None
    assert quantity.rows == ssb_db.table("lineorder").num_rows
    assert quantity.minimum == 1.0
    assert quantity.maximum == 50.0
    assert quantity.integral
    assert 40 <= quantity.distinct <= 60
    assert stats.column("no_such_column") is None


def test_statistics_catalog_caches_and_invalidates(ssb_db):
    catalog = StatisticsCatalog()
    first = catalog.table_stats(ssb_db, "date")
    again = catalog.table_stats(ssb_db, "date")
    assert first is again
    assert catalog.collections == 1
    assert catalog.hits == 1

    # A catalog mutation bumps the fingerprint: stats are re-collected
    # and the stale version's entry is evicted, not accumulated.
    ssb_db.replace("date", ssb_db.table("date"))
    try:
        fresh = catalog.table_stats(ssb_db, "date")
        assert fresh is not first
        assert catalog.collections == 2
        assert len(catalog) == 1
    finally:
        # restore the fixture's fingerprint-stability for other tests
        ssb_db.replace("date", ssb_db.table("date"))


def test_analyze_collects_every_table(tpch_db):
    catalog = StatisticsCatalog()
    collected = catalog.analyze(tpch_db)
    assert set(collected) == set(tpch_db.table_names)
    assert all(stats.rows >= 0 for stats in collected.values())


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def test_between_selectivity_tracks_paper_knob(ssb_db):
    catalog = StatisticsCatalog()
    estimator = CostEstimator(GTX970, PCIE3, catalog)
    stats = catalog.table_stats(ssb_db, "lineorder")
    for x in (0, 5, 12, 25):
        predicate = col("lo_quantity").between(25 - x, 25 + x)
        predicted = estimator.predicate_selectivity(predicate, stats, {})
        expected = microbench.selectivity_of(x)
        assert predicted == pytest.approx(expected, abs=0.05)


def test_compound_selectivity_composes(ssb_db):
    catalog = StatisticsCatalog()
    estimator = CostEstimator(GTX970, PCIE3, catalog)
    stats = catalog.table_stats(ssb_db, "lineorder")
    narrow = col("lo_quantity").between(20, 30)
    single = estimator.predicate_selectivity(narrow, stats, {})
    both = estimator.predicate_selectivity(narrow & narrow, stats, {})
    either = estimator.predicate_selectivity(narrow | narrow, stats, {})
    assert both == pytest.approx(single * single, rel=1e-6)
    assert either == pytest.approx(1 - (1 - single) ** 2, rel=1e-6)
    assert 0.0 <= estimator.predicate_selectivity(
        ~narrow, stats, {}
    ) <= 1.0


def test_byte_predictions_match_execution(ssb_db):
    """Predicted PCIe bytes for the chosen strategy stay within 10% of
    the actual transfer accounting (acceptance: <5% median over a
    workload; individual queries get a little slack)."""
    for plan in (
        microbench.projection_query(25),
        microbench.group_by_query(8),
        microbench.star_join_aggregate_query(),
    ):
        auto = AutoExecutor(GTX970, PCIE3)
        result = auto.execute(_physical(plan, ssb_db), ssb_db, seed=42)
        decision = result.optimizer
        predicted = decision.estimate.pcie_bytes
        observed = decision.observed_pcie_bytes
        assert observed > 0
        assert abs(predicted - observed) / observed < 0.10


def test_streaming_contracts_peak_footprint(ssb_db):
    """Run-to-finish peak exceeds the tiny device; the out-of-core
    estimate's peak (dims + two streaming blocks) fits.  Capacity
    pruning itself is the advisor's job (tested below)."""
    catalog = StatisticsCatalog()
    estimator = CostEstimator(TINY_GPU, PCIE3, catalog)
    query = _physical(microbench.projection_query(25), ssb_db)
    fit = estimator.estimate(
        query, ssb_db,
        StrategyChoice("resolution", "run-to-finish", 1, "range", "transient"),
    )
    stream = estimator.estimate(
        query, ssb_db,
        StrategyChoice("pipelined", "out-of-core", 1, "range", "transient"),
    )
    assert fit.peak_device_bytes > TINY_GPU.memory_capacity
    assert stream.peak_device_bytes < fit.peak_device_bytes


def test_virtual_final_pipeline_cannot_stream_or_partition(tpch_db):
    """q15's final pipeline reads a virtual table: the estimator flags
    out-of-core and scale-out as statically infeasible for it."""
    from repro.workloads import TPCH_PLANS

    catalog = StatisticsCatalog()
    estimator = CostEstimator(GTX970, PCIE3, catalog)
    query = _physical(TPCH_PLANS["q15"](tpch_db), tpch_db)
    assert query.final_pipeline.source_is_virtual
    streamed = estimator.estimate(
        query, tpch_db,
        StrategyChoice("pipelined", "out-of-core", 1, "range", "transient"),
    )
    assert not streamed.feasible and "final pipeline" in streamed.reason
    fanned = estimator.estimate(
        query, tpch_db,
        StrategyChoice("pipelined", "run-to-finish", 2, "range", "transient"),
    )
    assert not fanned.feasible


def test_pooled_residency_discounts_h2d(ssb_db):
    catalog = StatisticsCatalog()
    estimator = CostEstimator(GTX970, PCIE3, catalog)
    query = _physical(microbench.projection_query(25), ssb_db)
    pooled = StrategyChoice("resolution", "run-to-finish", 1, "range", "pooled")
    cold = estimator.estimate(query, ssb_db, pooled)
    warm = estimator.estimate(
        query, ssb_db, pooled,
        resident_columns=frozenset(query.final_pipeline.base_columns()),
    )
    assert warm.pcie_h2d_bytes < cold.pcie_h2d_bytes
    assert warm.total_ms < cold.total_ms


def test_resident_columns_are_counted_once_in_the_peak(ssb_db):
    """The peak counts every column a load is first to read, pool hit or
    not, raw: a pooled device's resident columns are in it once, and a
    transient device holds none of them."""
    estimator = CostEstimator(GTX970, PCIE3, StatisticsCatalog())
    query = _physical(plan_sql(SSB_QUERIES["q2.1"], ssb_db), ssb_db)
    resident = frozenset(query.final_pipeline.base_columns())

    def peak(placement, columns):
        strategy = StrategyChoice("resolution", "run-to-finish", 1, "range", placement)
        return estimator.estimate(
            query, ssb_db, strategy, resident_columns=columns
        ).peak_device_bytes

    assert peak("transient", resident) == peak("transient", frozenset())
    assert peak("pooled", resident) <= peak("pooled", frozenset())


def test_dominated_streaming_is_not_priced(ssb_db, monkeypatch):
    """Once a run-to-finish working set fits in half the device, every
    out-of-core candidate is pruned as dominated without an estimate;
    on a device it does not fit, streaming is priced (and chosen)."""
    query = _physical(microbench.group_by_query(64), ssb_db)
    for profile, streams in ((GTX970, False), (TINY_GPU, True)):
        advisor = Advisor(profile, PCIE3)
        priced, estimate = [], advisor.estimator.estimate
        monkeypatch.setattr(
            advisor.estimator, "estimate",
            lambda query, database, choice, **kw: priced.append(choice) or estimate(
                query, database, choice, **kw
            ),
        )
        decision = advisor.advise(query, ssb_db, devices=1)
        streamed = [choice for choice in priced if choice.macro == "out-of-core"]
        dominated = [p.strategy for p in decision.pruned if p.reason.startswith("dominated")]
        if streams:
            assert streamed and not dominated
        else:
            assert not streamed
            assert [(choice.engine, choice.placement) for choice in dominated] == [
                ("pipelined", "pooled"), ("pipelined", "transient"),
                ("resolution", "pooled"), ("resolution", "transient"),
            ]
        assert (decision.chosen.macro == "out-of-core") == streams


# ----------------------------------------------------------------------
# accuracy window
# ----------------------------------------------------------------------
def test_plan_object_estimates_belong_to_one_statistics_configuration(ssb_db):
    """Pipeline estimates ride on the plan object.  Two estimators whose
    catalogs sample differently must not read each other's, and a new
    catalog version replaces the entry it outdates."""
    plan = plan_sql(SSB_QUERIES["q1.1"], ssb_db)
    query, strategy = _physical(plan, ssb_db), StrategyChoice(engine="pipelined")
    full = CostEstimator(GTX970, PCIE3, StatisticsCatalog())
    coarse = CostEstimator(GTX970, PCIE3, StatisticsCatalog(sample_limit=16))
    first = full.estimate(query, ssb_db, strategy)
    sampled = coarse.estimate(query, ssb_db, strategy)
    assert sampled == coarse.estimate(_physical(plan, ssb_db), ssb_db, strategy)
    assert sampled.global_bytes != first.global_bytes
    assert full.estimate(query, ssb_db, strategy) == first
    assert len(query.estimates) == 2
    ssb_db.replace("date", ssb_db.table("date"))  # a new catalog version
    assert full.estimate(query, ssb_db, strategy) == first
    assert len(query.estimates) == 2


def test_a_reused_plan_object_is_priced_once(ssb_db, monkeypatch):
    """A plan object keeps what it resolved to, and with it the
    pipeline estimates: a second ``advise`` of the same object runs no
    estimator engine and decides identically; an equal plan built anew
    is priced anew."""
    from dataclasses import asdict

    import repro.optimizer.cost as cost

    session = Session(ssb_db, engine="auto", compression="auto")
    plan = microbench.star_join_aggregate_query()
    first = session.optimizer_decision(plan)
    priced = []
    real = cost.make_engine
    monkeypatch.setattr(cost, "make_engine", lambda name: priced.append(name) or real(name))
    second = session.optimizer_decision(plan)
    assert priced == []
    assert second.chosen == first.chosen
    assert [asdict(c) for c in second.candidates] == [asdict(c) for c in first.candidates]
    rebuilt = session.optimizer_decision(microbench.star_join_aggregate_query())
    assert priced
    assert [asdict(c) for c in rebuilt.candidates] == [asdict(c) for c in first.candidates]


def test_accuracy_window_byte_and_time_error():
    window = AccuracyWindow(history=4)
    # A fresh window has seen nothing (what ``reset`` used to restore).
    assert window.samples == 0
    assert window.median_byte_error() is None
    assert window.median_time_error() is None
    window.observe(
        predicted_ms=1.0, observed_ms=2.0, predicted_bytes=95, observed_bytes=100
    )
    assert window.median_byte_error() == pytest.approx(0.05)
    assert window.median_time_error() == pytest.approx(0.5)
    assert window.samples == 1
    # Only the last ``history`` executions count.
    for _ in range(4):
        window.observe(predicted_ms=3.0, observed_ms=3.0)
    assert window.median_time_error() == 0.0
    assert window.median_byte_error() == pytest.approx(0.05)
    assert window.samples == 5


# ----------------------------------------------------------------------
# advisor
# ----------------------------------------------------------------------
def test_advisor_ranks_full_lattice(ssb_db):
    advisor = Advisor(GTX970, PCIE3)
    query = _physical(microbench.star_join_aggregate_query(), ssb_db)
    decision = advisor.advise(query, ssb_db)
    assert decision.chosen is decision.candidates[0].strategy
    ranked = [candidate.total_ms for candidate in decision.candidates]
    assert ranked == sorted(ranked)
    # Engines, macros, and device counts all show up in the lattice.
    engines = {c.strategy.engine for c in decision.candidates}
    assert {"pipelined", "resolution"} <= engines
    assert decision.advise_ms >= 0.0
    rendered = decision.render()
    assert "strategy" in rendered and "predicted" in rendered
    assert decision.chosen.describe() in rendered


def test_advisor_respects_pinned_dimensions(ssb_db):
    advisor = Advisor(GTX970, PCIE3)
    query = _physical(microbench.group_by_query(64), ssb_db)
    assert advisor.advise(query, ssb_db, engine="multipass").chosen.engine == \
        "multipass"
    assert advisor.advise(query, ssb_db, devices=2).chosen.devices == 2
    pooled = advisor.advise(query, ssb_db, placement="pooled").chosen
    assert pooled.placement == "pooled"
    streamed = advisor.advise(query, ssb_db, macro="out-of-core").chosen
    assert streamed.macro == "out-of-core"


def test_advisor_routes_oversized_out_of_core(ssb_db):
    advisor = Advisor(TINY_GPU, PCIE3)
    query = _physical(microbench.group_by_query(64), ssb_db)
    decision = advisor.advise(query, ssb_db, devices=1)
    assert decision.chosen.macro == "out-of-core"
    # Every infeasible run-to-finish candidate names the memory gap.
    reasons = [p.reason for p in decision.pruned]
    assert any("memory" in reason for reason in reasons)


def test_advisor_bounded_regret_vs_pinned_oracle(ssb_db):
    """The chosen strategy's *observed* simulated latency stays within
    25% of the best pinned single-device engine (the brute-force
    oracle) — the crossover queries of Figures 16/26 land on the right
    side of the lattice — and adapting beats committing: the worst
    single engine pinned for the whole grid costs >= 1.5x (geomean)
    what ``auto`` does.  Oracle and ``auto`` both start cold."""
    grid = [
        microbench.projection_query(0),
        microbench.projection_query(25),
        microbench.aggregation_query(12),
        microbench.group_by_query(8),
        microbench.group_by_query(65536),
        microbench.star_join_aggregate_query(),
    ]
    pinned_over_auto = {name: [] for name in PINNED_ENGINES}
    for plan in grid:
        query = _physical(plan, ssb_db)
        oracle = {}
        for name in PINNED_ENGINES:
            device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
            result = make_engine(name).execute(query, ssb_db, device, seed=42)
            oracle[name] = result.total_ms
        auto = AutoExecutor(GTX970, PCIE3)
        chosen = auto.execute(query, ssb_db, seed=42)
        best = min(oracle.values())
        assert chosen.total_ms <= best * 1.25, (
            f"regret {chosen.total_ms / best:.2f} for "
            f"{chosen.optimizer.chosen.describe()}; oracle {oracle}"
        )
        for name, pinned_ms in oracle.items():
            pinned_over_auto[name].append(pinned_ms / chosen.total_ms)
    worst = max(
        math.exp(sum(map(math.log, ratios)) / len(ratios))
        for ratios in pinned_over_auto.values()
    )
    assert worst >= 1.5, pinned_over_auto


def test_link_byte_error_under_5_percent_after_50_decisions(ssb_db):
    """One cold :class:`AutoExecutor`, two passes over the paper's
    micro-benchmarks plus all 13 SSB queries (advise, execute,
    repeat): the median predicted-vs-observed link-byte
    error is below 5% once at least 50 decisions have been observed."""
    plans = []
    for x in (0, 5, 10, 15, 20, 25):
        plans += [microbench.projection_query(x), microbench.aggregation_query(x)]
    plans += [
        microbench.group_by_query(groups)
        for groups in (1, 8, 64, 1024, 16384, 100000)
    ]
    plans += [microbench.star_join_query(), microbench.star_join_aggregate_query()]
    plans += [plan_sql(sql, ssb_db) for _name, sql in sorted(SSB_QUERIES.items())]
    queries = [_physical(plan, ssb_db) for plan in plans]
    auto = AutoExecutor(GTX970, PCIE3)
    for _sweep in range(2):
        for query in queries:
            auto.execute(query, ssb_db, seed=42)
    assert auto.decisions >= 50
    assert auto.calibrator.median_byte_error() < 0.05


# ----------------------------------------------------------------------
# decisions are pure and safe
# ----------------------------------------------------------------------
def _benchmark_items(database):
    """The 22 ``auto_strategy`` items: 13 SSB queries + 9 micro plans."""
    items = sorted(SSB_QUERIES.items())
    for x in (0, 25):
        items.append((f"micro:proj-x{x}", microbench.projection_query(x)))
        items.append((f"micro:agg-x{x}", microbench.aggregation_query(x)))
    for groups in (1, 64, 16384):
        items.append((f"micro:groupby-g{groups}", microbench.group_by_query(groups)))
    items.append(("micro:star-join", microbench.star_join_query()))
    items.append(("micro:star-join-agg", microbench.star_join_aggregate_query()))
    return items


@pytest.fixture(scope="module")
def benchmark_db():
    from repro.workloads import generate_ssb

    return generate_ssb(0.03, seed=12)


def test_estimates_do_not_depend_on_session_history(benchmark_db):
    """An estimate is a pure function of (plan, statistics, policy, pool
    contents): two fresh sessions, and one that first ran the worst
    mis-estimated plan of the old hand-written shapes twelve times,
    agree on every candidate's estimate and on every choice.  (With the
    correction loop that run left a factor of 1.97 behind.)"""
    from dataclasses import asdict

    items = _benchmark_items(benchmark_db)

    def decisions(warm_up: int):
        session = Session(benchmark_db, engine="auto", compression="auto")
        for _ in range(warm_up):
            session.execute(microbench.group_by_query(1))
        # Same pool contents everywhere: nothing but the warm-up plan's
        # two columns, which every session loads first.
        session.execute(microbench.group_by_query(1))
        return [
            (name, decision.chosen, [asdict(c) for c in decision.candidates])
            for name, query in items
            for decision in [session.optimizer_decision(query)]
        ]

    fresh = decisions(0)
    assert fresh == decisions(0)
    assert fresh == decisions(12)


def test_regret_against_a_same_warmth_oracle(benchmark_db):
    """No correction factor anywhere, and the choice is still right:
    on the 22 benchmark items ``auto``'s simulated time is within 5 % of
    the best pinned engine under the same residency, compression and
    warmth (geomean within 0.5 %), and the grouped aggregation the old
    shapes got wrong (``groupby-g64``: ``resolution`` estimated below
    ``pipelined``, runs 3x slower) goes to ``pipelined``."""
    items = _benchmark_items(benchmark_db)

    def warm_pass(engine: str) -> dict:
        session = Session(
            benchmark_db, engine=engine, residency=True, compression="auto"
        )
        for _name, query in items:
            session.execute(query)
        return {name: session.execute(query) for name, query in items}

    auto = warm_pass("auto")
    pinned = [warm_pass(engine) for engine in PINNED_ENGINES]
    ratios = []
    for name, _query in items:
        best = min(run[name].total_ms for run in pinned)
        ratios.append(auto[name].total_ms / best)
        assert ratios[-1] <= 1.05, (name, auto[name].optimizer.chosen.describe())
    assert math.exp(sum(map(math.log, ratios)) / len(ratios)) <= 1.005
    assert auto["micro:groupby-g64"].optimizer.chosen.engine == "pipelined"


def test_advisor_rejects_impossible_pins(ssb_db):
    advisor = Advisor(GTX970, PCIE3)
    query = _physical(microbench.group_by_query(64), ssb_db)
    # operator-at-a-time cannot stream: pinning both is unsatisfiable.
    with pytest.raises(ConfigurationError):
        advisor.advise(
            query, ssb_db, engine="operator-at-a-time", macro="out-of-core"
        )


# ----------------------------------------------------------------------
# auto executor: differential correctness
# ----------------------------------------------------------------------
def test_auto_matches_pinned_across_ssb(ssb_db):
    session_auto = Session(ssb_db, engine="auto", devices="auto")
    session_pinned = Session(ssb_db, engine="resolution")
    for name, sql in sorted(SSB_QUERIES.items()):
        expected = session_pinned.execute(sql).table.sorted_rows()
        actual = session_auto.execute(sql)
        assert actual.optimizer is not None
        assert rows_approx_equal(expected, actual.table.sorted_rows()), name


@pytest.mark.parametrize("name", sorted(TPCH_PLANS))
def test_auto_matches_pinned_tpch(tpch_db, name):
    plan = TPCH_PLANS[name](tpch_db)
    expected = Session(tpch_db, engine="resolution").execute(plan)
    actual = Session(tpch_db, engine="auto", devices="auto").execute(plan)
    assert actual.optimizer is not None
    assert rows_approx_equal(
        expected.table.sorted_rows(), actual.table.sorted_rows()
    )


@settings(max_examples=12, deadline=None)
@given(
    x=st.integers(min_value=0, max_value=25),
    groups=st.sampled_from([1, 8, 1024, 100000]),
    shape=st.sampled_from(["projection", "aggregation", "group_by"]),
)
def test_auto_never_out_of_memory(ssb_db, x, groups, shape):
    """Property: whatever the query shape and however small the device,
    the advisor routes around DeviceMemoryError (oversized working sets
    go out-of-core) and the result matches a pinned big-device run."""
    if shape == "projection":
        plan = microbench.projection_query(x)
    elif shape == "aggregation":
        plan = microbench.aggregation_query(x)
    else:
        plan = microbench.group_by_query(groups)
    query = _physical(plan, ssb_db)

    reference_device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    expected = make_engine("resolution").execute(
        query, ssb_db, reference_device, seed=42
    )

    auto = AutoExecutor(TINY_GPU, PCIE3, devices=1)
    try:
        result = auto.execute(query, ssb_db, seed=42)
    except DeviceMemoryError as exc:  # pragma: no cover - the regression
        pytest.fail(f"advisor stranded the query on an OOM pick: {exc}")
    decision = result.optimizer
    # Oversized run-to-finish working sets must route to streaming
    # up front, not via the OOM safety net: any run-to-finish winner
    # fits the device.
    if decision.chosen.macro == "run-to-finish":
        assert (
            decision.estimate.peak_device_bytes <= TINY_GPU.memory_capacity
        )
    assert auto.fallbacks == 0
    assert rows_approx_equal(
        expected.table.sorted_rows(), result.table.sorted_rows()
    )


def test_auto_streams_avg_out_of_core(ssb_db):
    """Regression: ``streaming_ok`` never looked at AVG, so the advisor
    routed an oversized AVG query out-of-core where it raised
    PlanError; the streamer now merges AVG partials."""
    sql = (
        "select avg(lo_revenue) as a, sum(lo_quantity) as s "
        "from lineorder where lo_discount > 2"
    )
    small = GTX970.with_overrides(memory_capacity=150_000)
    result = Session(ssb_db, device=small, engine="auto").execute(sql)
    assert result.optimizer.chosen.macro == "out-of-core"
    assert rows_approx_equal(
        result.table.sorted_rows(),
        Session(ssb_db).execute(sql).table.sorted_rows(),
        rel_tol=1e-9,
    )


def test_auto_fleet_decisions_are_repeatable(ssb_db):
    """Regression: ``observed_ms`` was ``makespan + merge_ms`` with
    ``merge_ms`` a host wall-clock reading, so two identical sessions
    disagreed on every ``observed_ms``.  It is the merge overhead the
    estimator models."""

    def decisions():
        session = Session(ssb_db, engine="auto", devices=2)
        return [
            (
                decision.chosen.describe(),
                decision.predicted_ms,
                decision.observed_ms,
            )
            for _ in range(3)
            for name in ("q1.1", "q2.1", "q3.1", "q4.1")
            for decision in [session.execute(SSB_QUERIES[name]).optimizer]
        ]

    assert decisions() == decisions()


# ----------------------------------------------------------------------
# plan cache keying + session/serving surfaces
# ----------------------------------------------------------------------
def test_plan_cache_separates_auto_from_pinned(ssb_db):
    cache = PlanCache(capacity=8)
    sql = "select count(*) as n from date"
    pinned_a = Session(ssb_db, engine="resolution", plan_cache=cache)
    pinned_b = Session(ssb_db, engine="multipass", plan_cache=cache)
    auto = Session(ssb_db, engine="auto", plan_cache=cache)

    pinned_a.execute(sql)
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (0, 1)
    # Physical plans are engine-independent: a second pinned engine hits.
    pinned_b.execute(sql)
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    # An auto session never shares an entry with a pinned one.
    auto.execute(sql)
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 2)
    # ... but hits its own entry on repeat, with the strategy recorded.
    result = auto.execute(sql)
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (2, 2)
    token = auto._strategy_token(None)
    recorded = cache.recorded_strategy(sql, ssb_db, token)
    assert recorded == result.optimizer.chosen


def test_auto_entries_name_their_hardware(fresh_ssb):
    """Auto sessions over one catalog share its plan cache, and the
    strategy the optimizer chose rides on their entry: one on a device
    too small for the query's working set (it streams out of core) and
    one on GTX970 each read back their own, and so do sessions on
    another interconnect or codec mode."""
    sql = SSB_QUERIES["q1.1"]
    working_set = base_column_bytes(Session(fresh_ssb).physical(sql), fresh_ssb)
    quarter = GTX970.with_overrides(name="GTX970-quarter", memory_capacity=working_set // 4)
    sessions = [
        Session(fresh_ssb, engine="auto"),
        Session(fresh_ssb, engine="auto", device=quarter),
        Session(fresh_ssb, engine="auto", interconnect=NVLINK1),
        Session(fresh_ssb, engine="auto", compression="auto"),
    ]
    chosen = [session.execute(sql).optimizer.chosen for session in sessions]
    assert chosen[0].macro == "run-to-finish" and chosen[1].macro == "out-of-core"
    tokens = [session._strategy_token(None) for session in sessions]
    cache = fresh_ssb.plan_cache
    assert all(session.plan_cache is cache for session in sessions)
    for token, mine in zip(tokens, chosen):
        assert cache.recorded_strategy(sql, fresh_ssb, token) == mine
    assert len(set(tokens)) == len(sessions)


def test_session_auto_surfaces(ssb_db):
    session = Session(ssb_db, engine="auto", devices="auto")
    sql = "select count(*) as n from date"
    explained = session.explain(sql)
    assert "optimizer:" in explained
    result = session.execute(sql)
    # optimizer_decision re-advises: same winning strategy, no execution.
    advised = session.optimizer_decision(sql)
    assert advised.chosen == result.optimizer.chosen
    assert advised.observed_ms is None
    # Per-query pinned override on an auto session bypasses the advisor.
    pinned = session.execute(sql, engine="resolution")
    assert pinned.optimizer is None
    # Per-query auto override on a pinned session engages it.
    pinned_session = Session(ssb_db, engine="resolution")
    adaptive = pinned_session.execute(sql, engine="auto")
    assert adaptive.optimizer is not None


def test_auto_override_leaves_a_pinned_session_pinned(ssb_db):
    """Regression: one ``engine="auto"`` query stored the lazily built
    executor in ``session.auto``, so the pinned session started
    reporting the override's pool and explaining the optimizer lattice;
    that executor also ignored the session's ``residency=True``."""
    sql = "select sum(lo_revenue) as r from lineorder where lo_discount >= 2"
    session = Session(ssb_db, engine="resolution", residency=True)
    session.execute(sql)
    session.execute(sql)
    hits = session.placement_stats().hits
    assert hits > 0
    adaptive = session.execute(sql, engine="auto")
    assert adaptive.optimizer.chosen.placement == "pooled"
    assert session.auto is None
    assert session.placement_stats().hits == hits
    assert "optimizer:" not in session.explain(sql)
    session.execute(sql)
    assert session.placement_stats().hits == session.pool.stats().hits > hits


def test_auto_configuration_errors(ssb_db):
    with pytest.raises(ConfigurationError, match="integer >= 1 or 'auto'"):
        Session(ssb_db, devices="both")
    with pytest.raises(ConfigurationError, match="pinned configuration"):
        Session(
            ssb_db, engine="auto",
            fault_plan={"seed": 1, "events": []},
        )
    with pytest.raises(ConfigurationError, match="engine alias"):
        Session(ssb_db, engine=make_engine("resolution"), devices="auto")
    with pytest.raises(ConfigurationError, match="'auto' is accepted"):
        make_engine("auto")


def test_auto_metrics_exported(ssb_db):
    """The optimizer families count queries, not scrapes: 13 auto
    queries scraped three times read 13 on every scrape."""
    from repro.serving import Server
    from repro.telemetry.metrics import parse_prometheus_text

    queries = [SSB_QUERIES[name] for name in sorted(SSB_QUERIES)]
    with Server(ssb_db, engine="auto", workers=1) as server:
        server.execute_many(queries)
        scrapes = [parse_prometheus_text(server.metrics_text()) for _ in range(3)]
    for parsed in scrapes:
        assert parsed["repro_optimizer_decisions_total"] == [({"worker": "0"}, 13.0)]
        assert parsed["repro_optimizer_oom_fallbacks_total"] == [({"worker": "0"}, 0.0)]
        assert sum(v for _l, v in parsed["repro_optimizer_strategies_total"]) == 13
        for family in ("advise_ms", "prediction_error"):
            counts = parsed[f"repro_optimizer_{family}_count"]
            assert counts == [({"worker": "0"}, 13.0)], family


def test_column_stats_are_collected_on_first_read(ssb_db, monkeypatch):
    """A first advise summarizes only the columns its estimates read
    (``analyze`` collects every one), and estimates the same."""
    import repro.optimizer.stats as stats_module

    summarized, read = [], set()
    collect, column = stats_module._collect_column, stats_module.TableStats.column
    monkeypatch.setattr(
        stats_module, "_collect_column",
        lambda values, limit: summarized.append(values) or collect(values, limit),
    )
    monkeypatch.setattr(
        stats_module.TableStats, "column",
        lambda stats, name: read.add((stats.name, name)) or column(stats, name),
    )
    eager = StatisticsCatalog()
    eager.analyze(ssb_db)
    assert len(summarized) == sum(
        len(ssb_db.table(name).column_names) for name in ssb_db.table_names
    )
    # SSB q1.1 reads none (its filters' shares come off the sample); a
    # group-by reads its key's distinct count.
    for plan, reads in (
        (plan_sql(SSB_QUERIES["q1.1"], ssb_db), 0), (microbench.group_by_query(64), 1)
    ):
        summarized.clear()
        read.clear()
        lazy = Advisor(GTX970, PCIE3).advise(_physical(plan, ssb_db), ssb_db)
        columns = {
            (table, column) for table, column in read
            if column in ssb_db.table(table).column_names
        }
        assert len(summarized) == len(columns) == reads
        decided = Advisor(GTX970, PCIE3, statistics=eager).advise(
            _physical(plan, ssb_db), ssb_db
        )
        assert decided.chosen == lazy.chosen
        assert [asdict(estimate) for estimate in decided.candidates] == [
            asdict(estimate) for estimate in lazy.candidates
        ]
