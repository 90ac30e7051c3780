"""The estimate *is* the execution when cardinalities are exact.

An engine prices a pipeline by running the kernels and library charges
it executes with over row counts (``Engine.estimate_pipeline``).  What
separates the estimated meter of a kernel from the executed one is
therefore only what the counts were guessed from: selectivities, group
counts, hash-table cost drivers.  These tests feed measured ones back
in and require the meters to agree — field for field where nothing is
left to guess, to the percent where a uniform-keys expectation remains.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro import connect, generate_ssb
from repro.compression import resolve_compression
from repro.engines import make_engine
from repro.expressions.eval import evaluate
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.hardware.traffic import MemoryLevel
from repro.macro.batch import execute_out_of_core, streaming_mode
from repro.optimizer.auto import AutoExecutor
from repro.optimizer.cost import (
    MICRO_ENGINES, CostEstimator, StrategyChoice, merge_overhead_ms,
)
from repro.placement.executor import base_columns
from repro.primitives.hashtable import JoinHashTable, TableEstimate
from repro.scaleout.partition import fleet_partitions
from repro.serving import PlanCache
from repro.workloads import SSB_QUERIES, microbench
from repro.workloads.tpch.queries import tpch_plan

ENGINES = MICRO_ENGINES + ("resolution-we",)
POLICIES = ("off", "auto")


@pytest.fixture(scope="module")
def database():
    return generate_ssb(0.004, seed=11)


class Observed:
    """Cardinalities measured on the data: each predicate's share of the
    rows still alive in its pipeline (conjuncts narrow in the order the
    kernels apply them), and — from an execution's query record — the
    rows every aggregation produced; a fleet's morsels' from ``fleet``,
    an executed fleet's result."""

    def __init__(self, query, database, fleet=None):
        self._alive: dict[str, np.ndarray] = {}
        device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
        result = make_engine("resolution").execute(query, database, device)
        self._produced = {
            record.pipeline.name: record.rows_out
            for record in result.profile.pipelines[:-1]
        }
        if fleet is not None:
            self._produced.update(
                (record.pipeline.name, record.rows_out)
                for record in fleet.profile.pipelines
                if record.pipeline is not None and record.pipeline.is_final
            )

    def selectivity(self, database, pipeline, predicate) -> float:
        table = database.table(pipeline.source)
        scope = {
            name: table.column(pipeline.source_rename.get(name, name)).values
            for name in pipeline.required_columns
        }
        alive = self._alive.get(pipeline.name, np.ones(table.num_rows, dtype=bool))
        flags = np.asarray(evaluate(predicate, scope), dtype=bool)
        self._alive[pipeline.name] = alive & flags
        before = int(np.count_nonzero(alive))
        return int(np.count_nonzero(alive & flags)) / before if before else 0.0

    def groups(self, database, pipeline, rows) -> int:
        return self._produced[pipeline.name]


def priced_kernels(query, database, alias, cardinalities, policy):
    """The launches ``alias`` is priced as for ``query`` on one device
    without a pool — the record ``CostEstimator.estimate`` reads, its
    query loop run over ``cardinalities`` in place of the statistics'
    guesses — priced anew, not read off the plan object."""
    estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
    estimator.selectivity, estimator.groups = cardinalities.selectivity, cardinalities.groups
    query.estimates.clear()
    strategy = StrategyChoice(alias, "run-to-finish", 1, "range", "transient")
    return estimator.estimate(query, database, strategy).record.kernels


def executed_kernels(query, database, alias, policy):
    return connect(database, engine=alias, compression=policy).execute(query).profile.kernels


def _physical(plan, database):
    """The plan a session runs: extracted, probes ordered, sibling
    builds grouped — resolved anew, with no estimate on it yet."""
    return connect(database, plan_cache=PlanCache()).physical(plan)


EXACT = {
    "sum": lambda: "select sum(lo_revenue) as r from lineorder",
    "proj-x0": lambda: microbench.projection_query(0),
    "groupby-g1": lambda: microbench.group_by_query(1),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("alias", ENGINES)
@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_cardinalities_give_the_executed_meters(database, name, alias, policy):
    """No data-dependent cost driver is left to guess in these
    pipelines once the selectivity is the observed one: every launch
    has the executed launch's name, kind, elements and meter."""
    plan = EXACT[name]()
    query = _physical(plan, database)
    estimated = priced_kernels(query, database, alias, Observed(query, database), policy)
    executed = executed_kernels(plan, database, alias, policy)
    assert [(t.name, t.kind, t.elements) for t in estimated] == [
        (t.name, t.kind, t.elements) for t in executed
    ]
    for ours, theirs in zip(estimated, executed):
        assert ours.meter.snapshot() == theirs.meter.snapshot(), ours.name
        assert ours.time_ms == theirs.time_ms


JOIN = (
    "select sum(lo_revenue + d_year) as r from lineorder, date "
    "where lo_orderdate = d_datekey"
)

#: name -> (statement, compression policy, build rows of ``date``, probing
#: rows of ``lineorder``): an unfiltered build probed with a 100 % match,
#: and SSB q1.1 — a filtered build, a filtered probe side, 14 % matching.
JOINS = {
    "full-match": (JOIN, "off", lambda d: d("d_year") > 0, lambda lo: lo("lo_quantity") > 0),
    "q1.1": (
        SSB_QUERIES["q1.1"],
        "auto",
        lambda d: d("d_year") == 1993,
        lambda lo: (lo("lo_discount") >= 1) & (lo("lo_discount") <= 3) & (lo("lo_quantity") < 25),
    ),
}


@pytest.mark.parametrize("alias", ENGINES)
@pytest.mark.parametrize("case", sorted(JOINS))
def test_join_with_measured_and_expected_drivers(database, case, alias, monkeypatch):
    """What an estimated hash join guesses beyond the selectivities is
    the table's layout (insert attempts, contention), the slots its
    probes inspect and the share of them that hit.  With the measured
    ones injected the meters are the executed ones; with the
    linear-probing expectations global bytes agree within 10 %."""
    sql, policy, build_rows, probe_rows = JOINS[case]
    query = _physical(sql, database)
    date, lineorder = database.table("date"), database.table("lineorder")
    keys = date.column("d_datekey").values[build_rows(lambda n: date.column(n).values)]
    probes = lineorder.column("lo_orderdate").values[
        probe_rows(lambda n: lineorder.column(n).values)
    ]
    built = JoinHashTable._laid_out([keys], "measured", 0.5)
    found, steps = built._walk([probes])
    matching = probes[found >= 0]
    # A multi-pass write kernel probes again with the rows that matched.
    steps_of = {len(probes): steps, len(matching): built._walk([matching])[1]}

    class Measured(TableEstimate):
        def __post_init__(self):
            super().__post_init__()
            self.attempts = built._layout.attempts
            self.max_contention = built._layout.max_contention
            self.match_fraction = len(matching) / len(probes)

        def probe_steps(self, probes, hits):
            return steps_of[probes]

    executed = executed_kernels(sql, database, alias, policy)
    monkeypatch.setattr("repro.engines.estimate.TableEstimate", Measured)
    measured = priced_kernels(query, database, alias, Observed(query, database), policy)
    monkeypatch.undo()
    assert [t.name for t in measured] == [t.name for t in executed]
    for ours, theirs in zip(measured, executed):
        assert ours.meter.snapshot() == theirs.meter.snapshot(), ours.name
    expected = priced_kernels(query, database, alias, Observed(query, database), policy)
    for ours, theirs in zip(expected, executed):
        assert ours.global_bytes == pytest.approx(theirs.global_bytes, rel=0.10), ours.name


@pytest.mark.parametrize("alias", ENGINES)
@pytest.mark.parametrize("case", sorted(JOINS))
def test_warm_pooled_estimate_is_the_warm_execution(database, case, alias, monkeypatch):
    """The optimizer sees what execution sees: with the build side's
    hash table pool-resident, a pooled estimate prices the build
    pipeline as not running — with measured cardinalities and table
    drivers its kernel count and ``kernel_ms`` are the warm execution's,
    and its transfers too; the cold estimate is what it was."""
    sql, policy, build_rows, probe_rows = JOINS[case]
    date, lineorder = database.table("date"), database.table("lineorder")
    keys = date.column("d_datekey").values[build_rows(lambda n: date.column(n).values)]
    probes = lineorder.column("lo_orderdate").values[
        probe_rows(lambda n: lineorder.column(n).values)
    ]
    built = JoinHashTable._laid_out([keys], "measured", 0.5)
    found, steps = built._walk([probes])
    matching = probes[found >= 0]
    steps_of = {len(probes): steps, len(matching): built._walk([matching])[1]}

    class Measured(TableEstimate):
        def __post_init__(self):
            super().__post_init__()
            self.attempts = built._layout.attempts
            self.max_contention = built._layout.max_contention
            self.match_fraction = len(matching) / len(probes)

        def probe_steps(self, probes, hits):
            return steps_of[probes]

    session = connect(database, engine=alias, residency=True, compression=policy)
    cold, warm = session.execute(sql), session.execute(sql)
    assert (warm.placement.table_hits, warm.placement.table_misses) == (1, 0)

    query = _physical(sql, database)
    observed = Observed(query, database)
    estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
    monkeypatch.setattr(estimator, "selectivity", observed.selectivity)
    monkeypatch.setattr(estimator, "groups", observed.groups)
    monkeypatch.setattr("repro.engines.estimate.TableEstimate", Measured)
    strategy = StrategyChoice(alias, "run-to-finish", 1, "range", "pooled")
    resident_tables = session.pool.resident_builds(query.pipelines, database)
    assert resident_tables == {0}
    resident_columns = frozenset(
        (table, name) for table, name, _ in base_columns(query, database, skip=resident_tables)
    )
    assert all((database.fingerprint()[0], *key) in session.pool for key in resident_columns)
    priced_cold = estimator.estimate(query, database, strategy)
    priced_warm = estimator.estimate(
        query, database, strategy,
        resident_columns=resident_columns, resident_tables=resident_tables,
    )
    transient = estimator.estimate(
        query, database, StrategyChoice(alias, "run-to-finish", 1, "range", "transient"),
        resident_columns=resident_columns, resident_tables=resident_tables,
    )
    for priced, executed in ((priced_cold, cold), (priced_warm, warm)):
        assert sum(pipe.kernels for pipe in priced.pipelines) == len(executed.profile.kernels)
        assert priced.kernel_ms == pytest.approx(executed.kernel_ms, rel=1e-12)
        assert priced.global_bytes == executed.global_memory_bytes
        assert priced.transfers == len(executed.profile.transfers)
        assert priced.pcie_h2d_bytes == executed.input_bytes
    build, fact = priced_warm.pipelines
    assert build.resident and (build.kernels, build.kernel_ms, build.first_reads) == (0, 0.0, set())
    assert build.rows_out == priced_cold.pipelines[0].rows_out == len(keys)
    assert not fact.resident and fact == priced_cold.pipelines[1]
    # Residency is a property of the pool: a transient strategy runs
    # everything, and the cached per-pipeline estimates are not touched.
    assert transient.kernel_ms == priced_cold.kernel_ms
    assert not any(pipe.resident for pipe in transient.pipelines)
    assert estimator.estimate(query, database, strategy).kernel_ms == priced_cold.kernel_ms


def test_decisions_with_resident_tables_are_pure(database):
    """Two fresh auto sessions given the same sequence agree on every
    estimate, cold pass and warm pass; on the warm pass every build of
    the chosen pooled strategy is priced as resident, and the launches
    it predicts are the launches made."""
    sessions = [connect(database, engine="auto") for _ in range(2)]
    for attempt in ("cold", "warm"):
        for name, sql in sorted(SSB_QUERIES.items()):
            first, second = (session.execute(sql) for session in sessions)
            ours, theirs = first.optimizer, second.optimizer
            assert ours.chosen == theirs.chosen
            assert [c.total_ms for c in ours.candidates] == [
                c.total_ms for c in theirs.candidates
            ]
            assert ours.chosen.placement == "pooled"
            pipes = ours.estimate.pipelines
            assert sum(pipe.kernels for pipe in pipes) == len(first.profile.kernels), name
            # Priced as resident: exactly the builds the pool then served
            # (on the cold pass, the tables earlier queries share).
            resident = sum(pipe.resident for pipe in pipes)
            assert resident == first.placement.table_hits
            if attempt == "warm":
                assert resident == len(pipes) - 1
            # Cold, warm and partly resident (what earlier queries left):
            # a pipeline loads iff one of its first reads is missing.
            assert ours.estimate.transfers == len(first.profile.transfers), name


#: The one miss of the 5 % bound below.  The expected slot inspections
#: are unbiased (over the 84 one-month tables of ``date`` measured /
#: expected is 0.998) but a 31-key table's own layout scatters 13 %
#: around them, this one (January 1994) sits at 0.82, and under
#: ``auto`` the probe is 40 % of what the compound kernels read.
LAYOUT_LUCK = {("q1.2", "pipelined", "auto"), ("q1.2", "resolution", "auto")}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("alias", MICRO_ENGINES)
@pytest.mark.parametrize("name", sorted(SSB_QUERIES))
def test_ssb_global_bytes_given_observed_selectivities(database, name, alias, policy, request):
    """With observed selectivities and group counts, what is left for
    the SSB set is the uniform-keys expectation (probe hits, slot
    inspections, groups per CTA): global bytes within 5 %."""
    if (name, alias, policy) in LAYOUT_LUCK:
        request.applymarker(pytest.mark.xfail(strict=True, reason="one 31-key table's layout"))
    sql = SSB_QUERIES[name]
    query = _physical(sql, database)
    estimated = priced_kernels(query, database, alias, Observed(query, database), policy)
    executed = executed_kernels(sql, database, alias, policy)
    assert len(estimated) == len(executed)
    ours = sum(trace.global_bytes for trace in estimated)
    theirs = sum(trace.meter.bytes_at(MemoryLevel.GLOBAL) for trace in executed)
    assert ours == pytest.approx(theirs, rel=0.05)


@pytest.mark.parametrize("alias", MICRO_ENGINES)
def test_a_fused_plan_is_estimated_with_its_launch_count(database, alias, monkeypatch):
    """A session's plan runs its sibling builds as one group; the
    estimate prices the group as execution runs it — one launch per
    phase on the engines that fuse, one by one on the others — so every
    pipeline's row has the executed row's launch count, and the group's
    one load is one transfer."""
    strategy = StrategyChoice(alias, "run-to-finish", 1, "range", "transient")
    for name in ("q2.1", "q3.1", "q4.1"):
        query = _physical(SSB_QUERIES[name], database)
        assert query.groups[0] > 1
        observed = Observed(query, database)
        estimator = CostEstimator(GTX970, PCIE3)
        monkeypatch.setattr(estimator, "selectivity", observed.selectivity)
        monkeypatch.setattr(estimator, "groups", observed.groups)
        estimate = estimator.estimate(query, database, strategy)
        executed = connect(database, engine=alias).execute(SSB_QUERIES[name])
        assert [pipe.kernels for pipe in estimate.pipelines] == [
            len(row.kernels) for row in executed.profile.pipelines[:-1]
        ], name
        assert estimate.transfers == len(executed.profile.transfers), name
        monkeypatch.undo()


#: TPC-H plans with a twin build: one whose table an earlier member of
#: its wave builds, so a pooled run serves it from the pool.
TWINS = ("q2", "q5")


@pytest.mark.parametrize("alias", ("resolution", "multipass"))
@pytest.mark.parametrize("name", TWINS)
def test_twin_builds_are_priced_as_the_pool_serves_them(tpch_db, name, alias):
    """A cold pooled estimate runs the loop a cold pooled execution
    runs: its stand-in pool serves a twin build the table its sibling
    left, so every pipeline is resident iff the executed one was, and
    the launch count is the executed one."""
    session = connect(tpch_db, engine=alias, residency=True)
    plan = tpch_plan(name, tpch_db)
    query = session.physical(plan)
    strategy = StrategyChoice(alias, "run-to-finish", 1, "range", "pooled")
    estimate = CostEstimator(GTX970, PCIE3).estimate(query, tpch_db, strategy)
    executed = session.execute(plan)
    rows = executed.profile.pipelines[:-1]
    assert any(row.resident for row in rows)
    assert [pipe.resident for pipe in estimate.pipelines] == [row.resident for row in rows]
    assert sum(pipe.kernels for pipe in estimate.pipelines) == len(executed.profile.kernels)


#: An SSB q3.4 whose month does not exist: every pipeline runs, the
#: result is empty, and an empty transfer costs nothing.
EMPTY_RESULT = SSB_QUERIES["q3.4"].replace("Dec1997", "Dec2099")


def _fleet_residency(session, query, database):
    """What a pooled fleet holds of ``query`` before it runs: the builds
    every device's pool would serve, and the base columns the pipelines
    that do run read and every device holds — a fact column when each
    morsel's piece of it is in a pool (morsels land where they did)."""
    fleet = session.scaleout
    fact = query.final_pipeline.source
    partitions = fleet_partitions(database, fact, fleet.devices, fleet.partitioning)
    pieces, pools = partitions.database, fleet.fleet.pools
    serial = pieces.fingerprint()[0]
    tables = frozenset.intersection(
        *(pool.resident_builds(query.pipelines, pieces) for pool in pools)
    )

    def held(table, name):
        if table != fact:
            return all((serial, table, name) in pool for pool in pools)
        return all(
            any((serial, piece.table_name, name) in pool for pool in pools)
            for piece in partitions.pieces
        )

    columns = frozenset(
        (table, name)
        for table, name, _ in base_columns(query, database, skip=tables)
        if held(table, name)
    )
    return columns, tables


def _pool_residency(session, query, database):
    """What ``AutoExecutor._residency`` asks the one pooled device of
    ``session``."""
    pooled = SimpleNamespace(_devices={True: session.pool.device})
    return AutoExecutor._residency(pooled, query, database)


@pytest.mark.parametrize("devices", (1, 4))
def test_estimated_transfer_count_is_the_executed_one(database, devices, monkeypatch):
    """Every link transfer pays a latency, so the estimate counts them
    from the plan as execution ships them: one h2d per pipeline that is
    first to read a column that is not resident (per morsel for a
    fleet's fact columns), one d2h for the packed result (per morsel
    partial for a fleet), with or without a compression policy — cold,
    warm, and partly warm: on a pool an earlier query left, a pipeline
    loads iff one of its first reads is missing.  On one device, with
    observed cardinalities, the link time is the executed one as well —
    an empty result's latency included: there is none."""
    strategy = StrategyChoice("resolution", "run-to-finish", devices, "range", "pooled")
    items = sorted({**SSB_QUERIES, "empty": EMPTY_RESULT}.items())
    for policy, (name, sql) in itertools.product(POLICIES, items):
        key = (policy, name)
        compression = resolve_compression(policy)
        estimator = CostEstimator(GTX970, PCIE3, compression=compression)
        session = connect(
            database, engine="resolution", devices=devices, residency=True,
            compression=policy,
        )
        query = session.physical(sql)
        resident = frozenset(
            (table, column) for table, column, _ in base_columns(query, database)
        )
        for warm in (False, True):
            estimate = estimator.estimate(
                query, database, strategy,
                resident_columns=resident if warm else frozenset(),
            )
            executed = session.execute(sql)
            assert estimate.transfers == len(executed.profile.transfers), (key, warm)
            assert executed.table.num_rows == 0 or name != "empty"
        if devices > 1:  # (a fleet's link time is inside its makespan)
            continue
        query = _physical(sql, database)
        observed = Observed(query, database)
        monkeypatch.setattr(estimator, "selectivity", observed.selectivity)
        monkeypatch.setattr(estimator, "groups", observed.groups)
        estimate = estimator.estimate(query, database, strategy)
        cold = connect(database, engine="resolution", compression=policy).execute(sql)
        assert estimate.transfers == len(cold.profile.transfers), key
        assert estimate.transfer_ms == pytest.approx(
            sum(record.time_ms for record in cold.profile.transfers), rel=1e-12
        ), key
        assert sum(pipe.kernels for pipe in estimate.pipelines) == len(cold.profile.kernels), key
        monkeypatch.undo()
    if devices > 1:
        # A fleet over the SSB set in order, twice: each query meets the
        # pools the ones before it left.
        for policy in POLICIES:
            estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
            session = connect(
                database, engine="resolution", devices=devices, residency=True,
                compression=policy,
            )
            for rounds, (name, sql) in itertools.product(range(2), sorted(SSB_QUERIES.items())):
                key = (policy, rounds, name)
                query = session.physical(sql)
                columns, tables = _fleet_residency(session, query, database)
                estimate = estimator.estimate(
                    query, database, strategy,
                    resident_columns=columns, resident_tables=tables,
                )
                executed = session.execute(sql)
                assert estimate.transfers == len(executed.profile.transfers), key
                assert estimate.pcie_h2d_bytes == executed.input_bytes, key
        return
    # One device, every ordered pair of SSB queries: the second meets a
    # pool the first warmed — count and link time are the executed ones.
    names = sorted(SSB_QUERIES)
    for policy in POLICIES:
        estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
        queries = {name: _physical(SSB_QUERIES[name], database) for name in names}
        for name, query in queries.items():
            observed = Observed(query, database)
            monkeypatch.setattr(estimator, "selectivity", observed.selectivity)
            monkeypatch.setattr(estimator, "groups", observed.groups)
            estimator.estimate(query, database, strategy)  # kept on the plan
            monkeypatch.undo()
        for first, second in itertools.permutations(names, 2):
            key = (policy, first, second)
            session = connect(
                database, engine="resolution", residency=True, compression=policy
            )
            session.execute(SSB_QUERIES[first])
            query = queries[second]
            columns, tables = _pool_residency(session, query, database)
            estimate = estimator.estimate(
                query, database, strategy, resident_columns=columns, resident_tables=tables
            )
            executed = session.execute(SSB_QUERIES[second])
            assert estimate.transfers == len(executed.profile.transfers), key
            assert estimate.transfer_ms == pytest.approx(
                sum(record.time_ms for record in executed.profile.transfers), rel=1e-12
            ), key


class Shares(Observed):
    """:class:`Observed`, each predicate's share measured once over the
    whole table: every block of a streamed pipeline applies it again."""

    def __init__(self, query, database):
        super().__init__(query, database)
        self._shares: dict[tuple, float] = {}

    def selectivity(self, database, pipeline, predicate) -> float:
        key = (pipeline.name, id(predicate))
        if key not in self._shares:
            self._shares[key] = super().selectivity(database, pipeline, predicate)
        return self._shares[key]


#: A device on which the SSB fact table at SF 0.03 streams in 8 blocks:
#: ``stream_block_bytes()`` is 90,639, the bound on each column's slice.
STREAMING = GTX970.with_overrides(name="streaming", memory_capacity=725_114)


@pytest.fixture(scope="module")
def streamed_database():
    return generate_ssb(0.03, seed=12)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("alias", ("pipelined", "resolution"))
def test_a_streamed_estimate_is_the_streamed_execution(streamed_database, alias, policy):
    """An out-of-core candidate is priced by the block streamer's own
    loop: the same blocks, shipped by the same code, each launched over
    its rows.  With observed cardinalities its link transfers, launches,
    link bytes and link time are the executed ones, and its time is
    within 5 % (a block's share of a predicate is the table's)."""
    database = streamed_database
    estimator = CostEstimator(STREAMING, PCIE3, compression=resolve_compression(policy))
    strategy = StrategyChoice(alias, "out-of-core", 1, "range", "transient")
    for name, sql in sorted(SSB_QUERIES.items()):
        key = (name, alias, policy)
        query = _physical(sql, database)
        shares = Shares(query, database)
        estimator.selectivity, estimator.groups = shares.selectivity, shares.groups
        estimate = estimator.estimate(query, database, strategy)
        device = VirtualCoprocessor(STREAMING, interconnect=PCIE3)
        device.compression = resolve_compression(policy)
        executed = execute_out_of_core(
            query, database, device, block_bytes=estimator.stream_block_bytes(),
            mode=streaming_mode(make_engine(alias)),
        )
        transfers = executed.profile.transfers
        assert sum(record.label.startswith("block") for record in transfers) >= 8, key
        assert estimate.transfers == len(transfers), key
        assert sum(pipe.kernels for pipe in estimate.pipelines) == len(executed.profile.kernels), key
        assert estimate.pcie_h2d_bytes == executed.input_bytes, key
        assert estimate.transfer_ms == pytest.approx(executed.transfer_ms, rel=1e-12), key
        assert estimate.total_ms == pytest.approx(executed.total_ms, rel=0.05), key


@pytest.mark.parametrize("policy", POLICIES)
def test_a_vector_estimate_is_the_vectored_execution(policy):
    """Vector-at-a-time is priced as it runs: a one-segment body and a
    launch per vector of ``vector_rows`` rows, builds whole.  With
    observed cardinalities (a vector's share of a predicate is the
    table's) its launches and h2d bytes are the executed ones, and its
    time is within 5 % (at SF 0.01 SSB q1.1 was priced at 2 launches
    and 0.106 ms while it ran 60 launches in 0.446 ms)."""
    database = generate_ssb(0.01, seed=7)
    estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
    strategy = StrategyChoice("vector", "run-to-finish", 1, "range", "transient")
    for name, sql in sorted(SSB_QUERIES.items()):
        key = (name, policy)
        query = _physical(sql, database)
        shares = Shares(query, database)
        estimator.selectivity, estimator.groups = shares.selectivity, shares.groups
        estimate = estimator.estimate(query, database, strategy)
        executed = connect(database, engine="vector", compression=policy).execute(sql)
        assert len(estimate.record.kernels) == len(executed.profile.kernels) > 50, key
        assert estimate.pcie_h2d_bytes == executed.input_bytes, key
        assert estimate.total_ms == pytest.approx(executed.total_ms, rel=0.05), key


@pytest.mark.parametrize("devices", (2, 4))
@pytest.mark.parametrize("name", ("q18", "q21"))
def test_a_fleet_ships_every_column_of_the_final_pipeline(tpch_db, name, devices):
    """Every morsel ships its piece of every base column the final
    pipeline reads, also those an earlier pipeline loaded (TPC-H q18
    and q21 read 2 and 4 lineitem columns before it): a cold fleet's
    estimated link bytes and transfers are the executed ones."""
    session = connect(tpch_db, engine="resolution", devices=devices, compression="off")
    plan = tpch_plan(name, tpch_db)
    query = session.physical(plan)
    strategy = StrategyChoice("resolution", "run-to-finish", devices, "range", "transient")
    estimate = CostEstimator(GTX970, PCIE3).estimate(query, tpch_db, strategy)
    executed = session.execute(plan)
    assert estimate.pcie_h2d_bytes == executed.input_bytes
    assert estimate.transfers == len(executed.profile.transfers)


#: Where a fleet's rows are left to the uniform-keys expectation.  SSB
#: q2.2's brand range keeps 3 of 800 parts, so a piece's sink sees a
#: handful of rows, and the expected probe hits price about 5 a piece:
#: a partial of 7 groups is priced at 5 rows (the gathered d2h bytes),
#: and on 4 devices a piece that no row reaches is priced as reached
#: (multi-pass sorts it in one radix pass, not four, so the executed
#: group launches unfused: -12 % time).
PROBE_LUCK = {"q2.2"}

#: The fleets priced: every micro engine under range partitioning, and
#: ``resolution`` under hash partitioning too.
FLEETS = [(alias, "range") for alias in MICRO_ENGINES] + [("resolution", "hash")]


@pytest.mark.parametrize("alias,partitioning", FLEETS)
@pytest.mark.parametrize("name", sorted(SSB_QUERIES))
def test_a_fleet_estimate_is_the_executed_fleet(database, name, alias, partitioning, request):
    """A fleet candidate is priced by running its device turns: the same
    pieces, assigned alike, each turn's builds and fused morsels on an
    estimate runtime of its own.  With observed cardinalities (a
    morsel's groups read off the executed fleet) a cold fleet's
    transfers, launches and h2d bytes are the executed ones — its d2h
    bytes too when nothing is encoded — and its time is within 1 % of
    the makespan plus the modeled merge, what ``AutoExecutor``
    observes."""
    if name in PROBE_LUCK:
        request.applymarker(pytest.mark.xfail(strict=True, reason="expected probe hits"))
    sql = SSB_QUERIES[name]
    for devices, policy in itertools.product((2, 4), POLICIES):
        key = (devices, policy)
        session = connect(
            database, engine=alias, devices=devices, partitioning=partitioning,
            compression=policy, plan_cache=PlanCache(),
        )
        query = session.physical(sql)
        executed = session.execute(sql)
        observed = Observed(query, database, fleet=executed)
        estimator = CostEstimator(GTX970, PCIE3, compression=resolve_compression(policy))
        estimator.selectivity, estimator.groups = observed.selectivity, observed.groups
        strategy = StrategyChoice(alias, "run-to-finish", devices, partitioning, "transient")
        estimate = estimator.estimate(query, database, strategy)
        assert estimate.transfers == len(executed.profile.transfers), key
        assert len(estimate.record.kernels) == len(executed.profile.kernels), key
        assert estimate.pcie_h2d_bytes == executed.input_bytes, key
        if policy == "off":
            assert estimate.pcie_d2h_bytes == executed.scaleout.gather_bytes, key
        fleet = executed.scaleout
        assert estimate.total_ms == pytest.approx(
            fleet.makespan_ms + merge_overhead_ms(fleet.partitions), rel=0.01
        ), key


def test_a_fleet_over_an_empty_fact_table_is_priced_as_it_runs():
    """No piece has a row, so no device takes a turn: the estimate is
    the modeled merge alone, what ``AutoExecutor`` observes."""
    database = generate_ssb(0.001, seed=3)
    database.replace("lineorder", database.table("lineorder").slice(0, 0))
    sql = "select sum(lo_revenue) as r from lineorder"
    session = connect(database, engine="resolution", devices=2)
    strategy = StrategyChoice("resolution", "run-to-finish", 2, "range", "transient")
    estimate = CostEstimator(GTX970, PCIE3).estimate(session.physical(sql), database, strategy)
    fleet = session.execute(sql).scaleout
    assert fleet.makespan_ms == 0.0 and estimate.transfers == 0
    assert estimate.total_ms == merge_overhead_ms(fleet.partitions)
