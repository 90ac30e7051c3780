"""A star join probes its cheapest filter first.

A session resolves a plan with each fact pipeline's runs of
independent inner probes sorted by the rank ``(s - 1) / c`` of the
table each probes (:func:`repro.plan.waves.order_probes`,
:func:`repro.optimizer.cost.probe_ranks`): ``s`` the share of its
source's rows the build keeps, read off the statistics catalog's
sample, ``c`` the bytes a probing row is expected to read.  What must
hold:

* only runs of ``inner`` probes without a residual move, a probe whose
  keys read a payload gathered in its run starts a new one, and ties
  keep their order;
* the sampled share of a table no larger than the sample is the
  measured share, conditioned on the conjuncts before it, and a new
  catalog version answers anew;
* the chosen order of every multi-probe SSB query is within 1 % of its
  best permutation;
* runs with the rewrite and without it — 29 plans, six engines, codecs
  ``off`` / ``auto`` / ``lazy``, one device and three — give identical
  results, launches and link bytes, and never more simulated time,
  global bytes or device memory; a fleet under the pinned chaos seeds
  stays byte-identical.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.compression.lazy import flatten_conjuncts
from repro.engines import make_engine
from repro.expressions import col
from repro.expressions.eval import evaluate
from repro.faults import FaultPlan
from repro.hardware import GTX970, PCIE3, MemoryLevel, VirtualCoprocessor
from repro.optimizer import stats
from repro.optimizer.stats import StatisticsCatalog
from repro.plan import PlanSchema, extract_pipelines
from repro.plan.physical import (
    AggregateSink,
    FilterStage,
    PhysicalQuery,
    Pipeline,
    ProbeStage,
)
from repro.plan.waves import group_sibling_builds, order_probes
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.serving import plan_cache
from repro.sql.translate import plan_sql
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

ENGINES = (
    "pipelined", "resolution", "resolution-we", "multipass", "vector", "operator-at-a-time",
)
CODECS = ("off", "auto", "lazy")
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)


def _fact(*stages) -> PhysicalQuery:
    """A one-pipeline query over ``stages`` (the rule reads stages only)."""
    pipeline = Pipeline(
        name="pipeline0", source="fact", source_is_virtual=False, stages=list(stages),
        sink=AggregateSink([], []), required_columns=[], scope_schema=PlanSchema({}, {}),
        output_name="__result__",
    )
    return PhysicalQuery(pipelines=[pipeline])


def _probe(table_id, key="k", payload=(), **options) -> ProbeStage:
    return ProbeStage(table_id, [col(key)], list(payload), **options)


def _order(query: PhysicalQuery) -> list:
    return [getattr(stage, "table_id", "filter") for stage in query.final_pipeline.stages]


def test_inner_probes_sort_by_rank_and_keep_their_objects():
    stages = [_probe("a"), _probe("b"), _probe("c")]
    query = _fact(*stages)
    ordered = order_probes(query, {"a": 0.0, "b": -0.1, "c": -0.05})
    assert _order(ordered) == ["b", "c", "a"]
    assert sorted(map(id, ordered.final_pipeline.stages)) == sorted(map(id, stages))
    assert query.final_pipeline.stages == stages  # the input is not edited
    # Ties keep their order; a query with nothing to move is returned.
    assert _order(order_probes(query, {"a": -0.1, "b": -0.1, "c": -0.1})) == ["a", "b", "c"]
    assert order_probes(query, {"a": -0.3, "b": -0.2, "c": -0.1}) is query


@pytest.mark.parametrize(
    "pinned",
    [
        _probe("b", kind="semi"),
        _probe("b", kind="anti"),
        _probe("b", kind="left"),
        _probe("b", residual=col("x") > 1),
        FilterStage(col("x") > 1),
    ],
    ids=["semi", "anti", "left", "residual", "filter"],
)
def test_a_probe_that_is_not_a_plain_inner_one_never_moves(pinned):
    ranks = {"a": 0.0, "b": -1.0, "c": -0.5, "d": -0.2}
    query = _fact(_probe("a"), pinned, _probe("c"), _probe("d"))
    ordered = order_probes(query, ranks)
    assert ordered.final_pipeline.stages[1] is pinned
    # It splits the run: neither side crosses it.
    assert _order(ordered)[:2] == ["a", _order(query)[1]]
    assert _order(ordered)[2:] == ["c", "d"]


def test_a_probe_keyed_on_a_payload_of_its_run_stays_behind_it():
    ranks = {"a": 0.0, "b": -1.0, "c": -0.5}
    query = _fact(_probe("a", payload=["a_key"]), _probe("b", key="a_key"), _probe("c"))
    assert _order(order_probes(query, ranks)) == ["a", "b", "c"]
    # A table without a rank (built from a virtual source) stays put.
    assert _order(order_probes(query, {"b": -0.5, "c": -1.0})) == ["a", "c", "b"]


def test_the_session_plan_orders_probes_and_groups_builds(ssb_db):
    physical = repro.connect(ssb_db).physical(SSB_QUERIES["q2.1"])
    paper = extract_pipelines(ssb_plan("q2.1", ssb_db), ssb_db)
    assert _order(paper)[-3:] == ["ht3", "ht2", "ht1"]  # unfiltered date first
    assert physical.groups == (3, 1)
    assert _order(physical)[-1] == "ht3"  # date last: it drops nothing
    assert {p.name for p in physical.pipelines} == {p.name for p in paper.pipelines}


# ----------------------------------------------------------------------
# the sampled share
# ----------------------------------------------------------------------
SHARED = (
    "select sum(lo_revenue) as r from lineorder "
    "where lo_discount between 1 and 3 and lo_quantity < 25 and lo_tax >= 4"
)


def _measured(table, conjuncts, given) -> float:
    scope = {name: table.column(name).values for name in table.column_names}
    alive = np.ones(table.num_rows, dtype=bool)
    for conjunct in given:
        alive &= evaluate(conjunct, scope)
    kept = alive & evaluate(conjuncts, scope)
    return np.count_nonzero(kept) / np.count_nonzero(alive)


def test_the_sampled_share_of_a_small_table_is_its_measured_share(ssb_db):
    catalog = StatisticsCatalog()
    pipeline = extract_pipelines(plan_sql(SHARED, ssb_db), ssb_db).final_pipeline
    table = ssb_db.table("lineorder")
    assert table.num_rows <= catalog.sample_limit
    predicate = pipeline.stages[0].predicate
    conjuncts = flatten_conjuncts(predicate)
    assert catalog.sampled_selectivity(ssb_db, pipeline, predicate) == _measured(
        table, predicate, []
    )
    for index, conjunct in enumerate(conjuncts):
        share = catalog.sampled_selectivity(ssb_db, pipeline, conjunct)
        assert share == _measured(table, conjunct, conjuncts[:index]), index
    assert catalog.sampled_selectivity(ssb_db, pipeline, conjuncts[2]) != _measured(
        table, conjuncts[2], []
    )
    # A predicate that is none of the filters (a residual) is not its to say.
    assert catalog.sampled_selectivity(ssb_db, pipeline, col("lo_tax") >= 4) is None


def test_a_sampled_share_is_read_by_structure_and_renewed_by_a_new_version(monkeypatch):
    database = repro.generate_ssb(0.001, seed=3)
    catalog = StatisticsCatalog()
    evaluated = []
    monkeypatch.setattr(
        stats, "evaluate", lambda expr, scope: evaluated.append(expr) or evaluate(expr, scope)
    )

    def pipeline() -> Pipeline:
        return extract_pipelines(plan_sql(SHARED, database), database).final_pipeline

    def share(pipeline) -> float:
        return catalog.sampled_selectivity(database, pipeline, pipeline.stages[0].predicate)

    before = share(pipeline())
    assert evaluated
    evaluated.clear()
    assert share(pipeline()) == before  # an equal plan built anew
    assert not evaluated
    table = database.table("lineorder")
    half = table.slice(0, table.num_rows // 2)
    database.replace("lineorder", half)
    rebuilt = pipeline()
    assert share(rebuilt) == _measured(half, rebuilt.stages[0].predicate, [])
    assert evaluated


def test_the_estimator_reads_the_sampled_share(ssb_db):
    from repro.optimizer.cost import CostEstimator

    pipeline = extract_pipelines(plan_sql(SHARED, ssb_db), ssb_db).final_pipeline
    predicate = pipeline.stages[0].predicate
    estimator = CostEstimator(GTX970, PCIE3)
    assert estimator.selectivity(ssb_db, pipeline, predicate) == _measured(
        ssb_db.table("lineorder"), predicate, []
    )


# ----------------------------------------------------------------------
# the chosen order against every order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alias", ("resolution", "multipass", "operator-at-a-time", "vector"))
def test_the_chosen_order_is_within_one_percent_of_the_best(ssb_db, alias):
    for name in sorted(SSB_QUERIES):
        chosen = repro.connect(ssb_db).physical(SSB_QUERIES[name])
        final = chosen.final_pipeline
        probes = [stage for stage in final.stages if isinstance(stage, ProbeStage)]
        if len(probes) < 2:
            continue
        rest = [stage for stage in final.stages if not isinstance(stage, ProbeStage)]
        costs = {}
        for order in itertools.permutations(probes):
            query = replace(
                chosen,
                pipelines=chosen.pipelines[:-1] + [replace(final, stages=rest + list(order))],
            )
            device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
            ids = tuple(stage.table_id for stage in order)
            costs[ids] = make_engine(alias).execute(query, ssb_db, device).total_ms
        chosen_ids = tuple(stage.table_id for stage in probes)
        assert costs[chosen_ids] <= min(costs.values()) * 1.01, (name, chosen_ids, costs)


# ----------------------------------------------------------------------
# rewrite on vs off
# ----------------------------------------------------------------------
def _plans(ssb, tpch):
    """name -> (database, builder): a fresh logical plan per call."""
    out = {f"ssb:{name}": (ssb, lambda name=name: ssb_plan(name, ssb)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, lambda name=name: tpch_plan(name, tpch))
    return out


def _unordered(query, ranks):
    """The session rewrite with the probes left in the paper's order."""
    return group_sibling_builds(query)


def _peaks(session) -> list[int]:
    fleet = session.scaleout
    devices = fleet.fleet.devices if fleet is not None else [session.device]
    return [device.peak_allocated for device in devices]


@pytest.mark.parametrize("devices", (1, 3))
@pytest.mark.parametrize("alias", ENGINES)
def test_ordered_and_unordered_probes_give_the_same_results_for_less(
    ssb_db, tpch_db, monkeypatch, alias, devices
):
    cheaper = 0
    for name, (database, build) in _plans(ssb_db, tpch_db).items():
        for codec in CODECS:
            key = (name, alias, codec, devices)
            options = dict(engine=alias, compression=codec, devices=devices)
            ordered_session = repro.connect(database, **options)
            ordered = ordered_session.execute(build())
            with monkeypatch.context() as patch:
                patch.setattr(plan_cache, "session_plan", _unordered)
                paper_session = repro.connect(database, **options)
                paper = paper_session.execute(build())
            assert table_checksum(ordered.table) == table_checksum(paper.table), key
            assert len(ordered.profile.kernels) == len(paper.profile.kernels), key
            for direction in ("h2d", "d2h"):
                moved = ordered.profile.moved_bytes(direction)
                assert moved == paper.profile.moved_bytes(direction), key
            assert ordered.total_ms <= paper.total_ms * (1 + 1e-12), key
            assert ordered.profile.bytes_at(MemoryLevel.GLOBAL) <= paper.profile.bytes_at(
                MemoryLevel.GLOBAL
            ), key
            assert all(
                mine <= theirs for mine, theirs in zip(_peaks(ordered_session), _peaks(paper_session))
            ), key
            cheaper += ordered.total_ms < paper.total_ms
    assert cheaper


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_an_ordered_fleet_under_chaos_seeds_stays_byte_identical(ssb_db, monkeypatch, seed):
    devices = 3
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    ordered = repro.connect(ssb_db, devices=devices, fault_plan=plan)
    with monkeypatch.context() as patch:
        patch.setattr(plan_cache, "session_plan", _unordered)
        paper = repro.connect(ssb_db, devices=devices, fault_plan=plan)
    for name in ("q2.1", "q3.2", "q4.1", "q4.3"):
        expected = repro.connect(ssb_db, engine="cpu", device=repro.XEON_E5).execute(
            SSB_QUERIES[name]
        )
        result = ordered.execute(SSB_QUERIES[name])
        with monkeypatch.context() as patch:
            patch.setattr(plan_cache, "session_plan", _unordered)
            unordered = paper.execute(SSB_QUERIES[name])
        assert table_checksum(result.table) == table_checksum(expected.table), (seed, name)
        assert table_checksum(result.table) == table_checksum(unordered.table), (seed, name)
