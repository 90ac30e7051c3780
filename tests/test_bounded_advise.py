"""The advisor prices each lattice point only until it provably loses.

Every decision equals the one built from ``CostEstimator.estimate``
without a bound (each candidate priced in full and ranked by the
advisor's rules); every candidate it ranks carries the estimate the
full pricing gives; every outpriced one, priced in full, ranks behind
the pick.  Checked for the SSB, TPC-H and micro-benchmark plans on a
GTX970 and on a device where streaming is priced, at one device and at
``devices="auto"``, codec off and auto, on a cold pool and a warm one.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.optimizer import Advisor, AutoExecutor, CostEstimator, StrategyChoice
from repro.optimizer.advisor import _rank_key
from repro.optimizer.cost import merge_overhead_ms
from repro.hardware import GTX970, PCIE3
from repro.plan.pipelines import extract_pipelines
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.sql.translate import plan_sql
from repro.workloads import SSB_QUERIES, TPCH_PLANS, microbench


def _micro_plans():
    plans = []
    for x in (0, 25):
        plans += [microbench.projection_query(x), microbench.aggregation_query(x)]
    plans += [microbench.group_by_query(groups) for groups in (1, 64, 16384)]
    return plans + [microbench.star_join_query(), microbench.star_join_aggregate_query()]


def _plans(ssb_db, tpch_db):
    """``(database, physical plan)`` for the 13 SSB, 16 TPC-H and 9
    micro-benchmark plans."""
    plans = [(ssb_db, plan_sql(sql, ssb_db)) for _, sql in sorted(SSB_QUERIES.items())]
    plans += [(tpch_db, build(tpch_db)) for _, build in sorted(TPCH_PLANS.items())]
    plans += [(ssb_db, plan) for plan in _micro_plans()]
    return [(database, extract_pipelines(plan, database)) for database, plan in plans]


def _assert_exact(decision, pick, estimates, dominated):
    assert decision.chosen == pick.strategy
    assert asdict(decision.estimate) == asdict(pick)
    for estimate in decision.candidates:
        assert asdict(estimate) == asdict(estimates[estimate.strategy])
    outpriced = [pruned for pruned in decision.pruned if pruned.reached_ms is not None]
    for pruned in outpriced:
        assert pruned.reached_ms > pruned.bound_ms >= pick.total_ms
        full = estimates.get(pruned.strategy)
        if full is not None:  # else it would not have ranked at all
            assert _rank_key(full) > _rank_key(pick), pruned.strategy
            assert pruned.reached_ms <= full.total_ms * (1 + 1e-9)
    ranked = {estimate.strategy for estimate in decision.candidates}
    assert ranked | {pruned.strategy for pruned in outpriced} >= set(estimates)
    assert {
        pruned.strategy for pruned in decision.pruned if pruned.reason.startswith("dominated")
    } == dominated


def _assert_peaks_engine_free(estimates):
    """A run-to-finish peak depends on the placement and the device
    count, not on the engine: what lets the out-of-core rule read any
    engine's."""
    peaks: dict[tuple, set] = {}
    for choice, estimate in estimates.items():
        if choice.macro == "run-to-finish":
            peaks.setdefault((choice.devices, choice.placement), set()).add(
                estimate.peak_device_bytes
            )
    assert all(len(group) == 1 for group in peaks.values()), peaks


@pytest.mark.parametrize("compression", ["off", "auto"])
@pytest.mark.parametrize("devices", [1, None])
@pytest.mark.parametrize("device", ["gtx970", "streams"])
def test_bounded_advise_is_exact(ssb_db, tpch_db, fully_priced, device, devices, compression):
    streamed = 0
    for database, query in _plans(ssb_db, tpch_db):
        profile = GTX970
        if device == "streams":
            # A run-to-finish working set fits but not in half of it.
            probe = CostEstimator(GTX970, PCIE3).estimate(query, database, StrategyChoice())
            profile = GTX970.with_overrides(
                name="gtx970-small", memory_capacity=int(probe.peak_device_bytes * 1.5)
            )
        auto = AutoExecutor(profile, PCIE3, devices=devices, compression=compression)
        for warm in (False, True):
            if warm:
                auto.execute(query, database)
            pick, estimates, dominated = fully_priced(auto, query, database)
            _assert_peaks_engine_free(estimates)
            _assert_exact(auto.advise(query, database), pick, estimates, dominated)
            streamed += any(choice.macro == "out-of-core" for choice in estimates)
    assert (streamed > 0) == (device == "streams")


def test_no_fleet_turn_is_priced_past_the_merge(ssb_db, monkeypatch):
    """On a warm pool at SF 0.004 the merge alone costs more than the
    best one-device plan: no fleet turn runs, and each fleet stops at
    its merge."""
    import repro.optimizer.cost as cost

    turns = []
    estimate_turn = cost.estimate_turn
    monkeypatch.setattr(
        cost, "estimate_turn", lambda *args: turns.append(args) or estimate_turn(*args)
    )
    auto = AutoExecutor(GTX970, PCIE3)
    for name in ("q1.1", "q2.1", "q3.1", "q4.1"):
        query = extract_pipelines(plan_sql(SSB_QUERIES[name], ssb_db), ssb_db)
        auto.execute(query, ssb_db)
        query.estimates.clear()
        turns.clear()
        decision = auto.advise(query, ssb_db)
        assert turns == []
        assert decision.chosen.devices == 1
        assert merge_overhead_ms(2 * MORSELS_PER_DEVICE) > decision.predicted_ms
        fleets = [pruned for pruned in decision.pruned if pruned.strategy.devices > 1
                  and pruned.strategy.macro == "run-to-finish"]
        assert len(fleets) == 24
        for pruned in fleets:
            parts = pruned.strategy.devices * MORSELS_PER_DEVICE
            assert pruned.reached_ms == merge_overhead_ms(parts)
            assert pruned.bound_ms == decision.predicted_ms


def test_a_stopped_run_stands_for_lower_bounds_only(ssb_db):
    """A stopped run is kept with the bound it lost to: a lower bound
    reuses it, a higher one or none prices again, in full."""
    query = extract_pipelines(plan_sql(SSB_QUERIES["q2.1"], ssb_db), ssb_db)
    estimator = CostEstimator(GTX970, PCIE3)
    choice = StrategyChoice(engine="multipass", placement="transient")
    full = estimator.estimate(query, ssb_db, choice)
    query.estimates.clear()
    bound = full.total_ms / 2
    stopped = estimator.estimate(query, ssb_db, choice, bound=bound)
    assert not stopped.feasible and stopped.reason.startswith("outpriced")
    assert stopped.outpriced.bound_ms == bound
    assert bound < stopped.outpriced.reached_ms <= full.total_ms
    assert estimator.estimate(query, ssb_db, choice, bound=bound / 2).outpriced is stopped.outpriced
    assert asdict(estimator.estimate(query, ssb_db, choice)) == asdict(full)
    assert asdict(estimator.estimate(query, ssb_db, choice, bound=full.total_ms)) == asdict(full)


def test_explain_lists_outpriced_candidates(ssb_db):
    query = extract_pipelines(plan_sql(SSB_QUERIES["q1.1"], ssb_db), ssb_db)
    decision = Advisor(GTX970, PCIE3).advise(query, ssb_db)
    rendered = decision.render(limit=64)
    outpriced = [pruned for pruned in decision.pruned if pruned.reached_ms is not None]
    assert outpriced
    for pruned in outpriced:
        row = next(
            line for line in rendered.splitlines()
            if line.startswith(f"  x {pruned.strategy.describe()} ")
        )
        assert row.split()[-2:] == [f"{pruned.reached_ms:.3f}", f"{pruned.bound_ms:.3f}"]


@pytest.mark.parametrize("limit", (8, 64))
def test_every_explain_row_lines_up(ssb_db, limit):
    """Ranked, outpriced and pruned rows share one name column as wide
    as the longest name shown: fleet names (up to 53 characters) push
    it out for every block, never past the numbers of one row."""
    query = extract_pipelines(plan_sql(SSB_QUERIES["q1.1"], ssb_db), ssb_db)
    decision = Advisor(GTX970, PCIE3).advise(query, ssb_db)
    lines = decision.render(limit=limit).splitlines()
    header = next(line for line in lines if line.startswith("  candidate "))
    end = header.index("pred ms") + len("pred ms")
    field = slice(end - 9, end)

    def row(prefix, strategy):
        name = prefix + strategy.describe() + " "
        return next(line for line in lines if line.startswith(name))

    names = []
    for estimate in decision.candidates[:limit]:
        marker = " *" if estimate.strategy == decision.chosen else "  "
        assert row(marker, estimate.strategy)[field] == f"{estimate.total_ms:>9.3f}"
        names.append(estimate.strategy.describe())
    outpriced = [pruned for pruned in decision.pruned if pruned.reached_ms is not None]
    assert next(line for line in lines if line.startswith("  outpriced "))[field] == f"{'at ms':>9}"
    for pruned in outpriced[:limit]:
        assert row("  x ", pruned.strategy)[field] == f"{pruned.reached_ms:>9.3f}"
        names.append(pruned.strategy.describe())
    for pruned in [pruned for pruned in decision.pruned if pruned.reached_ms is None][:limit]:
        assert row("  x ", pruned.strategy)[end - 9 :] == pruned.reason
        names.append(pruned.strategy.describe())
    assert max(map(len, names)) > 44  # a fleet name is among them
    assert end - 9 == max(map(len, names)) + 5  # and sets the width
