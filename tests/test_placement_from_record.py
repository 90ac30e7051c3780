"""``result.placement`` is read off the query record (its ``placement``
phases and pipeline rows), not counted beside it: a query's
placement equals the change it made to its pools' counters — on a
pooled fleet cold then warm, on a pooled fleet that loses every device
and falls back to the host (the devices' loads and builds are carried
into the host run's record), on a pooled device whose in-core attempt
runs out of memory and falls back to out-of-core streaming (the
attempt's loads and builds are on record), and under
``compression="auto"`` (a hit saves the resident wire image's
bytes)."""

from __future__ import annotations

from repro.api import connect
from repro.engines import make_engine
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.placement import BufferPool, base_column_bytes, execute_with_placement
from repro.plan.pipelines import extract_pipelines
from repro.workloads import SSB_QUERIES, ssb_plan

COUNTS = ("hits", "misses", "hit_bytes", "table_hits", "table_misses")


def _counts(stats) -> dict:
    return {name: getattr(stats, name) for name in COUNTS}


def _run(execute, pool_stats):
    """``execute()``'s result, its placement checked against the change
    in ``pool_stats()`` the run made."""
    before = _counts(pool_stats())
    result = execute()
    after = _counts(pool_stats())
    assert _counts(result.placement) == {
        name: after[name] - before[name] for name in COUNTS
    }
    return result


def test_pooled_fleet_cold_then_warm(ssb_db):
    session = connect(ssb_db, residency=True, devices=2)
    results = [
        _run(lambda: session.execute(SSB_QUERIES[name]), session.placement_stats)
        for name in ("q2.1", "q2.1", "q3.1")
    ]
    cold, warm, _ = (result.placement for result in results)
    assert cold.misses > 0 and cold.table_misses > 0 and cold.hits == 0
    assert warm.hits > 0 and warm.table_hits > 0 and warm.table_misses == 0


def test_pooled_fleet_that_loses_every_device(ssb_db):
    lose_all = FaultPlan(
        specs=tuple(FaultSpec(kind="device-loss", device=d, op="morsel") for d in range(2))
    )
    session = connect(ssb_db, residency=True, devices=2, fault_plan=lose_all)
    result = _run(lambda: session.execute(SSB_QUERIES["q2.1"]), session.placement_stats)
    assert result.scaleout.recovery.host_fallback and result.placement.out_of_core
    assert result.placement.misses > 0 and result.placement.table_misses > 0


def test_pooled_oom_falls_back_out_of_core(ssb_db):
    query = extract_pipelines(ssb_plan("q2.1", ssb_db), ssb_db)
    # The base columns fit, the run does not: the in-core attempt loads
    # and builds, then runs out of memory and the query streams.
    profile = GTX970.with_overrides(
        name="tight", memory_capacity=base_column_bytes(query, ssb_db)
    )
    device = VirtualCoprocessor(profile, interconnect=PCIE3)
    pool = BufferPool(device)
    engine = make_engine("resolution")
    result = _run(
        lambda: execute_with_placement(engine, query, ssb_db, device), pool.stats
    )
    placement = result.placement
    assert placement.out_of_core and pool.stats().fallbacks == 1
    # What the attempt that ran out loaded and built, and the streamed
    # run's builds the pool served.
    assert placement.misses > 0
    assert placement.table_misses == placement.table_hits == 3


def test_pooled_compression_auto(ssb_db):
    session = connect(ssb_db, residency=True, compression="auto")
    cold, warm = (
        _run(lambda: session.execute(SSB_QUERIES["q1.1"]), session.placement_stats)
        for _ in range(2)
    )
    assert cold.placement.misses > 0 and warm.placement.hits > 0
    # A hit saves what the pool holds: the wire image, not the raw column.
    raw = sum(
        attrs["nbytes"] for *_, category, attrs in warm.profile.phases
        if category == "placement" and attrs.get("hit") and "footprint" in attrs
    )
    assert 0 < warm.placement.hit_bytes < raw
