"""Scale-out differential harness: N devices must change nothing.

Every SSB and TPC-H benchmark query is executed single-device and
through the scale-out executor at 2, 3, and 4 devices under both
partitioning schemes; results must agree as multisets (float tolerance
for accumulation order — partial aggregates re-reduce in partition
order, which differs from the single-device reduction order).

A hypothesis property test additionally samples random device counts
and schemes over a randomized filter+aggregate query.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.engines import VectorAtATimeEngine, make_engine
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.macro.batch import execute_out_of_core
from repro.scaleout import PARTITION_SCHEMES, ScaleOutExecutor
from repro.storage.table import rows_approx_equal
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

DEVICE_COUNTS = (2, 3, 4)


@pytest.fixture(scope="module")
def ssb_reference(ssb_db):
    session = Session(ssb_db, engine="resolution")
    return {
        name: session.execute(ssb_plan(name, ssb_db)).table.sorted_rows()
        for name in sorted(SSB_QUERIES)
    }


@pytest.fixture(scope="module")
def tpch_reference(tpch_db):
    session = Session(tpch_db, engine="resolution")
    return {
        name: session.execute(tpch_plan(name, tpch_db)).table.sorted_rows()
        for name in sorted(TPCH_PLANS)
    }


@pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
@pytest.mark.parametrize("name", sorted(SSB_QUERIES))
def test_ssb_agrees_across_device_counts(ssb_db, ssb_reference, name, scheme):
    expected = ssb_reference[name]
    plan = ssb_plan(name, ssb_db)
    for devices in DEVICE_COUNTS:
        executor = ScaleOutExecutor(devices, partitioning=scheme)
        result = executor.execute(make_engine("resolution"), plan, ssb_db)
        assert rows_approx_equal(
            result.table.sorted_rows(), expected, rel_tol=1e-6, abs_tol=1e-6
        ), f"{name} differs at devices={devices}, {scheme}"


@pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
@pytest.mark.parametrize("name", sorted(TPCH_PLANS))
def test_tpch_agrees_across_device_counts(tpch_db, tpch_reference, name, scheme):
    expected = tpch_reference[name]
    plan = tpch_plan(name, tpch_db)
    for devices in DEVICE_COUNTS:
        executor = ScaleOutExecutor(devices, partitioning=scheme)
        result = executor.execute(make_engine("resolution"), plan, tpch_db)
        assert rows_approx_equal(
            result.table.sorted_rows(), expected, rel_tol=1e-6, abs_tol=1e-6
        ), f"{name} differs at devices={devices}, {scheme}"


# ----------------------------------------------------------------------
# the in-process slicers: streamed blocks and vectors change nothing
# ----------------------------------------------------------------------
SLICED = [("ssb", name) for name in sorted(SSB_QUERIES)] + [
    ("tpch", "q1"),  # AVG: merges through the hidden SUM/COUNT partials
    ("tpch", "q6"),
]


@pytest.mark.parametrize("suite, name", SLICED)
def test_blocks_and_vectors_agree_with_run_to_finish(
    ssb_db, ssb_reference, tpch_db, tpch_reference, suite, name
):
    """Out-of-core streaming and the vector engine feed the same
    pipelines a slice at a time; results must match run-to-finish under
    ``repro.validation``'s tolerances."""
    if suite == "ssb":
        database, plan, expected = ssb_db, ssb_plan(name, ssb_db), ssb_reference[name]
    else:
        database, plan, expected = tpch_db, tpch_plan(name, tpch_db), tpch_reference[name]
    streamed = execute_out_of_core(
        plan, database, VirtualCoprocessor(GTX970, interconnect=PCIE3),
        block_bytes=16 * 1024,
    )
    vectors = VectorAtATimeEngine(4096).execute(
        plan, database, VirtualCoprocessor(GTX970, interconnect=PCIE3)
    )
    for label, result in (("out-of-core", streamed), ("vector", vectors)):
        assert rows_approx_equal(
            result.table.sorted_rows(), expected, rel_tol=1e-4, abs_tol=1e-2
        ), f"{suite} {name} differs under {label}"


# ----------------------------------------------------------------------
# property: random partition counts over random queries
# ----------------------------------------------------------------------
_AGGS = ("sum(lo_revenue)", "min(lo_revenue)", "max(lo_extendedprice)",
         "count(*)", "avg(lo_quantity)")


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    devices=st.integers(min_value=1, max_value=8),
    scheme=st.sampled_from(PARTITION_SCHEMES),
    agg=st.sampled_from(_AGGS),
    lo=st.integers(min_value=0, max_value=8),
    hi=st.integers(min_value=0, max_value=10),
)
def test_random_partition_counts_agree(ssb_db, devices, scheme, agg, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    sql = (
        f"select {agg} as out from lineorder "
        f"where lo_discount between {lo} and {hi}"
    )
    expected = Session(ssb_db, engine="resolution").execute(sql).table.sorted_rows()
    got = (
        Session(ssb_db, engine="resolution", devices=devices, partitioning=scheme)
        .execute(sql)
        .table.sorted_rows()
    )
    assert rows_approx_equal(got, expected, rel_tol=1e-6, abs_tol=1e-6)
