"""Chaos differential harness: injected faults must change nothing.

The headline guarantee of the recovering scale-out executor is *exact*:
for any fault schedule that leaves at least one device alive, the
result table is byte-identical — same dtypes, same values, same row
order — to the fault-free run at the same device count and
partitioning scheme (partials merge in global piece order regardless of
which device computed them, and a recomputed morsel is the same
morsel).

Hypothesis drives randomly generated :class:`FaultPlan`s over SSB and
TPC-H queries at 2–4 devices under both schemes; a pinned-seed matrix
(override with ``CHAOS_SEEDS=1,2,3``) gives CI a stable smoke set.  Any
byte-identity miss writes a self-contained post-mortem bundle under
``postmortems/`` — fault plan, replay recipe, and the per-column
checksum diff — replayable with ``repro replay <bundle>`` (see
``docs/fault-tolerance.md`` and ``docs/observability.md``).

The autouse ``buffer_leak_guard`` in ``conftest.py`` checks every fleet
device (dead or alive, plus the host-fallback device) after each of
these executions, so every recovery path is also a leak test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.engines import make_engine
from repro.faults import FaultPlan, RetryPolicy
from repro.scaleout import PARTITION_SCHEMES, ScaleOutExecutor
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import (
    FlightRecord,
    table_checksum,
    write_postmortem_bundle,
)
from repro.workloads import SSB_QUERIES, ssb_plan, tpch_plan
from repro.workloads.tpch.queries import Q1_SQL, Q6_SQL

POSTMORTEM_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "postmortems")

#: SQL text per chaos query, embedded in miss bundles so
#: ``repro replay`` can re-execute the schedule.
_CHAOS_SQL = {
    ("ssb", name): SSB_QUERIES[name] for name in ("q1.1", "q2.1", "q3.2", "q4.1")
}
_CHAOS_SQL[("tpch", "q1")] = Q1_SQL
_CHAOS_SQL[("tpch", "q6")] = Q6_SQL

#: Database generator recipes matching the conftest fixtures.
_CHAOS_DB = {
    "ssb": {"workload": "ssb", "scale_factor": 0.004, "seed": 7},
    "tpch": {"workload": "tpch", "scale_factor": 0.004, "seed": 11},
}

#: Queries exercised under chaos: star joins with group-bys (the
#: mergeable-partials machinery), plus scan-heavy aggregates.
SSB_CHAOS = ("q1.1", "q2.1", "q3.2", "q4.1")
TPCH_CHAOS = ("q1", "q6")

#: Fault-free reference tables, keyed (workload, query, devices, scheme).
_baselines: dict = {}


def _plan_for(workload, name, db):
    return ssb_plan(name, db) if workload == "ssb" else tpch_plan(name, db)


def _baseline(workload, name, db, devices, scheme):
    key = (workload, name, devices, scheme)
    if key not in _baselines:
        executor = ScaleOutExecutor(devices, partitioning=scheme)
        _baselines[key] = executor.execute(
            make_engine("resolution"), _plan_for(workload, name, db), db
        ).table
    return _baselines[key]


def _assert_identical(expected, got, context):
    assert got.column_names == expected.column_names, context
    for column in expected.column_names:
        want = expected.column(column).values
        have = got.column(column).values
        assert have.dtype == want.dtype, f"{context}: dtype of {column}"
        assert np.array_equal(have, want), f"{context}: values of {column}"


def _run_chaos(workload, name, db, fault_plan, devices, scheme, label):
    """One chaos execution checked byte-for-byte against the fault-free
    baseline; a miss writes a replayable post-mortem bundle before
    re-raising."""
    expected = _baseline(workload, name, db, devices, scheme)
    policy = RetryPolicy(max_retries=1)
    executor = ScaleOutExecutor(
        devices,
        partitioning=scheme,
        fault_plan=fault_plan,
        retry_policy=policy,
    )
    result = executor.execute(make_engine("resolution"), _plan_for(workload, name, db), db)
    try:
        _assert_identical(
            expected, result.table,
            f"{workload} {name} devices={devices} {scheme} plan={fault_plan.summary()}",
        )
    except AssertionError:
        path = _write_miss_bundle(
            workload, name, fault_plan, devices, scheme, label,
            expected, result, policy,
        )
        print(f"chaos miss: wrote post-mortem bundle to {path}")
        raise
    return result


def _write_miss_bundle(
    workload, name, fault_plan, devices, scheme, label, expected, result, policy
):
    """A byte-identity miss becomes a self-contained bundle: the armed
    fault plan, a full replay recipe (fixture generator parameters),
    the checksums both ways, and the recovery stats."""
    record = FlightRecord(
        query_id=label,
        sql=_CHAOS_SQL[(workload, name)],
        status="ok",
        started_at=0.0,
        strategy={
            "engine": "resolution",
            "device": "gtx970",
            "devices": devices,
            "partitioning": scheme,
        },
        expected={
            "status": "ok",
            "row_count": expected.num_rows,
            "checksum": table_checksum(expected),
        },
    )
    recovery = result.scaleout.recovery
    return write_postmortem_bundle(
        POSTMORTEM_DIR,
        record=record,
        replay={
            "sql": record.sql,
            "seed": 42,
            "database": _CHAOS_DB[workload],
            "engine": "resolution",
            "device": "gtx970",
            "devices": devices,
            "partitioning": scheme,
            "retry_policy": {
                "max_retries": policy.max_retries,
                "backoff_base_ms": policy.backoff_base_ms,
                "backoff_cap_ms": policy.backoff_cap_ms,
                "morsel_timeout_ms": policy.morsel_timeout_ms,
            },
        },
        fault_plan=fault_plan,
        name=label,
        manifest_extra={
            "mismatch": {
                "observed_checksum": table_checksum(result.table),
                "recovery": recovery.summary() if recovery is not None else None,
            },
        },
    )


# ----------------------------------------------------------------------
# hypothesis-driven chaos
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    devices=st.integers(min_value=2, max_value=4),
    scheme=st.sampled_from(PARTITION_SCHEMES),
    query=st.integers(min_value=0, max_value=len(SSB_CHAOS) - 1),
)
def test_chaos_ssb_byte_identical(ssb_db, seed, devices, scheme, query):
    name = SSB_CHAOS[query]
    fault_plan = FaultPlan.generate(seed, devices, devices * 2)
    result = _run_chaos(
        "ssb", name, ssb_db, fault_plan, devices, scheme,
        f"hypothesis-ssb-{name}-d{devices}-{scheme}-s{seed}",
    )
    recovery = result.scaleout.recovery
    assert recovery is not None
    # The survivor guarantee holds by construction.
    assert len(recovery.degraded_devices) < devices
    assert not recovery.host_fallback


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    devices=st.integers(min_value=2, max_value=4),
    scheme=st.sampled_from(PARTITION_SCHEMES),
    query=st.integers(min_value=0, max_value=len(TPCH_CHAOS) - 1),
)
def test_chaos_tpch_byte_identical(tpch_db, seed, devices, scheme, query):
    name = TPCH_CHAOS[query]
    fault_plan = FaultPlan.generate(seed, devices, devices * 2)
    _run_chaos(
        "tpch", name, tpch_db, fault_plan, devices, scheme,
        f"hypothesis-tpch-{name}-d{devices}-{scheme}-s{seed}",
    )


# ----------------------------------------------------------------------
# pinned-seed matrix (CI smoke; override seeds via CHAOS_SEEDS)
# ----------------------------------------------------------------------
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
def test_chaos_pinned_seed_matrix(ssb_db, tpch_db, seed, scheme):
    for devices in (2, 3):
        fault_plan = FaultPlan.generate(seed, devices, devices * 2)
        _run_chaos(
            "ssb", "q2.1", ssb_db, fault_plan, devices, scheme,
            f"pinned-ssb-q2.1-d{devices}-{scheme}-s{seed}",
        )
        _run_chaos(
            "tpch", "q6", tpch_db, fault_plan, devices, scheme,
            f"pinned-tpch-q6-d{devices}-{scheme}-s{seed}",
        )


def test_empty_plan_is_idle(ssb_db):
    """Armed-but-empty injection changes nothing — not the rows, not the
    modeled timeline ([sim]; injection that fires nothing must charge no
    simulated time) — and reports no faults."""
    result = _run_chaos(
        "ssb", "q1.1", ssb_db, FaultPlan(), 3, "range", "empty-plan"
    )
    recovery = result.scaleout.recovery
    assert recovery is not None and not recovery.faulted
    assert recovery.waves == 1 and recovery.injected == {}
    engine = make_engine("resolution")
    for name in ("q1.1", "q2.1", "q3.2", "q4.1"):
        plan = ssb_plan(name, ssb_db)
        plain = ScaleOutExecutor(3).execute(engine, plan, ssb_db)
        armed = ScaleOutExecutor(3, fault_plan=FaultPlan()).execute(
            engine, plan, ssb_db
        )
        assert armed.scaleout.makespan_ms == plain.scaleout.makespan_ms, name
        assert armed.table.sorted_rows() == plain.table.sorted_rows(), name
        assert not armed.scaleout.recovery.faulted


def test_replay_is_deterministic(ssb_db):
    """The same plan on the same executor fires identically each query,
    and a second executor replays the first one's schedule exactly."""
    fault_plan = FaultPlan.generate(seed=77, devices=3, morsels=6)
    plan = ssb_plan("q2.1", ssb_db)
    engine = make_engine("resolution")
    recoveries = []
    for _ in range(2):
        executor = ScaleOutExecutor(3, fault_plan=fault_plan)
        for _ in range(2):
            recoveries.append(
                executor.execute(engine, plan, ssb_db).scaleout.recovery
            )
    first = recoveries[0]
    for other in recoveries[1:]:
        assert other.injected == first.injected
        assert other.retries == first.retries
        assert other.redistributed_morsels == first.redistributed_morsels
        assert other.degraded_devices == first.degraded_devices
        assert other.waves == first.waves


# ----------------------------------------------------------------------
# accounting reconciliation: RecoveryStats == Prometheus counters
# ----------------------------------------------------------------------
def _counter_values(text: str, name: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            out[series] = float(value)
    return out


def test_recovery_stats_reconcile_with_metrics(ssb_db):
    fault_plan = FaultPlan.generate(seed=5, devices=3, morsels=6)
    metrics = MetricsRegistry()
    session = Session(
        ssb_db, engine="resolution", devices=3, fault_plan=fault_plan,
        metrics=metrics,
    )
    injected: dict = {}
    retries = redistributed = timeouts = fallbacks = 0
    for name in SSB_CHAOS:
        recovery = session.execute(ssb_plan(name, ssb_db)).scaleout.recovery
        for kind, count in recovery.injected.items():
            injected[kind] = injected.get(kind, 0) + count
        retries += recovery.retries
        redistributed += recovery.redistributed_morsels
        timeouts += recovery.timeouts
        fallbacks += int(recovery.host_fallback)
    text = metrics.render()
    by_kind = _counter_values(text, "repro_faults_injected_total")
    assert sum(by_kind.values()) == sum(injected.values())
    for kind, count in injected.items():
        assert by_kind[f'repro_faults_injected_total{{kind="{kind}"}}'] == count
    assert sum(
        _counter_values(text, "repro_faults_retries_total").values()
    ) == retries
    assert sum(
        _counter_values(text, "repro_faults_redistributed_morsels_total").values()
    ) == redistributed
    assert sum(
        _counter_values(text, "repro_faults_timeouts_total").values()
    ) == timeouts
    assert sum(
        _counter_values(text, "repro_faults_host_fallbacks_total").values()
    ) == fallbacks
