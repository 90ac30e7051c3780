"""Recovery-path tests: the degradation ladder, failure classification,
and scheduler redistribution edge cases.

The chaos differential suite (``test_faults_differential.py``) shows
that *injected* faults change nothing; these tests pin down each rung
of the ladder individually — retry, redistribute onto survivors,
degrade to one device, host fallback — plus the fatal/recoverable
split (a ``KeyboardInterrupt`` must cut straight through the worker
threads, a genuine repeated failure must exhaust with a named morsel).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.engines import make_engine
from repro.engines.compound import CompoundEngine
from repro.errors import (
    ConfigurationError,
    DeviceMemoryError,
    MorselExhaustedError,
    ReproError,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.scaleout import ScaleOutExecutor
from repro.scaleout.partition import partition_name
from repro.scaleout.scheduler import assign_pieces
from repro.serving import Server
from repro.storage.column import Column
from repro.storage.database import Database
from repro.storage.table import Table, rows_approx_equal
from repro.telemetry.metrics import MetricsRegistry, observe_result
from repro.workloads import ssb_plan


ENGINE = "resolution"


def _gauge_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{name} not found in:\n{text}")


# ----------------------------------------------------------------------
# scheduler: eligibility-constrained LPT
# ----------------------------------------------------------------------
def test_assign_pieces_eligible_single_survivor():
    """All-but-one device failed: everything lands on the survivor."""
    costs = [10, 8, 6, 4]
    loads = assign_pieces(costs, 3, eligible=[[2]] * 4)
    assert loads[0].pieces == [] and loads[1].pieces == []
    assert loads[2].pieces == [0, 1, 2, 3]
    assert loads[2].estimated_bytes == sum(costs)


def test_assign_pieces_eligible_matches_unconstrained():
    """A fully-permissive eligibility list reproduces plain LPT."""
    costs = [9, 7, 7, 3, 1]
    plain = assign_pieces(costs, 2)
    constrained = assign_pieces(costs, 2, eligible=[[0, 1]] * 5)
    assert [load.pieces for load in plain] == [
        load.pieces for load in constrained
    ]
    assert [load.estimated_bytes for load in plain] == [
        load.estimated_bytes for load in constrained
    ]


def test_assign_pieces_eligible_respects_blacklists():
    costs = [5, 5, 5]
    loads = assign_pieces(costs, 2, eligible=[[1], [0], [0, 1]])
    assert 0 in loads[1].pieces and 1 in loads[0].pieces


@pytest.mark.parametrize(
    "eligible, message",
    [
        ([[0], [0]], "candidate devices per piece"),  # length mismatch
        ([[0], [], [1]], "no eligible device"),
        ([[0], [1], [7]], "unknown device"),
    ],
)
def test_assign_pieces_eligible_rejects(eligible, message):
    with pytest.raises(ValueError, match=message):
        assign_pieces([1, 2, 3], 2, eligible=eligible)


# ----------------------------------------------------------------------
# fatal vs recoverable classification
# ----------------------------------------------------------------------
class _RaisingEngine(CompoundEngine):
    """Raises a pre-built exception *object* from every pipeline, so
    tests can check the very same object propagates (traceback intact,
    no wrapping, no retry)."""

    def __init__(self, error: BaseException):
        super().__init__()
        self._error = error

    def execute_pipeline(self, pipeline, runtime):
        raise self._error


def test_keyboard_interrupt_propagates_immediately(ssb_db):
    """Regression for the old bare ``except BaseException``: a Ctrl-C
    must never be swallowed, retried, or re-scheduled — the original
    exception object surfaces from ``execute``."""
    sentinel = KeyboardInterrupt("user hit ctrl-c")
    plan = ssb_plan("q1.1", ssb_db)
    for devices in (1, 3):  # inline path and threaded path
        executor = ScaleOutExecutor(devices)
        with pytest.raises(KeyboardInterrupt) as info:
            executor.execute(_RaisingEngine(sentinel), plan, ssb_db)
        assert info.value is sentinel


def test_fatal_errors_propagate_unretried(ssb_db):
    """Engine bugs (here: ``ValueError``) are not fault-tolerance
    events; they re-raise as-is instead of burning retries."""
    sentinel = ValueError("engine bug, not a fault")
    executor = ScaleOutExecutor(2, retry_policy=RetryPolicy(max_retries=5))
    with pytest.raises(ValueError) as info:
        executor.execute(_RaisingEngine(sentinel), ssb_plan("q1.1", ssb_db), ssb_db)
    assert info.value is sentinel


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
def test_all_but_one_device_lost_still_byte_identical(ssb_db):
    plan = ssb_plan("q2.1", ssb_db)
    expected = ScaleOutExecutor(3).execute(
        make_engine(ENGINE), plan, ssb_db
    ).table
    fault_plan = FaultPlan(
        specs=(
            FaultSpec(kind="device-loss", device=0, op="build"),
            FaultSpec(kind="device-loss", device=1, op="build"),
        )
    )
    executor = ScaleOutExecutor(3, fault_plan=fault_plan)
    result = executor.execute(make_engine(ENGINE), plan, ssb_db)
    assert result.table.column_names == expected.column_names
    for column in expected.column_names:
        assert np.array_equal(
            result.table.column(column).values, expected.column(column).values
        )
    recovery = result.scaleout.recovery
    assert recovery.degraded_devices == [0, 1]
    assert not recovery.host_fallback
    assert recovery.redistributed_morsels > 0
    assert recovery.waves >= 2
    metrics = MetricsRegistry()
    observe_result(metrics, result)
    text = metrics.render()
    assert _gauge_value(text, "repro_faults_live_devices") == 1.0


def test_host_fallback_when_every_device_is_lost(ssb_db):
    plan = ssb_plan("q1.1", ssb_db)
    fault_plan = FaultPlan(
        specs=(
            FaultSpec(kind="device-loss", device=0, op="build"),
            FaultSpec(kind="device-loss", device=1, op="build"),
        )
    )
    executor = ScaleOutExecutor(2, fault_plan=fault_plan)
    result = executor.execute(make_engine(ENGINE), plan, ssb_db)
    recovery = result.scaleout.recovery
    assert recovery.host_fallback
    assert recovery.degraded_devices == [0, 1]
    reference = Session(ssb_db, engine=ENGINE).execute(plan)
    assert rows_approx_equal(
        result.table.sorted_rows(), reference.table.sorted_rows()
    )
    # The fleet revives between queries: the same executor serves the
    # next query on devices again (losses last one query).
    again = executor.execute(make_engine(ENGINE), plan, ssb_db)
    assert again.scaleout.recovery.host_fallback
    metrics = MetricsRegistry()
    for each in (result, again):
        observe_result(metrics, each)
    text = metrics.render()
    assert _gauge_value(text, "repro_faults_host_fallbacks_total") == 2.0


class _PoisonEngine(CompoundEngine):
    """Raises a *genuine* (non-injected) ``DeviceMemoryError`` whenever
    a pipeline reads the poisoned morsel's partition table, on every
    device — the one failure mode retries and redistribution cannot
    heal."""

    def __init__(self, poisoned_table: str):
        super().__init__()
        self._poisoned = poisoned_table

    def execute_pipeline(self, pipeline, runtime):
        if pipeline.source == self._poisoned:
            raise DeviceMemoryError(1, 0, 0)
        return super().execute_pipeline(pipeline, runtime)


def test_morsel_failing_everywhere_exhausts_with_named_morsel(ssb_db):
    """A morsel that genuinely fails on every surviving device raises
    :class:`MorselExhaustedError` naming the morsel (injected faults
    never reach this: their budgets are finite, so grace rounds heal
    them — see ``docs/fault-tolerance.md``)."""
    poisoned = 1
    engine = _PoisonEngine(partition_name("lineorder", poisoned))
    executor = ScaleOutExecutor(2, retry_policy=RetryPolicy(max_retries=0))
    with pytest.raises(MorselExhaustedError) as info:
        executor.execute(engine, ssb_plan("q1.1", ssb_db), ssb_db)
    error = info.value
    assert isinstance(error, ReproError)
    assert error.morsel == poisoned
    assert f"morsel {poisoned}" in str(error)
    assert "lineorder" in str(error)
    assert error.devices == [0, 1]  # nobody died; everyone refused


def test_zero_row_partitions_survive_redistribution():
    """Range-partitioning 6 rows across 8 morsels leaves empty pieces;
    faults plus redistribution over that layout must still reduce to
    the exact answer."""
    values = np.arange(6, dtype=np.int64)
    database = Database(
        {"t": Table({"v": Column.int64(values), "k": Column.int32(values % 3)})}
    )
    plan = "select sum(v) as total from t"
    expected = Session(database, engine=ENGINE).execute(plan).table
    fault_plan = FaultPlan(
        specs=(
            FaultSpec(kind="device-loss", device=0, op="build"),
            FaultSpec(kind="oom", morsel=0),
        )
    )
    session = Session(
        database,
        engine=ENGINE,
        devices=4,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=0),
    )
    result = session.execute(plan)
    assert np.array_equal(
        result.table.column("total").values, expected.column("total").values
    )
    assert result.scaleout.recovery.faulted


def test_straggler_past_timeout_is_retried(ssb_db):
    plan = ssb_plan("q1.1", ssb_db)
    expected = ScaleOutExecutor(2).execute(
        make_engine(ENGINE), plan, ssb_db
    ).table
    fault_plan = FaultPlan(
        specs=(FaultSpec(kind="straggler", morsel=0, delay_ms=50.0),)
    )
    executor = ScaleOutExecutor(
        2,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_retries=2, morsel_timeout_ms=10.0),
    )
    result = executor.execute(make_engine(ENGINE), plan, ssb_db)
    recovery = result.scaleout.recovery
    assert recovery.injected == {"straggler": 1}
    assert recovery.timeouts == 1
    assert recovery.retries == 1  # budget burnt, the retry ran clean
    assert recovery.backoff_ms > 0.0
    for column in expected.column_names:
        assert np.array_equal(
            result.table.column(column).values, expected.column(column).values
        )


# ----------------------------------------------------------------------
# serving & session wiring
# ----------------------------------------------------------------------
def test_an_armed_worker_exports_its_health_gauge_before_any_query(ssb_db):
    """A worker's gauge does not wait for the worker to run a query: a
    2-worker fault-armed server scraped before any query exports both,
    at the fleet size."""
    fault_plan = FaultPlan(
        specs=(FaultSpec(kind="device-loss", device=0, morsel=0),)
    ).to_dict()
    server = Server(
        ssb_db, engine=ENGINE, workers=2, devices=2, fault_plan=fault_plan
    )
    try:
        text = server.metrics_text()
        for worker in ("0", "1"):
            assert f'repro_faults_live_devices{{worker="{worker}"}} 2' in text
    finally:
        server.close()


def test_server_exports_per_worker_health_gauge(ssb_db):
    fault_plan = FaultPlan(
        specs=(FaultSpec(kind="device-loss", device=0, morsel=0),)
    ).to_dict()
    server = Server(
        ssb_db, engine=ENGINE, workers=2, devices=2, fault_plan=fault_plan
    )
    try:
        plan = ssb_plan("q1.1", ssb_db)
        server.execute_many([plan, plan])
        text = server.metrics_text()
        for worker in ("0", "1"):
            assert f'repro_faults_live_devices{{worker="{worker}"}}' in text
        assert "repro_faults_queries_total" in text
    finally:
        server.close()


def test_session_with_one_device_and_a_plan_routes_through_scaleout(ssb_db):
    plan = ssb_plan("q1.1", ssb_db)
    expected = Session(ssb_db, engine=ENGINE).execute(plan).table
    session = Session(
        ssb_db,
        engine=ENGINE,
        fault_plan=FaultPlan(specs=(FaultSpec(kind="oom", morsel=0),)),
    )
    assert session.scaleout is not None  # devices=1 + plan still arms
    result = session.execute(plan)
    assert result.scaleout.recovery.injected == {"oom": 1}
    assert np.array_equal(
        result.table.column(expected.column_names[0]).values,
        expected.column(expected.column_names[0]).values,
    )


def test_fault_knob_validation(ssb_db):
    with pytest.raises(ConfigurationError):
        Session(ssb_db, fault_plan=123)
    with pytest.raises(ConfigurationError):
        ScaleOutExecutor(2, fault_plan="not-a-plan-object")
    with pytest.raises(ConfigurationError):
        ScaleOutExecutor(2, retry_policy="nope")
    with pytest.raises(ConfigurationError):
        Server(ssb_db, devices=2, fault_plan=object())
