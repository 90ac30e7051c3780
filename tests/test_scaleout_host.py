"""The fleet on the host: what simulating N devices costs and leaves.

The fleet's parallelism is modeled (``makespan_ms`` = the busiest
device's clock); on the host the devices of a wave take turns on the
calling thread and every table over the same build keys shares one
layout.  These tests pin the three consequences:

* a query builds and lays out each build side once, however many
  devices broadcast it (the later turns replay the build), and starts
  no thread;
* a pooled fleet's warm turn is its cold turn minus the build launches
  (every simulated number of the plain, pooled cold / warm and loss
  turns is pinned by ``repro baseline``, the ``fleet:`` cases, equal to
  what the threaded executor produced);
* a fault schedule is one total order: the injector's firing log, the
  event log and ``RecoveryStats`` repeat exactly on a fresh session.
"""

from __future__ import annotations

import os
import threading

import pytest

import repro.scaleout.executor as executor_module
from repro import connect
from repro.faults import FaultInjector, FaultPlan
from repro.plan.physical import BuildSink
from repro.plan.pipelines import extract_pipelines
from repro.primitives.hashtable import clear_layout_cache, layout_cache_stats
from repro.telemetry.baseline import LOSS
from repro.workloads import SSB_QUERIES, ssb_plan

QUERIES = ("q2.1", "q3.1", "q4.1")
DEVICES = 4


def _device_launches(session) -> list:
    """Each device's last turn: name, elements, meter, time per launch."""
    return [
        [(trace.name, trace.elements, trace.meter.snapshot(), trace.time_ms)
         for trace in device.log.kernels]
        for device in session.scaleout.fleet.devices
    ]


def _build_pipelines(name, database):
    query = extract_pipelines(ssb_plan(name, database), database)
    return sum(isinstance(pipeline.sink, BuildSink) for pipeline in query.pipelines)


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("mode", ["plain", "residency", "loss"])
def test_one_layout_per_build_side_and_no_thread(ssb_db, monkeypatch, name, mode):
    builds = _build_pipelines(name, ssb_db)
    session = connect(
        ssb_db,
        devices=DEVICES,
        residency=mode == "residency",
        fault_plan=LOSS if mode == "loss" else None,
    )
    clear_layout_cache()
    threads = threading.enumerate()
    started = []
    original_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    sql = SSB_QUERIES[name]
    cold = session.execute(sql)
    stats = layout_cache_stats()
    # The first device turn builds every build side and lays each out;
    # every later turn (under the loss, two survivors take a second
    # turn for device 1's two pieces) replays the builds and never
    # asks the memo.
    assert (stats.misses, stats.hits) == (builds, 0)
    if mode == "residency":
        # Each device's pool serves the build sides, so a device's warm
        # turn is its cold turn minus its build launch: the sibling
        # builds run fused, one launch for all of them.
        cold_launches = _device_launches(session)
        warm = session.execute(sql)
        assert _device_launches(session) == [turn[1:] for turn in cold_launches]
        assert len(warm.profile.kernels) == len(cold.profile.kernels) - DEVICES
        # Nothing was built, so nothing was laid out or looked up.
        after = layout_cache_stats()
        assert (after.hits, after.misses) == (stats.hits, stats.misses)
        placement = session.placement_stats()
        assert (placement.table_hits, placement.table_misses) == (
            builds * DEVICES, builds * DEVICES
        )
    assert started == []
    assert threading.enumerate() == threads
    assert not any("repro-scaleout" in thread.name for thread in threads)


def test_later_devices_do_not_start_after_a_fatal_error(ssb_db):
    """A fatal error surfaces from the device that raised it; the
    wave's remaining devices are never begun."""
    from repro.engines.compound import CompoundEngine

    sentinel = KeyboardInterrupt("ctrl-c")
    seen = []

    class Raising(CompoundEngine):
        def execute_pipeline(self, pipeline, runtime):
            seen.append(runtime.device)
            raise sentinel

    executor = executor_module.ScaleOutExecutor(3)
    with pytest.raises(KeyboardInterrupt) as info:
        executor.execute(Raising(), ssb_plan("q2.1", ssb_db), ssb_db)
    assert info.value is sentinel
    assert seen == [executor.fleet.devices[0]]


@pytest.mark.parametrize("name", ["q2.1", "q3.1", "q4.1"])
def test_a_device_has_one_share_over_its_turns(ssb_db, monkeypatch, name):
    """The ``fleet:*|loss`` cases run two waves: each device keeps one
    share, whose clocks are its turns' sums added in wave order (busy
    is each turn's total, not the merged log's kernels + transfers)."""
    turns = []
    run_device = executor_module.ScaleOutExecutor._run_device

    def recording(self, engine, query, rewritten, partition_set, load, *args):
        run_device(self, engine, query, rewritten, partition_set, load, *args)
        turns.append((load.device, self.fleet.devices[load.device].log))

    monkeypatch.setattr(executor_module.ScaleOutExecutor, "_run_device", recording)
    result = connect(ssb_db, devices=4, fault_plan=LOSS).execute(SSB_QUERIES[name])
    stats = result.scaleout
    assert stats.recovery.waves == 2
    assert len(turns) > len({device for device, _ in turns})  # a device ran twice
    expected: dict[int, tuple] = {}
    for device, log in turns:
        kernel, transfer, busy = expected.get(device, (0.0, 0.0, 0.0))
        expected[device] = (
            kernel + log.kernel_time_ms,
            transfer + log.transfer_time_ms,
            busy + log.total_time_ms,
        )
    assert [share.device for share in stats.shares] == sorted(expected)
    for share in stats.shares:
        clocks = (share.kernel_ms, share.transfer_ms, share.busy_ms)
        assert clocks == expected[share.device], share.device


# ----------------------------------------------------------------------
# a fault schedule is a total order
# ----------------------------------------------------------------------
#: The chaos suite's pinned seeds (same override), first three.
CHAOS_SEEDS = [
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
][:3]
_FAULT_EVENTS = ("fault.fired", "morsel.retry", "morsel.redistributed", "device.lost")
#: What ``RecoveryStats`` reports: its fields and what it reads off the record.
_RECOVERY = (
    "injected", "retries", "backoff_ms", "redistributed_morsels", "waves",
    "degraded_devices", "timeouts", "host_fallback",
)


def _faulted_run(database, fault_plan, monkeypatch):
    """(firing log, fault-event sequence, RecoveryStats) of one query on
    a fresh session."""
    injectors = []

    class Recording(FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    monkeypatch.setattr(executor_module, "FaultInjector", Recording)
    session = connect(database, devices=3, fault_plan=fault_plan)
    result = session.execute(SSB_QUERIES["q2.1"])
    (injector,) = injectors
    events = [
        (event.kind, sorted(event.attrs.items()))
        for event in result.events()
        if event.kind in _FAULT_EVENTS
    ]
    recovery = result.scaleout.recovery
    return list(injector.fired), events, {
        name: getattr(recovery, name) for name in _RECOVERY
    }


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_fault_schedule_repeats_exactly(ssb_db, monkeypatch, seed):
    fault_plan = FaultPlan.generate(seed, devices=3, morsels=6)
    first = _faulted_run(ssb_db, fault_plan, monkeypatch)
    second = _faulted_run(ssb_db, fault_plan, monkeypatch)
    assert first[0], "the pinned plan fires nothing"
    assert first == second


# ----------------------------------------------------------------------
# one morsel body per device turn
# ----------------------------------------------------------------------
def _morsel_bodies(result) -> int:
    """Generated-kernel bodies the query ran for its fact morsels."""
    return sum(
        row.bodies for row in result.profile.pipelines
        if row.pipeline is not None and row.pipeline.is_final
    )


@pytest.mark.parametrize("name", QUERIES)
def test_a_device_turn_runs_one_morsel_body(ssb_db, name):
    """A device's morsels run as one pass of their compound kernel: one
    body per turn, held by the group's head row; the first turn runs
    each build side's body and the later turns replay them."""
    result = connect(ssb_db, devices=DEVICES).execute(SSB_QUERIES[name])
    for share in result.scaleout.shares:
        [log] = share.logs
        rows = [row for row in log.pipelines if (row.index or 0) >= share.first_morsel]
        assert [row.bodies for row in rows] == [1, 0]
    assert _morsel_bodies(result) == DEVICES
    assert result.profile.bodies == _build_pipelines(name, ssb_db) + DEVICES


def test_a_fleet_round_runs_one_morsel_body_per_turn(ssb_db):
    session = connect(ssb_db, devices=DEVICES)
    rounds = [
        sum(_morsel_bodies(session.execute(sql)) for sql in SSB_QUERIES.values())
        for _ in range(2)
    ]
    assert rounds == [len(SSB_QUERIES) * DEVICES] * 2 == [52, 52]
