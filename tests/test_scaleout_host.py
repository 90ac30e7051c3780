"""The fleet on the host: what simulating N devices costs and leaves.

The fleet's parallelism is modeled (``makespan_ms`` = the busiest
device's clock); on the host the devices of a wave take turns on the
calling thread and every table over the same build keys shares one
layout.  These tests pin the three consequences:

* a query lays out each build side once, however many devices
  broadcast it, and starts no thread;
* every simulated number equals the value the threaded executor
  produced (``scaleout_host_pinned.json``, written by :func:`_observe`
  on the commit before the change, SSB SF 0.004 seed 7; the link times
  of the cold entries re-recorded when a pipeline's base columns became
  one load, launches and kernel times unchanged);
* a fault schedule is one total order: the injector's firing log, the
  event log and ``RecoveryStats`` repeat exactly on a fresh session.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.scaleout.executor as executor_module
from repro import connect
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.plan.physical import BuildSink
from repro.plan.pipelines import extract_pipelines
from repro.primitives.hashtable import clear_layout_cache, layout_cache_stats
from repro.telemetry.events import EventLog, install_log, uninstall_log
from repro.workloads import SSB_QUERIES, ssb_plan

PINNED = json.loads(
    (Path(__file__).parent / "scaleout_host_pinned.json").read_text()
)
QUERIES = ("q2.1", "q3.1", "q4.1")
DEVICES = 4

#: Device 1 dies at its first morsel; the survivors re-run the build
#: sides in a second wave and take over its pieces.
LOSS = FaultPlan(specs=(FaultSpec(kind="device-loss", device=1, op="morsel"),))


def _observe(session, sql):
    result = session.execute(sql)
    stats = result.scaleout
    return {
        "kernel_ms": [share.kernel_ms for share in stats.shares],
        "transfer_ms": [share.transfer_ms for share in stats.shares],
        "busy_ms": [share.busy_ms for share in stats.shares],
        "makespan_ms": stats.makespan_ms,
        "serial_ms": stats.serial_ms,
        # Kernels of each device's last turn, and of the whole query.
        "launches": [
            len(device.log.kernels) for device in session.scaleout.fleet.devices
        ],
        "total_launches": len(result.profile.kernels),
    }


def _assert_pinned(observed, pinned):
    assert observed["launches"] == pinned["launches"]
    assert observed["total_launches"] == pinned["total_launches"]
    for name in ("kernel_ms", "transfer_ms", "busy_ms", "makespan_ms", "serial_ms"):
        assert observed[name] == pytest.approx(pinned[name], rel=1e-9), name


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
    label = f"{name}/{'residency-cold' if mode == 'residency' else mode}"
    _assert_pinned(_observe(session, SSB_QUERIES[name]), PINNED[label])
    stats = layout_cache_stats()
    # Every device turn builds every build side (under the loss, two
    # survivors take a second turn for device 1's two pieces) ...
    turns = DEVICES + 2 if mode == "loss" else DEVICES
    assert stats.misses == builds  # ... and one of them lays it out.
    assert stats.hits == builds * (turns - 1)
    if mode == "residency":
        # The pinned warm pass re-ran the build sides on every device;
        # now each device's pool serves them, so a device's warm turn is
        # the pinned one minus its build launches (the first ``builds``
        # kernels of its cold turn) — transfers were all hits already.
        build_ms = [
            sum(trace.time_ms for trace in device.log.kernels[:builds])
            for device in session.scaleout.fleet.devices
        ]
        pinned = PINNED[f"{name}/residency-warm"]
        kernel_ms = [ms - built for ms, built in zip(pinned["kernel_ms"], build_ms)]
        busy_ms = [ms - built for ms, built in zip(pinned["busy_ms"], build_ms)]
        warm = _observe(session, SSB_QUERIES[name])
        _assert_pinned(
            warm,
            dict(
                pinned,
                kernel_ms=kernel_ms,
                busy_ms=busy_ms,
                makespan_ms=max(busy_ms),
                serial_ms=sum(busy_ms),
                launches=[count - builds for count in pinned["launches"]],
                total_launches=pinned["total_launches"] - builds * DEVICES,
            ),
        )
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


def _faulted_run(database, fault_plan, monkeypatch):
    """(firing log, fault-event sequence, RecoveryStats) of one query on
    a fresh session."""
    injectors = []

    class Recording(FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    monkeypatch.setattr(executor_module, "FaultInjector", Recording)
    log = EventLog()
    install_log(log)
    try:
        session = connect(database, devices=3, fault_plan=fault_plan)
        recovery = session.execute(SSB_QUERIES["q2.1"]).scaleout.recovery
    finally:
        uninstall_log(log)
    (injector,) = injectors
    events = [
        (event.kind, sorted(event.attrs.items()))
        for event in log.events()
        if event.kind in _FAULT_EVENTS
    ]
    return list(injector.fired), events, asdict(recovery)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_fault_schedule_repeats_exactly(ssb_db, monkeypatch, seed):
    fault_plan = FaultPlan.generate(seed, devices=3, morsels=6)
    first = _faulted_run(ssb_db, fault_plan, monkeypatch)
    second = _faulted_run(ssb_db, fault_plan, monkeypatch)
    assert first[0], "the pinned plan fires nothing"
    assert first == second
