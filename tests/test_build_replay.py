"""A fleet runs each broadcast build once per query; later turns replay it.

The first device turn that runs a build-side pipeline notes on the
query's record what it did (``QueryRuntime.record``); every later turn
of the query — the other devices, a redistribution wave, a survivor's
second turn — replays that (``QueryRuntime.run_pipeline``) instead of
running the kernel body.  These tests hold a replayed fleet to one whose
every turn executes its builds (each turn handed an empty record), turn
by turn: launches, transfers, rows, lookups, events, peaks, results,
and under faults the same raises, retries and redistribution.
"""

from __future__ import annotations

import itertools
from collections import Counter
import os
from dataclasses import asdict

import pytest

import repro
import repro.scaleout.executor as executor_module
from repro.engines.runtime import QueryRuntime
from repro.faults import FaultInjector, FaultPlan
from repro.hardware.device import VirtualCoprocessor
from repro.kernels.codegen import clear_kernel_cache
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.telemetry.baseline import LOSS
from repro.telemetry.recorder import _result_metrics
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

ENGINES = ("resolution", "pipelined", "multipass", "operator-at-a-time")
#: (devices, partitioning, compression, residency), cycled over the
#: plan x engine cases so that every one of them is met.
CONFIGS = list(itertools.product((2, 4), ("range", "hash"), ("off", "auto"), (False, True)))
CHAOS_SEEDS = [
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
][:3]


def _plans(ssb, tpch):
    """name -> (database, builder of a fresh logical plan)."""
    out = {f"ssb:{name}": (ssb, lambda name=name: ssb_plan(name, ssb)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, lambda name=name: tpch_plan(name, tpch))
    return out


def _turn(device) -> dict:
    """Everything one device turn left on its device and record."""
    log = device.log
    return {
        "kernels": [
            (t.name, t.kind, t.elements, t.meter.snapshot(), t.time_ms, t.bound_by)
            for t in log.kernels
        ],
        "transfers": list(log.transfers),
        "rows": [
            (r.index, r.name, r.rows_in, r.rows_out, r.resident, r.table_miss,
             r.fused_into, len(r.kernels), len(r.transfers))
            for r in log.pipelines
        ],
        "lookups": [(lookup.name, lookup.kind, lookup.hit) for lookup in log.lookups],
        "events": [(kind, attrs) for _, kind, attrs in log.events],
        "phases": [(name, category, attrs) for _, _, name, category, attrs in log.phases],
        "peak_allocated": device.peak_allocated,
        "allocated": (device.allocated_bytes, device.pooled_bytes),
    }


def _result(result) -> dict:
    """A fleet result, byte for byte."""
    return {
        "table": [
            (name, column.values.dtype.str, column.values.tobytes())
            for name, column in result.table.columns.items()
        ],
        "kernel_sources": result.kernel_sources,
        "compression": None if result.compression is None else asdict(result.compression),
        "placement": None if result.placement is None else (
            result.placement.hits, result.placement.misses, result.placement.hit_bytes,
            result.placement.table_hits, result.placement.table_misses,
        ),
        "total_ms": result.total_ms,
        "makespan_ms": result.scaleout.makespan_ms,
    }


def _run(monkeypatch, session, plans, replay: bool) -> tuple[list, list]:
    """The results of executing ``plans`` in order on ``session`` and
    each of its device turns, from an empty kernel cache (so that its
    lookups compare); ``replay=False`` hands every turn an empty record
    of the query's builds, so each turn executes them."""
    clear_kernel_cache()
    turns, results = [], []
    run_device = executor_module.ScaleOutExecutor._run_device

    def recording(self, *args):
        *rest, builds = args
        run_device(self, *rest, builds if replay else {})
        load = rest[4]
        turns.append((load.device, _turn(self.fleet.devices[load.device])))

    with monkeypatch.context() as patch:
        patch.setattr(executor_module.ScaleOutExecutor, "_run_device", recording)
        for plan in plans:
            results.append(session.execute(plan))
    return results, turns


def _same_turns(ours: list, theirs: list, key) -> None:
    assert len(ours) == len(theirs), key
    for (device, turn), (their_device, their_turn) in zip(ours, theirs):
        assert device == their_device, key
        for field, value in turn.items():
            assert value == their_turn[field], (key, device, field)


def test_a_replayed_fleet_is_the_executed_fleet(ssb_db, tpch_db, monkeypatch):
    """SSB and TPC-H x the engines, cycling over 2 / 4 devices, range /
    hash, codec off / auto and residency off / on (on: a cold and a
    warm pass); each build runs on one turn of a query at most."""
    executed_bodies, replays = [], 0
    original_record, original_run = QueryRuntime.record, QueryRuntime.run_pipeline

    def counting_record(self, engine, pipeline):
        if self.runs is not None and not pipeline.is_final:
            executed_bodies.append(pipeline.name)
        return original_record(self, engine, pipeline)

    def counting_run(self, engine, pipeline):
        nonlocal replays
        replays += self.runs is not None and pipeline.name in self.runs
        return original_run(self, engine, pipeline)

    monkeypatch.setattr(QueryRuntime, "record", counting_record)
    monkeypatch.setattr(QueryRuntime, "run_pipeline", counting_run)
    cases = itertools.product(_plans(ssb_db, tpch_db).items(), ENGINES)
    for index, ((name, (database, build)), engine) in enumerate(cases):
        devices, partitioning, codec, residency = CONFIGS[index % len(CONFIGS)]
        key = (name, engine, devices, partitioning, codec, residency)
        options = dict(
            engine=engine, devices=devices, partitioning=partitioning,
            compression=codec, residency=residency,
        )
        passes = 2 if residency else 1
        executed_bodies.clear()
        replayed = _run(monkeypatch, repro.connect(database, **options), [build()] * passes, True)
        # The replaying session ran each build side once a query.
        assert max(Counter(executed_bodies).values(), default=0) <= passes, key
        executed = _run(monkeypatch, repro.connect(database, **options), [build()] * passes, False)
        _same_turns(replayed[1], executed[1], key)
        assert [_result(r) for r in replayed[0]] == [_result(r) for r in executed[0]], key
    assert replays > 0


#: What ``RecoveryStats`` reports.
_RECOVERY = (
    "injected", "retries", "backoff_ms", "redistributed_morsels", "waves",
    "degraded_devices", "timeouts", "host_fallback",
)


def _faulted(monkeypatch, database, options: dict, replay: bool, shrink: bool) -> tuple:
    """(firing log, RecoveryStats, flight recovery dict, result, turns)
    of SSB q2.1 on a fresh fleet; ``shrink``: device 1 holds its build
    loads but not the first hash table it replays (:func:`_shrink`)."""
    injectors = []

    class Recording(FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            injectors.append(self)

    monkeypatch.setattr(executor_module, "FaultInjector", Recording)
    session = repro.connect(database, **options)
    if shrink:
        _shrink(monkeypatch, session, database)
    (result,), turns = _run(monkeypatch, session, [SSB_QUERIES["q2.1"]], replay)
    recovery = result.scaleout.recovery
    return (
        [fired for injector in injectors for fired in injector.fired],
        {name: getattr(recovery, name) for name in _RECOVERY},
        _result_metrics(result).get("recovery"),
        _result(result),
        turns,
    )


def _shrink(monkeypatch, session, database) -> None:
    """Give device 1 of ``session``'s fleet the memory a turn allocates
    before its first hash table's slots, plus all but one byte of them —
    measured on a scratch fleet of the same shape."""
    sizes = []
    allocate = VirtualCoprocessor.allocate

    def noting(device, array, label="", pooled=False):
        sizes.append((device, label, array.nbytes))
        return allocate(device, array, label=label, pooled=pooled)

    scratch = repro.connect(database, devices=session.scaleout.devices)
    with monkeypatch.context() as patch:
        patch.setattr(VirtualCoprocessor, "allocate", noting)
        scratch.execute(SSB_QUERIES["q2.1"])
    held, device = 0, scratch.scaleout.fleet.devices[1]
    for owner, label, nbytes in sizes:
        if owner is device and label.endswith(".slots"):
            break
        held += nbytes if owner is device else 0
    target = session.scaleout.fleet.devices[1]
    target.profile = target.profile.with_overrides(memory_capacity=held + nbytes - 1)


@pytest.mark.parametrize("case", ["loss", "oom"] + [f"seed{seed}" for seed in CHAOS_SEEDS])
def test_faults_during_a_replayed_build_recover_as_executed(ssb_db, monkeypatch, case):
    """The loss plan, a device that cannot hold a table it replays, and
    the chaos seeds' plans: the same firings, recovery and flight
    recovery dict, the same result, and turn for turn the same record."""
    options = dict(devices=3)
    if case == "loss":
        options["fault_plan"] = LOSS
    elif case != "oom":
        options["fault_plan"] = FaultPlan.generate(int(case[4:]), 3, 3 * MORSELS_PER_DEVICE)
    replayed = _faulted(monkeypatch, ssb_db, options, True, case == "oom")
    executed = _faulted(monkeypatch, ssb_db, options, False, case == "oom")
    assert replayed[:4] == executed[:4]
    _same_turns(replayed[4], executed[4], case)
    if case == "oom":
        # Device 1 ran out of memory replaying its first build: its
        # pieces went to a second wave, and nothing it allocated stayed.
        assert replayed[1]["waves"] == 2
        assert replayed[2]["redistributed_morsels"] > 0
        (turn,) = [turn for device, turn in replayed[4] if device == 1]
        assert turn["allocated"] == (0, 0)
        # Its turn ran builds only: q2.1's morsels are rows 3 and on.
        assert [row[0] for row in turn["rows"]] == [0, 1, 2]
