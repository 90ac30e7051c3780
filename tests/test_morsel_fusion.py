"""A fleet device runs its morsels as one launch.

Pieces stay the unit of scheduling, recovery and merge, but a device
hands the pieces it was given (those with rows) to the engine as ONE
sibling group (``Engine.run_fused``): one packed h2d of every member's
fact columns, one launch per phase over the members' merged meters, each
member's outputs its own partial, and one packed d2h of the device's
partials.  What must hold:

* results are byte-identical with the fused path on and off — 13 SSB
  and 16 TPC-H plans x resolution / pipelined / multipass / vector x
  codecs ``off`` / ``auto`` x 2 to 4 devices x range / hash — and so are
  the bytes per memory level, the link bytes and the device peaks; only
  launches, transfers and simulated time move, and none rises;
* per device and query: one fact h2d, one fact launch per phase (when
  the pieces' phases match) and one gather d2h; every call to
  ``VirtualCoprocessor.launch`` is a launch of the record (a fused
  group's members queue theirs, nothing is taken back);
* a corrupted partial re-runs only its own piece, and a device lost at
  one member's hook fires no later member's faults;
* a group whose columns do not fit the device's free memory together
  (a pool's unpinned residents count as free) runs one piece at a time,
  and nothing runs out of memory;
* a fleet under the pinned chaos seeds stays byte-identical.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.compression import CompressionPolicy
from repro.engines import make_engine
from repro.engines.runtime import QueryRuntime
from repro.faults import FaultPlan, FaultSpec
from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.hardware.traffic import MemoryLevel
from repro.placement import BufferPool
from repro.plan import extract_pipelines
from repro.scaleout import ScaleOutExecutor
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

ENGINES = ("resolution", "pipelined", "multipass", "vector")
CODECS = ("off", "auto")
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)


def _alone(group, fused):
    """``ScaleOutExecutor._first_groups`` with the fused path patched
    out: every piece is attempted alone, as before devices fused."""
    return [[member] for member in group]


def _plans(ssb, tpch):
    out = {f"ssb:{name}": (ssb, lambda name=name: ssb_plan(name, ssb)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, lambda name=name: tpch_plan(name, tpch))
    return out


def _hardware(result) -> dict:
    """Every byte and count a run moved, summed over its record."""
    profile = result.profile
    return {
        "reads": {level: sum(t.meter.reads[level] for t in profile.kernels) for level in MemoryLevel},
        "writes": {level: profile.writes_at(level) for level in MemoryLevel},
        "atomics": profile.atomic_count,
        "instructions": sum(t.meter.instructions for t in profile.kernels),
        "barriers": sum(t.meter.barriers for t in profile.kernels),
        "elements": sum(t.elements for t in profile.kernels),
        "h2d": profile.moved_bytes("h2d"),
        "d2h": profile.moved_bytes("d2h"),
        "raw": profile.raw_transfer_bytes(),
    }


def _fact_rows(log, share):
    return [row for row in log.pipelines if (row.index or 0) >= share.first_morsel]


@pytest.mark.parametrize("scheme", ("range", "hash"))
@pytest.mark.parametrize("devices", (2, 3, 4))
def test_fused_and_alone_morsels_are_byte_identical(ssb_db, tpch_db, monkeypatch, devices, scheme):
    fewer = 0
    for alias in ENGINES:
        for codec in CODECS:
            options = dict(engine=alias, compression=codec, devices=devices, partitioning=scheme)
            fused_session = repro.connect(ssb_db, **options)
            fused_tpch = repro.connect(tpch_db, **options)
            with monkeypatch.context() as patch:
                patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
                alone_session = repro.connect(ssb_db, **options)
                alone_tpch = repro.connect(tpch_db, **options)
                for name, (database, build) in _plans(ssb_db, tpch_db).items():
                    key = (name, alias, codec, devices, scheme)
                    sessions = (
                        (fused_session, alone_session) if database is ssb_db
                        else (fused_tpch, alone_tpch)
                    )
                    patch.undo()
                    fused = sessions[0].execute(build())
                    patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
                    alone = sessions[1].execute(build())
                    assert table_checksum(fused.table) == table_checksum(alone.table), key
                    assert fused.table.sorted_rows() == alone.table.sorted_rows(), key
                    assert _hardware(fused) == _hardware(alone), key
                    assert [d.peak_allocated for d in sessions[0].scaleout.fleet.devices] == [
                        d.peak_allocated for d in sessions[1].scaleout.fleet.devices
                    ], key
                    assert len(fused.profile.kernels) <= len(alone.profile.kernels), key
                    assert len(fused.profile.transfers) <= len(alone.profile.transfers), key
                    assert fused.total_ms <= alone.total_ms * (1 + 1e-12), key
                    assert fused.scaleout.makespan_ms <= alone.scaleout.makespan_ms * (1 + 1e-12), key
                    assert fused.profile.unaccounted == 0, key
                    fewer += len(fused.profile.kernels) < len(alone.profile.kernels)
    assert fewer


@pytest.mark.parametrize("alias", ("resolution", "multipass"))
def test_a_device_loads_launches_and_gathers_once(ssb_db, monkeypatch, alias):
    fused_session = repro.connect(ssb_db, engine=alias, devices=4)
    with monkeypatch.context() as patch:
        patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
        alone_session = repro.connect(ssb_db, engine=alias, devices=4)
        alone = {name: alone_session.execute(sql) for name, sql in SSB_QUERIES.items()}
    for name, sql in sorted(SSB_QUERIES.items()):
        fused = fused_session.execute(sql)
        for share, single in zip(fused.scaleout.shares, alone[name].scaleout.shares):
            [log], [single_log] = share.logs, single.logs
            rows, single_rows = _fact_rows(log, share), _fact_rows(single_log, single)
            assert len(rows) == len(single_rows) == MORSELS_PER_DEVICE, name
            head, member = rows
            assert (head.fused_into, member.fused_into) == (head.index, head.index), name
            assert not (member.kernels or member.transfers), name
            assert [r.direction for r in head.transfers] == ["h2d", "d2h"], name
            assert head.transfers[-1].label == "+".join(
                f"gather.p{row.index - share.first_morsel}" for row in rows
            ), name
            # One launch per phase, over the same elements; pieces whose
            # phases differ (a multi-pass aggregate no row reaches sorts
            # in one radix pass) launch their own, unfused.
            phases = [len(row.kernels) for row in single_rows]
            if len({tuple(t.kind for t in row.kernels) for row in single_rows}) > 1:
                phases = [sum(phases)]
            assert len(head.kernels) == max(phases), name
            assert sum(t.elements for t in head.kernels) == sum(
                t.elements for row in single_rows for t in row.kernels
            ), name


def test_every_launch_call_is_a_launch_of_the_record(ssb_db, monkeypatch):
    calls = []
    original = VirtualCoprocessor.launch

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(VirtualCoprocessor, "launch", counted)
    fleet = repro.connect(ssb_db, engine="multipass", devices=3)
    single = repro.connect(ssb_db, engine="resolution")
    for session in (fleet, single):
        fused = 0
        for sql in SSB_QUERIES.values():
            calls.clear()
            result = session.execute(sql)
            assert calls == [trace.name for trace in result.profile.kernels]
            fused += any("+" in name for name in calls)
        assert fused


def test_a_corrupted_partial_reruns_only_its_own_piece(ssb_db):
    plan = FaultPlan(specs=(FaultSpec(kind="corruption", morsel=2),))
    session = repro.connect(ssb_db, devices=2, fault_plan=plan)
    expected = repro.connect(ssb_db).execute(SSB_QUERIES["q2.1"])
    result = session.execute(SSB_QUERIES["q2.1"])
    assert table_checksum(result.table) == table_checksum(expected.table)
    assert result.scaleout.recovery.faulted
    first = result.scaleout.shares[0].first_morsel
    runs = {}
    for row in result.profile.pipelines:
        if row.pipeline is not None and row.pipeline.is_final:
            runs[row.index - first] = runs.get(row.index - first, 0) + 1
    # Piece 2's fused attempt and its retry alone; every other piece once.
    assert runs == {0: 1, 1: 1, 2: 2, 3: 1}
    gathers = [r.label for r in result.profile.transfers if r.direction == "d2h"]
    gathered = [part for label in gathers for part in label.split("+")]
    assert sorted(gathered) == [f"gather.p{index}" for index in range(4)]
    assert "gather.p2" in gathers  # its retry ships alone
    # Piece 2 launched in its group's fused launch, then alone.
    fused, retry = [t.name for t in result.profile.kernels if "_p2" in t.name]
    assert "+" in fused and "+" not in retry


def test_a_group_that_does_not_fit_runs_one_piece_at_a_time(ssb_db, monkeypatch):
    plan = ssb_plan("q1.1", ssb_db)
    engine = make_engine("resolution")
    seen = []
    original = QueryRuntime.fits

    def spy(self, pipelines):
        columns = {(p.source, p.source_rename.get(n, n)) for p in pipelines for n in p.required_columns}
        need = sum(self.database.table(table).column(name).nbytes for table, name in columns)
        seen.append((need, self.device.profile.memory_capacity - self.device.allocated_bytes))
        return original(self, pipelines)

    monkeypatch.setattr(QueryRuntime, "fits", spy)
    roomy = ScaleOutExecutor(2).execute(engine, plan, ssb_db)
    need, free = seen[0]
    # Room for the build sides and one piece's columns, not for two.
    capacity = GTX970.memory_capacity - free + need - 1
    tight = ScaleOutExecutor(
        2, profile=GTX970.with_overrides(name="tight", memory_capacity=capacity)
    )
    result = tight.execute(engine, plan, ssb_db)
    assert table_checksum(result.table) == table_checksum(roomy.table)
    assert not result.scaleout.recovery.faulted
    assert not any("oom" in str(event) for event in result.events())
    for share in result.scaleout.shares:
        [log] = share.logs
        rows = _fact_rows(log, share)
        assert len(rows) == MORSELS_PER_DEVICE
        assert all(row.fused_into is None for row in rows)
        assert [[r.direction for r in row.transfers] for row in rows] == [["h2d", "d2h"]] * 2
        assert not any("+" in trace.name for row in rows for trace in row.kernels)


def test_fits_sizes_the_load_as_it_allocates_and_counts_evictable_residents_free(ssb_db):
    final = extract_pipelines(ssb_plan("q1.1", ssb_db), ssb_db).pipelines[-1]
    table = ssb_db.table(final.source)
    columns = [table.column(name) for name in dict.fromkeys(
        final.source_rename.get(name, name) for name in final.required_columns
    )]
    need = sum(column.nbytes for column in columns)
    other = ssb_db.table("part").column("p_partkey")

    def runtime(capacity, compression=None):
        device = VirtualCoprocessor(
            GTX970.with_overrides(name="small", memory_capacity=capacity), interconnect=PCIE3
        )
        device.compression = compression
        return QueryRuntime(device, ssb_db, pool=BufferPool(device))

    run = runtime(need + other.nbytes - 1)
    assert run.fits([final])
    entry, _ = run.pool.acquire("part", "p_partkey", other, ssb_db.fingerprint())
    assert not run.fits([final])  # pinned: the pool cannot evict it
    run.pool.release([entry])
    assert run.fits([final])  # unpinned: evicting it makes the room
    # A column the group reads that the pool holds is a hit: neither
    # needed nor free.
    run = runtime(need - 1)
    key = columns[0]
    base = next(n for n in table.column_names if table.column(n) is key)
    run.pool.release([run.pool.acquire(final.source, base, key, ssb_db.fingerprint())[0]])
    assert not run.fits([final])
    # Under a codec the load allocates wire images.
    policy = CompressionPolicy("auto")
    wire = sum(policy.wire_nbytes(column) for column in columns)
    assert wire < need
    assert runtime(wire, policy).fits([final])
    assert not runtime(wire - 1, policy).fits([final])


def test_a_lost_device_fires_no_later_members_faults(ssb_db, monkeypatch):
    """A device lost at a member's ``before_morsel`` fires no later
    member's faults: they stay armed for the piece's next wave, and the
    fired faults and the recovery read as they do with every piece run
    alone."""
    engine, plan = make_engine("resolution"), ssb_plan("q2.1", ssb_db)
    clean = ScaleOutExecutor(2).execute(engine, plan, ssb_db)
    share = clean.scaleout.shares[0]
    [log] = share.logs
    first, second = (row.index - share.first_morsel for row in _fact_rows(log, share))
    faults = FaultPlan(specs=(
        FaultSpec(kind="device-loss", morsel=first), FaultSpec(kind="oom", morsel=second),
    ))
    fused = ScaleOutExecutor(2, fault_plan=faults).execute(engine, plan, ssb_db)
    with monkeypatch.context() as patch:
        patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
        alone = ScaleOutExecutor(2, fault_plan=faults).execute(engine, plan, ssb_db)
    assert table_checksum(fused.table) == table_checksum(alone.table) == table_checksum(clean.table)
    recoveries = fused.scaleout.recovery, alone.scaleout.recovery
    assert recoveries[0].injected == recoveries[1].injected == {"device-loss": 1, "oom": 1}
    for name in ("waves", "timeouts", "retries", "backoff_ms", "redistributed_morsels", "degraded_devices"):
        assert getattr(recoveries[0], name) == getattr(recoveries[1], name), name
    assert recoveries[0].retries == 1  # the oom fires on piece ``second``'s next wave


@pytest.mark.parametrize("devices", (2, 3, 4))
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_a_fused_fleet_under_chaos_seeds_stays_byte_identical(ssb_db, monkeypatch, seed, devices):
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    session = repro.connect(ssb_db, devices=devices, fault_plan=plan)
    with monkeypatch.context() as patch:
        patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
        alone = repro.connect(ssb_db, devices=devices, fault_plan=plan)
        alone_results = {name: alone.execute(SSB_QUERIES[name]) for name in ("q1.1", "q2.1", "q3.1", "q4.1")}
    for name, other in alone_results.items():
        expected = repro.connect(ssb_db, engine="cpu", device=repro.XEON_E5).execute(
            SSB_QUERIES[name]
        )
        result = session.execute(SSB_QUERIES[name])
        assert table_checksum(result.table) == table_checksum(expected.table), (seed, name)
        assert table_checksum(other.table) == table_checksum(expected.table), (seed, name)
