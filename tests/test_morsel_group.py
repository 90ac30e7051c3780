"""A fleet device runs its morsels' kernel body once per turn, exactly.

A device's fused morsel group is ONE host pass of the compound kernel
(``repro.engines.compound.run_compound``): the members' rows
back to back, each member a segment of the row domain of one
``repro.kernels.context.KernelContext``.  What each member queues
must not move: its launch (name, elements, every meter field) and its
partial equal the same piece run alone — through a one-member group,
as every retry and every group that does not fit runs.  Covered: SSB
q2.1 / q3.1 / q4.1 and TPC-H q1 (float aggregates) and q2 (a
materializing sink, whose write positions draw from the query's
generator) x 2 and 4 devices x range and hash x compression off and
auto (wire-resident pieces), and a fleet whose fact table leaves pieces
empty.
"""

from __future__ import annotations

import pytest

import repro
import repro.scaleout.executor as executor_module
from repro.engines.compound import CompoundEngine, morsel_group
from repro.scaleout import ScaleOutExecutor
from repro.storage.database import Database
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, tpch_plan

SSB = ("q2.1", "q3.1", "q4.1")
TPCH = ("q1", "q2")


def _alone(group, fused):
    return [[member] for member in group]


def _observe(monkeypatch, session, query, alone: bool) -> tuple[dict, dict, int]:
    """``(launch per piece, partial per piece, one-pass groups)`` of one
    execution: the launches each member queued in a one-pass group, or
    the compound launch each piece issued alone."""
    launches, partials, passes = {}, {}, []
    run_members = CompoundEngine._run_members
    gather = executor_module._gather

    def recording_members(engine, members, runtime):
        produced, held = run_members(engine, members, runtime)
        if morsel_group(members):
            passes.append(len(members))
            for member, [trace] in zip(members, held):
                launches[member.name] = (trace.name, trace.elements, trace.meter.snapshot())
        return produced, held

    def recording_gather(runtime, group, ran):
        for piece, outputs in group:
            partials[piece.index] = {name: values.tobytes() for name, values in outputs.items()}
        if alone:
            for row in runtime.device.log.pipelines[-ran:]:
                [trace] = [t for t in row.kernels if t.kind == "compound"]
                launches[row.pipeline.name] = (trace.name, trace.elements, trace.meter.snapshot())
        return gather(runtime, group, ran)

    with monkeypatch.context() as patch:
        patch.setattr(CompoundEngine, "_run_members", recording_members)
        patch.setattr(executor_module, "_gather", recording_gather)
        if alone:
            patch.setattr(ScaleOutExecutor, "_first_groups", staticmethod(_alone))
        result = session.execute(query)
    return launches, partials, sum(passes), result


def _compare(monkeypatch, database, query, **options):
    fused = repro.connect(database, **options)
    alone = repro.connect(database, **options)
    launches, partials, grouped, result = _observe(monkeypatch, fused, query, alone=False)
    single_launches, single_partials, none, single = _observe(
        monkeypatch, alone, query, alone=True
    )
    assert none == 0
    assert launches.keys() <= single_launches.keys()
    for name, launch in launches.items():
        assert launch == single_launches[name], name
    assert partials == single_partials
    assert table_checksum(result.table) == table_checksum(single.table)
    return grouped


@pytest.mark.parametrize("codec", ("off", "auto"))
@pytest.mark.parametrize("scheme", ("range", "hash"))
@pytest.mark.parametrize("devices", (2, 4))
def test_one_pass_members_equal_their_pieces_alone(
    ssb_db, tpch_db, monkeypatch, devices, scheme, codec
):
    options = dict(devices=devices, partitioning=scheme, compression=codec)
    grouped = 0
    for name in SSB:
        grouped += _compare(monkeypatch, ssb_db, SSB_QUERIES[name], **options)
    for name in TPCH:
        grouped += _compare(monkeypatch, tpch_db, tpch_plan(name, tpch_db), **options)
    # Every device ran its two pieces in one pass.
    assert grouped == (len(SSB) + len(TPCH)) * devices * 2


def test_a_fleet_with_empty_pieces(ssb_db, monkeypatch):
    """Six fact rows over eight pieces: two pieces are empty and never
    run; the others run, one-pass where a device holds two."""
    tables = {name: ssb_db.table(name) for name in ssb_db.table_names}
    tables["lineorder"] = tables["lineorder"].slice(0, 6)
    database = Database(tables)
    grouped = 0
    for name in SSB + ("q1.1",):
        grouped += _compare(monkeypatch, database, SSB_QUERIES[name], devices=4)
    assert grouped


def test_engines_that_run_a_pipeline_otherwise_keep_the_member_loop(ssb_db, monkeypatch):
    """The one pass stands in for ``execute_pipeline`` run per member: a
    subclass that redefines it still sees every member."""
    seen = []

    class Counting(CompoundEngine):
        def execute_pipeline(self, pipeline, runtime):
            seen.append(pipeline.name)
            return super().execute_pipeline(pipeline, runtime)

    executor = ScaleOutExecutor(2)
    executor.execute(Counting(), repro.workloads.ssb_plan("q1.1", ssb_db), ssb_db)
    assert sum("_p" in name for name in seen) == 4
