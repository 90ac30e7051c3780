"""Sibling build pipelines run fused: one launch per phase, one load.

A session resolves a plan with its non-final pipelines in dependency
waves (:func:`repro.plan.waves.group_sibling_builds`); the builds of a
wave are one group, and the generated-kernel engines run a group as
ONE launch per phase over the members' merged meters, after one packed
h2d transfer.  What must hold:

* the rewrite keeps every pipeline and its name, runs nothing before
  what it reads, and groups only builds;
* the paper's translation is untouched: ``extract_pipelines`` groups
  nothing and a bare ``Engine.execute`` of a logical plan issues the
  launch list it always did (the figure models);
* fused and unfused runs of the 29 plans — 13 SSB, 16 TPC-H — on the
  three compound modes and multi-pass, under codecs ``off`` / ``auto``
  / ``lazy``, on one device and on three, give byte-identical results
  and identical bytes per memory level, link bytes, atomics,
  instructions, barriers and device peaks: only launches and simulated
  time move, and neither rises;
* a fleet under the pinned chaos seeds stays byte-identical.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.engines import make_engine
from repro.faults import FaultPlan
from repro.hardware import GTX970, PCIE3, MemoryLevel, VirtualCoprocessor
from repro.plan import extract_pipelines
from repro.plan.physical import BuildSink, ProbeStage
from repro.plan.waves import group_sibling_builds, order_probes
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.serving import plan_cache
from repro.telemetry.recorder import table_checksum
from repro.workloads import SSB_QUERIES, TPCH_PLANS, ssb_plan, tpch_plan

FUSING = ("pipelined", "resolution", "resolution-we", "multipass")
CODECS = ("off", "auto", "lazy")
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)

#: ``Engine.execute`` of SSB q2.1's logical plan on a GTX 970 over
#: PCIe 3: every launch (name, kind), every transfer label and the
#: simulated total, as measured before sibling builds could fuse.
PAPER_Q21 = {
    "resolution": (
        [("compound_pipeline0", "compound"), ("compound_pipeline1", "compound"),
         ("compound_pipeline2", "compound"), ("compound_pipeline3", "compound")],
        0.10272224537987681,
    ),
    "multipass": (
        [
            (name.format(index), kind)
            for index in range(3)
            for name, kind in (
                ("count_pipeline{}", "count"),
                ("pipeline{}.prefix_sum.block_scan", "prefix_sum"),
                ("pipeline{}.prefix_sum.block_totals", "prefix_sum"),
                ("pipeline{}.prefix_sum.offset_add", "prefix_sum"),
                ("write_pipeline{}", "write"),
            )
            + (("build.ht%d" % (index + 1), "build"),)
        ]
        + [
            ("count_pipeline3", "count"),
            ("pipeline3.prefix_sum.block_scan", "prefix_sum"),
            ("pipeline3.prefix_sum.block_totals", "prefix_sum"),
            ("pipeline3.prefix_sum.offset_add", "prefix_sum"),
            ("write_pipeline3", "write"),
            ("pipeline3.group_sort.radix_pass0", "sort"),
            ("pipeline3.group_sort.radix_pass1", "sort"),
            ("pipeline3.group_sort.radix_pass2", "sort"),
            ("pipeline3.group_sort.radix_pass3", "sort"),
            ("pipeline3.group_reduce.head_flags", "reduce"),
            ("pipeline3.group_reduce.segment_reduce", "reduce"),
        ],
        0.23878796607906944,
    ),
}


def _plans(ssb, tpch):
    """name -> (database, builder): a fresh logical plan per call, so
    no run is served the physical plan another resolved."""
    out = {f"ssb:{name}": (ssb, lambda name=name: ssb_plan(name, ssb)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, lambda name=name: tpch_plan(name, tpch))
    return out


def test_waves_keep_every_pipeline_and_read_nothing_early(ssb_db, tpch_db):
    fused_any = False
    for name, (database, build) in _plans(ssb_db, tpch_db).items():
        query = extract_pipelines(build(), database)
        assert query.groups == ()
        grouped = group_sibling_builds(query)
        assert sorted(p.name for p in grouped.pipelines) == sorted(p.name for p in query.pipelines)
        assert grouped.final_pipeline is query.final_pipeline
        made = set()
        for group in grouped.grouped():
            assert len(group) == 1 or all(isinstance(p.sink, BuildSink) for p in group), name
            for pipeline in group:
                reads = {s.table_id for s in pipeline.stages if isinstance(s, ProbeStage)}
                if pipeline.source_is_virtual:
                    reads.add(pipeline.source)
                assert reads <= made, name
            made |= {pipeline.output_name for pipeline in group}
        fused_any |= any(len(group) > 1 for group in grouped.grouped())
        if not grouped.groups:
            assert grouped is query
    assert fused_any
    q41 = group_sibling_builds(extract_pipelines(ssb_plan("q4.1", ssb_db), ssb_db))
    assert q41.groups == (4, 1)
    assert q41.describe().startswith("fused 4 builds:\n  part |filter| -> build(ht1)")


@pytest.mark.parametrize("alias", sorted(PAPER_Q21))
def test_the_paper_translation_launches_as_it_always_did(ssb_db, alias):
    launches, total_ms = PAPER_Q21[alias]
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    result = make_engine(alias).execute(ssb_plan("q2.1", ssb_db), ssb_db, device)
    assert [(trace.name, trace.kind) for trace in result.profile.kernels] == launches
    assert [record.label for record in result.profile.transfers] == [
        "supplier", "part", "date", "lineorder", "result",
    ]
    assert result.total_ms == total_ms
    assert all(row.fused_into is None for row in result.profile.pipelines)


def _hardware(result) -> dict:
    """Every byte and count a run moved, summed over its record."""
    profile = result.profile
    return {
        "reads": {level: sum(t.meter.reads[level] for t in profile.kernels) for level in MemoryLevel},
        "writes": {level: profile.writes_at(level) for level in MemoryLevel},
        "atomics": profile.atomic_count,
        "table_bytes": profile.table_bytes,
        "instructions": sum(t.meter.instructions for t in profile.kernels),
        "barriers": sum(t.meter.barriers for t in profile.kernels),
        "elements": sum(t.elements for t in profile.kernels),
        "h2d": profile.moved_bytes("h2d"),
        "d2h": profile.moved_bytes("d2h"),
        "raw": profile.raw_transfer_bytes(),
    }


def _peaks(session) -> list[int]:
    fleet = session.scaleout
    devices = fleet.fleet.devices if fleet is not None else [session.device]
    return [device.peak_allocated for device in devices]


@pytest.mark.parametrize("devices", (1, 3))
@pytest.mark.parametrize("alias", FUSING)
def test_fused_and_unfused_runs_move_the_same_bytes(ssb_db, tpch_db, monkeypatch, alias, devices):
    fewer = 0
    for name, (database, build) in _plans(ssb_db, tpch_db).items():
        for codec in CODECS:
            key = (name, alias, codec, devices)
            options = dict(engine=alias, compression=codec, devices=devices)
            fused_session = repro.connect(database, **options)
            fused = fused_session.execute(build())
            with monkeypatch.context() as patch:
                # Probes still ordered, builds not grouped.
                patch.setattr(plan_cache, "session_plan", order_probes)
                alone_session = repro.connect(database, **options)
                alone = alone_session.execute(build())
            assert table_checksum(fused.table) == table_checksum(alone.table), key
            assert fused.table.sorted_rows() == alone.table.sorted_rows(), key
            assert _hardware(fused) == _hardware(alone), key
            assert _peaks(fused_session) == _peaks(alone_session), key
            assert len(fused.profile.kernels) <= len(alone.profile.kernels), key
            assert len(fused.profile.transfers) <= len(alone.profile.transfers), key
            assert fused.total_ms <= alone.total_ms * (1 + 1e-12), key
            assert fused.profile.unaccounted == 0, key
            fewer += len(fused.profile.kernels) < len(alone.profile.kernels)
    assert fewer


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_a_fused_fleet_under_chaos_seeds_stays_byte_identical(ssb_db, seed):
    devices = 3
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    session = repro.connect(ssb_db, devices=devices, fault_plan=plan)
    for name in ("q2.1", "q3.1", "q4.1"):
        expected = repro.connect(ssb_db, engine="cpu", device=repro.XEON_E5).execute(
            SSB_QUERIES[name]
        )
        result = session.execute(SSB_QUERIES[name])
        assert table_checksum(result.table) == table_checksum(expected.table), (seed, name)
