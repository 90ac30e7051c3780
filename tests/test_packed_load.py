"""A pipeline's inputs are one transfer.

``QueryRuntime.load_source`` is the one h2d loader: the base columns a
pipeline is first to read that are not resident ship as ONE record, so
a pipeline pays the link latency once, not once per column.  Every
column keeps its own device buffer — allocation, the device peak, pool
entries, pins, hits and misses stay per column.  What must hold:

* rows are the ``cpu`` reference's — 13 SSB and 16 TPC-H plans, every
  engine, compression off and auto, one device and a fleet of four,
  transient, pooled cold and pooled warm — and the same bytes in every
  one of those runs of an engine;
* at most one h2d record per row of the query record (a fleet morsel's
  row: the one of its fact columns — of every member's, for the head
  row of a device's fused morsels);
* the bytes that cross and the device peaks are the ones of the commit
  before, when every column was a transfer of its own (:data:`PINNED`);
* a pooled load ships exactly its misses, a mixed raw + encoded load
  reports every column's raw size, a zero-copy device logs a zero-byte
  record per load (a fused group of sibling builds loads once),
  kernel-at-a-time streams as before, and a
  fleet under the pinned chaos seeds stays byte-identical.

``python tests/test_packed_load.py`` prints :data:`PINNED` as the
checked-out code computes it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

import repro
from repro.compression import CompressionPolicy
from repro.engines.runtime import QueryRuntime
from repro.faults import FaultPlan
from repro.hardware import A10, GTX970, PCIE3, VirtualCoprocessor
from repro.macro import KernelAtATimeExecutor
from repro.placement import BufferPool, base_column_bytes
from repro.plan import PlanBuilder, extract_pipelines
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.storage import Column, Database, Table
from repro.storage.table import rows_approx_equal
from repro.telemetry.recorder import table_checksum
from repro.workloads import (
    SSB_QUERIES,
    TPCH_PLANS,
    generate_ssb,
    generate_tpch,
    ssb_plan,
    tpch_plan,
)

ENGINES = ("resolution", "pipelined", "multipass", "vector", "operator-at-a-time", "cpu")
POLICIES = ("off", "auto")
MODES = ("transient", "cold", "warm")
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)

#: ``engine|devices`` -> digest of every run's ``(plan, policy, mode,
#: h2d bytes, device peaks)``, taken on the commit before, when each
#: base column was an h2d transfer of its own: packing moves no byte and
#: allocates none.  The ``cpu`` pair was re-recorded when the pool of a
#: zero-copy device stopped holding wire images: its pooled ``auto`` runs
#: load and hold the raw columns, as its transient ones do.
PINNED = {
    "cpu|1": "c526daec14c5d1b38ecd",
    "cpu|4": "19e70f890fc3adb7ea8b",
    "multipass|1": "e652e8f2af150882df6d",
    "multipass|4": "3510c7385cac1f0efd8c",
    "operator-at-a-time|1": "955ec85bf3e2b628276c",
    "operator-at-a-time|4": "216fce6a99afe71b401e",
    "pipelined|1": "e652e8f2af150882df6d",
    "pipelined|4": "3510c7385cac1f0efd8c",
    "resolution|1": "e652e8f2af150882df6d",
    "resolution|4": "3510c7385cac1f0efd8c",
    "vector|1": "e652e8f2af150882df6d",
    "vector|4": "3510c7385cac1f0efd8c",
}


def plans(ssb, tpch) -> dict:
    """name -> (database, plan): the 13 SSB and the 16 TPC-H plans."""
    out = {f"ssb:{name}": (ssb, ssb_plan(name, ssb)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch, tpch_plan(name, tpch))
    return out


def runs(plans, engine, devices):
    """Every run of ``engine`` on ``devices``: per plan and policy a
    transient session, then a pooled one twice (cold, warm).  Yields
    ``(name, policy, mode, result, device peaks)``."""
    options = {"device": repro.XEON_E5} if engine == "cpu" else {}
    for name, (database, plan) in plans.items():
        for policy in POLICIES:
            transient = repro.connect(
                database, engine=engine, compression=policy, devices=devices, **options
            )
            pooled = repro.connect(
                database, engine=engine, compression=policy, devices=devices,
                residency=True, **options,
            )
            for mode, session in zip(MODES, (transient, pooled, pooled)):
                result = session.execute(plan)
                fleet = session.scaleout
                members = fleet.fleet.devices if fleet is not None else [session.device]
                peaks = [member.peak_allocated for member in members]
                yield name, policy, mode, result, peaks


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:20]


def observe_all(ssb, tpch) -> dict:
    everything = plans(ssb, tpch)
    return {
        f"{engine}|{devices}": digest([
            [name, policy, mode, result.input_bytes, peaks]
            for name, policy, mode, result, peaks in runs(everything, engine, devices)
        ])
        for engine in ENGINES
        for devices in (1, 4)
    }


@pytest.fixture(scope="module")
def all_plans(ssb_db, tpch_db):
    return plans(ssb_db, tpch_db)


@pytest.fixture(scope="module")
def reference(all_plans):
    return {
        name: repro.connect(database, engine="cpu", device=repro.XEON_E5)
        .execute(plan)
        .table.sorted_rows()
        for name, (database, plan) in all_plans.items()
    }


def _loads(row) -> int:
    return sum(record.direction == "h2d" for record in row.transfers)


def _assert_one_load_per_row(result, key) -> None:
    for row in result.profile.pipelines:
        assert _loads(row) <= 1, (key, row.name)


@pytest.mark.parametrize("devices", (1, 4))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_pipeline_loads_once(all_plans, reference, engine, devices):
    seen, checksums = [], {}
    for name, policy, mode, result, peaks in runs(all_plans, engine, devices):
        key = (name, engine, policy, mode, devices)
        assert rows_approx_equal(result.table.sorted_rows(), reference[name]), key
        checksums.setdefault(name, set()).add(str(table_checksum(result.table)))
        _assert_one_load_per_row(result, key)
        if mode == "warm":
            assert result.input_bytes == 0, key
        elif result.scaleout is not None and result.scaleout.fact_table is not None:
            # A morsel's piece is a table of its own, and a device's
            # morsels that fuse load as one: one load per head row.
            morsels = [
                row for row in result.profile.pipelines
                if row.pipeline is not None and row.pipeline.is_final
            ]
            assert len(morsels) == devices * MORSELS_PER_DEVICE, key
            assert all(
                _loads(row) == (row.fused_into in (None, row.index)) for row in morsels
            ), key
        seen.append([name, policy, mode, result.input_bytes, peaks])
    assert all(len(sums) == 1 for sums in checksums.values()), checksums
    assert digest(seen) == PINNED[f"{engine}|{devices}"]


def _load(runtime, database, names, **kwargs):
    plan = PlanBuilder.scan("t").project(list(names)).build()
    return runtime.load_source(extract_pipelines(plan, database).pipelines[-1], **kwargs)


def test_a_pooled_load_ships_exactly_its_misses(device):
    values = {name: np.arange(1000, dtype=np.int64) * (i + 1) for i, name in enumerate("abc")}
    database = Database({"t": Table({n: Column.int64(v) for n, v in values.items()})})
    pool = BufferPool(device)
    warmup = QueryRuntime(device, database, pool=pool)
    _load(warmup, database, "a")
    warmup.close()
    mark, phases = len(device.log.transfers), len(device.log.phases)
    runtime = QueryRuntime(device, database, pool=pool)
    _load(runtime, database, "abc")
    [record] = device.log.transfers[mark:]
    assert (record.label, record.direction) == ("t", "h2d")
    assert record.nbytes == values["b"].nbytes + values["c"].nbytes
    # The record's placement phases: one hit, two misses.
    loads = [(name, attrs["hit"]) for _, _, name, _, attrs in device.log.phases[phases:]]
    assert loads == [("placement t.a", True), ("placement t.b", False), ("placement t.c", False)]
    # Every column is an entry (and a buffer) of its own.
    assert len(pool) == 3 and device.pooled_bytes == 3 * values["a"].nbytes
    runtime.close()
    assert all(entry.pins == 0 for entry in pool._entries.values())


def test_a_mixed_load_reports_every_raw_size_and_decodes_after_it(device):
    rows = 300_000
    sorted_key = np.arange(rows, dtype=np.int64)
    noise = np.random.default_rng(5).integers(0, 2**62, rows)
    database = Database({"t": Table({"k": Column.int64(sorted_key), "n": Column.int64(noise)})})
    device.compression = CompressionPolicy("auto")
    runtime = QueryRuntime(device, database)
    _load(runtime, database, "kn", lazy_capable=True)
    [record] = device.log.transfers
    assert record.raw_nbytes == sorted_key.nbytes + noise.nbytes
    assert noise.nbytes < record.nbytes < noise.nbytes + sorted_key.nbytes // 10
    assert record.codec and "passthrough" not in record.codec
    # Two buffers, one wire image and one raw column: what crossed.
    assert device.allocated_bytes == record.nbytes
    assert device.log.kernels == []

    # A materializing engine decodes at load, after the transfer.
    eager = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    eager.compression = CompressionPolicy("auto")
    _load(QueryRuntime(eager, database), database, "kn")
    [record] = eager.log.transfers
    [decode] = eager.log.kernels
    assert decode.name == "decode.t.k" and record.seq < decode.seq


def test_a_zero_copy_device_logs_one_empty_record_per_loading_pipeline(ssb_db):
    session = repro.connect(ssb_db, device=A10)
    query = session.physical(SSB_QUERIES["q2.1"])
    result = session.execute(SSB_QUERIES["q2.1"])
    rows = result.profile.pipelines[:-1]
    assert len(rows) == len(query.pipelines)
    loads = [r for r in result.profile.transfers if r.direction == "h2d"]
    # Sibling builds run fused: their one load lies in the group's
    # first row, the other members' rows hold none.
    assert [len([r for r in row.transfers if r.direction == "h2d"]) for row in rows] == [
        int(row.fused_into in (None, row.index)) for row in rows
    ]
    assert len(loads) == 2
    assert all((r.nbytes, r.time_ms) == (0, 0.0) for r in loads)
    assert sum(r.raw_nbytes for r in loads) == base_column_bytes(query, ssb_db)


#: SSB q3.1 (SF 0.004, seed 7) on kernel-at-a-time, taken on the commit
#: before: (transfers, h2d bytes, d2h bytes, link ms).
KERNEL_AT_A_TIME = (82, 1267134, 788778, '0.9484945000000001')


def test_kernel_at_a_time_streams_as_before(ssb_db, device):
    """Figure 3's model streams each kernel's inputs at its launch: the
    loader charges it nothing up front."""
    result = KernelAtATimeExecutor().execute(ssb_plan("q3.1", ssb_db), ssb_db, device)
    transfers = result.profile.transfers
    assert all(r.label.endswith((".in", ".out")) or r.label == "result" for r in transfers)
    assert (
        len(transfers), result.profile.transfer_bytes("h2d"),
        result.profile.transfer_bytes("d2h"), repr(result.transfer_ms),
    ) == KERNEL_AT_A_TIME


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_seeds_stay_byte_identical(ssb_db, seed):
    devices = 4
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    session = repro.connect(ssb_db, devices=devices, fault_plan=plan)
    for name in ("q1.1", "q2.1", "q3.1", "q4.2"):
        expected = (
            repro.connect(ssb_db, engine="cpu", device=repro.XEON_E5)
            .execute(SSB_QUERIES[name]).table.sorted_rows()
        )
        result = session.execute(SSB_QUERIES[name])
        assert result.table.sorted_rows() == expected, (seed, name)
        _assert_one_load_per_row(result, (seed, name))


if __name__ == "__main__":
    ssb, tpch = generate_ssb(scale_factor=0.004, seed=7), generate_tpch(scale_factor=0.004, seed=11)
    print(json.dumps(observe_all(ssb, tpch), indent=4, sort_keys=True))
    device = VirtualCoprocessor(GTX970, interconnect=PCIE3)
    result = KernelAtATimeExecutor().execute(ssb_plan("q3.1", ssb), ssb, device)
    print((
        len(result.profile.transfers), result.profile.transfer_bytes("h2d"),
        result.profile.transfer_bytes("d2h"), repr(result.transfer_ms),
    ))
