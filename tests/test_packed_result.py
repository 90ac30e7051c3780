"""A result is one transfer.

The final sink's output columns — and a fleet morsel's partial columns —
lie back to back in one packed device buffer, and
``QueryRuntime._ship_packed`` ships it with one d2h record: a query pays
the link latency once, not once per result column.  Under a compression
policy each column is a *segment* of that transfer, raw or its wire
image.  What must hold:

* rows are the ``cpu`` reference's — every engine, compression off and
  auto, one device and a fleet of four, in core and on quarter-size
  devices (one of them streams out of core): integers and strings exactly
  (all of SSB), float aggregates within the accumulation-order
  tolerance of the engine-agreement suite — and byte-identical between
  ``off`` and ``auto``;
* exactly one d2h record per single-device query (``result``) and one
  per fleet device turn whose morsels fuse (``gather.p<i>+gather.p<j>``;
  per morsel otherwise, ``gather.p<i>``); its bytes are the result
  columns' share of ``CompressionStats.wire_bytes`` and what
  ``output_bytes`` / ``gather_bytes`` report;
* the bytes that cross are the bytes that crossed column by column
  (the 13 SSB values below were taken on the commit before);
* a fleet under the pinned chaos seeds stays byte-identical with a
  policy set.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro.compression import CompressionPolicy
from repro.engines.runtime import QueryRuntime
from repro.faults import FaultPlan
from repro.hardware import GTX970
from repro.placement import base_column_bytes
from repro.scaleout.partition import MORSELS_PER_DEVICE
from repro.storage.table import rows_approx_equal
from repro.telemetry.recorder import table_checksum
from repro.workloads import (
    SSB_QUERIES,
    TPCH_PLANS,
    generate_ssb,
    ssb_plan,
    tpch_plan,
)

ENGINES = ("resolution", "pipelined", "multipass", "vector", "operator-at-a-time", "cpu")
POLICIES = ("off", "auto")
CHAOS_SEEDS = tuple(
    int(part)
    for part in os.environ.get("CHAOS_SEEDS", "101,202,303").split(",")
    if part.strip()
)

#: ``output_bytes`` of the 13 SSB queries (SF 0.01, seed 7), under
#: ``off`` and ``auto`` alike, when each result column was a transfer
#: of its own: packing moves no byte.
SSB_D2H_BYTES = {
    "q1.1": 8, "q1.2": 8, "q1.3": 8, "q2.1": 3648, "q2.2": 400, "q2.3": 96,
    "q3.1": 600, "q3.2": 680, "q3.3": 0, "q3.4": 0, "q4.1": 560, "q4.2": 1760,
    "q4.3": 140,
}


def _session(database, engine, **options):
    if engine == "cpu":  # the zero-copy reference: nothing crosses a link
        options.setdefault("device", repro.XEON_E5)
    return repro.connect(database, engine=engine, **options)


def _assert_one_packed_transfer(result, on_link: bool, key) -> None:
    d2h = [r for r in result.profile.transfers if r.direction == "d2h"]
    fleet = result.scaleout is not None and result.scaleout.fact_table is not None
    if fleet:
        shares = result.scaleout.shares
        # One record per device turn that fused its morsels, else per
        # morsel: every gathered partial is named once.
        gathered = [part for r in d2h for part in r.label.split("+")]
        assert len(gathered) == len(set(gathered)) == sum(share.morsels for share in shares), key
        assert all(part.startswith("gather.p") for part in gathered), key
        shipped = sum(share.gather_bytes for share in shares)
    else:
        assert [r.label for r in d2h] == ["result"], key
        shipped = result.output_bytes
    assert sum(r.nbytes for r in d2h) == (shipped if on_link else 0), key
    stats = result.compression
    if stats is not None:
        # Per-column accounting, one transfer: what the columns shipped
        # is what the packed records carried.
        assert stats.wire_bytes - result.input_bytes == shipped, key


@pytest.fixture(scope="module")
def plans(ssb_db, tpch_db):
    """name -> (database, plan): the 13 SSB and the TPC-H plans."""
    out = {f"ssb:{name}": (ssb_db, ssb_plan(name, ssb_db)) for name in sorted(SSB_QUERIES)}
    for name in TPCH_PLANS:
        out[f"tpch:{name}"] = (tpch_db, tpch_plan(name, tpch_db))
    return out


@pytest.fixture(scope="module")
def reference(plans):
    return {
        name: _session(database, "cpu").execute(plan).table.sorted_rows()
        for name, (database, plan) in plans.items()
    }


@pytest.mark.parametrize("devices", (1, 4))
@pytest.mark.parametrize("engine", ENGINES)
def test_in_core_results_are_one_transfer(plans, reference, engine, devices):
    for name, (database, plan) in plans.items():
        checksums = set()
        for policy in POLICIES:
            key = (name, engine, policy, devices)
            session = _session(database, engine, compression=policy, devices=devices)
            result = session.execute(plan)
            assert rows_approx_equal(result.table.sorted_rows(), reference[name]), key
            checksums.add(str(table_checksum(result.table)))
            _assert_one_packed_transfer(result, engine != "cpu", key)
        assert len(checksums) == 1, (name, engine, devices)


@pytest.fixture(scope="module")
def larger_ssb():
    return generate_ssb(0.01, seed=7)


@pytest.fixture(scope="module")
def quarter_profile(larger_ssb):
    """A quarter of the smallest SSB working set: every query streams."""
    smallest = min(
        base_column_bytes(repro.connect(larger_ssb).physical(sql), larger_ssb)
        for sql in SSB_QUERIES.values()
    )
    return GTX970.with_overrides(name="GTX970-quarter", memory_capacity=smallest // 4)


@pytest.mark.parametrize("devices", (1, 4))
@pytest.mark.parametrize("engine", [e for e in ENGINES if e != "cpu"])
def test_quarter_device_results_are_one_transfer(larger_ssb, quarter_profile, engine, devices):
    """One quarter-size device streams every query out of core; a fleet
    of four holds a quarter of the fact table each."""
    for name, sql in sorted(SSB_QUERIES.items()):
        expected = _session(larger_ssb, "cpu").execute(sql).table.sorted_rows()
        for policy in POLICIES:
            key = (name, engine, policy, devices)
            session = repro.connect(
                larger_ssb, engine=engine, device=quarter_profile, residency=True,
                compression=policy, devices=devices,
            )
            result = session.execute(sql)
            assert result.placement.out_of_core == (devices == 1), key
            assert result.table.sorted_rows() == expected, key
            _assert_one_packed_transfer(result, True, key)


@pytest.mark.parametrize("policy", POLICIES)
def test_packing_moves_no_byte(larger_ssb, policy):
    for name, sql in sorted(SSB_QUERIES.items()):
        result = repro.connect(larger_ssb, compression=policy).execute(sql)
        assert result.output_bytes == SSB_D2H_BYTES[name], name
        assert result.output_bytes == result.table.nbytes, name


def test_a_mixed_transfer_reports_raw_bytes_and_one_encode(device, ssb_db):
    """One segment that pays to encode beside one that does not: one
    record, ``nbytes`` what crossed, ``raw_nbytes`` every segment's raw
    size, one encode launch; the stats stay per column."""
    device.compression = CompressionPolicy("auto")
    runtime = QueryRuntime(device, ssb_db)
    rows = 300_000
    partial = {
        "key": np.arange(rows, dtype=np.int64),
        "noise": np.random.default_rng(5).integers(0, 2**62, rows),
    }
    shipped = runtime.ship_partials({"gather.p3": partial})
    [record] = device.log.transfers
    assert (record.label, record.direction, record.nbytes) == ("gather.p3", "d2h", shipped)
    assert record.raw_nbytes == partial["key"].nbytes + partial["noise"].nbytes
    assert record.codec and record.codec != "passthrough"
    assert partial["noise"].nbytes < shipped < partial["noise"].nbytes + partial["key"].nbytes // 10
    assert [t.name for t in device.log.kernels] == ["encode.gather.p3.key"]
    stats = runtime.compression_stats()
    assert stats.log is device.log  # the query record
    assert (stats.columns, stats.encoded_columns, stats.encode_kernels) == (2, 1, 1)
    assert (stats.raw_bytes, stats.wire_bytes) == (record.raw_nbytes, shipped)
    assert stats.host_decode_bytes == partial["key"].nbytes


def test_an_all_raw_transfer_is_unlabelled(device, ssb_db):
    device.compression = CompressionPolicy("auto")
    runtime = QueryRuntime(device, ssb_db)
    partial = {"a": np.arange(10, dtype=np.int64), "b": np.zeros(0), "c": np.ones(3)}
    assert runtime.ship_partials({"gather.p0": partial}) == 80 + 24
    [record] = device.log.transfers
    assert (record.nbytes, record.raw_nbytes, record.codec) == (104, 0, "")
    assert device.log.kernels == []


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_seeds_stay_byte_identical_under_a_policy(ssb_db, seed):
    devices = 4
    plan = FaultPlan.generate(seed, devices, devices * MORSELS_PER_DEVICE)
    session = repro.connect(ssb_db, devices=devices, compression="auto", fault_plan=plan)
    for name in ("q1.1", "q2.1", "q3.1", "q4.2"):
        expected = _session(ssb_db, "cpu").execute(SSB_QUERIES[name]).table.sorted_rows()
        result = session.execute(SSB_QUERIES[name])
        assert result.table.sorted_rows() == expected, (seed, name)
        gathered = [r for r in result.profile.transfers if r.direction == "d2h"]
        assert len({r.label for r in gathered}) == len(gathered), (seed, name)
