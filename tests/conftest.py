"""Shared fixtures: small generated databases and fresh devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware import GTX970, PCIE3, VirtualCoprocessor
from repro.storage import Column, Database, Table
from repro.workloads import generate_ssb, generate_tpch


@pytest.fixture(scope="session")
def ssb_db() -> Database:
    """A small but non-trivial SSB database (session-cached)."""
    return generate_ssb(scale_factor=0.004, seed=7)


@pytest.fixture()
def fresh_ssb(ssb_db) -> Database:
    """A new catalog over ``ssb_db``'s tables: the same data under a
    plan cache and statistics of its own.  Every session over one
    catalog shares its plan cache, so a test whose first ``execute`` of
    a statement must be cold runs on this."""
    return Database({name: ssb_db.table(name) for name in ssb_db.table_names})


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A small but non-trivial TPC-H database (session-cached)."""
    return generate_tpch(scale_factor=0.004, seed=11)


@pytest.fixture(scope="session")
def baseline_matrix() -> dict:
    """Every case of the simulated-clock pin (``repro baseline``),
    measured once per run under the leak check; the checks inject it
    (``check_baselines(current=)``)."""
    from repro.primitives.hashtable import clear_layout_cache
    from repro.telemetry.baseline import measure

    clear_layout_cache()
    with pytest.MonkeyPatch.context() as patch:
        _check_leaks(patch)
        return measure()


@pytest.fixture()
def device() -> VirtualCoprocessor:
    """A fresh GTX970 with a PCIe 3.0 link."""
    return VirtualCoprocessor(GTX970, interconnect=PCIE3)


def _check_leaks(patch: pytest.MonkeyPatch) -> None:
    """Wrap every engine / batch / fleet execution (through ``patch``)
    to assert it returns each device to its pooled-only baseline."""
    from repro.engines.base import Engine
    from repro.macro.batch import BatchExecutor
    from repro.scaleout.executor import ScaleOutExecutor

    def checked(original):
        def wrapper(self, plan, database, device, seed=42):
            try:
                return original(self, plan, database, device, seed=seed)
            finally:
                leaked = device.allocated_bytes - device.pooled_bytes
                assert leaked == 0, (
                    f"{type(self).__name__} leaked {leaked} transient device "
                    f"bytes (allocated {device.allocated_bytes}, pooled "
                    f"{device.pooled_bytes})"
                )

        return wrapper

    def checked_scaleout(original):
        def wrapper(self, engine, plan, database, seed=42):
            try:
                return original(self, engine, plan, database, seed=seed)
            finally:
                fleet_devices = list(self.fleet.devices)
                if self.fleet._host_device is not None:
                    fleet_devices.append(self.fleet._host_device)
                for member in fleet_devices:
                    leaked = member.allocated_bytes - member.pooled_bytes
                    assert leaked == 0, (
                        f"scale-out left {leaked} transient bytes on "
                        f"{member.profile.name} (alive={member.alive}; "
                        f"allocated {member.allocated_bytes}, pooled "
                        f"{member.pooled_bytes})"
                    )

        return wrapper

    patch.setattr(Engine, "execute", checked(Engine.execute))
    patch.setattr(BatchExecutor, "execute", checked(BatchExecutor.execute))
    patch.setattr(
        ScaleOutExecutor, "execute", checked_scaleout(ScaleOutExecutor.execute)
    )


@pytest.fixture(autouse=True)
def buffer_leak_guard(monkeypatch):
    """Assert every engine/batch execution returns the device to its
    pooled-only baseline: transient allocations (hash-table slots,
    payload columns, scratch) must all be freed by the end of the
    query, whether it succeeded or raised.  Pool residents — base
    columns and the hash tables a pool took over
    (``device.pooled_bytes``) — are the only allowed survivors."""
    from repro.primitives.hashtable import clear_layout_cache

    # Process-wide host memo: no test sees layouts (or probe credit
    # toward an index) left behind by another.
    clear_layout_cache()
    _check_leaks(monkeypatch)


def launch_rows(result) -> list[tuple]:
    """Every kernel launch of ``result`` as a comparable row: name,
    elements, per-level bytes and atomics (the meter), ``time_ms``."""
    return [
        (trace.name, trace.elements, trace.meter.snapshot(), trace.time_ms)
        for trace in result.profile.kernels
    ]


def _assert_warm_contract(stateless, warm, physical) -> int:
    """What residency may change, besides PCIe: rows are equal; the warm
    run's launches are the stateless run's minus those of the build
    pipelines served from the pool, and the remaining launches are
    equal row for row (name, elements, per-level bytes, atomics,
    ``time_ms``); ``kernel_sources`` lists what this execution launched.
    Returns the number of builds served."""
    import re

    from repro.plan.physical import BuildSink

    assert warm.table.sorted_rows() == stateless.table.sorted_rows()
    # What a build pipeline launches or lists is named after it, after
    # its table, or after a column of its source table (decode / gather
    # of a compressed column; a star join reads no dimension twice).
    builds = {
        pipeline.name: re.compile(
            rf"\b(\w+_)?{pipeline.name}\b|\bbuild\.{pipeline.sink.table_id}\b"
            rf"|^(decode|gather|compressed_scan)\.{pipeline.source}\."
        )
        for pipeline in physical.pipelines
        if isinstance(pipeline.sink, BuildSink)
    }

    def owner(name: str) -> str | None:
        return next((b for b, pattern in builds.items() if pattern.search(name)), None)

    launched = {owner(row[0]) for row in launch_rows(warm)}
    served = set(builds) - launched
    assert len(served) == warm.placement.table_hits
    assert launch_rows(warm) == [
        row for row in launch_rows(stateless) if owner(row[0]) not in served
    ]
    assert set(warm.kernel_sources) == {
        name for name in stateless.kernel_sources if owner(name) not in served
    }
    for name, source in warm.kernel_sources.items():
        assert source == stateless.kernel_sources[name]
    return len(served)


@pytest.fixture()
def assert_warm_contract():
    """:func:`_assert_warm_contract` for tests that compare a warm
    pooled execution with a stateless one."""
    return _assert_warm_contract


def _fully_priced(auto, query, database) -> tuple:
    """The decision ``auto`` (an ``AutoExecutor``) makes for ``query``
    on its pool as it is, built from ``CostEstimator.estimate`` without
    a bound: every lattice point priced in full, ranked by the
    advisor's rules.  Returns the pick, the estimate per feasible
    strategy and the streaming candidates the out-of-core rule prunes.
    Clears ``query.estimates`` before and after, so what the advisor
    prices next shares nothing with it."""
    from repro.optimizer import CostEstimator
    from repro.optimizer.advisor import FIT_SAFETY_FRACTION, OOC_PRUNE_FRACTION, _rank_key

    advisor = auto.advisor
    estimator = CostEstimator(
        advisor.profile, auto.interconnect, auto.statistics, compression=auto.compression
    )
    capacity = advisor.profile.memory_capacity
    columns, tables = auto._residency(query, database)
    candidates, _ = advisor.candidate_strategies(
        query, engine=auto.pinned_engine, devices=auto.pinned_devices,
        partitioning=auto.partitioning, placement=auto.pinned_placement,
    )
    query.estimates.clear()
    estimates, dominated, fits = {}, set(), False
    for choice in sorted(candidates, key=lambda choice: choice.macro == "out-of-core"):
        if choice.macro == "out-of-core" and fits:
            dominated.add(choice)
            continue
        estimate = estimator.estimate(
            query, database, choice, resident_columns=columns, resident_tables=tables
        )
        assert estimate.outpriced is None
        if not estimate.feasible:
            continue
        if choice.macro == "run-to-finish":
            fits |= estimate.peak_device_bytes <= OOC_PRUNE_FRACTION * capacity
            if estimate.peak_device_bytes > capacity:
                continue
        estimates[choice] = estimate
    query.estimates.clear()
    safe = [
        estimate for estimate in estimates.values()
        if estimate.strategy.macro == "out-of-core"
        or estimate.peak_device_bytes <= FIT_SAFETY_FRACTION * capacity
    ]
    pick = min(safe or list(estimates.values()), key=_rank_key)
    return pick, estimates, dominated


@pytest.fixture()
def fully_priced():
    """:func:`_fully_priced` for tests that hold the advisor's bounded
    lattice walk to the full pricing."""
    return _fully_priced


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A tiny hand-written star schema for exact-value tests."""
    rng = np.random.default_rng(3)
    n = 500
    lineorder = Table(
        {
            "lo_orderdate": Column.date(rng.choice([19930101, 19940101, 19950101], n)),
            "lo_quantity": Column.int32(rng.integers(1, 51, n)),
            "lo_discount": Column.int32(rng.integers(0, 11, n)),
            "lo_extendedprice": Column.int32(rng.integers(100, 1000, n)),
            "lo_revenue": Column.int32(rng.integers(100, 1000, n)),
            "lo_custkey": Column.int32(rng.integers(0, 20, n)),
        }
    )
    date = Table(
        {
            "d_datekey": Column.date([19930101, 19940101, 19950101]),
            "d_year": Column.int32([1993, 1994, 1995]),
        }
    )
    customer = Table(
        {
            "c_custkey": Column.int32(np.arange(20)),
            "c_region": Column.from_strings(
                ["ASIA" if index % 2 else "EUROPE" for index in range(20)]
            ),
            "c_nation": Column.from_strings([f"NATION{index % 4}" for index in range(20)]),
        }
    )
    return Database({"lineorder": lineorder, "date": date, "customer": customer})
