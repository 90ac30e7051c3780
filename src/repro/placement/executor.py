"""Placement-aware execution: working-set check + out-of-core fallback.

The run-to-finish engines need every input column (plus hash tables
and scratch) in device memory at once; historically a working set
larger than the device raised
:class:`~repro.errors.DeviceMemoryError` unless the caller hand-picked
the streaming :class:`~repro.macro.batch.BatchExecutor`.  With a
:class:`~repro.placement.BufferPool` attached, execution becomes
transparent:

1. If the plan's base input columns *provably* exceed device capacity
   (no eviction schedule can help: the columns alone do not fit), the
   query is routed directly to the streaming batch executor.
2. Otherwise the normal engine runs; the pool evicts cold resident
   columns under pressure.  If the device still runs out (hash tables
   or scratch pushed it over), the query transparently retries on the
   streaming path.

Either way the caller gets an ordinary
:class:`~repro.engines.base.ExecutionResult` whose ``placement``
records whether the out-of-core path ran.
"""

from __future__ import annotations

from ..engines.base import Engine, ExecutionResult
from ..errors import DeviceMemoryError, PlanError
from ..hardware.device import VirtualCoprocessor
from ..plan.physical import PhysicalQuery
from ..storage.database import Database


def base_columns(query: PhysicalQuery, database: Database, skip=frozenset()):
    """Yield ``(table name, column name, column)`` once per distinct
    base column the plan reads — not counting the pipelines at the
    ``skip`` indexes (builds a buffer pool serves resident tables for
    read nothing)."""
    seen: set[tuple[str, str]] = set()
    for index, pipeline in enumerate(query.pipelines):
        if index in skip:
            continue
        for key in pipeline.base_columns():
            if key not in seen:
                seen.add(key)
                yield *key, database.table(key[0]).column(key[1])


def base_column_bytes(query: PhysicalQuery, database: Database) -> int:
    """Total bytes of the distinct base columns the plan reads — the
    provable lower bound on the run-to-finish device working set."""
    return sum(column.nbytes for _t, _c, column in base_columns(query, database))


def dispatch(
    engine: Engine,
    query: PhysicalQuery,
    database: Database,
    device: VirtualCoprocessor | None,
    seed: int = 42,
    fleet=None,
    macro: str = "run-to-finish",
    block_bytes: int = 2 * 1024 * 1024,
) -> ExecutionResult:
    """Run ``query`` at one point of the macro x micro execution-model
    lattice — the single execution ladder.

    A pinned :class:`~repro.api.Session` passes its constant point; the
    adaptive :class:`~repro.optimizer.AutoExecutor` passes the point its
    advisor chose.  ``fleet`` (a
    :class:`~repro.scaleout.ScaleOutExecutor`) takes the query when
    set; otherwise it runs on ``device``: streamed out-of-core when
    ``macro`` says so, else run-to-finish — under the device's buffer
    pool when it has one, else on the bare engine
    (:func:`execute_with_placement` tells the two apart).
    """
    if fleet is not None:
        return fleet.execute(engine, query, database, seed=seed)
    if macro == "out-of-core":
        from ..macro.batch import execute_out_of_core, streaming_mode

        return execute_out_of_core(
            query, database, device, seed=seed,
            block_bytes=block_bytes, mode=streaming_mode(engine),
        )
    return execute_with_placement(engine, query, database, device, seed=seed)


def execute_with_placement(
    engine: Engine,
    query: PhysicalQuery,
    database: Database,
    device: VirtualCoprocessor,
    seed: int = 42,
) -> ExecutionResult:
    """Run ``query`` with residency management and automatic fallback.

    Without a :class:`~repro.placement.BufferPool` attached to
    ``device`` (``device.placement_pool``) this is the bare engine run.
    """
    pool = device.placement_pool
    if pool is None:
        return engine.execute(query, database, device, seed=seed)
    if base_column_bytes(query, database) > device.profile.memory_capacity:
        return _fallback(engine, query, database, device, seed, original=None)
    try:
        return engine.execute(query, database, device, seed=seed)
    except DeviceMemoryError as error:
        result = _fallback(engine, query, database, device, seed, original=error)
        # What the attempt that ran out did (its evictions, lookups and
        # pool acquisitions) stays on record.
        result.profile.carry(getattr(error, "record", None))
        return result


def _fallback(
    engine: Engine,
    query: PhysicalQuery,
    database: Database,
    device: VirtualCoprocessor,
    seed: int,
    original: DeviceMemoryError | None,
) -> ExecutionResult:
    device.placement_pool.record_fallback()
    try:
        return dispatch(engine, query, database, device, seed, macro="out-of-core")
    except PlanError:
        # The plan cannot stream (the final pipeline reads a virtual
        # table).  Surface the capacity problem, not the fallback's
        # limitation.
        if original is not None:
            raise original from None
        raise
