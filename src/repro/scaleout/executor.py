"""The scale-out executor: partitioned multi-device scatter-gather.

One query runs data-parallel over a :class:`~repro.scaleout.fleet.DeviceFleet`:

1. **Partition** — the fact table (the final pipeline's base-table
   scan) is split into ``devices * MORSELS_PER_DEVICE`` pieces (range
   or hash, see :mod:`repro.scaleout.partition`); the partitioned
   catalog is cached per parent database
   (:func:`~repro.scaleout.partition.fleet_partitions`) so repeat
   queries reuse it (and per-device buffer pools stay warm), and the
   cost estimator prices a fleet over the same pieces
   (:func:`estimate_turn`).
2. **Scatter** — pieces are assigned to devices by the deterministic
   LPT scheduler (:mod:`repro.scaleout.scheduler`).  Each
   participating device runs, on its own simulated clock: the
   dimension pipelines (build sides *broadcast* to every device, run by
   the first turn, replayed by the rest), then its fact morsels through
   the rewritten final pipeline
   (:func:`repro.scaleout.merge.rewrite_for_partials` makes AVG and
   empty pieces mergeable) — as one fused group: one packed load, one
   launch per phase, and one packed d2h gathering every partial.
3. **Gather/merge** — partials merge in piece order through the shared
   :func:`repro.scaleout.merge.merge_partials`, then the host applies
   ORDER BY/LIMIT through the routine single-device ``finalize`` uses
   (:func:`repro.engines.runtime.assemble_result`).

Each device runs the same pieces a single-device query does — see
``docs/architecture.md``, "One query loop, one compound runner"; what
this module owns is the scatter, the recovery waves and
the merge.

Queries whose final pipeline scans a *virtual* table (e.g. TPC-H Q13's
outer aggregate over an aggregate) cannot be partitioned this way and
fall back to whole-query execution on device 0 (counted in
``ScaleOutStats.fallback``).

**Fault tolerance** (see ``docs/fault-tolerance.md``): the scatter
phase runs in *waves*.  Each wave, every participating device runs its
share (attempt 1 of its morsels fused, every retry alone); a morsel
that fails with a *recoverable* error (an injected
fault from an armed :class:`~repro.faults.FaultPlan`, a genuine
:class:`~repro.errors.DeviceMemoryError`, a morsel timeout) is retried
on the same device with capped exponential backoff, then — retries
exhausted or device lost — re-scheduled in the next wave onto
surviving devices that have not failed it, via the same LPT scheduler.
A morsel that fails on *every* surviving device raises
:class:`~repro.errors.MorselExhaustedError`; losing every device
degrades to a whole-query host fallback through the out-of-core
:class:`~repro.macro.batch.BatchExecutor`.  Everything else
(``KeyboardInterrupt`` included) is fatal and propagates as raised.
Because partials are merged in global piece order and each piece's
partial does not depend on which device computed it, any fault schedule
that leaves at least one live device yields results byte-identical to
the fault-free run.

The returned :class:`~repro.engines.base.ExecutionResult` aggregates
the whole fleet: ``profile``/``total_ms`` is the *serial* sum of all
device work, while ``result.scaleout.makespan_ms`` is the parallel
completion time (the busiest device) — their ratio is the modeled
strong-scaling speedup the Fig-21-style benchmark reports.

**Host execution.**  The fleet's parallelism is *modeled*, not run: the
devices of a wave are simulated one after another on the calling
thread, in device order, each against its own clock.  Waves, retries,
grace rounds and the host fallback are therefore one deterministic
schedule — the fault log, the record's events and ``RecoveryStats`` repeat
exactly — and the host pays for the fleet's work once, not for threads
contending over it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..compression import resolve_compression
from ..engines.base import Engine, ExecutionResult, check_accounting, package_result
from ..engines.runtime import QueryRuntime, assemble_result
from ..faults.injector import FaultInjector, partial_checksum
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryStats, RetryPolicy
from ..hardware.interconnect import PCIE3, Interconnect
from ..hardware.profiles import GTX970, DeviceProfile, get_profile
from ..hardware.traffic import Profile, sum_stats
from ..errors import (
    ConfigurationError,
    DeviceLostError,
    DeviceMemoryError,
    FaultError,
    MorselExhaustedError,
    MorselTimeoutError,
    PlanError,
    TransferCorruptionError,
)
from ..plan.logical import LogicalPlan
from ..plan.physical import PhysicalQuery, Pipeline
from ..plan.pipelines import extract_pipelines
from ..storage.database import Database
from ..storage.table import Table
from .fleet import DeviceFleet
from .merge import PartialScheme, merge_partials, rewrite_for_partials
from .partition import (
    PartitionSet,
    fleet_partitions,
    validate_devices,
    validate_partitioning,
)
from .scheduler import DeviceLoad, assign_pieces
from .stats import DeviceShare, ScaleOutStats


#: Errors the recovery machinery absorbs (retry / redistribute).
#: Everything else — ``KeyboardInterrupt``, ``SystemExit``, planner or
#: kernel bugs — is fatal and propagates with its original traceback.
_RECOVERABLE = (FaultError, DeviceMemoryError)


@dataclass
class _DeviceRun:
    """What one device's turn brings back to the merge (one wave)."""

    #: The device's share of the query, shared by its turns.
    share: DeviceShare
    partials: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    profile: Profile = field(default_factory=Profile)
    kernel_sources: dict[str, str] = field(default_factory=dict)
    #: Pieces this device gave up on this wave -> failure kind.
    failed: dict[int, str] = field(default_factory=dict)
    #: Failed pieces whose failing attempts involved an *injected*
    #: firing (finite budget -> the scheduler may grant a fresh round).
    fault_fired: set = field(default_factory=set)
    #: Device died during this wave (its unfinished pieces are failed).
    lost: bool = False
    timeouts: int = 0
    #: Per-device wire-compression accounting (None when disabled).
    compression: object | None = None


def _fault_kind(error: BaseException, device) -> str:
    """Failure-kind label used for ``RecoveryStats`` and tracing."""
    if isinstance(error, DeviceLostError) or not device.alive:
        return "device-loss"
    if isinstance(error, MorselTimeoutError):
        return "timeout"
    if isinstance(error, TransferCorruptionError):
        return "corruption"
    if isinstance(error, DeviceMemoryError):
        return "oom"
    return "fault"


class ScaleOutExecutor:
    """Data-parallel query execution over N virtual devices.

    Parameters
    ----------
    devices:
        Fleet size (>= 1).  ``1`` degenerates to single-device
        execution through the same code path (useful as a baseline).
    profile:
        Device profile (or name) each fleet member instantiates
        privately.
    partitioning:
        ``"range"`` (default, order-preserving views) or ``"hash"``.
    residency:
        Attach a per-device :class:`~repro.placement.BufferPool`;
        broadcast dimension columns, the hash tables built from them
        and fact pieces stay device-resident across queries.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed on every query
        (a fresh deterministic :class:`~repro.faults.FaultInjector` per
        query, so repeat queries replay the same schedule).
    retry_policy:
        :class:`~repro.faults.RetryPolicy` governing per-morsel retries,
        backoff and the morsel timeout (default ``RetryPolicy()``).
    """

    def __init__(
        self,
        devices: int,
        profile: DeviceProfile | str = GTX970,
        interconnect: Interconnect = PCIE3,
        partitioning: str = "range",
        residency: bool = False,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        compression=None,
    ):
        self.devices = validate_devices(devices)
        self.partitioning = validate_partitioning(partitioning)
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise ConfigurationError(
                f"fault_plan must be a FaultPlan or None, got {fault_plan!r}"
            )
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy or None, got {retry_policy!r}"
            )
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.compression = resolve_compression(compression)
        self.fleet = DeviceFleet(
            self.profile,
            self.devices,
            interconnect=interconnect,
            residency=residency,
            compression=self.compression,
        )
        #: One query at a time per fleet (device profiler state is
        #: per-query); the serving layer gives each worker its own
        #: executor, same as it gives each worker its own device.
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------------
    def execute(
        self,
        engine: Engine,
        plan: LogicalPlan | PhysicalQuery,
        database: Database,
        seed: int = 42,
    ) -> ExecutionResult:
        """Run one query over the fleet and merge the partials."""
        if isinstance(plan, PhysicalQuery):
            query = plan
        else:
            query = extract_pipelines(plan, database)
        with self._run_lock:
            final = query.final_pipeline
            if final.source_is_virtual:
                return self._execute_fallback(engine, query, database, seed)
            return self._execute_partitioned(engine, query, database, seed)

    # ------------------------------------------------------------------
    def _execute_partitioned(
        self, engine: Engine, query: PhysicalQuery, database: Database, seed: int
    ) -> ExecutionResult:
        final = query.final_pipeline
        # Every device turn's log, and the executor's own notes (the
        # partition and merge steps, losses, redistribution, the host
        # fallback): the query's record.
        runs: list[_DeviceRun] = []
        notes = Profile()
        started = time.perf_counter()
        partition_set = fleet_partitions(
            database, final.source, self.devices, self.partitioning
        )
        notes.phase(
            "partition", "scaleout", started,
            fact=final.source, scheme=self.partitioning, parts=partition_set.parts,
        )
        rewritten, scheme = rewrite_for_partials(final)
        # Injected device losses last for the query that suffered
        # them; every query starts with the full fleet in service.
        self.fleet.revive_all()
        injector = (
            FaultInjector(self.fault_plan, self.retry_policy)
            if self.fault_plan is not None
            else None
        )
        recovery = RecoveryStats()
        loads = assign_pieces(
            [piece.nbytes for piece in partition_set.pieces], self.devices
        )
        try:
            by_piece, unfinished = self._scatter(
                engine, query, rewritten, partition_set, loads, seed, injector,
                recovery, runs, notes,
            )
            if injector is not None:
                recovery.injected = injector.counts()
            if unfinished:
                # Every device lost: degrade to the host fallback.
                return self._host_fallback(
                    engine, query, database, seed, partition_set, runs, notes,
                    recovery,
                )
        except BaseException as error:
            # What ran before the failure is the failed query's record.
            error.record = _record(runs, notes, getattr(error, "record", None))
            raise
        merge_start = time.perf_counter()
        # Merge in global piece order, independent of which device
        # ran which piece: deterministic results for free.
        ordered = [by_piece[index] for index in sorted(by_piece)]
        merged = merge_partials(
            final.sink,
            final.output_schema,
            ordered,
            scheme=scheme,
            context="partitions",
        )
        # The d2h was charged per gathered partial; only the cast
        # and ORDER BY / LIMIT remain.
        table = assemble_result(query, merged)
        merge_ms = (time.perf_counter() - merge_start) * 1e3
        notes.phase("merge", "scaleout", partials=len(ordered), rows=table.num_rows)
        stats = ScaleOutStats(
            devices=self.devices,
            partitions=partition_set.parts,
            scheme=self.partitioning,
            fact_table=final.source,
            shares=_shares(runs),
            merge_ms=merge_ms,
            recovery=recovery,
        )
        return self._package(engine, runs, notes, table, stats)

    # ------------------------------------------------------------------
    def _scatter(
        self,
        engine: Engine,
        query: PhysicalQuery,
        rewritten: Pipeline,
        partition_set: PartitionSet,
        loads: list[DeviceLoad],
        seed: int,
        injector: FaultInjector | None,
        recovery: RecoveryStats,
        runs: list[_DeviceRun],
        notes: Profile,
    ) -> tuple[dict[int, dict[str, np.ndarray]], list[int]]:
        """Wave-based scatter with recovery: every device turn lands in
        ``runs`` as it starts, the executor's events in ``notes``.

        Returns ``(partials by piece, unfinished pieces)``; the
        unfinished list is non-empty only when every device was lost
        (the caller degrades to the host fallback).  Raises
        :class:`MorselExhaustedError` when a piece has failed on every
        surviving device; a fatal error propagates from the device that
        raised it, and the wave's later devices never start.
        """
        pieces = partition_set.pieces
        by_piece: dict[int, dict[str, np.ndarray]] = {}
        #: The query's record of its build sides, shared by every turn.
        builds: dict = {}
        failed_on: dict[int, set[int]] = {}
        #: Pieces whose failures involved injected firings since their
        #: last grace round (see the eligibility loop below).
        fault_seen: set[int] = set()
        alive = list(range(self.devices))
        wave_loads = [
            load
            for load in loads
            if any(pieces[piece].rows for piece in load.pieces)
        ]
        wave = 0
        while wave_loads:
            wave += 1
            recovery.waves = wave
            # One device after another, in device order, on this thread.
            first = len(runs)
            for load in wave_loads:
                self._run_device(
                    engine, query, rewritten, partition_set, load, seed, injector,
                    runs, builds,
                )
            for run in runs[first:]:
                by_piece.update(run.partials)
                recovery.timeouts += run.timeouts
                for piece_index in run.failed:
                    failed_on.setdefault(piece_index, set()).add(run.share.device)
                fault_seen |= run.fault_fired
                if run.lost and run.share.device in alive:
                    alive.remove(run.share.device)
                    notes.note("device.lost", device=run.share.device, wave=wave)
            pending = sorted(
                piece_index
                for piece_index in failed_on
                if piece_index not in by_piece
            )
            if not pending:
                return by_piece, []
            if not alive:
                return by_piece, pending
            eligible: list[list[int]] = []
            for piece_index in pending:
                candidates = [
                    device for device in alive
                    if device not in failed_on[piece_index]
                ]
                if not candidates:
                    # Every survivor has failed this piece.  If any of
                    # those failures came from an *injected* firing, the
                    # fault budget is finite — clear the blacklist and
                    # grant a fresh round (this terminates: a new grace
                    # round needs a new firing, and firings are bounded
                    # by the plan's total budget).  Purely genuine
                    # failures exhaust instead.
                    if piece_index in fault_seen:
                        fault_seen.discard(piece_index)
                        failed_on[piece_index] = set()
                        candidates = list(alive)
                    else:
                        raise MorselExhaustedError(
                            piece_index, partition_set.fact_table, alive
                        )
                eligible.append(candidates)
            local = assign_pieces(
                [pieces[piece_index].nbytes for piece_index in pending],
                self.devices,
                eligible=eligible,
            )
            wave_loads = [
                DeviceLoad(
                    device=load.device,
                    pieces=sorted(pending[index] for index in load.pieces),
                    estimated_bytes=load.estimated_bytes,
                )
                for load in local
                if load.pieces
            ]
            notes.note(
                "morsel.redistributed",
                wave=wave,
                morsels=len(pending),
                survivors=len(alive),
            )
        return by_piece, []

    def _run_device(
        self,
        engine: Engine,
        query: PhysicalQuery,
        rewritten: Pipeline,
        partition_set: PartitionSet,
        load: DeviceLoad,
        seed: int,
        injector: FaultInjector | None,
        runs: list[_DeviceRun],
        builds: dict,
    ) -> None:
        device = self.fleet.devices[load.device]
        pool = self.fleet.pools[load.device]
        self.fleet.begin_query(load.device)
        partition_db = partition_set.database
        assert partition_db is not None
        turn_start = time.perf_counter()
        runtime = QueryRuntime(device, partition_db, seed=seed, pool=pool, runs=builds)
        share = {run.share.device: run.share for run in runs}.get(load.device)
        if share is None:
            share = DeviceShare(device=load.device)
            share.first_morsel = len(query.pipelines) - 1
        share.logs += (device.log,)
        run = _DeviceRun(share=share, profile=device.log)
        runs.append(run)
        try:
            try:
                fired_mark = injector.fired_count() if injector else 0
                if injector is not None:
                    injector.on_build(load.device, device)
                # Build sides: every dimension pipeline runs on
                # every participating device (broadcast join) — once
                # per query, replayed by the turns after the first.
                engine.run_pipelines(query.grouped()[:-1], runtime)
            except _RECOVERABLE as error:
                # A build failure fails every piece of this share:
                # without the build sides no morsel can run here.
                run.lost = not device.alive
                kind = _fault_kind(error, device)
                if isinstance(error, MorselTimeoutError):
                    run.timeouts += 1
                injected = injector is not None and injector.fired_matching(
                    fired_mark, load.device
                )
                if injected:
                    device.log.note(
                        "fault.fired",
                        fault=kind,
                        device=load.device,
                        stage="build",
                    )
                for piece_index in load.pieces:
                    if partition_set.pieces[piece_index].rows:
                        run.failed[piece_index] = kind
                        if injected:
                            run.fault_fired.add(piece_index)
                return
            # Fact morsels, in piece order: attempt 1 of the pieces with
            # rows as one fused group when it can be, then each piece
            # that failed alone until it succeeds or gives up.
            group = [
                (piece, _morsel(rewritten, piece))
                for piece in (partition_set.pieces[index] for index in load.pieces)
                if piece.rows
            ]
            fuse = engine.fuses_siblings and len(group) > 1
            # A group whose columns do not fit together runs one piece
            # at a time, each freeing its buffers for the next.
            release = fuse and not runtime.fits([morsel for _, morsel in group])
            queue = [(first, 1) for first in self._first_groups(group, fuse and not release)]
            while queue:
                members, attempt = queue.pop(0)
                if run.lost:
                    run.failed.update((piece.index, "device-loss") for piece, _ in members)
                    continue
                retry = self._attempt(
                    engine, query, members, runtime, run, injector, attempt, release
                )
                queue[:0] = [([member], attempt + 1) for member in retry]
        finally:
            run.kernel_sources = dict(runtime.kernel_sources)
            run.compression = runtime.compression_stats()
            check_accounting(device.log, device=load.device)
            runtime.close()
            # One subtree per device turn; ``device_lane`` puts it on
            # its own track pair in the Chrome trace.
            device.log.phase(
                f"device[{load.device}]", "device", turn_start,
                device_lane=load.device, device=device.profile.name,
            )

    @staticmethod
    def _first_groups(group: list[tuple], fused: bool) -> list[list]:
        """The groups attempt 1 runs: a device's ``(piece, morsel)``
        pairs as one fused group, else each alone."""
        return [group] if fused else [[member] for member in group]

    def _attempt(
        self,
        engine: Engine,
        query: PhysicalQuery,
        group: list[tuple],
        runtime: QueryRuntime,
        run: _DeviceRun,
        injector: FaultInjector | None,
        attempt: int,
        release: bool,
    ) -> list[tuple]:
        """Attempt ``attempt`` at ``group`` (``(piece, morsel)`` pairs in
        piece order; several run as ONE fused group through
        :meth:`Engine.run_fused <repro.engines.base.Engine.run_fused>`:
        one packed load, one launch per phase).  Every member's
        ``before_morsel`` fires first (none after one lost the device:
        the rest fail as device-loss), the members it let through run,
        and each partial is delivered and checksum-verified in piece
        order; those that verify ship as one packed d2h, in the group's
        head row.  An attempt that gathered nothing — or, with
        ``release``, any attempt: the next piece needs the room — frees
        its buffers and keeps the build sides.  Returns the members to
        retry, each alone, after their backoff; a member that gives up
        lands in ``run.failed`` (``run.lost`` is set when the device
        died) for the next wave to redistribute."""
        device = runtime.device
        snapshot = device.transient_snapshot()
        fired_mark = injector.fired_count() if injector else 0
        errors: dict[int, BaseException] = {}
        members, partials = [], []
        for piece, morsel in group:
            if not device.alive:
                # An earlier member's hook lost the device: this piece
                # never runs here, and its own faults stay armed.
                errors[piece.index] = DeviceLostError(device.profile.name, "lost")
                continue
            try:
                if injector is not None:
                    injector.before_morsel(run.share.device, piece.index, device)
                members.append((piece, morsel))
            except _RECOVERABLE as error:
                errors[piece.index] = error
        try:
            if members:
                first = len(query.pipelines) - 1
                produced = engine.run_fused(
                    [morsel for _, morsel in members],
                    runtime,
                    [first + piece.index for piece, _ in members],
                )
                if not device.alive:
                    raise DeviceLostError(device.profile.name, "lost mid-morsel")
                for (piece, _), outputs in zip(members, produced):
                    try:
                        partials.append(
                            (piece, _verified(injector, run, piece, outputs, device))
                        )
                    except TransferCorruptionError as error:
                        errors[piece.index] = error
        except _RECOVERABLE as error:
            errors.update((piece.index, error) for piece, _ in members)
        if partials:
            _gather(runtime, partials, len(members))
            for piece, outputs in partials:
                run.partials[piece.index] = outputs
                run.share.morsels += 1
                run.share.rows += piece.rows
        if release or not partials:
            device.release_transient(keep=snapshot)
        policy, retry = self.retry_policy, []
        for piece, morsel in group:
            if piece.index not in errors:
                continue
            error = errors[piece.index]
            kind = _fault_kind(error, device)
            run.timeouts += isinstance(error, MorselTimeoutError)
            if injector is not None and injector.fired_matching(
                fired_mark, run.share.device, piece.index
            ):
                run.fault_fired.add(piece.index)
                device.log.note(
                    "fault.fired", fault=kind, device=run.share.device, morsel=piece.index
                )
            if not device.alive:
                run.lost = True
            elif attempt < policy.max_attempts:
                device.log.note(
                    "morsel.retry",
                    device=run.share.device,
                    morsel=piece.index,
                    attempt=attempt,
                    fault=kind,
                    backoff_ms=policy.backoff_ms(attempt),
                )
                retry.append((piece, morsel))
                continue
            run.failed[piece.index] = kind
        return retry

    # ------------------------------------------------------------------
    def _execute_fallback(
        self, engine: Engine, query: PhysicalQuery, database: Database, seed: int
    ) -> ExecutionResult:
        """Whole-query execution on device 0 (unpartitionable plan)."""
        from ..placement.executor import dispatch

        result = dispatch(engine, query, database, self.fleet.devices[0], seed)
        share = DeviceShare(device=0, morsels=1)
        share.logs = (result.profile,)
        return self._as_fleet(
            result, engine, partitions=1, fact_table=None, shares=[share], fallback=True
        )

    # ------------------------------------------------------------------
    def _host_fallback(
        self,
        engine: Engine,
        query: PhysicalQuery,
        database: Database,
        seed: int,
        partition_set: PartitionSet,
        runs: list[_DeviceRun],
        notes: Profile,
        recovery: RecoveryStats,
    ) -> ExecutionResult:
        """Last rung of the degradation ladder: every fleet device is
        lost, so the whole query re-runs against the *parent* database
        on the reserve host device, streaming out-of-core (run-to-finish
        when the plan cannot stream).  The result's record is the host
        run's; the fleet's events come first in it."""
        # Every fleet device was lost.
        notes.note("fallback.host", devices_lost=self.devices)
        from ..macro.batch import execute_out_of_core, streaming_mode

        device = self.fleet.host_device()
        device.reset_all()
        try:
            result = execute_out_of_core(
                query, database, device, seed=seed, mode=streaming_mode(engine)
            )
        except PlanError:
            device.reset_all()
            result = engine.execute(query, database, device, seed=seed)
        result.profile.carry(_record(runs, notes))
        recovery.log = result.profile
        return self._as_fleet(
            result, engine, partitions=partition_set.parts,
            fact_table=partition_set.fact_table, shares=_shares(runs), recovery=recovery,
        )

    def _as_fleet(self, result: ExecutionResult, engine: Engine, **stats) -> ExecutionResult:
        """``result`` of a run outside the partitioned path, labelled as
        this fleet's run of ``engine`` with its :class:`ScaleOutStats`."""
        result.scaleout = ScaleOutStats(devices=self.devices, scheme=self.partitioning, **stats)
        result.engine = f"scaleout[{self.devices}x{engine.name}]"
        return result

    # ------------------------------------------------------------------
    def _package(
        self,
        engine: Engine,
        runs: list[_DeviceRun],
        notes: Profile,
        table: Table,
        stats: ScaleOutStats,
    ) -> ExecutionResult:
        profile = _record(runs, notes)
        stats.recovery.log = profile
        kernel_sources: dict[str, str] = {}
        for run in runs:
            kernel_sources.update(run.kernel_sources)
        compression = sum_stats(run.compression for run in runs)
        if compression is not None:
            compression.log = profile
        return package_result(
            self.fleet.devices[0],
            profile,
            table.nbytes,
            table=table,
            engine=f"scaleout[{self.devices}x{engine.name}]",
            device_name=f"{self.profile.name} x{self.devices}",
            kernel_sources=kernel_sources,
            scaleout=stats,
            compression=compression,
        )

    def placement_stats(self):
        """Aggregated fleet residency counters (None without it)."""
        return self.fleet.placement_stats()


def _record(runs: list[_DeviceRun], *logs: Profile | None) -> Profile:
    """The fleet's query record: each device turn's log, then ``logs``
    (the executor's notes, a failed host run's record); the events of
    all interleave in host order."""
    record = Profile()
    for log in [run.profile for run in runs] + [log for log in logs if log is not None]:
        record.merge(log)
    return record


def estimate_turn(engine: Engine, query: PhysicalQuery, rewritten: Pipeline, pieces, runtime):
    """:meth:`ScaleOutExecutor._run_device` when nothing fails, on the
    cost estimator's ``runtime``: the build sides, then the morsels of
    ``pieces`` grouped as attempt 1 groups them — fused whenever the
    engine fuses (the fit check is not asked) — each group gathered."""
    engine.run_pipelines(query.grouped()[:-1], runtime)
    group = [(piece, _morsel(rewritten, piece)) for piece in pieces if piece.rows]
    first = len(query.pipelines) - 1
    for members in ScaleOutExecutor._first_groups(group, engine.fuses_siblings and len(group) > 1):
        morsels = [morsel for _, morsel in members]
        produced = engine.run_fused(morsels, runtime, [first + p.index for p, _ in members])
        partials = [(piece, out) for (piece, _), out in zip(members, produced)]
        _gather(runtime, partials, len(members))


def _gather(runtime: QueryRuntime, partials: list[tuple], ran: int) -> None:
    """Ship the ``(piece, outputs)`` partials of a group of ``ran``
    morsels as one packed d2h, in the group's head row."""
    runtime.ship_partials({f"gather.p{piece.index}": outputs for piece, outputs in partials})
    runtime.device.log.close(runtime.device.log.pipelines[-ran])


def _morsel(rewritten: Pipeline, piece) -> Pipeline:
    """The final pipeline over fact ``piece`` (memoized on the plan)."""
    return rewritten.derive(
        (piece.index, piece.table_name),
        lambda: replace(
            rewritten, name=f"{rewritten.name}_p{piece.index}", source=piece.table_name
        ),
    )


def _verified(injector: FaultInjector | None, run: _DeviceRun, piece, produced, device):
    """``produced`` as its checksum-verified gather delivers it: a
    corrupted transfer is detected against the pre-delivery checksum
    (:class:`TransferCorruptionError`) and recomputed on retry."""
    if injector is None:
        return produced
    reference = partial_checksum(produced)
    delivered = injector.deliver(run.share.device, piece.index, produced, device)
    checksum = partial_checksum(delivered)
    if checksum != reference:
        raise TransferCorruptionError(run.share.device, piece.index, reference, checksum)
    return delivered


def _shares(runs: list[_DeviceRun]) -> list[DeviceShare]:
    """Each device's one share of the query, in device order."""
    by_device = {run.share.device: run.share for run in runs}
    return [by_device[device] for device in sorted(by_device)]
