"""Engine interface and execution results."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import KernelTrace, MemoryLevel, Profile, TrafficMeter
from ..plan.logical import LogicalPlan
from ..plan.physical import BuildSink, PhysicalQuery, Pipeline
from ..plan.pipelines import extract_pipelines
from ..storage.database import Database
from ..storage.table import Table
from ..telemetry.events import query_events
from .runtime import QueryRuntime


@dataclass
class ExecutionResult:
    """A query result plus everything the evaluation section measures."""

    table: Table
    profile: Profile
    engine: str
    device_name: str
    #: Result bytes moved device -> host.
    output_bytes: int
    #: The dashed baseline: time to stream input+output over the link.
    pcie_ms: float
    #: The solid baseline: time to stream input+output through GPU
    #: global memory once.
    memory_bound_ms: float
    #: Generated kernel sources of THIS execution (empty for engines
    #: that do not generate code).  Unlike ``engine.kernel_sources``,
    #: this is immune to concurrent executions on a shared engine.
    kernel_sources: dict[str, str] = field(default_factory=dict)
    #: Per-query serving metrics (:class:`repro.serving.ServingStats`),
    #: set by every :class:`~repro.api.Session` / ``Server`` execution;
    #: ``None`` only on a bare ``Engine.execute`` result.
    serving: object | None = None
    #: Per-query residency outcome
    #: (:class:`repro.placement.QueryPlacement`) when a buffer pool is
    #: attached to the device, else ``None``.
    placement: object | None = None
    #: Per-query span tree (:class:`repro.telemetry.trace.QueryTrace`,
    #: a view over ``profile`` plus the host phases) when a
    #: :class:`~repro.api.Session` / ``Server`` ran the query with
    #: tracing enabled, else ``None``.
    trace: object | None = None
    #: Fleet accounting (:class:`repro.scaleout.ScaleOutStats`) when
    #: the query ran through the scale-out executor, else ``None``.
    #: For scale-out results ``total_ms`` is the *serial* sum of all
    #: device work; ``scaleout.makespan_ms`` is the parallel time.
    scaleout: object | None = None
    #: Strategy decision (:class:`repro.optimizer.OptimizerDecision`)
    #: when the adaptive optimizer picked the execution strategy
    #: (``engine="auto"`` / ``devices="auto"``), else ``None``.
    optimizer: object | None = None
    #: Wire-compression accounting
    #: (:class:`repro.compression.CompressionStats`) when a compression
    #: policy was active for this execution, else ``None``.
    compression: object | None = None

    def timeline(self):
        """The ordered span list of this execution (depth-first, start
        time order), or ``[]`` when tracing was off.

        This is the one place benchmarks should read phase timings
        from, instead of re-deriving them from ``serving``/``profile``
        by hand; each span carries host wall-clock microseconds plus a
        ``sim_ms`` attribute for device work.
        """
        return self.trace.timeline() if self.trace is not None else []

    def events(self) -> list:
        """This query's structured events, oldest first
        (:func:`~repro.telemetry.events.query_events`): admission,
        planning and outcome from ``serving``, the optimizer's decision,
        and the notes of its record."""
        return query_events(self.serving, self.profile, self.optimizer)

    @property
    def input_bytes(self) -> int:
        """Bytes moved host -> device: the query record's h2d transfers."""
        return self.profile.moved_bytes("h2d")

    @property
    def kernel_ms(self) -> float:
        return self.profile.kernel_time_ms

    @property
    def transfer_ms(self) -> float:
        return self.profile.transfer_time_ms

    @property
    def total_ms(self) -> float:
        """End-to-end simulated time (transfers + kernels, serialized)."""
        return self.profile.total_time_ms

    @property
    def global_memory_bytes(self) -> int:
        return self.profile.bytes_at(MemoryLevel.GLOBAL)

    @property
    def onchip_bytes(self) -> int:
        return self.profile.bytes_at(MemoryLevel.ONCHIP)

    @property
    def passes(self) -> float:
        """GPU global memory volume / PCIe volume (Table 1's metric)."""
        pcie = self.input_bytes + self.output_bytes
        if pcie == 0:
            return float("inf")
        return self.global_memory_bytes / pcie

    def summary(self) -> str:
        return (
            f"{self.engine:<22s} kernels {self.kernel_ms:8.3f} ms   "
            f"pcie {self.pcie_ms:8.3f} ms   membound {self.memory_bound_ms:8.3f} ms   "
            f"global {self.global_memory_bytes / 1e6:9.2f} MB   rows {self.table.num_rows}"
        )

    def kernel_report(self) -> str:
        """An nvprof-style per-kernel listing: name, kind, elements,
        per-level volumes, atomics, time, and the dominating resource.

        This is the profiler view the paper's Appendix A metrics come
        from (dram_read/write_transactions per kernel).
        """
        lines = [
            f"{'kernel':<34s} {'kind':<10s} {'elements':>9s} {'global KB':>10s} "
            f"{'onchip KB':>10s} {'atomics':>8s} {'ms':>9s}  bound by"
        ]
        for trace in self.profile.kernels:
            meter = trace.meter
            lines.append(
                f"{trace.name:<34.34s} {trace.kind:<10s} {trace.elements:>9d} "
                f"{trace.global_bytes / 1e3:>10.1f} {trace.onchip_bytes / 1e3:>10.1f} "
                f"{meter.atomic_count:>8d} {trace.time_ms:>9.4f}  {trace.bound_by}"
            )
        for record in self.profile.transfers:
            if record.nbytes == 0:
                continue
            lines.append(
                f"{record.label or '(transfer)':<34.34s} {record.direction:<10s} "
                f"{'-':>9s} {record.nbytes / 1e3:>10.1f} {'-':>10s} {'-':>8s} "
                f"{record.time_ms:>9.4f}  link"
            )
        return "\n".join(lines)


def package_result(
    device: VirtualCoprocessor, profile: Profile, output_bytes: int, **fields
) -> ExecutionResult:
    """An :class:`ExecutionResult` over its query record ``profile``,
    its two baselines derived from its PCIe volumes on ``device``; on a
    device with a buffer pool its ``placement`` reads the record."""
    input_bytes = profile.moved_bytes("h2d")
    fields.setdefault("device_name", device.profile.name)
    if device.placement_pool is not None:
        from ..placement.stats import QueryPlacement

        fields["placement"] = placement = QueryPlacement()
        placement.log = profile
    return ExecutionResult(
        profile=profile,
        output_bytes=output_bytes,
        pcie_ms=device.pcie_baseline_ms(input_bytes, output_bytes),
        memory_bound_ms=device.memory_bound_ms(input_bytes + output_bytes),
        **fields,
    )


class Engine:
    """Base class: pipeline orchestration shared by all engines.

    Engines are *re-entrant*: all per-query state lives on the
    :class:`QueryRuntime` created inside :meth:`execute`, so one engine
    instance may execute queries from several threads concurrently.
    ``self.kernel_sources`` is rebound (never mutated in place) to the
    most recent execution's sources as a debugging convenience; use
    ``ExecutionResult.kernel_sources`` for the per-query view.
    """

    name = "abstract"
    #: Whether a group of siblings — the builds of one wave, a fleet
    #: device's morsels — runs as one launch per phase (:meth:`run_fused`,
    #: the generated-kernel engines) or one by one.
    fuses_siblings = False
    #: Last execution's generated sources (rebound atomically per run).
    kernel_sources: dict[str, str] = {}

    def lazy_capable(self, pipeline: Pipeline) -> bool:
        """Whether this engine reads ``pipeline``'s input columns
        through :class:`~repro.kernels.context.KernelContext`, so a
        compressed column can stay wire-resident and be decoded in the
        registers of the kernels that read it: the value the engine
        hands to :meth:`QueryRuntime.load_source`, and the one fact the
        cost estimator reads before pricing a fused decode.  Engines
        that charge column reads themselves (operator-at-a-time, cpu)
        say no and decode at load."""
        return False

    def execute(
        self,
        plan: LogicalPlan | PhysicalQuery,
        database: Database,
        device: VirtualCoprocessor,
        seed: int = 42,
    ) -> ExecutionResult:
        """Run a query and return its result and metrics.

        The device profiler is reset at the start, so the returned
        profile covers exactly this query.  Without a buffer pool the
        device is fully reset (no cross-query caching — HorseQC "does
        not cache data between queries", Section 8.9); with a
        :class:`~repro.placement.BufferPool` attached, pool-resident
        base columns survive between queries and repeat loads skip the
        PCIe charge, and so do the hash tables completed build
        pipelines left: a build whose table is resident does not run
        (:meth:`run_pipelines`).  Either way, all transient allocations
        (scratch, and every hash table no pool keeps) are reclaimed
        when the query ends, even on error.
        """
        if isinstance(plan, PhysicalQuery):
            query = plan
        else:
            query = extract_pipelines(plan, database)
        pool = device.placement_pool
        if pool is None:
            device.reset_all()
        else:
            device.begin_query()
        runtime = QueryRuntime(device, database, seed=seed, pool=pool)
        log = device.log
        try:
            outputs = self.run_pipelines(query.grouped(), runtime)
            assert outputs is not None, "query had no final pipeline"
            # The result's row of the query record: what shipping it
            # launched (encodes) and moved, and the host's sort / limit.
            record = log.open(None, None, log.pipelines[-1].rows_out)
            try:
                table = runtime.finalize(query, outputs)
                record.rows_out = table.num_rows
            finally:
                log.close(record)
            check_accounting(log, engine=self.name)
            # Rebind (do not mutate) the convenience attribute: concurrent
            # executions each install their own complete dict, so a reader
            # always sees one query's sources, never a mixture.
            self.kernel_sources = dict(runtime.kernel_sources)
            return package_result(
                device,
                log,
                runtime.output_bytes,
                table=table,
                engine=self.name,
                kernel_sources=dict(runtime.kernel_sources),
                compression=runtime.compression_stats(),
            )
        except BaseException as error:
            # A failed query has no result: its partial record rides
            # the error to whoever lands the query.
            error.record = log
            raise
        finally:
            runtime.close()

    def run_pipelines(
        self,
        groups: list[list[Pipeline]],
        runtime: QueryRuntime,
        first_index: int = 0,
    ) -> dict[str, np.ndarray] | None:
        """Run ``groups`` of pipelines (:meth:`PhysicalQuery.grouped
        <repro.plan.physical.PhysicalQuery.grouped>`) in order, each
        through :meth:`run_group`, and return what the last pipeline
        produced; non-final outputs become virtual tables.  Every
        pipeline writes its ``pipeline[first_index + i]`` row of the
        query record (:class:`~repro.hardware.traffic.PipelineRecord`)
        on the device log.  (Also the scale-out executor's way to run
        build sides and fact morsels on a device's runtime.)

        A build pipeline asks the device's buffer pool first, so every
        caller of this loop — the engines, the block streamer, a fleet
        device's build phase, the cost estimator on its stand-in device
        and pool — keeps build sides resident the same way."""
        produced = None
        for group in groups:
            produced = self.run_group(group, runtime, first_index)
            first_index += len(group)
        return produced

    def run_group(
        self, group: list[Pipeline], runtime: QueryRuntime, first_index: int = 0
    ) -> dict[str, np.ndarray] | None:
        """Run one group of pipelines and return what the last produced.

        A build whose hash table the buffer pool holds does not run
        (:meth:`_run_pipeline`).  The others run one by one — unless
        the engine :attr:`fuses_siblings` and the group has more than
        one member: then they run as one fused group (:meth:`run_fused`)."""
        if len(group) > 1 and self.fuses_siblings:
            indices = range(first_index, first_index + len(group))
            return self.run_fused(group, runtime, indices)[-1]
        log = runtime.device.log
        produced = None
        for index, pipeline in enumerate(group, first_index):
            record = log.open(index, pipeline, runtime.source_rows(pipeline))
            try:
                produced = self._run_pipeline(pipeline, runtime, record)
                record.rows_out = runtime.produced_rows(pipeline, produced)
            finally:
                log.close(record)
            if not pipeline.is_final and pipeline.output_schema is not None:
                assert produced is not None
                runtime.register_virtual(pipeline.output_name, produced, pipeline.output_schema)
        return produced

    def run_fused(
        self,
        group: list[Pipeline],
        runtime: QueryRuntime,
        indices: Sequence[int],
    ) -> list[dict[str, np.ndarray] | None]:
        """Run a group of siblings as ONE launch per phase and return
        what each member produced: the builds of one dependency wave
        (:meth:`run_group`), or the morsels of one final pipeline a
        fleet device runs (the scale-out executor), each member's
        outputs its own partial.

        A build the pool serves drops out, and so does a build whose
        table an earlier member builds: the pool serves it what that
        member left, as it would run alone.  The rest load their
        first-read base columns as one packed transfer, then run
        (:meth:`_run_members`): builds each on its own contexts, and
        morsels — one pipeline over pieces of its base table — as one
        host pass of their kernel where the engine has one; either way
        each member is charged over its own CTA range of the fused
        launch and writes its own hash table or outputs, and the
        device queues the launches it issues
        (:meth:`VirtualCoprocessor.fusing
        <repro.hardware.device.VirtualCoprocessor.fusing>`) and phase
        ``i`` of the group is launched once, over the members' merged
        meters (:func:`fuse_launches`).  Block counts, barriers and
        bytes are the members' exact sums: only the launch overhead,
        the link latency and the ``max()`` overlap of the cost model
        move.  A single member left runs as it would alone.

        The record: member ``i`` keeps its row ``indices[i]`` with its
        rows in / out, and the row of the first member that runs stays
        open over the run, so it holds the group's fused launches and
        packed transfer (:attr:`PipelineRecord.fused_into
        <repro.hardware.traffic.PipelineRecord.fused_into>`)."""
        log = runtime.device.log
        produced: list = [None] * len(group)
        records, ran, twins, head = [], [], [], None
        try:
            for position, (index, pipeline) in enumerate(zip(indices, group)):
                record = log.open(index, pipeline, runtime.source_rows(pipeline))
                records.append(record)
                try:
                    key = (
                        runtime.table_key(pipeline)
                        if isinstance(pipeline.sink, BuildSink) else None
                    )
                    if key is not None and key in {built for _, _, built in ran}:
                        twins.append((record, pipeline, key))
                    elif key is None or not runtime.resident_build(pipeline, key, record):
                        ran.append((position, pipeline, key))
                        if head is None:
                            head = record
                finally:
                    if record is not head:
                        log.close(record)
            if len(ran) == 1:
                [(position, pipeline, key)] = ran
                produced[position] = self._execute_kept(pipeline, runtime, key)
            elif ran:
                launched = self._launch_fused(ran, runtime)
                for (position, _, _), outputs in zip(ran, launched):
                    produced[position] = outputs
            for record, pipeline, key in twins:
                if not runtime.resident_build(pipeline, key, record):
                    self._execute_kept(pipeline, runtime, key)
        finally:
            if head is not None:
                log.close(head)
        for record, outputs in zip(records, produced):
            record.rows_out = runtime.produced_rows(record.pipeline, outputs)
            if len(ran) > 1:
                record.fused_into = head.index
        return produced

    def _launch_fused(self, ran: list[tuple], runtime: QueryRuntime) -> list:
        """The fused run of :meth:`run_fused` over its ``(position,
        pipeline, pool key)`` members that run; returns what each
        produced."""
        device = runtime.device
        members = [pipeline for _, pipeline, _ in ran]
        runtime.load_source(
            members[0], lazy_capable=self.lazy_capable(members[0]), siblings=members[1:]
        )
        produced, held = self._run_members(members, runtime)
        for name, kind, elements, meter in fuse_launches(held):
            device.launch(name, kind, elements, meter)
        # Once every member completed, the pool keeps the tables; what
        # restoring one costs is its own launches' time, unfused.
        for queued, (_, pipeline, key) in zip(held, ran):
            if key is not None:
                restore_ms = sum(
                    device.cost_model.breakdown(trace.meter, trace.kind).total * 1e3
                    for trace in queued
                )
                runtime.keep_build(pipeline, key, restore_ms)
        return produced

    def _run_members(self, members: list[Pipeline], runtime: QueryRuntime) -> tuple[list, list]:
        """Run a fused group's loaded ``members``, each queueing its
        launches under :meth:`VirtualCoprocessor.fusing
        <repro.hardware.device.VirtualCoprocessor.fusing>`: returns what
        each produced and the launches each queued.  Here one by one,
        each over its own contexts; an engine with a one-pass feed for
        morsels overrides this."""
        device = runtime.device
        held, produced = [], []
        for pipeline in members:
            started = perf_counter()
            with device.fusing() as queued:
                produced.append(runtime.run_pipeline(self, pipeline))
            held.append(queued)
            # Its kernels' host time: no launch of its own spans it.
            device.log.phase(f"member {pipeline.name}", "member", started)
        return produced, held

    def _run_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime, record
    ) -> dict[str, np.ndarray] | None:
        """Run ``pipeline`` — or, for a build whose hash table is
        resident in the pool, nothing: the table is registered under
        this query's id and the pipeline does not run.  ``record`` is
        its row of the query record."""
        key = runtime.table_key(pipeline) if isinstance(pipeline.sink, BuildSink) else None
        if key is not None and runtime.resident_build(pipeline, key, record):
            return None
        return self._execute_kept(pipeline, runtime, key)

    def _execute_kept(
        self, pipeline: Pipeline, runtime: QueryRuntime, key: tuple | None
    ) -> dict[str, np.ndarray] | None:
        """``runtime.run_pipeline``; a build with a pool ``key`` hands
        its table to the pool once it *completed* (an error on the way
        leaves the pool as it was) — what restoring it costs is the
        modeled time the pipeline took."""
        if key is None:
            return runtime.run_pipeline(self, pipeline)
        log = runtime.device.log
        started_ms = log.total_time_ms
        produced = runtime.run_pipeline(self, pipeline)
        runtime.keep_build(pipeline, key, log.total_time_ms - started_ms)
        return produced

    # ------------------------------------------------------------------
    def execute_pipeline(
        self, pipeline: Pipeline, runtime: QueryRuntime
    ) -> dict[str, np.ndarray] | None:
        """Run one pipeline; returns output arrays for result/virtual
        sinks, None for hash-table builds."""
        raise NotImplementedError

    def estimate_pipeline(self, pipeline: Pipeline, runtime) -> tuple[int, int]:
        """Price one pipeline without running it: launch on ``runtime``
        (an :class:`~repro.engines.estimate.EstimateRuntime`) the
        kernels :meth:`execute_pipeline` would, charged over row counts
        by the code that charges them over rows.  Returns the rows that
        reach the sink and the groups it aggregates them into (0 when
        it does not aggregate)."""
        raise NotImplementedError


def fuse_launches(held: list[list[KernelTrace]]) -> list[tuple]:
    """Phase ``i`` of a fused group: launch ``i`` of every member
    (``held``: each member's launches, in order) as ONE kernel over the
    members' disjoint CTA ranges — ``(name, kind, elements, meter)``,
    the name ``+``-joined, the elements summed and the meters merged
    (:meth:`TrafficMeter.merge`).  Members whose phases differ (a
    multi-pass aggregate over a morsel no row reaches sorts in one radix
    pass, not four) launch one after another, unfused.  An estimate
    runs the same loop, so it launches these too."""
    if len({tuple(trace.kind for trace in traces) for traces in held}) == 1:
        phases = list(zip(*held))
    else:
        phases = [(trace,) for traces in held for trace in traces]
    fused = []
    for phase in phases:
        meter = TrafficMeter()
        for trace in phase:
            meter.merge(trace.meter)
        fused.append((
            "+".join(trace.name for trace in phase),
            phase[0].kind,
            sum(trace.elements for trace in phase),
            meter,
        ))
    return fused


def check_accounting(log: Profile, **where) -> None:
    """The query record's self-check, run wherever a device's records
    are closed: every launch and transfer on ``log`` lies in a pipeline
    or ``finalize`` row, else an ``accounting.mismatch`` event says how
    many do not (something reached the device outside
    :meth:`Engine.run_pipelines`; EXPLAIN ANALYZE would not add up)."""
    unaccounted = log.unaccounted
    if unaccounted:
        log.note(
            "accounting.mismatch",
            entries=len(log.kernels) + len(log.transfers),
            unaccounted=unaccounted,
            **where,
        )
