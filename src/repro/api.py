"""High-level convenience API.

    from repro import api
    from repro.workloads import generate_ssb

    session = api.connect(generate_ssb(0.01))
    result = session.execute("select sum(lo_revenue) as r from lineorder")
    print(result.table.to_rows(), result.kernel_ms)

A :class:`Session` bundles a database, a virtual device, and an engine
choice; ``execute`` accepts SQL text or a logical plan.
"""

from __future__ import annotations

import copy
import time
from typing import TYPE_CHECKING

from .engines import ENGINE_FACTORIES, make_engine
from .engines.base import Engine, ExecutionResult
from .errors import ConfigurationError
from .hardware.device import VirtualCoprocessor
from .hardware.interconnect import PCIE3, Interconnect
from .hardware.profiles import GTX970, DeviceProfile, get_profile
from .placement.executor import dispatch
from .plan.logical import LogicalPlan
from .sql.translate import plan_sql
from .storage.database import Database
from .telemetry.events import query_events
from .telemetry.metrics import MetricsRegistry, count_query, observe_result
from .telemetry.trace import QueryTrace, tracing_enabled

if TYPE_CHECKING:  # avoid the api -> serving -> api import cycle
    from .serving.plan_cache import PlanCache
    from .telemetry.recorder import FlightRecorder

__all__ = ["ENGINE_FACTORIES", "Session", "connect", "make_engine"]


class Session:
    """A database bound to a virtual coprocessor and a default engine.

    A statement is resolved once per database version: SQL text goes
    through a :class:`~repro.serving.PlanCache`, so a repeat ``execute``
    skips parsing and pipeline extraction and finds its compiled kernels
    on the cached plan.  Left at ``None``, ``plan_cache=`` is the
    catalog's one cache (:attr:`Database.plan_cache
    <repro.storage.database.Database.plan_cache>`), shared by every
    session and :class:`~repro.serving.Server` over ``database``, so a
    statement another of them ran is warm here too; a cache given
    explicitly is used instead.  Every execution carries its serving
    metrics in ``result.serving``.

    ``residency=True`` attaches a :class:`~repro.placement.BufferPool`
    to the session's device: base columns stay device-resident between
    queries (repeat loads skip the PCIe charge), so do the join hash
    tables built from them (a build pipeline whose table is resident
    does not run), and working sets
    larger than device memory transparently fall back to the streaming
    out-of-core executor.  Off by default so single-shot measurement
    sessions keep the paper's stateless reset-per-query semantics;
    the serving :class:`~repro.serving.Server` defaults it on.

    ``devices=N`` (N > 1) runs every query through the scale-out
    executor (:mod:`repro.scaleout`): the fact table is partitioned
    under ``partitioning`` (``"range"`` or ``"hash"``) across N
    simulated devices of the session's profile, partials are merged
    scatter-gather style, and results carry ``result.scaleout``
    accounting.  With ``residency=True`` each fleet device gets its
    own buffer pool (``session.pool`` stays ``None`` — the fleet owns
    residency; :meth:`placement_stats` aggregates across devices).

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`, a plan dict, or
    a path to a plan JSON file) arms deterministic fault injection on
    the scale-out executor; ``retry_policy`` tunes the per-morsel
    retry/backoff/timeout behaviour (see ``docs/fault-tolerance.md``).
    Arming a fault plan routes queries through the scale-out executor
    even at ``devices=1`` so the recovery ladder — including the host
    out-of-core fallback — stays reachable.

    ``engine="auto"`` and/or ``devices="auto"`` hand the corresponding
    decision to the adaptive cost-based optimizer
    (:mod:`repro.optimizer`, see ``docs/optimizer.md``): each query is
    planned over the strategy lattice (micro engine x run-to-finish
    vs. out-of-core x device count x placement) and executed on the
    cheapest feasible candidate; ``result.optimizer`` carries the full
    :class:`~repro.optimizer.OptimizerDecision`.  Dimensions you pin
    stay pinned — ``engine="auto", devices=2`` fixes the fleet size
    but lets the advisor pick the rest.  ``residency=True`` pins
    placement to ``pooled``.  Fault plans require pinned devices.

    ``compression="auto"`` turns on compression-aware transfers: each
    base column crosses the simulated link in its cheapest sampled
    codec, stays a wire image on the device and is decoded in the
    registers of the kernels that read it, so PCIe charges shrink while
    results stay byte-identical (see ``docs/compression.md``;
    ``"lazy"`` is an alias).  A codec name (``"rle"``, ``"forpack"``,
    ``"delta"``, ``"dictionary"``, ``"passthrough"``) pins that codec;
    ``"off"`` (default) keeps raw transfers.
    """

    def __init__(
        self,
        database: Database,
        device: VirtualCoprocessor | DeviceProfile | str = GTX970,
        engine: Engine | str = "resolution",
        interconnect: Interconnect = PCIE3,
        plan_cache: "PlanCache | None" = None,
        residency: bool = False,
        metrics: MetricsRegistry | None = None,
        devices: int | str = 1,
        partitioning: str = "range",
        fault_plan=None,
        retry_policy=None,
        recorder: "FlightRecorder | None" = None,
        compression: str = "off",
    ):
        from .compression import resolve_compression
        from .scaleout import validate_devices

        # The one place execution configuration is validated: a Server
        # builds one Session and clones it per worker (``_sibling``).
        alias = engine if isinstance(engine, str) else None
        auto_engine = alias == "auto"
        auto_devices = isinstance(devices, str)
        if auto_devices and devices != "auto":
            raise ConfigurationError(
                f"devices must be an integer >= 1 or 'auto', got {devices!r}"
            )
        if not auto_devices:
            validate_devices(devices)
        fault_plan = _coerce_fault_plan(fault_plan)
        if (auto_engine or auto_devices) and fault_plan is not None:
            raise ConfigurationError(
                "fault injection needs a pinned configuration; use an "
                "explicit engine and devices=N instead of 'auto'"
            )
        if auto_devices and alias is None:
            raise ConfigurationError(
                "devices='auto' needs an engine alias (or 'auto'), "
                "not an Engine instance; known engines: "
                + ", ".join(sorted(ENGINE_FACTORIES))
            )
        self.database = database
        #: Optional :class:`~repro.telemetry.FlightRecorder`; when set,
        #: every ``execute`` lands a flight record with the query's
        #: events (and failures write a post-mortem bundle) under a
        #: query id the recorder issues.
        self.recorder = recorder
        #: The engine alias as given (``None`` for Engine instances) —
        #: what post-mortem replay recipes record.
        self.engine_alias = alias
        if alias is not None and not auto_engine:
            engine = make_engine(alias)  # also validates under devices="auto"
        #: The pinned default engine; ``None`` on auto sessions.
        self.engine = None if auto_engine or auto_devices else engine
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        self._residency = residency
        #: Optional :class:`~repro.telemetry.MetricsRegistry`; when set,
        #: every finished query is folded into it
        #: (:func:`~repro.telemetry.metrics.observe_result`) — the
        #: families a :class:`~repro.serving.Server`, which hands its
        #: registry to its worker sessions, exposes per query.
        self.metrics = metrics
        self.plan_cache = database.plan_cache if plan_cache is None else plan_cache
        #: Wire-compression policy (``None`` = off): base columns cross
        #: the simulated link compressed, decode kernels run on device,
        #: and results carry ``result.compression`` accounting.
        self.compression = resolve_compression(compression)
        self.devices = devices
        self.partitioning = partitioning
        if isinstance(device, str):
            device = get_profile(device)
        if isinstance(device, DeviceProfile):
            device = VirtualCoprocessor(device, interconnect=interconnect)
        self._bind(device)

    def _bind(self, device: VirtualCoprocessor) -> None:
        """Attach the session to ``device`` and build the device-bound
        half of its configured route: the adaptive executor, the
        scale-out fleet, or the buffer pool (else the bare engine).
        Everything set here is private to this session; everything else
        is shared with its siblings."""
        self.device = device
        device.compression = self.compression
        self.auto = self.scaleout = self.pool = None
        #: Adaptive executor for per-query ``engine="auto"`` overrides
        #: on a pinned session (built on first use, never ``self.auto``:
        #: the session itself stays pinned).
        self._override_auto = None
        if self.engine is None:
            self.auto = self._new_auto(
                engine=None if self.engine_alias == "auto" else self.engine_alias,
                devices=None if self.devices == "auto" else self.devices,
            )
        elif self.devices > 1 or self._fault_plan is not None:
            from .scaleout import ScaleOutExecutor

            self.scaleout = ScaleOutExecutor(
                self.devices,
                profile=device.profile,
                interconnect=device.interconnect,
                partitioning=self.partitioning,
                residency=self._residency,
                fault_plan=self._fault_plan,
                retry_policy=self._retry_policy,
                compression=self.compression,
            )
        elif self._residency:
            if device.placement_pool is not None:
                self.pool = device.placement_pool
            else:
                from .placement import BufferPool

                self.pool = BufferPool(device)

    def _new_auto(self, **pinned):
        """An adaptive executor over this session's device profile, on
        the plan cache's statistics catalog (the one that ordered the
        plans it runs); ``residency=True`` pins its placement to
        ``pooled``."""
        from .optimizer import AutoExecutor

        return AutoExecutor(
            self.device.profile,
            interconnect=self.device.interconnect,
            partitioning=self.partitioning,
            placement="pooled" if self._residency else None,
            compression=self.compression,
            statistics=self.plan_cache.statistics,
            **pinned,
        )

    def _sibling(self) -> "Session":
        """A session with this one's validated configuration on a
        private device (one per :class:`~repro.serving.Server` worker).
        Siblings share the database, plan cache — and with it one
        statistics catalog (a cache of pure functions of the data: no
        worker's history reaches another's decisions) — recorder,
        default engine instance and compression policy (safe: its
        encoding cache lives on the immutable columns)."""
        twin = copy.copy(self)
        twin._bind(
            VirtualCoprocessor(self.device.profile, interconnect=self.device.interconnect)
        )
        return twin

    def _auto_executor(self):
        """The adaptive executor ``engine="auto"`` queries run on: the
        session's own, else the per-query-override one."""
        if self.auto is not None:
            return self.auto
        if self._override_auto is None:
            self._override_auto = self._new_auto()
        return self._override_auto

    # ------------------------------------------------------------------
    def plan(self, query: str | LogicalPlan) -> LogicalPlan:
        """Parse SQL into a logical plan (plans pass through)."""
        if isinstance(query, LogicalPlan):
            return query
        return plan_sql(query, self.database)

    def physical(self, query: str | LogicalPlan):
        """The extracted pipelines, via the plan cache."""
        token = self._strategy_token(self.engine)
        return self.plan_cache.lookup(query, self.database, token)[0]

    def _strategy_token(self, chosen: "Engine | None") -> tuple | None:
        """Hashable execution-strategy identity for plan-cache keying.

        Pinned configurations all share ``None``: the physical plan is
        engine-independent, so a plan compiled for one pinned engine is
        reusable by every other.  Auto executions get a distinct token
        so their entries (which carry a recorded optimizer strategy)
        never collide with pinned ones or with auto lattices pinned
        otherwise or priced for other hardware: the token names the
        device profile, the interconnect and the codec mode too."""
        if chosen is not None:
            return None
        auto = self._auto_executor()
        return (
            "auto",
            auto.profile.name,
            auto.interconnect,
            auto.compression.mode if auto.compression else "off",
            auto.pinned_engine,
            auto.pinned_devices,
            auto.partitioning,
            auto.pinned_placement,
        )

    def _strategy(self, alias: "str | None") -> dict:
        """The validated configuration as a flight-record strategy:
        every :class:`Session` keyword a replay needs, under its
        keyword name (see ``telemetry.recorder.REPLAY_KEYS``)."""
        return {
            "engine": alias,
            "device": self.device.profile.name,
            "devices": self.devices,
            "partitioning": self.partitioning,
            "compression": self.compression.mode if self.compression else "off",
            "residency": self._residency,
        }

    def explain(
        self,
        query: str | LogicalPlan,
        analyze: bool = False,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> str:
        """The fusion-operator decomposition of a query (pipelines +
        host post-processing), one line per pipeline.

        With ``analyze=True`` the query actually *runs* and the report
        shows, from its query record, per-pipeline rows in/out,
        kernels launched, per-level byte volumes, PCIe bytes, simulated
        vs host milliseconds, and cache/placement outcomes.

        On an ``engine="auto"`` session both variants additionally
        render the optimizer's decision: the ranked candidate lattice
        with predicted time/bytes per strategy (and, with ``analyze``,
        the observed time and prediction error).
        """
        if analyze:
            from .telemetry.explain import explain_analyze

            return explain_analyze(self, query, engine=engine, seed=seed)
        description = self.physical(query).describe()
        if self.auto is not None and engine is None:
            decision = self.auto.advise(self.physical(query), self.database)
            return f"{description}\n\noptimizer:\n{decision.render()}"
        return description

    def execute(
        self,
        query: str | LogicalPlan,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> ExecutionResult:
        """Run a query; returns the result table plus all metrics.

        ``result.profile`` is the query record (every launch and
        transfer, one row per pipeline); ``result.events()`` the
        query's structured events.  When tracing is enabled
        (:func:`repro.telemetry.tracing`) ``result.trace`` is the span
        tree over it, including the front-end ``plan`` span.
        """
        return self._execute(query, engine, seed)

    def _execute(
        self,
        query: str | LogicalPlan,
        engine: Engine | str | None,
        seed: int,
        queue_wait_ms: float = 0.0,
        worker: int = -1,
        admission: dict | None = None,
    ) -> ExecutionResult:
        """The query lifecycle (``docs/architecture.md``): flight ->
        serving stats -> plan -> dispatch -> landing (trace, flight
        record, metrics).  :class:`~repro.serving.Server` workers enter here with
        their admission-queue wait, worker index and the admission facts
        their request carries; direct executions are worker ``-1`` with
        no wait."""
        chosen, alias = self.engine, self.engine_alias
        if engine is not None:
            alias = engine if isinstance(engine, str) else None
            if alias == "auto":
                chosen = None  # route through the adaptive optimizer
            else:
                chosen = make_engine(engine) if alias else engine
        from .serving.stats import ServingStats

        recorder = self.recorder
        flight = None
        if recorder is not None:
            flight = recorder.start(
                query, seed=seed, worker=worker, **self._strategy(alias)
            )
        serving = ServingStats(
            queue_wait_ms=queue_wait_ms, worker=worker, admission=admission,
            started=time.perf_counter(),
        )
        # The one read of the tracing flag: a query keeps the answer it
        # started with, whatever other threads' ``tracing()`` do meanwhile.
        traced = tracing_enabled()

        def trace(record) -> QueryTrace | None:
            if not traced:
                return None
            origin = {"api": "session"} if worker < 0 else {"worker": worker}
            if flight is not None:
                origin["query_id"] = flight.query_id
            return QueryTrace(serving, record, **origin)

        try:
            result = self._plan_and_run(chosen, query, seed, flight, serving)
        except BaseException as error:
            # No result: what the query did on a device (its partial
            # record) rides the error, the rest is in ``serving``.
            record = getattr(error, "record", None)
            if recorder is not None:
                recorder.fail(
                    flight,
                    error,
                    query_events(serving, record, error=error),
                    trace=trace(record),
                    fault_plan=self._fault_plan,
                    retry_policy=self._retry_policy,
                )
            if self.metrics is not None:
                count_query(self.metrics, "failed")
            raise
        result.trace = trace(result.profile)
        if recorder is not None:
            recorder.complete(flight, result)
        if self.metrics is not None:
            labels = {"worker": str(worker)} if worker >= 0 else {}
            observe_result(self.metrics, result, **labels)
        return result

    def _plan_and_run(self, chosen, query, seed, flight, serving) -> ExecutionResult:
        """Plan and run ``query``, filling in ``serving`` as each step
        finishes (what a failure leaves of it is the query's story)."""
        token = self._strategy_token(chosen)
        plan_start = time.perf_counter()
        physical, hit = self.plan_cache.lookup(query, self.database, token)
        serving.planned_at = time.perf_counter()
        serving.plan_ms = (serving.planned_at - plan_start) * 1e3
        serving.plan_cache_hit = hit if isinstance(query, str) else None
        if flight is not None:
            from .telemetry.recorder import plan_fingerprint

            flight.note(plan_fingerprint=plan_fingerprint(physical), cache_hit=hit)
        execute_start = time.perf_counter()
        result = self._run(chosen, physical, seed)
        serving.execute_ms = (time.perf_counter() - execute_start) * 1e3
        serving.lookups = result.profile.lookups
        result.serving = serving
        if isinstance(query, str) and result.optimizer is not None:
            self.plan_cache.record_strategy(
                query, self.database, token, result.optimizer.chosen
            )
        return result

    def _run(self, chosen: "Engine | None", physical, seed: int) -> ExecutionResult:
        """Dispatch: the adaptive executor advises a point of the
        execution-model lattice, a pinned session *is* one; both run it
        through :func:`repro.placement.executor.dispatch`."""
        if chosen is None:
            return self._auto_executor().execute(physical, self.database, seed=seed)
        return dispatch(
            chosen, physical, self.database, self.device, seed, fleet=self.scaleout
        )

    def placement_stats(self):
        """Residency counters (``None`` unless ``residency=True``).

        Scale-out sessions aggregate across the fleet's per-device
        pools; auto sessions report the adaptive executor's pool."""
        if self.auto is not None:
            return self.auto.placement_stats()
        if self.scaleout is not None:
            return self.scaleout.placement_stats()
        return self.pool.stats() if self.pool is not None else None

    def optimizer_decision(self, query: str | LogicalPlan):
        """Advise (without executing) on an auto session: the ranked
        strategy breakdown the optimizer would use for ``query``."""
        return self._auto_executor().advise(self.physical(query), self.database)


def _coerce_fault_plan(fault_plan):
    """Accept a :class:`~repro.faults.FaultPlan`, a plan ``dict``, or a
    path to a plan JSON file (how the CLI passes ``--fault-plan``)."""
    if fault_plan is None:
        return None
    from .faults import FaultPlan

    if isinstance(fault_plan, FaultPlan):
        return fault_plan
    if isinstance(fault_plan, dict):
        return FaultPlan.from_dict(fault_plan)
    if isinstance(fault_plan, str):
        return FaultPlan.load(fault_plan)
    raise ConfigurationError(
        f"fault_plan must be a FaultPlan, a plan dict, or a JSON path, "
        f"got {fault_plan!r}"
    )


def connect(database: Database, **options) -> Session:
    """Create a session (the one-line entry point); ``options`` are
    :class:`Session`'s keywords, forwarded as given.

    ``engine="auto"`` / ``devices="auto"`` enable the adaptive
    cost-based optimizer (see :class:`Session`).  ``compression=
    "auto"`` ships base columns over the link compressed (see
    ``docs/compression.md``); a codec name pins one codec, ``"off"``
    (the default) keeps raw transfers."""
    return Session(database, **options)
