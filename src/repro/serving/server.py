"""A concurrent query server over the HorseQC engines.

The :class:`Server` is the serving runtime the ROADMAP's north star
asks for: it owns one shared (read-mostly) :class:`Database`, a pool of
worker threads each bound to its **own** :class:`VirtualCoprocessor`
(device profiler state is per-query, so in-flight queries must not
share a device), the catalog's :class:`PlanCache`, and a **bounded
admission queue** that applies back-pressure when the pool is saturated.

Request path::

    submit(sql) ──> admission queue ──> worker
                                          ├─ its Session runs the query
                                          │  lifecycle (plan cache,
                                          │  dispatch, serving stats —
                                          │  see docs/architecture.md)
                                          │  and folds the result into
                                          │  the server's registry
                                          └─ future.set_result(result)

Every result carries a :class:`~repro.serving.stats.ServingStats` in
``result.serving``; :meth:`Server.stats` returns the aggregate
:class:`~repro.serving.stats.ServerStats` snapshot.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import Future

from ..api import Session
from ..engines import make_engine
from ..engines.base import Engine, ExecutionResult
from ..errors import AdmissionError, ServingError
from ..hardware.device import VirtualCoprocessor
from ..hardware.interconnect import PCIE3, Interconnect
from ..hardware.profiles import GTX970, DeviceProfile
from ..hardware.traffic import sum_stats
from ..kernels.codegen import kernel_cache_stats
from ..plan.logical import LogicalPlan
from ..storage.database import Database
from ..telemetry.metrics import MetricsRegistry, count_query, live_devices_gauge
from .plan_cache import PlanCache
from .stats import ServerStats

_SHUTDOWN = object()


@dataclass
class _Request:
    query: object  # str | LogicalPlan
    engine: Engine | str | None  # as submitted (alias validated)
    seed: int
    #: The queue at admission: the ``query.admitted`` event's facts.
    admission: dict
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)


class Server:
    """Thread-pool serving runtime with plan and kernel caching.

    Parameters
    ----------
    database:
        The shared catalog.  It may be mutated between queries through
        ``add``/``replace``/``drop``; the plan cache keys on the
        catalog fingerprint, so mutations invalidate cached plans
        automatically.
    device:
        Profile (or profile name) each worker instantiates privately.
    engine:
        Default engine alias or instance.  Instances are shared across
        workers — engines are re-entrant (all per-query state lives on
        the :class:`~repro.engines.runtime.QueryRuntime`).
        ``engine="auto"`` (and/or ``devices="auto"``) gives every
        worker an adaptive :class:`~repro.optimizer.AutoExecutor`
        sharing one statistics catalog: each query runs
        on the cost-based optimizer's cheapest feasible strategy, the
        plan cache keys auto entries separately from pinned ones, and
        the ``repro_optimizer_*`` families count its decisions.
        Individual queries can still pin (``submit(..., engine=...)``)
        or opt in (``engine="auto"``) per request.
    workers:
        Worker-thread count; each worker owns one virtual device.
    queue_size:
        Admission-queue bound.  ``submit`` blocks (or raises
        :class:`~repro.errors.AdmissionError`, with ``block=False`` or
        on timeout) once this many queries are waiting.
    plan_cache:
        By default the catalog's one cache (``database.plan_cache``),
        which every session and server over ``database`` shares; pass
        one in to use it instead.
    residency:
        Default ``True``: each worker's device gets a
        :class:`~repro.placement.BufferPool`, so repeated queries reuse
        device-resident base columns (no repeat PCIe charge) and the
        hash tables built from them (a warm star join launches its fact
        pipeline only), and oversized working sets fall back to the
        streaming out-of-core executor instead of failing.  ``False`` restores the stateless
        reset-per-query behaviour.
    devices:
        ``devices=N`` (N > 1) gives each worker a private scale-out
        fleet of N simulated devices (:mod:`repro.scaleout`): queries
        partition the fact table under ``partitioning`` and merge
        partials scatter-gather style; results carry
        ``result.scaleout``.  With residency on, the fleets' per-device
        pools replace the per-worker pools in :meth:`stats`.
    fault_plan / retry_policy:
        Per-worker fault policy: every worker's fleet arms the same
        deterministic :class:`~repro.faults.FaultPlan` (accepted as a
        plan object, dict, or JSON path) and shares the
        :class:`~repro.faults.RetryPolicy`.  Arming a plan creates the
        scale-out executors even at ``devices=1``; the per-worker
        ``repro_faults_*`` counters and the
        ``repro_faults_live_devices`` health gauge then count its
        queries.
    """

    def __init__(
        self,
        database: Database,
        device: DeviceProfile | str = GTX970,
        engine: Engine | str = "resolution",
        workers: int = 4,
        queue_size: int = 64,
        interconnect: Interconnect = PCIE3,
        plan_cache: PlanCache | None = None,
        residency: bool = True,
        devices: int | str = 1,
        partitioning: str = "range",
        fault_plan=None,
        retry_policy=None,
        recorder=None,
        compression: str = "off",
    ):
        if workers < 1:
            raise ServingError(f"need at least 1 worker, got {workers}")
        if queue_size < 1:
            raise ServingError(f"queue size must be >= 1, got {queue_size}")
        if isinstance(device, VirtualCoprocessor):
            raise ServingError(
                "pass a DeviceProfile or profile name; each worker owns a "
                "private VirtualCoprocessor (profiler state is per-query)"
            )
        self.database = database
        #: Optional :class:`~repro.telemetry.FlightRecorder` shared by
        #: all workers: every query lands a flight record, failures
        #: write post-mortem bundles (with the armed fault plan).
        self.recorder = recorder
        self.workers = workers
        #: Prometheus-style instruments, scraped via :meth:`metrics_text`:
        #: the worker sessions fold every query they finish into it.
        self.metrics = MetricsRegistry()
        # One Session validates the configuration; each further worker
        # gets a sibling on a private device (see ``Session._sibling``
        # for what they share).
        first = Session(
            database,
            device=device,
            engine=engine,
            interconnect=interconnect,
            plan_cache=plan_cache,
            residency=residency,
            devices=devices,
            partitioning=partitioning,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            recorder=recorder,
            compression=compression,
            metrics=self.metrics,
        )
        self._sessions = [first] + [first._sibling() for _ in range(workers - 1)]
        #: The workers' one plan cache: ``plan_cache``, else the catalog's.
        self.plan_cache = first.plan_cache
        # Every fault-armed worker exports its health gauge from the
        # start: its fleet is whole until one of its queries says not.
        for index, session in enumerate(self._sessions):
            fleet = session.scaleout
            if fleet is not None and fleet.fault_plan is not None:
                live_devices_gauge(self.metrics, worker=str(index)).set(fleet.devices)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._queue_capacity = queue_size
        self._closed = False
        # What only the server sees, counted at the event: admissions,
        # cancellations, and the wait and worker of each query started.
        self._submitted = self.metrics.counter(
            "repro_queries_submitted_total", "Queries admitted"
        )
        self._queue_wait_hist = self.metrics.histogram(
            "repro_queue_wait_ms", "Admission-queue wait (host ms)"
        )
        #: Queries each worker picked up (written by that worker only).
        self._per_worker = [0] * workers
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: str | LogicalPlan,
        engine: Engine | str | None = None,
        seed: int = 42,
        block: bool = True,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue a query; returns a ``Future[ExecutionResult]``.

        Blocks while the admission queue is full (back-pressure); with
        ``block=False`` or an expired ``timeout`` the query is rejected
        with :class:`~repro.errors.AdmissionError` instead.
        """
        if self._closed:
            raise ServingError("server is closed")
        if isinstance(engine, str) and engine != "auto":
            make_engine(engine)  # reject unknown aliases at the front door
        # The depth with this query in it (a full queue: once it is let in).
        depth = min(self._queue.qsize() + 1, self._queue_capacity)
        request = _Request(
            query=query, engine=engine, seed=seed,
            admission={"queue_depth": depth, "queue_capacity": self._queue_capacity},
        )
        try:
            self._queue.put(request, block=block, timeout=timeout)
        except queue.Full:
            raise AdmissionError(
                f"admission queue full ({self._queue_capacity} waiting); "
                "retry later or raise queue_size"
            ) from None
        self._submitted.inc()
        return request.future

    def execute(
        self,
        query: str | LogicalPlan,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> ExecutionResult:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(query, engine=engine, seed=seed).result()

    def execute_many(
        self,
        queries: list,
        workers: int | None = None,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> list[ExecutionResult]:
        """Run ``queries`` through the pool; results in input order.

        ``workers`` caps the number of queries in flight (default: the
        pool size), which is how the throughput benchmark measures
        1/2/4/8-worker scaling against a single warm pool.
        """
        limit = self.workers if workers is None else workers
        if limit < 1:
            raise ServingError(f"workers must be >= 1, got {limit}")
        gate = threading.Semaphore(limit)
        futures = []
        for query in queries:
            gate.acquire()
            future = self.submit(query, engine=engine, seed=seed)
            future.add_done_callback(lambda _done: gate.release())
            futures.append(future)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            self._run_one(item, index)

    def _run_one(self, item: _Request, index: int) -> None:
        if not item.future.set_running_or_notify_cancel():
            # No worker ran it, so no record: counted, with no event.
            count_query(self.metrics, "cancelled")
            return
        queue_wait_ms = (time.perf_counter() - item.enqueued_at) * 1e3
        self._queue_wait_hist.observe(queue_wait_ms)
        self._per_worker[index] += 1
        try:
            # The worker's session counts the query, completed or failed.
            result = self._sessions[index]._execute(
                item.query, item.engine, item.seed, queue_wait_ms, index,
                item.admission,
            )
        except BaseException as error:
            item.future.set_exception(error)
            return
        item.future.set_result(result)

    # ------------------------------------------------------------------
    # lifecycle & stats
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """A snapshot of the server's counters, read off its registry."""

        def count(name: str, **labels) -> int:
            return int(self.metrics.counter(name, **labels).value)

        queue_wait = self._queue_wait_hist.snapshot()
        return ServerStats(
            workers=self.workers,
            queue_capacity=self._queue_capacity,
            queue_depth=self._queue.qsize(),
            submitted=int(self._submitted.value),
            completed=count("repro_queries_total", status="completed"),
            failed=count("repro_queries_total", status="failed"),
            cancelled=count("repro_queries_total", status="cancelled"),
            plan_hits=count("repro_plan_cache_lookups_total", outcome="hit"),
            plan_misses=count("repro_plan_cache_lookups_total", outcome="miss"),
            compile_hits=count("repro_kernel_cache_lookups_total", outcome="hit"),
            compile_misses=count("repro_kernel_cache_lookups_total", outcome="miss"),
            queue_wait_ms_total=queue_wait.sum,
            per_worker=list(self._per_worker),
            plan_cache=self.plan_cache.stats(),
            placement=self._placement_snapshot(),
            latency=self.metrics.histogram("repro_query_latency_ms").snapshot(),
            queue_wait=queue_wait,
        )

    def _placement_snapshot(self):
        """Aggregate buffer-pool stats across worker pools, fleets, and
        adaptive executors (whichever this server actually uses)."""
        return sum_stats(
            source.placement_stats()
            for session in self._sessions
            for source in (session, session._override_auto)
            if source is not None
        )

    def metrics_text(self) -> str:
        """Prometheus text exposition of the server's metrics.

        What the worker sessions folded in per query, and what the
        server counted at admission, render alongside scrape-time
        collectors of state a component owns (queue, caches, buffer
        pools, recorder); the output parses with
        :func:`repro.telemetry.metrics.parse_prometheus_text`.
        """
        stats = self.stats()
        metrics = self.metrics
        metrics.gauge("repro_workers", "Worker threads").set(self.workers)
        metrics.gauge(
            "repro_queue_depth", "Queries waiting in the admission queue"
        ).set(stats.queue_depth)
        metrics.gauge(
            "repro_queue_capacity", "Admission-queue bound"
        ).set(stats.queue_capacity)
        if stats.plan_cache is not None:
            metrics.gauge(
                "repro_plan_cache_size", "Cached physical plans"
            ).set(stats.plan_cache.size)
        kernel_cache = kernel_cache_stats()
        metrics.gauge(
            "repro_kernel_cache_size", "Compiled kernels resident (process-wide)"
        ).set(kernel_cache.size)
        if stats.placement is not None:
            placement = stats.placement
            metrics.gauge(
                "repro_placement_resident_bytes",
                "Device-resident bytes: base columns and built hash tables "
                "(all worker pools)",
            ).set(placement.resident_bytes)
            metrics.gauge(
                "repro_placement_resident_columns", "Device-resident columns"
            ).set(placement.resident_columns)
            metrics.gauge(
                "repro_placement_resident_tables",
                "Device-resident join hash tables (build sides kept across queries)",
            ).set(placement.resident_tables)
            metrics.counter(
                "repro_placement_table_hits_total",
                "Build pipelines served a resident hash table instead of running",
            ).set_total(placement.table_hits)
            for outcome, value in (
                ("hit", placement.hits),
                ("miss", placement.misses),
                ("eviction", placement.evictions),
                ("invalidation", placement.invalidations),
                ("fallback", placement.fallbacks),
            ):
                metrics.counter(
                    "repro_placement_events_total",
                    "Buffer-pool events", outcome=outcome,
                ).set_total(value)
            metrics.counter(
                "repro_placement_saved_bytes_total",
                "PCIe bytes avoided by residency hits",
            ).set_total(placement.hit_bytes)
        if self.recorder is not None:
            self.recorder.observe_metrics(metrics)
        return metrics.render()

    def close(self) -> None:
        """Stop accepting queries, finish the backlog, join the workers."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
