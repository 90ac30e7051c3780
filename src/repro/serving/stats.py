"""Serving metrics: per-query and per-server counters."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..placement.stats import PlacementStats
from ..telemetry.metrics import HistogramSnapshot
from .plan_cache import PlanCacheStats


@dataclass
class ServingStats:
    """Per-query serving metrics, attached as ``ExecutionResult.serving``.

    ``plan_ms`` is the front-end cost actually paid (≈0 on a plan-cache
    hit); ``execute_ms`` is the wall-clock of the engine run;
    ``queue_wait_ms`` is the time spent in the admission queue (0 for
    direct :class:`~repro.api.Session` executions).  The query lifecycle
    fills it in as it goes, so a failed query leaves partial stats: its
    ``query.admitted`` / ``query.planned`` events are read off them.

    **Containment:** ``compile_ms ⊂ execute_ms``.  Kernel compilation
    happens *inside* the engine run, so ``execute_ms`` already includes
    it; ``compile_ms`` is broken out only so cache warmup is visible.
    :attr:`total_ms` therefore sums queue wait + plan + execute and
    deliberately leaves ``compile_ms`` out — adding it would double
    count.  For the full phase-by-phase story use
    ``ExecutionResult.timeline()`` (the ordered span list) instead of
    re-deriving phase timings from these scalars.
    """

    #: True when the physical plan came from the plan cache; ``None``
    #: when a plan object bypassed it.
    plan_cache_hit: bool | None = None
    #: Compiled-kernel cache hits/misses during this query's execution.
    compile_hits: int = 0
    compile_misses: int = 0
    #: Wall-clock milliseconds spent waiting in the admission queue.
    queue_wait_ms: float = 0.0
    #: Wall-clock milliseconds of SQL parsing + pipeline extraction.
    plan_ms: float = 0.0
    #: Wall-clock milliseconds spent compiling generated kernels (0 when
    #: every kernel came from the cache).
    compile_ms: float = 0.0
    #: Wall-clock milliseconds of engine execution (incl. codegen).
    execute_ms: float = 0.0
    #: Index of the worker that executed the query (-1 for sessions).
    worker: int = -1
    #: What the server's admission queue held when it accepted the
    #: query (``queue_depth``, ``queue_capacity``); ``None`` for direct
    #: :class:`~repro.api.Session` executions.
    admission: dict | None = None
    #: Host clock (``perf_counter`` seconds) when the lifecycle began,
    #: and when the plan was ready (0: planning never finished — the
    #: partial stats a failed query leaves).
    started: float = 0.0
    planned_at: float = 0.0

    @property
    def total_ms(self) -> float:
        """Queue wait + planning + execution (host wall clock)."""
        return self.queue_wait_ms + self.plan_ms + self.execute_ms


@dataclass
class ServerStats:
    """A snapshot of a :class:`~repro.serving.Server`, read off its
    metrics registry."""

    workers: int
    queue_capacity: int
    queue_depth: int
    #: Queries accepted into the admission queue.
    submitted: int
    #: Queries whose futures resolved successfully.
    completed: int
    #: Queries whose futures resolved with an exception.
    failed: int
    #: Queries cancelled before a worker picked them up.
    cancelled: int
    #: Per-query plan-cache outcomes over SQL text, as counted by this
    #: server's workers (a plan object bypasses the cache and is in
    #: neither).
    plan_hits: int
    plan_misses: int
    #: Compiled-kernel cache outcomes summed over this server's queries.
    compile_hits: int
    compile_misses: int
    #: Aggregate queue wait across completed + failed queries.
    queue_wait_ms_total: float
    #: Queries each worker index picked up (completed + failed).
    per_worker: list[int] = field(default_factory=list)
    #: Snapshot of the shared plan cache (may include other servers'
    #: traffic when the cache is shared).
    plan_cache: PlanCacheStats | None = None
    #: Aggregate residency counters over the per-worker buffer pools
    #: (``None`` when the server runs with ``residency=False``).
    placement: PlacementStats | None = None
    #: End-to-end latency distribution (queue wait + plan + execute)
    #: over *completed* queries, as a frozen histogram snapshot.
    latency: HistogramSnapshot | None = None
    #: Admission-queue wait distribution over completed + failed
    #: queries.
    queue_wait: HistogramSnapshot | None = None

    @property
    def finished(self) -> int:
        return self.completed + self.failed

    @property
    def avg_queue_wait_ms(self) -> float:
        return self.queue_wait_ms_total / self.finished if self.finished else 0.0

    @property
    def plan_hit_rate(self) -> float:
        probes = self.plan_hits + self.plan_misses
        return self.plan_hits / probes if probes else 0.0

    def summary(self) -> str:
        text = (
            f"workers {self.workers}  submitted {self.submitted}  "
            f"completed {self.completed}  failed {self.failed}  "
            f"cancelled {self.cancelled}  "
            f"queue depth {self.queue_depth}/{self.queue_capacity}  "
            f"plan cache {self.plan_hits}/{self.plan_hits + self.plan_misses} hits  "
            f"kernel cache {self.compile_hits}/{self.compile_hits + self.compile_misses} hits  "
            f"avg queue wait {self.avg_queue_wait_ms:.3f} ms"
        )
        if self.latency is not None and self.latency.count:
            text += (
                f"\nlatency ms: p50 {self.latency.p50:.3f}  "
                f"p95 {self.latency.p95:.3f}  p99 {self.latency.p99:.3f}  "
                f"(bucket upper bounds over {self.latency.count} completed)"
            )
        if self.placement is not None:
            text += f"\nplacement: {self.placement.summary()}"
        return text
