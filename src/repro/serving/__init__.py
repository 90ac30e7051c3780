"""The serving runtime: concurrent query execution with caching.

::

    from repro.serving import Server
    from repro.workloads import generate_ssb

    with Server(generate_ssb(0.01), workers=4) as server:
        future = server.submit("select sum(lo_revenue) as r from lineorder")
        result = future.result()
        print(result.table.to_rows(), result.serving)

See ``docs/serving.md`` for the architecture, cache keys, and
invalidation rules.  Serving is measured by the ``serving_resident``
workload of ``perf/run.py`` (host and simulated clocks kept apart).
"""

from .plan_cache import CachedPlan, PlanCache, PlanCacheStats, normalize_sql
from .server import Server
from .stats import ServerStats, ServingStats

__all__ = [
    "CachedPlan",
    "PlanCache",
    "PlanCacheStats",
    "Server",
    "ServerStats",
    "ServingStats",
    "normalize_sql",
]
