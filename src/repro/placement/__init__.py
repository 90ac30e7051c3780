"""Device placement: cross-query residency (columns and build sides),
eviction, spill.

This package is the data-placement layer the paper's analysis calls
for (and systems like Theseus build in production): device memory is a
managed cache over the host-resident database, so repeated queries run
at device speed instead of re-paying the interconnect, and working
sets larger than device memory spill to the streaming out-of-core
executor instead of failing.

* :class:`BufferPool` — per-device residency manager (see
  :mod:`repro.placement.pool`);
* :func:`execute_with_placement` — working-set check, engine run,
  transparent out-of-core fallback;
* :class:`PlacementStats` / :class:`QueryPlacement` — counters
  surfaced through ``Server.stats()`` and ``ExecutionResult.placement``.
"""

from .executor import base_column_bytes, execute_with_placement
from .pool import BufferPool, ResidentEntry
from .stats import PlacementStats, QueryPlacement

__all__ = [
    "BufferPool",
    "PlacementStats",
    "QueryPlacement",
    "ResidentEntry",
    "base_column_bytes",
    "execute_with_placement",
]
