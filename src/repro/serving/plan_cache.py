"""The plan cache behind every :class:`~repro.api.Session` and
:class:`~repro.serving.Server`: one per catalog
(:attr:`Database.plan_cache <repro.storage.database.Database.plan_cache>`),
shared by every session and server over it that is not given one.

Parsing SQL and extracting fusion-operator pipelines does not depend on
a single row.  For the same dashboard or report queries arriving over
and over that front-end work is pure overhead: the paper's whole
argument is that compilation effort must be amortized for the
coprocessor to run at hardware speed (Sections 5-7).

The cache maps ``(normalized SQL, database fingerprint, strategy)`` to
the extracted :class:`~repro.plan.physical.PhysicalQuery` as a session
runs it (:func:`~repro.plan.waves.session_plan`): its independent inner
probes ordered cheapest-first by the cache's
:class:`~repro.optimizer.stats.StatisticsCatalog`, its sibling builds
grouped.  The statistics catalog is the one the sessions sharing the
cache hand their adaptive executors, so they sample each table once
per catalog version.  :meth:`PlanCache.clear` on a catalog's cache
clears it for every session over the catalog.

* **Normalized SQL** — whitespace collapsed and keywords lowercased
  *outside* string literals, so ``SELECT  x`` and ``select x`` share an
  entry while ``'ASIA'`` never collides with ``'asia'``.
* **Database fingerprint** — the catalog's serial number plus its
  mutation version (:meth:`repro.storage.database.Database.fingerprint`).
  Appending rows (``replace``), adding, or dropping a table bumps the
  version, so a mutated catalog can never be served a stale plan; two
  catalogs never share a serial, so identical SQL against different
  databases never collides.
* **Strategy** — a hashable token naming the caller's resolved
  execution strategy (engine/devices/partitioning/placement, or the
  adaptive optimizer's pinned dimensions).  An ``engine="auto"``
  session therefore never collides with an explicitly pinned
  configuration for the same SQL, and the optimizer's chosen
  :class:`~repro.optimizer.StrategyChoice` is recorded on the entry
  (:meth:`PlanCache.record_strategy`) so EXPLAIN and repeat executions
  can see what ran last time.

Cached plans are structurally immutable during execution (engines keep
all per-query state on the :class:`~repro.engines.runtime.QueryRuntime`),
so one cached :class:`PhysicalQuery` may be executed by many workers
concurrently.
"""

from __future__ import annotations

import functools
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..optimizer.cost import probe_ranks
from ..optimizer.stats import StatisticsCatalog
from ..plan.logical import LogicalPlan
from ..plan.physical import PhysicalQuery
from ..plan.pipelines import extract_pipelines
from ..plan.waves import session_plan
from ..sql.translate import plan_sql
from ..storage.database import Database


#: A single-quoted literal (to the end of the text when unterminated)
#: splits SQL text; what lies between literals is outside them.
_LITERALS = re.compile(r"('[^']*'?)")
_WHITESPACE = re.compile(r"\s+")


def normalize_sql(text: str) -> str:
    """Canonicalize SQL text for cache keying.

    Outside single-quoted string literals, whitespace runs collapse to
    one space and characters are lowercased one by one (a capital sigma
    never takes its final form); literals are preserved byte-for-byte
    (including doubled-quote escapes).  A trailing semicolon is dropped.
    """
    parts = _LITERALS.split(text.strip())
    for index in range(0, len(parts), 2):
        parts[index] = _WHITESPACE.sub(" ", parts[index]).replace("\u03a3", "\u03c3").lower()
    normalized = "".join(parts)
    return normalized[:-1].rstrip() if normalized.endswith(";") else normalized


def _resolve(
    plan: LogicalPlan, database: Database, statistics: StatisticsCatalog
) -> PhysicalQuery:
    """``plan`` extracted and rewritten as a session runs it
    (:func:`~repro.plan.waves.session_plan`)."""
    query = extract_pipelines(plan, database)
    return session_plan(query, probe_ranks(query, database, statistics))


def resolve_plan(
    plan: LogicalPlan, database: Database, statistics: StatisticsCatalog
) -> PhysicalQuery:
    """The physical plan ``plan`` resolves to on ``database`` (probes
    ordered by ``statistics``, sibling builds grouped), kept on the plan
    *object* (:attr:`LogicalPlan.resolved`) like
    :attr:`~repro.plan.physical.Pipeline.kernels`: an equal plan built
    anew, or a catalog at another fingerprint, resolves again.  Two
    workers racing here resolve equal plans; either stays."""
    version = database.fingerprint()
    resolved = plan.resolved
    if resolved is not None and resolved[0] == version:
        return resolved[1]
    physical = _resolve(plan, database, statistics)
    plan.resolved = (version, physical)
    return physical


@dataclass
class PlanCacheStats:
    """A snapshot of one plan cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CachedPlan:
    """One cache entry: the physical plan plus the execution strategy
    recorded for it (``None`` until the owner records one)."""

    physical: PhysicalQuery
    strategy: object | None = None


class PlanCache:
    """A bounded, thread-safe LRU of extracted physical query plans,
    and the statistics catalog that orders their probes."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.statistics = StatisticsCatalog()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        # Keys being planned: a concurrent lookup of one waits for the
        # plan instead of planning the statement again.
        self._planning: dict[tuple, threading.Event] = {}
        # A raw text seen before is normalized by one dict lookup, not
        # by the per-character loop (46 us per SSB statement).
        self._normalize = functools.lru_cache(maxsize=capacity)(normalize_sql)
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def _key(self, query: str, database: Database, strategy) -> tuple:
        return (self._normalize(query), database.fingerprint(), strategy)

    def lookup(
        self,
        query: str | LogicalPlan,
        database: Database,
        strategy: object = None,
    ) -> tuple[PhysicalQuery, bool]:
        """Resolve ``query`` to a physical plan; returns ``(plan, hit)``.

        SQL strings are keyed by normalized text + database fingerprint
        + the caller's ``strategy`` token (any hashable naming the
        resolved execution configuration; sessions with different
        pinned strategies — or auto vs. pinned — never share entries).
        :class:`LogicalPlan` objects bypass the LRU and count as neither
        a hit nor a miss: the counters are over SQL text.  The plan
        object itself keeps what it resolved to (:func:`resolve_plan`),
        so a reused object comes back with its pipelines, their kernels
        and its cost estimates.
        """
        if isinstance(query, LogicalPlan):
            return resolve_plan(query, database, self.statistics), False
        key = self._key(query, database, strategy)
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    return cached.physical, True
                planning = self._planning.get(key)
                if planning is None:
                    self._misses += 1
                    planning = self._planning[key] = threading.Event()
                    break
            planning.wait()
        try:
            physical = _resolve(plan_sql(query, database), database, self.statistics)
            with self._lock:
                self._entries[key] = CachedPlan(physical)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        finally:
            with self._lock:
                del self._planning[key]
            planning.set()
        return physical, False

    # ------------------------------------------------------------------
    def record_strategy(
        self,
        query: str,
        database: Database,
        strategy: object,
        chosen: object,
    ) -> None:
        """Attach the optimizer's resolved choice to a cached entry
        (no-op if the entry was evicted meanwhile)."""
        key = self._key(query, database, strategy)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.strategy = chosen

    def recorded_strategy(
        self, query: str, database: Database, strategy: object = None
    ) -> object | None:
        """The strategy recorded for a cached entry, else ``None``."""
        key = self._key(query, database, strategy)
        with self._lock:
            entry = self._entries.get(key)
            return entry.strategy if entry is not None else None

    # ------------------------------------------------------------------
    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._normalize.cache_clear()
            self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
