"""Lightweight table/column statistics for the cost-based optimizer.

The advisor's selectivity and group-count estimates come from per-column
summaries — row count, min/max, null fraction, and a distinct-count
estimate — collected once per catalog version, each column when it is
first read (:meth:`StatisticsCatalog.analyze` collects them all at
once), and cached under the database
:meth:`~repro.storage.database.Database.fingerprint` (the same key the
plan cache uses), so a catalog mutation invalidates the stats exactly
when it invalidates cached plans.

Collection is cheap and deterministic: columns larger than
``sample_limit`` values are sampled with a fixed stride (no RNG), and
the distinct count is scaled with the standard saturation heuristic —
if the sample looks mostly-unique the column is assumed key-like and
the distinct count scales with the row count; if the sample's distinct
set is small it is assumed to be the domain.

The same stride sample answers filter selectivities
(:meth:`StatisticsCatalog.sampled_selectivity`): the share of the
sample's rows a pipeline's filter conjunct keeps, among those its
earlier conjuncts keep — exact on a table no larger than the sample.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..compression.lazy import flatten_conjuncts
from ..expressions.eval import evaluate, over_rows
from ..plan.physical import FilterStage, Pipeline
from ..storage.database import Database
from ..storage.table import Table


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one base column."""

    rows: int
    minimum: float
    maximum: float
    null_fraction: float
    #: Estimated number of distinct values (>= 1 for non-empty columns).
    distinct: int
    #: True when the distinct estimate came from a full scan (exact).
    exact: bool
    #: True for integer-valued columns (inclusive-range selectivity).
    integral: bool = False

    @property
    def width(self) -> float:
        """Value-domain width (0 for constant columns)."""
        return self.maximum - self.minimum


@dataclass(frozen=True)
class TableStats:
    """Summary of one base table: row count plus per-column stats, each
    collected from ``table`` on its first read (a plan reads few of a
    table's columns)."""

    name: str
    rows: int
    nbytes: int
    columns: dict
    table: Table = field(repr=False, compare=False)
    sample_limit: int = 65536

    def column(self, name: str) -> ColumnStats | None:
        stats = self.columns.get(name)
        if stats is None and name in self.table.column_names:
            values = self.table.column(name).values
            stats = self.columns.setdefault(name, _collect_column(values, self.sample_limit))
        return stats


def _stride(rows: int, sample_limit: int) -> int:
    """The step of the fixed-stride sample: at most ``sample_limit``
    values, every value of a column no longer than that."""
    return -(-rows // sample_limit) if rows > sample_limit else 1


def _collect_column(values: np.ndarray, sample_limit: int) -> ColumnStats:
    rows = len(values)
    integral = values.dtype.kind in "iub"
    if rows == 0:
        return ColumnStats(
            rows=0, minimum=0.0, maximum=0.0, null_fraction=0.0,
            distinct=0, exact=True, integral=integral,
        )
    sample = values[::_stride(rows, sample_limit)]
    exact = rows <= sample_limit
    null_fraction = 0.0
    if sample.dtype.kind == "f":
        nan_mask = np.isnan(sample)
        null_fraction = float(nan_mask.mean())
        if null_fraction:
            sample = sample[~nan_mask]
        if len(sample) == 0:
            return ColumnStats(
                rows=rows, minimum=0.0, maximum=0.0,
                null_fraction=1.0, distinct=0, exact=exact,
                integral=integral,
            )
    distinct_sample = int(len(np.unique(sample)))
    if exact:
        distinct = distinct_sample
    elif distinct_sample >= 0.7 * len(sample):
        # Mostly-unique sample: key-like, scale with the row count.
        distinct = int(round(distinct_sample * rows / len(sample)))
    else:
        # Small repeated domain: the sample saw (almost) all of it.
        distinct = distinct_sample
    return ColumnStats(
        rows=rows,
        minimum=float(sample.min()),
        maximum=float(sample.max()),
        null_fraction=null_fraction,
        distinct=max(1, distinct),
        exact=exact,
        integral=integral,
    )


def collect_table_stats(
    name: str, table: Table, sample_limit: int = 65536
) -> TableStats:
    """The stats of ``table``: each column is scanned (or stride-sampled)
    once, when it is first read."""
    return TableStats(
        name=name, rows=table.num_rows, nbytes=table.nbytes, columns={},
        table=table, sample_limit=sample_limit,
    )


def _conjunct_chain(pipeline: Pipeline, predicate) -> tuple[list, list] | None:
    """``(before, own)``: the conjuncts of ``pipeline``'s filter stages
    that run before ``predicate`` — a stage's predicate or one of its
    top-level conjuncts (the compressed-scan path splits them) — and
    those ``predicate`` is made of; ``None`` when it is neither (a
    probe's residual)."""
    before: list = []
    for stage in pipeline.stages:
        if not isinstance(stage, FilterStage):
            continue
        conjuncts = flatten_conjuncts(stage.predicate)
        if stage.predicate is predicate:
            return before, conjuncts
        for index, conjunct in enumerate(conjuncts):
            if conjunct is predicate:
                return before + conjuncts[:index], [conjunct]
        before += conjuncts
    return None


class StatisticsCatalog:
    """Fingerprint-keyed cache of :class:`TableStats` per database, and
    of the filter selectivities its stride samples answer.

    ``table_stats`` collects lazily on first use; :meth:`analyze`
    collects eagerly for a whole catalog (the "at load time" hook).
    Entries for stale fingerprints of the same catalog serial are
    dropped, so a mutated database is re-analyzed but the cache never
    grows with dead versions.
    """

    def __init__(self, sample_limit: int = 65536):
        if sample_limit < 1:
            raise ValueError("sample_limit must be >= 1")
        self.sample_limit = sample_limit
        self._lock = threading.Lock()
        #: (serial, version, table name) -> TableStats
        self._entries: dict[tuple, TableStats] = {}
        #: (serial, version, table name, renames, conjunct chain) -> share
        self._shares: dict[tuple, float] = {}
        self.collections = 0
        self.hits = 0

    def _store(self, cache: dict, key: tuple, value) -> None:
        """``cache[key] = value``, dropping what other versions of the
        same catalog (``key[:2]``: serial, version) left in either
        cache.  The caller holds the lock."""
        serial, version = key[:2]
        for entries in (self._entries, self._shares):
            for stale in [k for k in entries if k[0] == serial and k[1] != version]:
                del entries[stale]
        cache[key] = value

    def table_stats(self, database: Database, name: str) -> TableStats:
        serial, version = database.fingerprint()
        key = (serial, version, name)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        stats = collect_table_stats(
            name, database.table(name), sample_limit=self.sample_limit
        )
        with self._lock:
            self._store(self._entries, key, stats)
            self.collections += 1
        return stats

    def sampled_selectivity(
        self, database: Database, pipeline: Pipeline, predicate
    ) -> float | None:
        """The share of the stride sample of ``pipeline``'s base table
        that passes ``predicate`` — one of its filter stages' predicates
        or conjuncts — among the sample rows that pass the conjuncts
        before it.  ``None`` when the sample cannot say: a virtual
        source, a residual, or a predicate over a column the pipeline
        maps or gathers from a probe (an earlier conjunct over one is
        left out of the condition).  Cached by catalog version, table
        and the structure of the conjunct chain, so an equal plan built
        anew reads the same answer."""
        if pipeline.source_is_virtual:
            return None
        chain = _conjunct_chain(pipeline, predicate)
        if chain is None:
            return None
        # What the source holds: not a mapped or gathered column.
        source = set(pipeline.required_columns)
        before, own = chain
        if not all(conjunct.columns() <= source for conjunct in own):
            return None
        before = [conjunct for conjunct in before if conjunct.columns() <= source]
        rename = pipeline.source_rename
        serial, version = database.fingerprint()
        key = (
            serial, version, pipeline.source, tuple(sorted(rename.items())),
            tuple(map(repr, before)), tuple(map(repr, own)),
        )
        with self._lock:
            cached = self._shares.get(key)
        if cached is not None:
            return cached
        table = database.table(pipeline.source)
        stride = _stride(table.num_rows, self.sample_limit)
        names = {name for conjunct in before + own for name in conjunct.columns()}
        scope = {
            name: table.column(rename.get(name, name)).values[::stride] for name in names
        }
        rows = -(-table.num_rows // stride)

        def passing(conjuncts, kept: np.ndarray) -> np.ndarray:
            for conjunct in conjuncts:
                kept = kept & over_rows(evaluate(conjunct, scope), (rows,), dtype=bool)
            return kept

        reached = passing(before, np.ones(rows, dtype=bool))
        alive = int(np.count_nonzero(reached))
        share = int(np.count_nonzero(passing(own, reached))) / alive if alive else 0.0
        with self._lock:
            self._store(self._shares, key, share)
        return share

    def analyze(self, database: Database) -> dict[str, TableStats]:
        """Eagerly collect stats for every column of every table in the
        catalog."""
        collected = {}
        for name in database.table_names:
            stats = collected[name] = self.table_stats(database, name)
            for column_name in database.table(name).column_names:
                stats.column(column_name)
        return collected

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
