"""Lightweight table/column statistics for the cost-based optimizer.

The advisor's selectivity and group-count estimates come from per-column
summaries — row count, min/max, null fraction, and a distinct-count
estimate — collected once per catalog version and cached under the
database :meth:`~repro.storage.database.Database.fingerprint` (the same
key the plan cache uses), so a catalog mutation invalidates the stats
exactly when it invalidates cached plans.

Collection is cheap and deterministic: columns larger than
``sample_limit`` values are sampled with a fixed stride (no RNG), and
the distinct count is scaled with the standard saturation heuristic —
if the sample looks mostly-unique the column is assumed key-like and
the distinct count scales with the row count; if the sample's distinct
set is small it is assumed to be the domain.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

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
    """Summary of one base table: row count plus per-column stats."""

    name: str
    rows: int
    nbytes: int
    columns: dict

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def _collect_column(values: np.ndarray, sample_limit: int) -> ColumnStats:
    rows = len(values)
    integral = values.dtype.kind in "iub"
    if rows == 0:
        return ColumnStats(
            rows=0, minimum=0.0, maximum=0.0, null_fraction=0.0,
            distinct=0, exact=True, integral=integral,
        )
    if rows > sample_limit:
        stride = -(-rows // sample_limit)  # ceil -> <= sample_limit values
        sample = values[::stride]
        exact = False
    else:
        sample = values
        exact = True
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
    """Scan (or stride-sample) every column of ``table`` once."""
    columns = {
        column_name: _collect_column(table.column(column_name).values, sample_limit)
        for column_name in table.column_names
    }
    return TableStats(
        name=name, rows=table.num_rows, nbytes=table.nbytes, columns=columns
    )


class StatisticsCatalog:
    """Fingerprint-keyed cache of :class:`TableStats` per database.

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
        self.collections = 0
        self.hits = 0

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
            # Drop stats of older versions of this catalog.
            stale = [
                entry_key
                for entry_key in self._entries
                if entry_key[0] == serial and entry_key[1] != version
            ]
            for entry_key in stale:
                del self._entries[entry_key]
            self._entries[key] = stats
            self.collections += 1
        return stats

    def analyze(self, database: Database) -> dict[str, TableStats]:
        """Eagerly collect stats for every table in the catalog."""
        return {
            name: self.table_stats(database, name)
            for name in database.table_names
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
