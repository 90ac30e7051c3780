"""The database catalog: named tables residing in host memory."""

from __future__ import annotations

import itertools
import threading
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SchemaError
from .table import Table

if TYPE_CHECKING:  # the serving layer's cache holds plans over catalogs
    from ..serving.plan_cache import PlanCache

#: Process-wide serial numbers: every catalog gets a distinct identity,
#: so cached plans for one database can never be served for another
#: (even one holding tables with identical names and schemas).
_SERIALS = itertools.count()


class Database:
    """A catalog of named tables (the host-side storage layer).

    All base data lives in host main memory before query execution, as
    in the paper's setup (Appendix A); execution engines pull columns or
    blocks from here onto the virtual device.

    Tables are immutable; all catalog mutation goes through
    :meth:`add`/:meth:`replace`/:meth:`drop`, each of which bumps the
    catalog version.  :meth:`fingerprint` combines the catalog's serial
    number with that version, giving the serving layer's plan cache a
    key component that changes whenever a cached plan could be stale.
    """

    def __init__(self, tables: Mapping[str, Table] | None = None):
        self._tables: dict[str, Table] = dict(tables or {})
        self._serial = next(_SERIALS)
        self._version = 0
        #: ``(tables, column) -> values`` of :meth:`concatenated`, and
        #: the lock its readers and writers take: the fleets of every
        #: serving worker share one partitioned catalog.
        self._concatenated: dict[tuple, np.ndarray] = {}
        self._concatenated_lock = threading.Lock()
        self._plan_cache = None
        self._plan_cache_lock = threading.Lock()

    def add(self, name: str, table: Table) -> None:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        self._tables[name] = table
        self._changed()

    def replace(self, name: str, table: Table) -> None:
        self._tables[name] = table
        self._changed()

    def drop(self, name: str) -> None:
        try:
            del self._tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None
        self._changed()

    def _changed(self) -> None:
        self._version += 1
        with self._concatenated_lock:
            self._concatenated = {}

    def concatenated(self, names: tuple[str, ...], column: str) -> np.ndarray:
        """The values of ``column`` of the tables ``names`` back to back
        (read-only) — how a fleet device's morsel group reads its
        pieces — memoized until the catalog changes.  The memo holds at
        most one more copy of the catalog's bytes, the oldest entries
        going first.  Safe to call from several threads."""
        key = (names, column)
        with self._concatenated_lock:
            memo = self._concatenated
            values = memo.get(key)
            if values is None:
                values = np.concatenate(
                    [self._tables[name].column(column).values for name in names]
                )
                values.flags.writeable = False
                held = values.nbytes + sum(array.nbytes for array in memo.values())
                while memo and held > self.nbytes:
                    held -= memo.pop(next(iter(memo))).nbytes
                memo[key] = values
        return values

    @property
    def plan_cache(self) -> "PlanCache":
        """The catalog's one :class:`~repro.serving.PlanCache` (and the
        :class:`~repro.optimizer.stats.StatisticsCatalog` it carries):
        every session and server over this catalog built without
        ``plan_cache=`` resolves its statements here, so a statement is
        parsed, extracted and sampled once per catalog version.  Made on
        first use; it lives and dies with the catalog."""
        with self._plan_cache_lock:
            if self._plan_cache is None:
                from ..serving.plan_cache import PlanCache

                self._plan_cache = PlanCache()
            return self._plan_cache

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every catalog mutation."""
        return self._version

    def fingerprint(self) -> tuple[int, int]:
        """Identity + version: the cache-key component for this catalog.

        Two catalogs never share a fingerprint (distinct serials), and a
        catalog's fingerprint changes whenever a table is added,
        replaced (e.g. rows appended), or dropped.
        """
        return (self._serial, self._version)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "(none)"
            raise SchemaError(f"no table {name!r}; catalog has: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __getitem__(self, name: str) -> Table:
        return self.table(name)

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    @property
    def nbytes(self) -> int:
        return sum(table.nbytes for table in self._tables.values())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({table.num_rows})" for name, table in sorted(self._tables.items())
        )
        return f"Database({parts})"
