"""Base-table partitioning for the scale-out executor.

The fact table (the final pipeline's base-table scan) is split into
``parts`` horizontal pieces, each registered as its own table in a
derived :class:`~repro.storage.database.Database` so per-device
:class:`~repro.engines.runtime.QueryRuntime` transfer dedup and
:class:`~repro.placement.BufferPool` residency key on stable names.
Dimension tables are *not* partitioned — they are shared by reference
and broadcast (transferred in full) to every device that builds a hash
table from them, the classic small-build-side broadcast join.

Two schemes:

* ``range`` — contiguous row ranges (zero-copy numpy views).  Pieces
  follow the generator's row order; results concatenate back in the
  original order, so range partitioning is also order-preserving.
* ``hash`` — rows are spread by a multiplicative hash of the first
  integer column (falling back to the row index), which decorrelates
  clustered/skewed inputs at the cost of one gather per piece.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..storage.database import Database
from ..storage.table import Table

#: Supported partitioning schemes.
PARTITION_SCHEMES = ("hash", "range")

#: Over-partitioning factor: the fact table splits into
#: ``devices * MORSELS_PER_DEVICE`` pieces so the LPT scheduler can
#: redistribute work around skewed partitions.  Pieces are the unit of
#: scheduling, recovery and merge, not of launch: a device runs the
#: pieces it was given as one fused group (one load, one launch per
#: phase, one gather) and, with a compound engine, as one host pass of
#: the kernel body over the pieces' rows back to back, so a finer cut
#: adds no fixed cost per turn on either clock.  The executor and the
#: optimizer's cost estimator both take the pieces
#: :func:`fleet_partitions` cuts by it.
MORSELS_PER_DEVICE = 2

#: Knuth's multiplicative constant (golden ratio, 64-bit).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def validate_devices(devices) -> int:
    """``devices`` as a positive int, or :class:`ConfigurationError`."""
    if isinstance(devices, bool) or not isinstance(devices, int):
        raise ConfigurationError(
            f"devices must be an integer >= 1, got {devices!r} "
            "(valid values: 1, 2, 3, ...)"
        )
    if devices < 1:
        raise ConfigurationError(
            f"devices must be >= 1, got {devices} (valid values: 1, 2, 3, ...)"
        )
    return devices


def validate_partitioning(scheme: str) -> str:
    """A known partitioning scheme name, or :class:`ConfigurationError`."""
    if scheme not in PARTITION_SCHEMES:
        choices = ", ".join(PARTITION_SCHEMES)
        raise ConfigurationError(
            f"unknown partitioning scheme {scheme!r}; valid choices: {choices}"
        )
    return scheme


def partition_name(fact_table: str, index: int) -> str:
    """The catalog name of piece ``index`` of ``fact_table``."""
    return f"__scaleout__{fact_table}__p{index}"


def hash_key_column(table: Table) -> str | None:
    """The partition key for hash partitioning: the first integer
    column (schema order), or ``None`` to hash the row index."""
    for name in table.column_names:
        if table.column(name).values.dtype.kind in "iu":
            return name
    return None


def partition_selectors(
    table: Table, parts: int, scheme: str, key_column: str | None = None
) -> list[slice] | list[np.ndarray]:
    """Row selectors (slices for range, index arrays for hash), one per
    piece; every row lands in exactly one piece."""
    rows = table.num_rows
    if scheme == "range":
        bounds = [rows * j // parts for j in range(parts + 1)]
        return [slice(bounds[j], bounds[j + 1]) for j in range(parts)]
    if key_column is not None:
        keys = table.column(key_column).values.astype(np.uint64)
    else:
        keys = np.arange(rows, dtype=np.uint64)
    hashed = keys * _HASH_MULTIPLIER
    codes = ((hashed >> np.uint64(32)) % np.uint64(parts)).astype(np.int64)
    return [np.flatnonzero(codes == j) for j in range(parts)]


@dataclass
class PartitionPiece:
    """One horizontal piece of the fact table."""

    index: int
    table_name: str
    rows: int
    #: Bytes of ALL columns of the piece (scheduling weight; the bytes
    #: a query actually moves depend on its required columns).
    nbytes: int


@dataclass
class PartitionSet:
    """A partitioned view of one catalog, reusable across queries.

    ``database`` contains every parent table *by reference* plus one
    table per fact piece under :func:`partition_name`.  The derived
    catalog keeps its own serial but is cached per parent, so plan and
    buffer-pool keys stay stable across queries; :meth:`refresh`
    re-registers the pieces (bumping the derived version, which
    invalidates pool entries) when the parent catalog mutates.
    """

    fact_table: str
    scheme: str
    parts: int
    key_column: str | None
    pieces: list[PartitionPiece] = field(default_factory=list)
    database: Database | None = None
    parent_fingerprint: tuple = (0, 0)

    def refresh(self, parent: Database) -> None:
        if (
            self.database is not None
            and self.parent_fingerprint == parent.fingerprint()
        ):
            return
        fact = parent.table(self.fact_table)
        key = hash_key_column(fact) if self.scheme == "hash" else None
        selectors = partition_selectors(fact, self.parts, self.scheme, key)
        tables: dict[str, Table] = {
            name: parent.table(name) for name in parent.table_names
        }
        self.pieces = []
        for index, selector in enumerate(selectors):
            if isinstance(selector, slice):
                piece_table = fact.slice(selector.start, selector.stop)
            else:
                piece_table = fact.take(selector)
            name = partition_name(self.fact_table, index)
            tables[name] = piece_table
            self.pieces.append(
                PartitionPiece(
                    index=index,
                    table_name=name,
                    rows=piece_table.num_rows,
                    nbytes=piece_table.nbytes,
                )
            )
        self.key_column = key
        if self.database is None:
            self.database = Database(tables)
        else:
            stale = set(self.database.table_names) - set(tables)
            for name, table in tables.items():
                self.database.replace(name, table)
            for name in stale:
                self.database.drop(name)
        self.parent_fingerprint = parent.fingerprint()


def build_partitions(
    parent: Database, fact_table: str, parts: int, scheme: str
) -> PartitionSet:
    """Partition ``fact_table`` of ``parent`` into ``parts`` pieces."""
    validate_partitioning(scheme)
    partition_set = PartitionSet(
        fact_table=fact_table, scheme=scheme, parts=parts, key_column=None
    )
    partition_set.refresh(parent)
    return partition_set


#: Parent catalog -> ``(fact table, devices, scheme)`` -> its pieces.
_PARTITION_SETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_PARTITION_LOCK = threading.Lock()


def fleet_partitions(parent: Database, fact_table: str, devices: int, scheme: str) -> PartitionSet:
    """The ``devices * MORSELS_PER_DEVICE`` pieces of ``fact_table`` a
    fleet cuts, built once per parent catalog (refreshed when it
    changed): every fleet over it and the cost estimator share them,
    and the wire encodings cached on their columns."""
    with _PARTITION_LOCK:
        cached = _PARTITION_SETS.setdefault(parent, {})
        key = (fact_table, devices, scheme)
        if key in cached:
            cached[key].refresh(parent)
        else:
            parts = devices * MORSELS_PER_DEVICE
            cached[key] = build_partitions(parent, fact_table, parts, scheme)
        return cached[key]
