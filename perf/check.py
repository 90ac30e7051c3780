"""The correctness gate: every result is compared to a reference.

References come from the ``cpu`` engine on the ``cpu`` device, built in
set-up.  Comparison is multiset equality with ``repro.validation``'s
tolerances (exact on strings and integers, ``rel 1e-4 / abs 1e-2`` on
floats) — the same contract as ``rows_approx_equal`` over
``sorted_rows()``, done column-wise in numpy because some items return
every fact row.  For the default seed the references are additionally
pinned by committed digests, so a drifting ``cpu`` engine is caught.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import numpy as np

from repro.validation import verify_engines

_DEFAULTS = inspect.signature(verify_engines).parameters
REL_TOL = _DEFAULTS["rel_tol"].default
ABS_TOL = _DEFAULTS["abs_tol"].default

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "digests.json"


def canonical_columns(table) -> list[np.ndarray]:
    """The table's columns (strings decoded), rows in a canonical order:
    sorted by the exact columns first, float columns last, so float
    noise can only reorder rows that agree on every exact field."""
    columns = []
    for name in table.column_names:
        column = table.column(name)
        if column.dictionary is not None:
            columns.append(np.asarray(column.decoded(), dtype=str))
        else:
            columns.append(np.asarray(column.values))
    if not columns or len(columns[0]) < 2:
        return columns
    exact = [c for c in columns if c.dtype.kind != "f"]
    inexact = [c for c in columns if c.dtype.kind == "f"]
    # lexsort's last key is the primary one.
    order = np.lexsort(tuple(reversed(exact + inexact)))
    return [column[order] for column in columns]


def columns_match(reference: list[np.ndarray], columns: list[np.ndarray]) -> bool:
    if len(reference) != len(columns):
        return False
    for expected, actual in zip(reference, columns):
        if expected.shape != actual.shape:
            return False
        if expected.dtype.kind in "US" or actual.dtype.kind in "US":
            if not np.array_equal(expected, actual):
                return False
            continue
        left = expected.astype(np.float64)
        right = actual.astype(np.float64)
        limit = np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(left), np.abs(right)))
        # NaN never matches, as in rows_approx_equal.
        if not np.all(np.abs(left - right) <= limit):
            return False
    return True


def digest(columns: list[np.ndarray]) -> str:
    """A short hash of canonical columns.  Floats keep ~6 significant
    digits, so a harmless change of summation order keeps the digest
    while a wrong value does not."""
    sha = hashlib.sha256()
    for column in columns:
        if column.dtype.kind == "f":
            mantissa, exponent = np.frexp(column.astype(np.float64))
            sha.update(np.round(mantissa * (1 << 20)).astype(np.int64).tobytes())
            sha.update(exponent.astype(np.int32).tobytes())
        elif column.dtype.kind in "US":
            sha.update("\x00".join(column.tolist()).encode())
        else:
            sha.update(column.astype(np.int64).tobytes())
        sha.update(b"|")
    return sha.hexdigest()[:16]


def load_expected() -> dict:
    """``{"seed": S, "datasets": {dataset: {query: digest}}}``."""
    if not EXPECTED_PATH.exists():
        return {"seed": None, "datasets": {}}
    return json.loads(EXPECTED_PATH.read_text())


def save_expected(seed: int, datasets: dict) -> None:
    merged = load_expected()
    if merged["seed"] != seed:
        merged = {"seed": seed, "datasets": {}}
    for dataset, digests in datasets.items():
        merged["datasets"].setdefault(dataset, {}).update(digests)
    EXPECTED_PATH.parent.mkdir(exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
