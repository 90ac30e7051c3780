"""Shared helpers for data-parallel primitive simulation."""

from __future__ import annotations

import math

import numpy as np

#: Default Collaborative Thread Array size (Section 6.1): matches a
#: typical workgroup / thread-block of 256 threads.
DEFAULT_CTA_SIZE = 256


def num_blocks(n: int, block: int) -> int:
    """Number of CTA blocks needed to cover ``n`` elements."""
    if block <= 0:
        raise ValueError("block size must be positive")
    return max(0, -(-n // block))


def log2_ceil(value: int) -> int:
    if value <= 1:
        return 0
    return int(math.ceil(math.log2(value)))


def cta_ids(n: int, cta_size: int) -> np.ndarray:
    """CTA index of each of ``n`` consecutive elements."""
    return np.arange(n, dtype=np.int64) // cta_size


def exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (first element 0)."""
    out = np.zeros(len(values), dtype=np.int64)
    if len(values) > 1:
        np.cumsum(values[:-1], out=out[1:])
    return out


def segment_exclusive_cumsum(values: np.ndarray, segment_size: int) -> np.ndarray:
    """Exclusive prefix sum restarted at every segment boundary.

    This is the "local offset" of local resolution (Figure 14): each CTA
    scans its own slice independently.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    running = exclusive_cumsum(values)
    starts = (np.arange(n, dtype=np.int64) // segment_size) * segment_size
    return running - running[starts]


def segment_totals(values: np.ndarray, segment_size: int) -> np.ndarray:
    """Per-CTA totals (the ``cta_total`` of Figure 14)."""
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    blocks = num_blocks(n, segment_size)
    boundaries = np.arange(blocks, dtype=np.int64) * segment_size
    return np.add.reduceat(values.astype(np.int64), boundaries)


def semi_ordered_permutation(count: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation with locality, mimicking the GPU stream engine.

    The paper observes that CTA completion order is undefined but
    exhibits locality, producing *semi-ordered* output (Section 6.1).
    We model this as identity plus bounded local displacement.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    window = max(1, count // 16)
    keys = np.arange(count, dtype=np.float64)
    keys += rng.uniform(0.0, window, size=count)
    return np.argsort(keys, kind="stable").astype(np.int64)


def segment_sums(values: np.ndarray, edges) -> np.ndarray:
    """The sums of ``values`` (counts, or flags counted) over the
    segments ``[edges[s], edges[s + 1])`` — an empty one sums to 0,
    which ``np.add.reduceat`` does not give."""
    edges = list(edges)
    if values.dtype == np.bool_:
        return np.array(
            [np.count_nonzero(values[start:stop]) for start, stop in zip(edges, edges[1:])],
            dtype=np.int64,
        )
    return np.array(
        [values[start:stop].sum(dtype=np.int64) for start, stop in zip(edges, edges[1:])],
        dtype=np.int64,
    )
