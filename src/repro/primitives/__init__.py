"""Data-parallel primitives with exact traffic accounting.

The primitive families correspond to the paper's Table 4:

* ``prefix``    — aligned-write positions: A1 (multi-pass), A2 (atomic),
  A3 (local resolution, global propagation)
* ``reduce``    — single-tuple aggregation: B1, B2, B3
* ``segmented`` — grouped aggregation: C2, C3 (+ shared factorization)
* ``sortlib``   — radix sort + segmented reduce (C1 building blocks)
* ``hashtable`` — join hash tables with atomic-CAS inserts
* ``gather``    — gather/scatter/stream byte accounting
"""

from .common import (
    DEFAULT_CTA_SIZE,
    cta_ids,
    exclusive_cumsum,
    log2_ceil,
    num_blocks,
    segment_exclusive_cumsum,
    segment_totals,
    semi_ordered_permutation,
)
from .gather import INDEX_BYTES, account_gather, account_scatter, account_stream
from .hashtable import JoinHashTable, hash_key_columns
from .prefix import (
    ScanResult,
    atomic_positions,
    device_scan,
    lookback_positions,
    lrgp_positions,
    reference_positions,
    sequential_prefix_sum,
)
from .reduce import (
    atomic_reduce,
    charge_atomic_reduce,
    charge_device_reduce,
    charge_lrgp_reduce,
    device_reduce,
    lrgp_reduce,
    reduce_reference,
)
from .segmented import (
    HashAggregateCost,
    atomic_hash_aggregate,
    factorize,
    grouped_reduce,
    segmented_hash_aggregate,
)
from .sortlib import device_radix_sort, device_segmented_reduce

__all__ = [
    "DEFAULT_CTA_SIZE",
    "HashAggregateCost",
    "INDEX_BYTES",
    "JoinHashTable",
    "ScanResult",
    "account_gather",
    "account_scatter",
    "account_stream",
    "atomic_hash_aggregate",
    "atomic_positions",
    "atomic_reduce",
    "charge_atomic_reduce",
    "charge_device_reduce",
    "charge_lrgp_reduce",
    "cta_ids",
    "device_radix_sort",
    "device_reduce",
    "device_scan",
    "device_segmented_reduce",
    "exclusive_cumsum",
    "factorize",
    "grouped_reduce",
    "hash_key_columns",
    "log2_ceil",
    "lookback_positions",
    "lrgp_positions",
    "lrgp_reduce",
    "num_blocks",
    "reduce_reference",
    "reference_positions",
    "segment_exclusive_cumsum",
    "segment_totals",
    "segmented_hash_aggregate",
    "semi_ordered_permutation",
    "sequential_prefix_sum",
]
