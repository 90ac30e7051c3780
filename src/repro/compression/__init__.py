"""Compressed columnar storage & compression-aware link transfer.

See :mod:`repro.compression.codecs` for the wire formats,
:mod:`repro.compression.policy` for the per-column auto chooser,
:mod:`repro.compression.lazy` for the register decode (kernels read
wire images; predicates scan them), and ``docs/compression.md`` for how
wire bytes are accounted end to end.
"""

from .codecs import (
    CODEC_NAMES,
    WIRE_HEADER_BYTES,
    EncodedColumn,
    decode,
    encode,
)
from .kernels import (
    compressed_scan_source,
    decode_kernel_source,
    encode_kernel_source,
    register_decode_source,
)
from .lazy import (
    LAZY_BLOCK,
    LazyColumn,
    ScanPlan,
    flatten_conjuncts,
    interval_analyzer,
    plan_scan,
    register_decode,
)
from .policy import (
    MIN_RATIO,
    VALID_MODES,
    CompressionPolicy,
    resolve_compression,
)
from .stats import CompressionStats

__all__ = [
    "CODEC_NAMES",
    "WIRE_HEADER_BYTES",
    "EncodedColumn",
    "decode",
    "encode",
    "compressed_scan_source",
    "decode_kernel_source",
    "encode_kernel_source",
    "register_decode_source",
    "LAZY_BLOCK",
    "LazyColumn",
    "ScanPlan",
    "flatten_conjuncts",
    "interval_analyzer",
    "plan_scan",
    "register_decode",
    "MIN_RATIO",
    "VALID_MODES",
    "CompressionPolicy",
    "resolve_compression",
    "CompressionStats",
]
