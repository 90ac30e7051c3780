"""Per-column codec selection: the compression policy.

A :class:`CompressionPolicy` decides *how each column crosses the
interconnect*.  In ``"auto"`` mode it samples a few contiguous windows
of the column and scores every applicable codec by the exact wire size
it would give the sample (:func:`~repro.compression.codecs.wire_size`:
read off the value range, run count or bit widths, nothing is
encoded).  The winner's exact whole-column size must clear
:data:`MIN_RATIO` before the column is encoded; otherwise it ships as
``passthrough`` — so incompressible data ships raw and costs only the
sizing.  A pinned mode (``"rle"``, ``"forpack"``, ``"delta"``,
``"dictionary"``, ``"passthrough"``) forces one codec where
applicable, with the same passthrough fallback.  Result columns
(``encode_array``, the D2H direction) go through the same chooser.

Sampling uses *contiguous* windows, never strided ones: striding
destroys exactly the structure (runs, sortedness) that RLE and delta
exploit, and would bias the chooser toward passthrough.

Encodings are cached per ``(column, mode)`` on the column object —
columns are immutable (their arrays are frozen), so the cache is safe
and is shared between the optimizer's cost estimates and execution.

The policy attaches to a device as ``device.compression``; every
transfer point (runtime load, buffer pool, batch streaming, scale-out
scatter) reads it from there.  ``resolve_compression`` is the single
user-input validator: ``"off"``/``None`` disable compression, any
other string must be a valid mode or a ``ConfigurationError`` listing
the valid choices is raised.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .codecs import CODEC_NAMES, EncodedColumn, encode, wire_size

#: The auto chooser scores candidates on up to this many contiguous
#: windows of this many rows (whole column when small enough).
SAMPLE_WINDOW = 1024
SAMPLE_WINDOWS = 4

#: Whole-column compression ratio a codec must clear; below it the
#: column ships raw (``passthrough``).
MIN_RATIO = 1.1

#: Everything ``compression=`` accepts.  ``"lazy"`` is an alias of
#: ``"auto"``: since kernels decode wire images in registers (see
#: ``repro.compression.lazy`` / docs/compression.md) there is one path.
VALID_MODES = ("auto", "lazy", "off") + CODEC_NAMES


def resolve_compression(value) -> "CompressionPolicy | None":
    """Validate a user-facing ``compression=`` value.

    Returns ``None`` (disabled) for ``None``/``"off"``, a policy for
    ``"auto"``/codec names/policy instances, and raises
    :class:`~repro.errors.ConfigurationError` listing the valid
    choices otherwise.
    """
    if value is None:
        return None
    if isinstance(value, CompressionPolicy):
        return value
    if isinstance(value, str):
        if value == "off":
            return None
        if value in VALID_MODES:
            return CompressionPolicy(value)
    raise ConfigurationError(
        f"unknown compression mode {value!r}; "
        f"valid choices: {', '.join(VALID_MODES)}"
    )


def _dictionary_size(column) -> "int | None":
    dictionary = getattr(column, "dictionary", None)
    return len(dictionary) if dictionary is not None else None


def _candidates(dtype: np.dtype, dictionary: bool) -> tuple:
    """Codecs worth scoring for a column's physical representation."""
    if dictionary:
        return ("dictionary", "rle")
    if dtype == np.bool_:
        return ("boolpack", "forpack", "rle")
    if dtype.kind == "i":
        return ("forpack", "rle", "delta", "cascade")
    if dtype.kind == "u":
        return ("forpack", "rle")
    if dtype.kind == "f":
        # Frame-of-reference over float bit patterns is meaningless and
        # delta needs integer ordering; only run detection applies.
        return ("rle",)
    return ()


def _sample(values: np.ndarray) -> np.ndarray:
    n = len(values)
    if n <= SAMPLE_WINDOW * SAMPLE_WINDOWS * 2:
        return values
    step = (n - SAMPLE_WINDOW) // (SAMPLE_WINDOWS - 1)
    windows = [
        values[index * step : index * step + SAMPLE_WINDOW]
        for index in range(SAMPLE_WINDOWS)
    ]
    return np.concatenate(windows)


def _choose(values: np.ndarray, dictionary_size: "int | None") -> str:
    """The candidate with the smallest exact wire size on the sample
    windows, ``passthrough`` if none beats raw bytes."""
    candidates = _candidates(values.dtype, dictionary_size is not None)
    if not candidates:
        return "passthrough"
    sample = _sample(values)
    best, best_wire = "passthrough", sample.nbytes
    for codec in candidates:
        wire = wire_size(sample, codec, dictionary_size)
        if wire is not None and wire < best_wire:
            best, best_wire = codec, wire
    return best


def _encode_if_it_pays(
    values: np.ndarray, codec: str, dictionary_size: "int | None"
) -> EncodedColumn:
    """Encode with ``codec`` if its exact size clears :data:`MIN_RATIO`
    (checked before anything is packed), else ship ``passthrough``."""
    if codec != "passthrough":
        wire = wire_size(values, codec, dictionary_size)
        if wire is not None and values.nbytes >= MIN_RATIO * wire:
            return encode(values, codec, dictionary_size)
    return encode(values, "passthrough")


class CompressionPolicy:
    """Chooses, caches, and applies per-column wire encodings."""

    def __init__(self, mode: str = "auto"):
        if mode == "off" or mode not in VALID_MODES:
            raise ConfigurationError(
                f"unknown compression mode {mode!r}; "
                f"valid choices: {', '.join(name for name in VALID_MODES if name != 'off')}"
            )
        self.mode = "auto" if mode == "lazy" else mode

    def __repr__(self) -> str:
        return f"CompressionPolicy({self.mode!r})"

    # ------------------------------------------------------------------
    # whole-column encoding (cached)
    # ------------------------------------------------------------------
    def encoded(self, column) -> EncodedColumn:
        """The column's wire encoding under this policy (cached)."""
        cache = column.__dict__.setdefault("_compression_cache", {})
        hit = cache.get(self.mode)
        if hit is None:
            hit = self._encode_full(column)
            cache[self.mode] = hit
        return hit

    def wire_nbytes(self, column) -> int:
        return self.encoded(column).wire_nbytes

    def _encode_full(self, column) -> EncodedColumn:
        codec = self.choose(column) if self.mode == "auto" else self.mode
        return _encode_if_it_pays(column.values, codec, _dictionary_size(column))

    def choose(self, column) -> str:
        """Score candidate codecs on sample windows; best sampled wire
        size wins, ``passthrough`` if nothing beats raw bytes."""
        return _choose(column.values, _dictionary_size(column))

    # ------------------------------------------------------------------
    # block slices (out-of-core streaming; uncached)
    # ------------------------------------------------------------------
    def encode_slice(self, column, start: int, stop: int) -> EncodedColumn:
        """Encode a contiguous block slice with the column's chosen
        codec (exact per-block wire bytes for the streaming path)."""
        codec = self.encoded(column).codec
        values = column.values[start:stop]
        if codec != "passthrough":
            result = encode(values, codec, _dictionary_size(column))
            if result is not None and result.wire_nbytes < values.nbytes:
                return result
        return encode(values, "passthrough")

    # ------------------------------------------------------------------
    # bare arrays (D2H partials: gather / per-block results; uncached)
    # ------------------------------------------------------------------
    def encode_array(self, values: np.ndarray) -> EncodedColumn:
        """Encode a result/partial array for the D2H direction.

        Scores the dtype's candidate codecs on a sample (partials are
        fresh arrays, so nothing is cached) and falls back to
        passthrough unless a codec clears :data:`MIN_RATIO`."""
        values = np.ascontiguousarray(values)
        return _encode_if_it_pays(values, _choose(values, None), None)
