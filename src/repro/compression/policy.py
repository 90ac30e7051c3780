"""Per-column codec selection: the compression policy.

A :class:`CompressionPolicy` decides *how each column crosses the
interconnect*.  In ``"auto"`` mode it samples a few contiguous windows
of the column, scores every applicable codec on the sample, fully
encodes with the winner, and falls back to ``passthrough`` unless the
whole-column ratio clears :data:`MIN_RATIO` — so incompressible data
ships raw and costs nothing extra.  A pinned mode (``"rle"``,
``"forpack"``, ``"delta"``, ``"dictionary"``, ``"passthrough"``)
forces one codec where applicable, with the same passthrough fallback.

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
from .codecs import CODEC_NAMES, EncodedColumn, encode

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


def _candidates(column) -> tuple:
    """Codecs worth scoring for a column's physical representation."""
    if getattr(column, "dictionary", None) is not None:
        return ("dictionary", "rle")
    dtype = column.values.dtype
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
        values = column.values
        codec = self.choose(column) if self.mode == "auto" else self.mode
        if codec != "passthrough":
            result = encode(values, codec, _dictionary_size(column))
            if result is not None and result.raw_nbytes >= MIN_RATIO * result.wire_nbytes:
                return result
        return encode(values, "passthrough")

    def choose(self, column) -> str:
        """Score candidate codecs on sample windows; best sampled wire
        size wins, ``passthrough`` if nothing beats raw bytes."""
        candidates = _candidates(column)
        if not candidates:
            return "passthrough"
        sample = _sample(column.values)
        dictionary_size = _dictionary_size(column)
        best, best_wire = "passthrough", sample.nbytes
        for codec in candidates:
            result = encode(sample, codec, dictionary_size)
            if result is not None and result.wire_nbytes < best_wire:
                best, best_wire = codec, result.wire_nbytes
        return best

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

        class _Bare:
            pass

        bare = _Bare()
        bare.values = values
        bare.dictionary = None
        sample = _sample(values)
        best, best_wire = "passthrough", sample.nbytes
        for codec in _candidates(bare):
            scored = encode(sample, codec)
            if scored is not None and scored.wire_nbytes < best_wire:
                best, best_wire = codec, scored.wire_nbytes
        if best != "passthrough":
            result = encode(values, best)
            if result is not None and result.raw_nbytes >= MIN_RATIO * result.wire_nbytes:
                return result
        return encode(values, "passthrough")
