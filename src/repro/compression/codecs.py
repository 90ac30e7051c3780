"""Lightweight columnar codecs for compression-aware transfer.

HorseQC's thesis is that coprocessor query processing is bound by data
movement; the single largest movement is the host->device copy of base
columns over PCIe.  This module provides the byte-exact codecs the
transfer layer uses to shrink that copy:

* ``passthrough`` — raw bytes, zero overhead (``wire == raw``, no
  header, no decode kernel).  The fallback for incompressible data.
* ``rle``         — run-length encoding: ``(run value, run length)``
  pairs with lengths stored in the smallest unsigned dtype that fits
  the longest run.
* ``forpack``     — frame-of-reference bit packing for integers: store
  the column minimum once and pack ``value - min`` into
  ``ceil(log2(span + 1))`` bits per value.
* ``delta``       — first value plus frame-of-reference-packed
  consecutive differences; tiny for sorted or near-sorted keys.
* ``dictionary``  — bit-packed dictionary codes for STRING columns.
  The storage layer already dictionary-encodes strings (the column
  holds int32 codes); this codec packs those codes into
  ``ceil(log2(cardinality))`` bits.  The dictionary itself is host
  catalog metadata and never crosses the link.
* ``boolpack``    — one bit per value for boolean / null-mask columns
  (eight-fold reduction before headers; the classic bitmap layout).
* ``cascade``     — delta→forpack cascade: per-block (4096 rows)
  frame-of-reference deltas with a *per-block* bit width, so locally
  sorted regions pack tighter than one global delta width allows.

Every codec round-trips **byte-identically**.  Floats are encoded
through their unsigned-integer bit views so ``-0.0 == 0.0`` cannot
merge RLE runs and ``NaN != NaN`` cannot split them; the decoded array
reproduces the exact input bit pattern, NaN payloads included.

Wire format: a non-passthrough encoded column is a fixed 16-byte
header (codec id, bit width, row count) followed by the concatenated
part buffers.  :attr:`EncodedColumn.wire_nbytes` is the exact byte
count charged to the :class:`~repro.hardware.interconnect.Interconnect`
and :attr:`EncodedColumn.wire_array` is the materialized transport
buffer (so pooled resident columns genuinely occupy their compressed
footprint on the device).  :func:`wire_size` returns the same
``wire_nbytes`` without building any part (the auto chooser scores
candidates with it).

A packed stream holds each value's ``width`` low bits, most
significant first.  Eight values fill exactly ``width`` bytes, so
:func:`_bit_pack` builds the stream a group of eight at a time in
uint64 words rather than bit by bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError

#: Fixed per-column wire header: codec id (1 byte), reserved (1),
#: bit width (2), row count (8), reserved (4).
WIRE_HEADER_BYTES = 16

#: Every codec this module implements, in wire-id order.  New codecs
#: append (wire ids are positional and must stay stable).
CODEC_NAMES = (
    "passthrough", "rle", "forpack", "delta", "dictionary",
    "boolpack", "cascade",
)

_CODEC_IDS = {name: index for index, name in enumerate(CODEC_NAMES)}

#: Rows per cascade block: large enough to amortize the 17-byte
#: per-block metadata, small enough to adapt the bit width locally.
CASCADE_BLOCK = 4096

#: Per-block cascade metadata: first value (int64), reference (int64)
#: and bit width (uint8).
CASCADE_BLOCK_META = 17


@dataclass
class EncodedColumn:
    """One column (or contiguous column slice) in wire representation."""

    codec: str
    #: NumPy dtype of the decoded values (the column's physical dtype).
    dtype: np.dtype
    #: Number of rows encoded.
    length: int
    #: Decoded size in bytes — what materializes in device memory.
    raw_nbytes: int
    #: Encoded part buffers (codec-specific).
    parts: dict = field(repr=False)
    #: Codec-specific scalars (reference value, bit width, first value).
    meta: dict = field(default_factory=dict)

    @cached_property
    def wire_nbytes(self) -> int:
        """Exact bytes that cross the interconnect for this column
        (the parts never change once encoded)."""
        if self.codec == "passthrough":
            return self.raw_nbytes
        return WIRE_HEADER_BYTES + sum(part.nbytes for part in self.parts.values())

    @property
    def ratio(self) -> float:
        wire = self.wire_nbytes
        return self.raw_nbytes / wire if wire else 1.0

    @property
    def wire_array(self) -> np.ndarray:
        """The materialized transport buffer (header + encoded parts)."""
        cached = self.__dict__.get("_wire_array")
        if cached is None:
            cached = self._build_wire()
            self.__dict__["_wire_array"] = cached
        return cached

    def _build_wire(self) -> np.ndarray:
        if self.codec == "passthrough":
            values = self.parts["values"]
            return np.ascontiguousarray(values).view(np.uint8).reshape(-1)
        header = struct.pack(
            "<BBHqI",
            _CODEC_IDS[self.codec],
            0,
            int(self.meta.get("width", 0)),
            self.length,
            0,
        )
        buffers = [np.frombuffer(header, dtype=np.uint8)]
        for part in self.parts.values():
            buffers.append(np.ascontiguousarray(part).view(np.uint8).reshape(-1))
        return np.concatenate(buffers)

    def decode(self) -> np.ndarray:
        return decode(self)


# ----------------------------------------------------------------------
# storage views: bit-exact integer representations of any dtype
# ----------------------------------------------------------------------
def _storage_view(values: np.ndarray) -> np.ndarray:
    """Bit-exact integer view the codecs operate on.

    Floats become same-width unsigned ints (so signed zeros and NaN
    payloads survive run detection and the round trip); bools become
    uint8; integers pass through unchanged.
    """
    if not values.flags.c_contiguous:
        values = np.ascontiguousarray(values)
    if values.dtype == np.bool_:
        return values.view(np.uint8)
    if values.dtype.kind == "f":
        return values.view(np.dtype(f"u{values.dtype.itemsize}"))
    return values


def _from_storage(stored: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Reinterpret decoded storage values back to the original dtype."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return stored.view(np.bool_)
    if dtype.kind == "f":
        return stored.view(dtype)
    return stored.astype(dtype, copy=False)


def _from_u64(u64: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Narrow uint64 working values (two's complement) to ``dtype``."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return u64.astype(np.uint8).view(np.bool_)
    if dtype.kind == "f":
        unsigned = u64.astype(np.dtype(f"u{dtype.itemsize}"), copy=False)
        return unsigned.view(dtype)
    if dtype.kind == "i":
        # Reinterpret then narrow: the true value fits the target range,
        # so the modular narrowing is exact.
        return u64.view(np.int64).astype(dtype, copy=False)
    return u64.astype(dtype, copy=False)


def _smallest_uint(maximum: int) -> np.dtype:
    for dtype in (np.uint8, np.uint16, np.uint32):
        if maximum < np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


# ----------------------------------------------------------------------
# bit packing (shared by forpack / delta / dictionary / cascade)
# ----------------------------------------------------------------------
def _bit_pack(values_u64: np.ndarray, width: int) -> np.ndarray:
    """Pack the ``width`` low bits of each value, most significant bit
    first, into a dense uint8 stream."""
    n = len(values_u64)
    if width == 0 or n == 0:
        return np.empty(0, dtype=np.uint8)
    groups = -(-n // 8)
    if width < 8:
        # One byte per value, so a group's eight values read as one
        # big-endian word.  Three folds pull the fields together: the
        # upper half of every 16-, 32-, then 64-bit slot shifts down
        # onto the lower, leaving the group's ``width`` bytes at the
        # bottom of its word.
        lanes = np.zeros(8 * groups, dtype=np.uint8)
        np.bitwise_and(values_u64, (1 << width) - 1, out=lanes[:n], casting="unsafe")
        words = lanes.view(">u8").astype(np.uint64)
        for half in (8, 16, 32):
            low = np.uint64(sum(((1 << half) - 1) << at for at in range(0, 64, 2 * half)))
            high = words & ~low
            high >>= np.uint64(half - half // 8 * width)
            words &= low
            words |= high
        return _group_bytes(words.astype(">u8"), 8 - width, width)[: _packed_nbytes(n, width)]
    if width in (8, 16, 32, 64):
        # Byte-aligned: the big-endian bytes of each value are the stream.
        dtype = np.dtype(f"u{width // 8}")
        return values_u64.astype(dtype).astype(dtype.newbyteorder(">"), copy=False).view(np.uint8)
    # Eight values fill exactly ``width`` bytes.  Build each group of
    # eight as one bit string, left-aligned in ceil(width / 8) uint64
    # words (value j starts ``j * width`` bits from the top), with eight
    # shift / OR passes over the group's lanes; the first ``width``
    # bytes of the words' big-endian image are the group's stream.
    if n % 8:
        values_u64 = np.concatenate((values_u64, np.zeros(8 * groups - n, np.uint64)))
    lanes = np.empty((8, groups), dtype=np.uint64)
    np.bitwise_and(values_u64.reshape(groups, 8).T, np.uint64((1 << width) - 1), out=lanes)
    nwords = -(-width // 8)
    words = np.zeros((nwords, groups), dtype=np.uint64)
    shifted = np.empty(groups, dtype=np.uint64)
    for lane in range(8):
        word, offset = divmod(lane * width, 64)
        spill = offset + width - 64  # bits that run into the next word
        if spill <= 0:
            np.left_shift(lanes[lane], np.uint64(-spill), out=shifted)
            words[word] |= shifted
        else:
            np.right_shift(lanes[lane], np.uint64(spill), out=shifted)
            words[word] |= shifted
            np.left_shift(lanes[lane], np.uint64(64 - spill), out=shifted)
            words[word + 1] |= shifted
    image = np.ascontiguousarray(words.T, dtype=">u8")
    return _group_bytes(image, 0, width)[: _packed_nbytes(n, width)]


def _group_bytes(image: np.ndarray, start: int, count: int) -> np.ndarray:
    """Bytes ``start .. start + count`` of each row of a C-contiguous
    2-D (or, one word a row, 1-D) ``image``, concatenated.  Copying
    ``count``-byte void items is one memcpy a row, not a byte loop."""
    rows = np.ndarray(
        (len(image),), dtype=np.dtype((np.void, count)), buffer=image,
        offset=start, strides=(image.nbytes // len(image),),
    )
    return rows.copy().view(np.uint8)


def _packed_nbytes(n: int, width: int) -> int:
    """Bytes of ``n`` values packed at ``width`` bits each."""
    return (n * width + 7) // 8


def _bit_unpack(packed: np.ndarray, n: int, width: int) -> np.ndarray:
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(packed, count=n * width).reshape(n, width)
    out = np.zeros(n, dtype=np.uint64)
    for bit in range(width):
        shift = np.uint64(width - 1 - bit)
        out |= bits[:, bit].astype(np.uint64) << shift
    return out


# ----------------------------------------------------------------------
# frames: what a packing codec needs to know before it packs
# ----------------------------------------------------------------------
def _frame(values: np.ndarray) -> tuple[int, int] | None:
    """Frame of reference ``(lo, width)`` that packs ``values`` (``(0,
    0)`` for none); ``None`` where the span or the maximum does not fit
    the 64-bit packing arithmetic."""
    if len(values) == 0:
        return 0, 0
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= 1 << 63 or hi >= 1 << 63:
        return None
    return lo, (hi - lo).bit_length()


def _dictionary_width(stored: np.ndarray, dictionary_size: int | None) -> int | None:
    if dictionary_size is None or stored.dtype.kind != "i":
        return None
    top = dictionary_size - 1
    if len(stored):
        if int(stored.min()) < 0:
            return None  # dictionary codes are non-negative by construction
        top = max(top, int(stored.max()))
    if top >= 1 << 63:
        return None
    return top.bit_length() if top > 0 else 1


def _cascade_blocks(wide: np.ndarray):
    """Each cascade block as ``(first value, differences, frame)``.

    Differences are taken modulo 2**64; the cumulative sum on decode
    wraps back, so extreme int64 inputs still round-trip exactly."""
    for start in range(0, len(wide), CASCADE_BLOCK):
        block = wide[start : start + CASCADE_BLOCK]
        diffs = np.diff(block)
        yield int(block[0]), diffs, _frame(diffs)


def _rle_runs(stored: np.ndarray) -> tuple[int, np.dtype]:
    """Run count and run-length dtype of the RLE encoding."""
    n = len(stored)
    if n == 0:
        return 0, np.dtype(np.uint8)
    ends = np.flatnonzero(stored[1:] != stored[:-1])
    longest = n - len(ends)  # no run is longer than this
    if longest > np.iinfo(np.uint8).max:
        longest = int(np.diff(ends, prepend=-1, append=n - 1).max())
    return len(ends) + 1, _smallest_uint(longest)


def _pack_deltas(values: np.ndarray, lo: int, width: int) -> np.ndarray:
    """Bit-pack ``values - lo`` at ``width`` bits."""
    wide = values.astype(np.int64, copy=False)
    if lo:
        # int64 subtraction may wrap, but the true delta is < 2**63, so
        # the uint64 reinterpretation recovers it exactly.
        wide = wide - np.int64(lo)
    return _bit_pack(wide.view(np.uint64), width)


# ----------------------------------------------------------------------
# encoders
# ----------------------------------------------------------------------
def _encode_passthrough(values: np.ndarray) -> EncodedColumn:
    stored = _storage_view(values)
    return EncodedColumn(
        "passthrough", values.dtype, len(values), values.nbytes, {"values": stored}
    )


def _encode_rle(values: np.ndarray, stored: np.ndarray) -> EncodedColumn:
    n = len(stored)
    if n == 0:
        run_values = stored[:0]
        run_lengths = np.empty(0, dtype=np.uint8)
    else:
        boundaries = np.flatnonzero(stored[1:] != stored[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        lengths = ends - starts
        run_values = stored[starts]
        run_lengths = lengths.astype(_smallest_uint(int(lengths.max())))
    return EncodedColumn(
        "rle",
        values.dtype,
        n,
        values.nbytes,
        {"values": run_values, "lengths": run_lengths},
    )


def _decode_rle(encoded: EncodedColumn) -> np.ndarray:
    stored = np.repeat(
        encoded.parts["values"], encoded.parts["lengths"].astype(np.int64)
    )
    return _from_storage(stored, encoded.dtype)


def _encode_forpack(values: np.ndarray, stored: np.ndarray) -> EncodedColumn | None:
    frame = _frame(stored) if stored.dtype.kind in "iu" else None
    if frame is None:
        return None
    lo, width = frame
    return EncodedColumn(
        "forpack",
        values.dtype,
        len(stored),
        values.nbytes,
        {"packed": _pack_deltas(stored, lo, width)},
        {"reference": lo, "width": width},
    )


def _decode_forpack(encoded: EncodedColumn) -> np.ndarray:
    n = encoded.length
    deltas = _bit_unpack(encoded.parts["packed"], n, encoded.meta["width"])
    base = np.uint64(encoded.meta["reference"] % (1 << 64))
    return _from_u64(deltas + base, encoded.dtype)


def _encode_delta(values: np.ndarray, stored: np.ndarray) -> EncodedColumn | None:
    if stored.dtype.kind != "i":
        return None
    wide = stored.astype(np.int64, copy=False)
    # Differences are taken modulo 2**64; the cumulative sum on decode
    # wraps back, so extreme int64 inputs still round-trip exactly.
    diffs = np.diff(wide)
    frame = _frame(diffs)
    if frame is None:
        return None
    lo, width = frame
    return EncodedColumn(
        "delta",
        values.dtype,
        len(wide),
        values.nbytes,
        {"packed": _pack_deltas(diffs, lo, width)},
        {"first": int(wide[0]) if len(wide) else 0, "reference": lo, "width": width},
    )


def _decode_delta(encoded: EncodedColumn) -> np.ndarray:
    n = encoded.length
    out = np.zeros(n, dtype=np.int64)
    if n:
        out[0] = encoded.meta["first"]
        if n > 1:
            deltas = _bit_unpack(encoded.parts["packed"], n - 1, encoded.meta["width"])
            base = np.uint64(encoded.meta["reference"] % (1 << 64))
            diffs = (deltas + base).view(np.int64)
            np.cumsum(diffs, out=diffs)
            out[1:] = np.int64(encoded.meta["first"]) + diffs
    return _from_u64(out.view(np.uint64), encoded.dtype)


def _encode_dictionary(
    values: np.ndarray, stored: np.ndarray, dictionary_size: int | None
) -> EncodedColumn | None:
    width = _dictionary_width(stored, dictionary_size)
    if width is None:
        return None
    return EncodedColumn(
        "dictionary",
        values.dtype,
        len(stored),
        values.nbytes,
        {"packed": _pack_deltas(stored, 0, width)},
        {"reference": 0, "width": width},
    )


def _decode_dictionary(encoded: EncodedColumn) -> np.ndarray:
    codes = _bit_unpack(encoded.parts["packed"], encoded.length, encoded.meta["width"])
    return _from_u64(codes, encoded.dtype)


def _encode_boolpack(values: np.ndarray, stored: np.ndarray) -> EncodedColumn | None:
    if values.dtype != np.bool_:
        return None
    return EncodedColumn(
        "boolpack",
        values.dtype,
        len(values),
        values.nbytes,
        {"packed": np.packbits(stored)},
        {"width": 1},
    )


def _decode_boolpack(encoded: EncodedColumn) -> np.ndarray:
    bits = np.unpackbits(encoded.parts["packed"], count=encoded.length)
    return _from_storage(bits, encoded.dtype)


def _encode_cascade(values: np.ndarray, stored: np.ndarray) -> EncodedColumn | None:
    if stored.dtype.kind != "i":
        return None
    firsts, references, widths, chunks = [], [], [], []
    for first, diffs, frame in _cascade_blocks(stored.astype(np.int64, copy=False)):
        if frame is None:
            return None
        lo, width = frame
        firsts.append(first)
        references.append(lo)
        widths.append(width)
        chunks.append(_pack_deltas(diffs, lo, width))
    return EncodedColumn(
        "cascade",
        values.dtype,
        len(stored),
        values.nbytes,
        {
            "firsts": np.array(firsts, dtype=np.int64),
            "references": np.array(references, dtype=np.int64),
            "widths": np.array(widths, dtype=np.uint8),
            "packed": np.concatenate(chunks) if chunks else np.empty(0, np.uint8),
        },
        {"width": max(widths, default=0), "block": CASCADE_BLOCK},
    )


def _decode_cascade(encoded: EncodedColumn) -> np.ndarray:
    n = encoded.length
    block = int(encoded.meta["block"])
    firsts = encoded.parts["firsts"]
    references = encoded.parts["references"]
    widths = encoded.parts["widths"]
    packed = encoded.parts["packed"]
    out = np.zeros(n, dtype=np.int64)
    offset = 0
    for index, start in enumerate(range(0, n, block)):
        length = min(block, n - start)
        width = int(widths[index])
        out[start] = firsts[index]
        if length > 1:
            nbytes = ((length - 1) * width + 7) // 8
            deltas = _bit_unpack(packed[offset : offset + nbytes], length - 1, width)
            offset += nbytes
            base = np.uint64(int(references[index]) % (1 << 64))
            diffs = (deltas + base).view(np.int64)
            np.cumsum(diffs, out=diffs)
            out[start + 1 : start + length] = np.int64(firsts[index]) + diffs
    return _from_u64(out.view(np.uint64), encoded.dtype)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def encode(
    values: np.ndarray, codec: str, dictionary_size: int | None = None
) -> EncodedColumn | None:
    """Encode ``values`` with ``codec``.

    Returns ``None`` when the codec does not apply to the data (wrong
    kind, or a value span the packing arithmetic cannot represent) —
    callers fall back to ``passthrough``.
    """
    if codec == "passthrough":
        return _encode_passthrough(values)
    stored = _storage_view(values)
    if codec == "rle":
        return _encode_rle(values, stored)
    if codec == "forpack":
        return _encode_forpack(values, stored)
    if codec == "delta":
        return _encode_delta(values, stored)
    if codec == "dictionary":
        return _encode_dictionary(values, stored, dictionary_size)
    if codec == "boolpack":
        return _encode_boolpack(values, stored)
    if codec == "cascade":
        return _encode_cascade(values, stored)
    raise _unknown_codec(codec)


def wire_size(
    values: np.ndarray, codec: str, dictionary_size: int | None = None
) -> int | None:
    """``encode(values, codec, dictionary_size).wire_nbytes``, or
    ``None`` where :func:`encode` returns ``None``, without building
    any part: a packing codec needs only its frame (value range, bit
    widths), RLE only its run count and longest run."""
    if codec == "passthrough":
        return values.nbytes
    stored = _storage_view(values)
    if codec == "rle":
        runs, length_dtype = _rle_runs(stored)
        return WIRE_HEADER_BYTES + runs * (stored.itemsize + length_dtype.itemsize)
    if codec == "cascade":
        if stored.dtype.kind != "i":
            return None
        nbytes = WIRE_HEADER_BYTES
        for _first, diffs, frame in _cascade_blocks(stored.astype(np.int64, copy=False)):
            if frame is None:
                return None
            nbytes += CASCADE_BLOCK_META + _packed_nbytes(len(diffs), frame[1])
        return nbytes
    # The rest pack one stream of ``count`` values.
    count = len(stored)
    if codec == "forpack":
        frame = _frame(stored) if stored.dtype.kind in "iu" else None
    elif codec == "delta":
        if stored.dtype.kind != "i":
            return None
        frame = _frame(np.diff(stored.astype(np.int64, copy=False)))
        count = max(count - 1, 0)
    elif codec == "dictionary":
        width = _dictionary_width(stored, dictionary_size)
        frame = None if width is None else (0, width)
    elif codec == "boolpack":
        frame = (0, 1) if values.dtype == np.bool_ else None
    else:
        raise _unknown_codec(codec)
    return None if frame is None else WIRE_HEADER_BYTES + _packed_nbytes(count, frame[1])


def _unknown_codec(codec: str) -> ConfigurationError:
    return ConfigurationError(
        f"unknown codec {codec!r}; valid choices: {', '.join(CODEC_NAMES)}"
    )


_DECODERS = {
    "rle": _decode_rle,
    "forpack": _decode_forpack,
    "delta": _decode_delta,
    "dictionary": _decode_dictionary,
    "boolpack": _decode_boolpack,
    "cascade": _decode_cascade,
}


def decode(encoded: EncodedColumn) -> np.ndarray:
    """Decode back to the exact original array (byte-identical)."""
    if encoded.codec == "passthrough":
        return _from_storage(encoded.parts["values"], encoded.dtype)
    try:
        decoder = _DECODERS[encoded.codec]
    except KeyError:
        raise _unknown_codec(encoded.codec) from None
    return decoder(encoded)
