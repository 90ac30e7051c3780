"""Exact wire sizes without encoding, and the chooser built on them.

``codecs.wire_size`` must return what ``encode(...).wire_nbytes``
would, or ``None`` exactly where ``encode`` declines, for every codec
and dtype.  The auto chooser scores candidates with it instead of
encoding the sample, and the word-at-a-time bit packer replaced an
``unpackbits`` / ``packbits`` round trip; neither may change a single
wire byte.  The reference encoder below is the one the policy used
before both changes: it scores by encoding the sample and measuring,
and packs through ``unpackbits``.
"""

import struct

import numpy as np
import pytest

from repro.compression import CODEC_NAMES, MIN_RATIO, CompressionPolicy, encode
from repro.compression.codecs import CASCADE_BLOCK, WIRE_HEADER_BYTES, wire_size
from repro.compression.policy import _candidates, _dictionary_size, _sample
from repro.workloads import generate_ssb, generate_tpch

_LENGTHS = (0, 1, 7, 8, 9, 4095, 4096, 4097, 2 * CASCADE_BLOCK + 1)
_INTEGER_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
)


def _arrays(n: int, rng: np.random.Generator):
    """``(values, dictionary_size)`` pairs covering every dtype family
    and the shapes each codec exploits or declines on."""
    for dtype in _INTEGER_DTYPES:
        info = np.iinfo(dtype)
        yield rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True), None
        yield rng.integers(0, 100, size=n).astype(dtype), None
        yield np.sort(rng.integers(0, 5000, size=n)).astype(dtype), None
        yield np.repeat(rng.integers(0, 7, size=n // 300 + 1), 300)[:n].astype(dtype), None
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1], dtype=np.int64)
    yield rng.choice(extremes, size=n), None
    yield np.full(n, np.iinfo(np.int64).max, dtype=np.int64), None
    yield rng.integers(0, 2, size=n).astype(np.bool_), None
    yield np.zeros(n, dtype=np.bool_), None
    for dtype in (np.float32, np.float64):
        floats = rng.standard_normal(n).astype(dtype)
        floats[::3] = np.nan
        floats[1::5] = -0.0
        floats[2::5] = 0.0
        yield floats, None
    codes = rng.integers(0, 25, size=n).astype(np.int32)
    yield codes, 25
    yield codes, 300  # the dictionary, not the data, sets the width
    yield np.zeros(n, dtype=np.int32), 1
    yield np.sort(codes), 25
    yield codes - 3, 25  # negative codes: dictionary declines


@pytest.mark.parametrize("n", _LENGTHS)
def test_wire_size_is_the_encoded_size(n):
    rng = np.random.default_rng(n)
    cases = 0
    for values, dictionary_size in _arrays(n, rng):
        for codec in CODEC_NAMES:
            for size in (dictionary_size, None):
                encoded = encode(values, codec, size)
                sized = wire_size(values, codec, size)
                label = (values.dtype.str, n, codec, size)
                if encoded is None:
                    assert sized is None, label
                else:
                    assert sized == encoded.wire_nbytes == encoded.wire_array.nbytes, label
                cases += 1
    assert cases > 500


def test_wire_size_of_a_strided_view():
    values = np.arange(40_000, dtype=np.int64)[::3]
    for codec in CODEC_NAMES:
        encoded = encode(values, codec)
        assert wire_size(values, codec) == (None if encoded is None else encoded.wire_nbytes)


# ----------------------------------------------------------------------
# the reference: encode-and-measure scoring, unpackbits packing
# ----------------------------------------------------------------------
def _reference_bit_pack(values_u64: np.ndarray, width: int) -> np.ndarray:
    n = len(values_u64)
    if width == 0 or n == 0:
        return np.empty(0, dtype=np.uint8)
    size = next(size for size in (1, 2, 4, 8) if 8 * size >= width)
    dtype = np.dtype(f"u{size}")
    aligned = values_u64.astype(dtype)
    aligned <<= dtype.type(8 * size - width)
    stream = aligned.astype(dtype.newbyteorder(">"), copy=False).view(np.uint8)
    if 8 * size == width:
        return stream
    bits = np.unpackbits(stream).reshape(n, 8 * size)[:, :width]
    return np.packbits(bits.reshape(-1))


def _reference_frame(values: np.ndarray):
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= 1 << 63 or hi >= 1 << 63:
        return None
    return lo, (hi - lo).bit_length()


def _reference_packed(values: np.ndarray, lo: int, width: int) -> np.ndarray:
    deltas = (values.astype(np.int64, copy=False) - np.int64(lo)).view(np.uint64)
    return _reference_bit_pack(deltas, width)


def _reference_image(values: np.ndarray, codec: str, dictionary_size):
    """The wire image (header and parts) of the packing codecs, written
    out independently of the library's encoders; the library encodes
    the rest (RLE, boolpack, passthrough build no bit stream)."""
    if codec not in ("forpack", "delta", "dictionary", "cascade"):
        encoded = encode(values, codec, dictionary_size)
        return None if encoded is None else encoded.wire_array.tobytes()
    stored = values
    if values.dtype.kind in "bf":  # codecs see floats and bools as unsigned ints
        stored = values.view(f"u{values.itemsize}")
    n = len(stored)
    if stored.dtype.kind not in ("iu" if codec == "forpack" else "i"):
        return None
    wide = stored.astype(np.int64, copy=False)
    width, parts = 0, []
    if codec == "forpack" and n:
        frame = _reference_frame(stored)
        if frame is None:
            return None
        width = frame[1]
        parts.append(_reference_packed(stored, *frame))
    elif codec == "delta" and n > 1:
        diffs = np.diff(wide)
        frame = _reference_frame(diffs)
        if frame is None:
            return None
        width = frame[1]
        parts.append(_reference_packed(diffs, *frame))
    elif codec == "dictionary":
        if dictionary_size is None or (n and int(stored.min()) < 0):
            return None
        top = max([dictionary_size - 1] + ([int(stored.max())] if n else []))
        width = top.bit_length() if top > 0 else 1
        parts.append(_reference_packed(stored, 0, width))
    elif codec == "cascade":
        firsts, references, widths, chunks = [], [], [], []
        for start in range(0, n, CASCADE_BLOCK):
            block = wide[start : start + CASCADE_BLOCK]
            diffs = np.diff(block)
            frame = _reference_frame(diffs) if len(diffs) else (0, 0)
            if frame is None:
                return None
            firsts.append(int(block[0]))
            references.append(frame[0])
            widths.append(frame[1])
            chunks.append(_reference_packed(diffs, *frame))
        width = max(widths, default=0)
        parts = [
            np.array(firsts, dtype=np.int64),
            np.array(references, dtype=np.int64),
            np.array(widths, dtype=np.uint8),
            *chunks,
        ]
    header = struct.pack("<BBHqI", CODEC_NAMES.index(codec), 0, width, n, 0)
    return header + b"".join(part.tobytes() for part in parts)


def _reference_choose(values: np.ndarray, dictionary_size) -> str:
    sample = _sample(values)
    best, best_wire = "passthrough", sample.nbytes
    for codec in _candidates(values.dtype, dictionary_size is not None):
        image = _reference_image(sample, codec, dictionary_size)
        if image is not None and len(image) < best_wire:
            best, best_wire = codec, len(image)
    return best


def _reference_encoding(values: np.ndarray, dictionary_size) -> tuple[str, bytes]:
    codec = _reference_choose(values, dictionary_size)
    if codec != "passthrough":
        image = _reference_image(values, codec, dictionary_size)
        if image is not None and values.nbytes >= MIN_RATIO * len(image):
            return codec, image
    return "passthrough", np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("n", _LENGTHS)
def test_the_reference_image_is_the_encoded_image(n):
    """The reference agrees with the library codec by codec, so the
    comparisons below test the chooser and the packer, not a typo."""
    rng = np.random.default_rng(n + 1)
    for values, dictionary_size in _arrays(n, rng):
        for codec in CODEC_NAMES:
            encoded = encode(values, codec, dictionary_size)
            image = _reference_image(values, codec, dictionary_size)
            if encoded is None:
                assert image is None, (values.dtype.str, n, codec)
            else:
                assert image == encoded.wire_array.tobytes(), (values.dtype.str, n, codec)
                assert len(image) >= WIRE_HEADER_BYTES or codec == "passthrough"


_DATABASES = {
    "ssb@0.004": lambda: generate_ssb(0.004, seed=7),
    "ssb@0.02": lambda: generate_ssb(0.02, seed=12),
    "tpch@0.004": lambda: generate_tpch(0.004, seed=11),
    "tpch@0.01": lambda: generate_tpch(0.01, seed=12),
}


@pytest.mark.parametrize("name", sorted(_DATABASES))
def test_every_base_column_encodes_as_the_reference(name):
    """For every base column: the sized chooser picks what encoding
    and measuring the sample picks, and the column's wire image (and a
    result array's, which has no dictionary) is the reference's byte
    for byte."""
    database = _DATABASES[name]()
    policy = CompressionPolicy("auto")
    codecs_seen = set()
    for table_name in database.table_names:
        table = database.table(table_name)
        for column_name in table.column_names:
            column = table.column(column_name)
            label = (name, table_name, column_name)
            dictionary_size = _dictionary_size(column)
            assert policy.choose(column) == _reference_choose(column.values, dictionary_size), label
            codec, image = _reference_encoding(column.values, dictionary_size)
            encoded = policy.encoded(column)
            assert (encoded.codec, encoded.wire_array.tobytes()) == (codec, image), label
            codec, image = _reference_encoding(column.values, None)
            array = policy.encode_array(column.values)
            assert (array.codec, array.wire_array.tobytes()) == (codec, image), label
            codecs_seen.add(encoded.codec)
    # The comparison covers more than raw bytes.
    assert {"forpack", "dictionary"} <= codecs_seen, codecs_seen
