"""Unit and property tests for the wire-compression codecs.

The contract every codec must honour is *byte identity*:
``decode(encode(x))`` returns an array whose dtype and raw bytes equal
the input's exactly — including negative zeros, NaNs, extreme
integers, and empty inputs.  Hypothesis drives the round-trip over
randomized arrays; directed cases pin the edges the paper-facing
benchmark relies on.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CODEC_NAMES,
    CompressionPolicy,
    CompressionStats,
    EncodedColumn,
    WIRE_HEADER_BYTES,
    decode,
    encode,
    resolve_compression,
)
import repro
from repro.errors import ConfigurationError
from repro.hardware.traffic import Profile, TransferRecord, sum_stats
from repro.storage import Column
from repro.workloads import SSB_QUERIES


def _assert_roundtrip(values: np.ndarray, codec: str, dictionary_size=None):
    """Encode/decode and demand byte identity (returns the encoding,
    or None when the codec does not apply to these values)."""
    encoded = encode(values, codec, dictionary_size=dictionary_size)
    if encoded is None:
        return None
    restored = decode(encoded)
    assert restored.dtype == values.dtype
    assert restored.shape == values.shape
    assert restored.tobytes() == values.tobytes()
    return encoded


# ----------------------------------------------------------------------
# property tests: every codec round-trips byte-identically
# ----------------------------------------------------------------------
_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)
_UINT_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
_FLOAT_DTYPES = (np.float32, np.float64)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(_INT_DTYPES + _UINT_DTYPES),
    codec=st.sampled_from(("rle", "forpack", "delta", "cascade", "passthrough")),
)
def test_integer_roundtrip_property(data, dtype, codec):
    info = np.iinfo(dtype)
    values = np.array(
        data.draw(
            st.lists(st.integers(info.min, info.max), min_size=0, max_size=200)
        ),
        dtype=dtype,
    )
    _assert_roundtrip(values, codec)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(_FLOAT_DTYPES),
    codec=st.sampled_from(("rle", "passthrough")),
)
def test_float_roundtrip_property(data, dtype, codec):
    values = np.array(
        data.draw(
            st.lists(
                st.floats(
                    allow_nan=True, allow_infinity=True, width=32
                ),
                min_size=0,
                max_size=200,
            )
        ),
        dtype=dtype,
    )
    _assert_roundtrip(values, codec)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    codec=st.sampled_from(("rle", "forpack", "boolpack", "passthrough")),
)
def test_bool_roundtrip_property(data, codec):
    values = np.array(
        data.draw(st.lists(st.booleans(), min_size=0, max_size=200)),
        dtype=np.bool_,
    )
    _assert_roundtrip(values, codec)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dictionary_roundtrip_property(data):
    size = data.draw(st.integers(1, 64))
    values = np.array(
        data.draw(
            st.lists(st.integers(0, size - 1), min_size=0, max_size=200)
        ),
        dtype=np.int32,
    )
    _assert_roundtrip(values, "dictionary", dictionary_size=size)


# ----------------------------------------------------------------------
# directed edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codec", CODEC_NAMES)
@pytest.mark.parametrize(
    "dtype", [np.int32, np.int64, np.uint64, np.float32, np.float64, np.bool_]
)
def test_empty_column_roundtrip(codec, dtype):
    _assert_roundtrip(np.array([], dtype=dtype), codec)


@pytest.mark.parametrize("codec", ("rle", "forpack", "delta", "passthrough"))
def test_single_value_run(codec):
    values = np.full(5000, 42, dtype=np.int64)
    encoded = _assert_roundtrip(values, codec)
    if codec != "passthrough":
        assert encoded is not None
        assert encoded.wire_nbytes < values.nbytes


def test_extreme_int64_roundtrip():
    info = np.iinfo(np.int64)
    values = np.array([info.min, -1, 0, 1, info.max], dtype=np.int64)
    for codec in ("rle", "forpack", "delta", "passthrough"):
        # Full-span int64 makes forpack/delta inapplicable (their
        # reference deltas would overflow 63 bits); they must decline
        # rather than corrupt.
        _assert_roundtrip(values, codec)


def test_extreme_int64_cascade_declines_or_roundtrips():
    # Full-span int64 breaks the FOR reference subtraction inside the
    # cascade; it must decline (return None) rather than corrupt.
    info = np.iinfo(np.int64)
    values = np.array([info.min, -1, 0, 1, info.max], dtype=np.int64)
    _assert_roundtrip(values, "cascade")


def test_cascade_beats_forpack_on_runny_narrow_data():
    # Long runs of narrow-range values: RLE shrinks the run count, the
    # FOR stage then packs the run values — the cascade should win
    # against single-stage forpack.
    values = np.repeat(np.arange(100, 164, dtype=np.int64), 128)
    cascade = _assert_roundtrip(values, "cascade")
    forpack = _assert_roundtrip(values, "forpack")
    assert cascade is not None and forpack is not None
    assert cascade.wire_nbytes < forpack.wire_nbytes


def test_boolpack_eight_to_one():
    rng = np.random.default_rng(11)
    values = rng.integers(0, 2, 8192).astype(np.bool_)
    encoded = _assert_roundtrip(values, "boolpack")
    assert encoded is not None
    # 1 bit per value plus header: ~8x against the 1-byte bool array.
    assert encoded.wire_nbytes <= values.nbytes // 8 + WIRE_HEADER_BYTES + 8


def test_boolpack_declines_non_bool():
    assert encode(np.arange(16, dtype=np.int32), "boolpack") is None
    assert encode(np.ones(16, dtype=np.float64), "boolpack") is None


def test_boolpack_ragged_tail():
    # Lengths not divisible by 8 exercise the tail-byte masking.
    for n in (1, 7, 9, 63, 65):
        values = (np.arange(n) % 3 == 0).astype(np.bool_)
        _assert_roundtrip(values, "boolpack")


def test_negative_values_not_dictionary_packable():
    values = np.array([-1, 0, 1], dtype=np.int32)
    assert encode(values, "dictionary", dictionary_size=4) is None


def test_negative_zero_and_nan_float_runs():
    values = np.array([-0.0] * 100 + [np.nan] * 100, dtype=np.float64)
    encoded = _assert_roundtrip(values, "rle")
    assert encoded is not None and encoded.wire_nbytes < values.nbytes


def test_unknown_codec_raises():
    with pytest.raises(ConfigurationError) as excinfo:
        encode(np.arange(4, dtype=np.int32), "zstd")
    assert "zstd" in str(excinfo.value)


def test_wire_header_accounting():
    values = np.arange(1000, dtype=np.int32)
    encoded = encode(values, "delta")
    assert encoded is not None
    wire = encoded.wire_array
    assert wire.dtype == np.uint8
    assert wire.nbytes == encoded.wire_nbytes
    assert encoded.wire_nbytes >= WIRE_HEADER_BYTES
    assert isinstance(encoded, EncodedColumn)


# ----------------------------------------------------------------------
# bit packing: the wire image is pinned, not only the round trip
# ----------------------------------------------------------------------
def _reference_bit_pack(values_u64: np.ndarray, width: int) -> np.ndarray:
    """The packer as it was before it went through ``unpackbits``: one
    pass per bit, most significant first.  A pack / unpack pair that
    changed bit order together would still round-trip; the stream
    itself has to equal this one."""
    n = len(values_u64)
    if width == 0 or n == 0:
        return np.empty(0, dtype=np.uint8)
    bits = np.empty((n, width), dtype=np.uint8)
    for bit in range(width):
        shift = np.uint64(width - 1 - bit)
        bits[:, bit] = ((values_u64 >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1))


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 15, 4096, 180_001))
def test_bit_pack_stream_equals_the_bit_loop(n):
    from repro.compression.codecs import _bit_pack, _bit_unpack

    rng = np.random.default_rng(n)
    # Full-range values: bits above ``width`` must be ignored, not packed.
    values = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    for width in range(65):
        packed = _bit_pack(values, width)
        reference = _reference_bit_pack(values, width)
        assert packed.dtype == np.uint8
        assert packed.tobytes() == reference.tobytes(), (n, width)
        low = values & np.uint64((1 << width) - 1)
        assert np.array_equal(_bit_unpack(packed, n, width), low), (n, width)


# ----------------------------------------------------------------------
# policy / chooser
# ----------------------------------------------------------------------
class TestPolicy:
    def test_passthrough_chosen_for_random_data(self):
        rng = np.random.default_rng(3)
        column = Column.int64(
            rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 4096)
        )
        policy = CompressionPolicy("auto")
        encoded = policy.encoded(column)
        assert encoded.codec == "passthrough"
        # Passthrough wire == raw: incompressible data costs nothing.
        assert policy.wire_nbytes(column) == column.nbytes

    def test_sorted_data_compresses(self):
        column = Column.int64(np.arange(8192))
        policy = CompressionPolicy("auto")
        encoded = policy.encoded(column)
        assert encoded.codec != "passthrough"
        assert encoded.wire_nbytes * 2 < column.nbytes

    def test_pinned_codec_falls_back_when_inapplicable(self):
        rng = np.random.default_rng(4)
        column = Column.float64(rng.standard_normal(1024))
        policy = CompressionPolicy("delta")  # delta is int-only
        assert policy.encoded(column).codec == "passthrough"

    def test_encodings_are_cached_per_column(self):
        column = Column.int32(np.arange(4096))
        policy = CompressionPolicy("auto")
        assert policy.encoded(column) is policy.encoded(column)

    def test_encode_slice_matches_column_codec(self):
        column = Column.int32(np.arange(8192))
        policy = CompressionPolicy("auto")
        full = policy.encoded(column)
        block = policy.encode_slice(column, 1024, 2048)
        assert block.codec in (full.codec, "passthrough")
        restored = decode(block)
        assert restored.tobytes() == column.values[1024:2048].tobytes()


class TestResolveCompression:
    def test_off_and_none(self):
        assert resolve_compression(None) is None
        assert resolve_compression("off") is None

    def test_auto_and_codecs(self):
        assert resolve_compression("auto").mode == "auto"
        for codec in CODEC_NAMES:
            assert resolve_compression(codec).mode == codec

    def test_policy_passes_through(self):
        policy = CompressionPolicy("auto")
        assert resolve_compression(policy) is policy

    def test_unknown_mode_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_compression("zstd")
        message = str(excinfo.value)
        assert "zstd" in message
        assert "auto" in message and "off" in message and "rle" in message


class TestStats:
    def test_a_fleet_sums_its_device_stats(self, ssb_db, monkeypatch):
        """A fleet's stats: the link bytes are its merged log's sums,
        the codec counts the sum of the devices' own (``sum_stats``)."""
        import repro.scaleout.executor as executor

        per_device = []

        def spy(items):
            items = list(items)
            per_device.extend(item for item in items if item is not None)
            return sum_stats(items)

        monkeypatch.setattr(executor, "sum_stats", spy)
        session = repro.connect(ssb_db, devices=2, compression="auto")
        result = session.execute(SSB_QUERIES["q2.1"])
        stats, log = result.compression, result.profile
        assert len(per_device) == 2
        assert stats.wire_bytes == sum(
            record.nbytes for record in log.transfers if record.direction != "stall"
        )
        assert stats.raw_bytes == sum(
            record.raw_nbytes or record.nbytes for record in log.transfers
        )
        assert stats.raw_bytes > stats.wire_bytes
        codecs = Counter()
        for item in per_device:
            codecs.update(item.codecs)
        assert stats.codecs == dict(codecs)
        assert stats.columns == sum(item.columns for item in per_device)
        assert stats.scans == [note for item in per_device for note in item.scans]
        assert sum_stats([None, None]) is None

    def test_summary_mentions_ratio(self):
        log = Profile()
        log.append(TransferRecord(250, "h2d", 0.0, raw_nbytes=1000, codec="forpack"))
        stats = CompressionStats()
        stats.record("forpack")
        stats.log = log
        assert (stats.raw_bytes, stats.wire_bytes) == (1000, 250)
        assert "4.00x" in stats.summary()


# ----------------------------------------------------------------------
# satellite: Column must not freeze caller-owned arrays
# ----------------------------------------------------------------------
class TestColumnAliasing:
    def test_caller_array_stays_writable(self):
        mine = np.arange(16, dtype=np.int32)
        column = Column.int32(mine)
        assert mine.flags.writeable, (
            "constructing a Column froze the caller's array"
        )
        mine[0] = 99  # must not raise, and must not leak into the column
        assert column.values[0] == 0

    def test_column_values_are_frozen(self):
        column = Column.int32(np.arange(4))
        with pytest.raises(ValueError):
            column.values[0] = 1

    def test_take_does_not_copy_twice(self):
        column = Column.int32(np.arange(64))
        taken = column.take(np.array([3, 1, 2]))
        assert taken.values.tolist() == [3, 1, 2]
        assert not taken.values.flags.writeable
