"""Property and error-path tests of the delta+varint column codec.

The v3 columnar leaf format rests on this codec: encode→decode must be
the identity for every int64 coordinate column — including empty
columns, single-row runs, and maximum-magnitude deltas (a descending
then ascending swing between ±(2^63 - 1)) — and every malformed buffer
must surface as a typed :class:`repro.errors.InvalidRecordError`, never
a bare ``struct.error`` or silent garbage.
"""

import struct

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.errors import InvalidRecordError
from repro.storage.codec import (
    EntryCodec,
    RecordCodec,
    decode_delta_column,
    encode_delta_column,
    int_column,
    varint_size,
    zigzag_decode,
    zigzag_encode,
)

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)


# ----------------------------------------------------------------------
# zigzag
# ----------------------------------------------------------------------
@given(int64s)
@settings(max_examples=200, deadline=None)
def test_zigzag_round_trip(value):
    encoded = zigzag_encode(value)
    assert encoded >= 0
    assert zigzag_decode(encoded) == value


def test_zigzag_orders_by_magnitude():
    # Small magnitudes (either sign) get small codes — that is the
    # whole point of zigzag before a varint.
    assert zigzag_encode(0) == 0
    assert zigzag_encode(-1) == 1
    assert zigzag_encode(1) == 2
    assert varint_size(zigzag_encode(0)) == 1
    assert varint_size(zigzag_encode(INT64_MAX)) == 10


# ----------------------------------------------------------------------
# delta column round trip
# ----------------------------------------------------------------------
@given(st.lists(int64s, min_size=0, max_size=64))
@settings(max_examples=200, deadline=None)
def test_delta_column_round_trip(values):
    raw = encode_delta_column(values)
    assert decode_delta_column(raw, 0, len(raw), len(values)).tolist() == values


def test_delta_column_empty():
    assert encode_delta_column([]) == b""
    assert decode_delta_column(b"", 0, 0, 0).tolist() == []


def test_delta_column_single_row():
    raw = encode_delta_column([INT64_MAX])
    assert decode_delta_column(raw, 0, len(raw), 1).tolist() == [INT64_MAX]


def test_delta_column_max_magnitude_swing():
    # Max-magnitude deltas in both directions: the delta between the
    # extremes does not itself fit in int64, but the running values do.
    values = [INT64_MAX, INT64_MIN, INT64_MAX, 0]
    raw = encode_delta_column(values)
    assert decode_delta_column(raw, 0, len(raw), len(values)).tolist() == values


def test_delta_column_embedded_at_offset():
    values = [7, 5, 900, 900]
    raw = encode_delta_column(values)
    framed = b"\xaa\xbb" + raw + b"\xcc"
    assert decode_delta_column(framed, 2, len(raw), 4).tolist() == values


def test_encode_rejects_out_of_range_values():
    with pytest.raises(InvalidRecordError):
        encode_delta_column([INT64_MAX + 1])


# ----------------------------------------------------------------------
# malformed buffers -> typed errors
# ----------------------------------------------------------------------
@given(st.lists(int64s, min_size=1, max_size=16), st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_column_raises_typed_error(values, data):
    raw = encode_delta_column(values)
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    with pytest.raises(InvalidRecordError):
        decode_delta_column(raw[:cut], 0, cut, len(values))


def test_column_length_overruns_buffer():
    raw = encode_delta_column([1, 2, 3])
    with pytest.raises(InvalidRecordError):
        decode_delta_column(raw, 0, len(raw) + 1, 3)
    with pytest.raises(InvalidRecordError):
        decode_delta_column(raw, 0, -1, 3)


def test_trailing_bytes_rejected():
    raw = encode_delta_column([1, 2]) + b"\x00"
    with pytest.raises(InvalidRecordError):
        decode_delta_column(raw, 0, len(raw), 2)


def test_overlong_varint_rejected():
    # 11 continuation bytes: no int64 needs more than 10.
    raw = b"\x80" * 10 + b"\x01"
    with pytest.raises(InvalidRecordError):
        decode_delta_column(raw, 0, len(raw), 1)


def test_running_value_overflow_rejected():
    # Two max-positive deltas in a row overflow the running int64.
    half = zigzag_encode(INT64_MAX)
    chunk = bytearray()
    for _ in range(2):
        value = half
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                chunk.append(byte | 0x80)
            else:
                chunk.append(byte)
                break
    with pytest.raises(InvalidRecordError):
        decode_delta_column(bytes(chunk), 0, len(chunk), 2)


# ----------------------------------------------------------------------
# batch struct decoders raise typed errors too
# ----------------------------------------------------------------------
def test_decode_strided_rejects_short_buffer():
    codec = RecordCodec([int_column()])
    buf = struct.pack("<3q", 1, 2, 3)
    assert codec.decode_strided(buf, 3, 0) == [(1,), (2,), (3,)]
    with pytest.raises(InvalidRecordError):
        codec.decode_strided(buf, 4, 0)
    with pytest.raises(InvalidRecordError):
        codec.decode_strided(buf, 1, 0, offset=-1)
    with pytest.raises(InvalidRecordError):
        codec.decode_strided(buf, 1, 0, offset=17)  # misaligned tail


def test_entry_codec_iterators_reject_short_buffer():
    codec = EntryCodec("qd")
    buf = bytearray(codec.item_size * 2)
    codec.pack_into(buf, 0, (1, 1.5, 2, 2.5), 2)
    assert list(codec.iter_unpack_from(bytes(buf), 0, 2)) == [
        (1, 1.5), (2, 2.5),
    ]
    with pytest.raises(InvalidRecordError):
        list(codec.iter_unpack_from(bytes(buf), 0, 3))
    with pytest.raises(InvalidRecordError):
        codec.unpack_flat_from(bytes(buf), 8, 2)
