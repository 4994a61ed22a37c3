"""Fixed-width record serialization.

Tables and materialized views store tuples as fixed-width records so slotted
pages stay simple and record sizes are predictable — the property the
storage-size experiments rely on.  Supported column types:

* ``INT64`` — signed 8-byte integer (dimension keys, counts);
* ``FLOAT64`` — 8-byte IEEE double (aggregate values);
* ``STRING(n)`` — UTF-8, zero-padded to ``n`` bytes (dimension attributes).

The module also hosts the delta + varint column codec used by the
columnar Cubetree leaf format (v3): a sorted run of int64 coordinates is
stored as its first value followed by successive differences, each
zigzag-mapped to an unsigned value and LEB128-varint encoded.  Sorted
runs have tiny deltas, so most entries take one byte instead of eight.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain
from operator import sub
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import InvalidRecordError


class ColumnType(Enum):
    """Physical column types understood by the codec."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"


@dataclass(frozen=True)
class ColumnSpec:
    """One column: a type plus, for strings, a byte width."""

    ctype: ColumnType
    width: int = 8

    def __post_init__(self) -> None:
        if self.ctype in (ColumnType.INT64, ColumnType.FLOAT64):
            if self.width != 8:
                raise InvalidRecordError(
                    f"{self.ctype.value} columns are always 8 bytes"
                )
        elif self.width < 1:
            raise InvalidRecordError("string columns need width >= 1")


def int_column() -> ColumnSpec:
    """Convenience constructor for an INT64 column."""
    return ColumnSpec(ColumnType.INT64)


def float_column() -> ColumnSpec:
    """Convenience constructor for a FLOAT64 column."""
    return ColumnSpec(ColumnType.FLOAT64)


def string_column(width: int) -> ColumnSpec:
    """Convenience constructor for a STRING(width) column."""
    return ColumnSpec(ColumnType.STRING, width)


class RecordCodec:
    """Encodes/decodes tuples against a fixed column layout."""

    def __init__(self, columns: Sequence[ColumnSpec]) -> None:
        if not columns:
            raise InvalidRecordError("a record needs at least one column")
        self.columns = tuple(columns)
        fmt = []
        converters: List[Callable[[object], object]] = []
        str_indexes: List[int] = []
        for i, col in enumerate(self.columns):
            if col.ctype is ColumnType.INT64:
                fmt.append("q")
                converters.append(int)  # type: ignore[arg-type]
            elif col.ctype is ColumnType.FLOAT64:
                fmt.append("d")
                converters.append(float)  # type: ignore[arg-type]
            else:
                fmt.append(f"{col.width}s")
                converters.append(_string_converter(col.width))
                str_indexes.append(i)
        self._body = "".join(fmt)
        self._struct = struct.Struct("<" + self._body)
        self._converters = tuple(converters)
        self._str_indexes = tuple(str_indexes)
        # Repeated / strided struct caches: the counts seen in practice
        # are page slot counts and bulk-load tails, so these stay small.
        self._repeated_cache: Dict[Tuple[int, int], struct.Struct] = {}  # repro: worker-local
        self._strided_item: Dict[int, struct.Struct] = {}

    @property
    def record_size(self) -> int:
        """Bytes per encoded record."""
        return self._struct.size

    # ------------------------------------------------------------------
    # single-record API
    # ------------------------------------------------------------------
    def encode(self, values: Sequence[object]) -> bytes:
        """Serialize one tuple of Python values."""
        prepared: List[object] = []
        self._extend_prepared(values, prepared)
        try:
            return self._struct.pack(*prepared)
        except struct.error as exc:  # out-of-range ints etc.
            raise InvalidRecordError(str(exc)) from exc

    def decode(self, raw: bytes) -> Tuple[object, ...]:
        """Deserialize one record back into a Python tuple."""
        if len(raw) != self._struct.size:
            raise InvalidRecordError(
                f"expected {self._struct.size} bytes, got {len(raw)}"
            )
        fields = self._struct.unpack(raw)
        if not self._str_indexes:
            return fields
        return self._decode_strings(fields)

    # ------------------------------------------------------------------
    # batched API
    # ------------------------------------------------------------------
    def encode_many(self, rows: Sequence[Sequence[object]]) -> bytes:
        """Serialize many tuples with a single row-repeated pack call."""
        prepared: List[object] = []
        extend = self._extend_prepared
        for row in rows:
            extend(row, prepared)
        try:
            return self._repeated(len(rows), 0).pack(*prepared)
        except struct.error as exc:
            raise InvalidRecordError(str(exc)) from exc

    def decode_many(self, raw: bytes) -> List[Tuple[object, ...]]:
        """Deserialize a contiguous run of records in one unpack pass."""
        size = self._struct.size
        if len(raw) % size:
            raise InvalidRecordError(
                f"buffer of {len(raw)} bytes is not a multiple of "
                f"record size {size}"
            )
        fields_iter = self._struct.iter_unpack(raw)
        if not self._str_indexes:
            return list(fields_iter)
        return [self._decode_strings(fields) for fields in fields_iter]

    def encode_strided(
        self, rows: Sequence[Sequence[object]], pad_before: int
    ) -> bytes:
        """Serialize rows with ``pad_before`` zero bytes ahead of each.

        This matches a slotted-page records region where every slot is a
        per-row header (zeros) followed by the record, letting a bulk
        loader fill the whole region with one pack call.
        """
        prepared: List[object] = []
        extend = self._extend_prepared
        for row in rows:
            extend(row, prepared)
        try:
            return self._repeated(len(rows), pad_before).pack(*prepared)
        except struct.error as exc:
            raise InvalidRecordError(str(exc)) from exc

    def decode_strided(
        self,
        buf: "bytes | bytearray | memoryview",
        count: int,
        pad_before: int,
        offset: int = 0,
    ) -> List[Tuple[object, ...]]:
        """Deserialize ``count`` slots of (pad + record) starting at offset."""
        if count <= 0:
            return []
        item = self._strided_item.get(pad_before)
        if item is None:
            pad = f"{pad_before}x" if pad_before else ""
            item = struct.Struct("<" + pad + self._body)
            self._strided_item[pad_before] = item
        end = offset + count * item.size
        if offset < 0 or end > len(buf):
            raise InvalidRecordError(
                f"{count} strided record(s) of {item.size} bytes at offset "
                f"{offset} overrun the {len(buf)}-byte buffer"
            )
        region = memoryview(buf)[offset:end]
        fields_iter = item.iter_unpack(region)
        if not self._str_indexes:
            return list(fields_iter)
        return [self._decode_strings(fields) for fields in fields_iter]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _extend_prepared(
        self, values: Sequence[object], out: List[object]
    ) -> None:
        if len(values) != len(self.columns):
            raise InvalidRecordError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        for conv, value in zip(self._converters, values):
            out.append(conv(value))

    def _decode_strings(
        self, fields: Tuple[object, ...]
    ) -> Tuple[object, ...]:
        row = list(fields)
        for i in self._str_indexes:
            row[i] = row[i].rstrip(b"\x00").decode("utf-8")  # type: ignore[union-attr]
        return tuple(row)

    def _repeated(self, count: int, pad_before: int) -> struct.Struct:
        key = (count, pad_before)
        cached = self._repeated_cache.get(key)
        if cached is None:
            pad = f"{pad_before}x" if pad_before else ""
            cached = struct.Struct("<" + (pad + self._body) * count)
            self._repeated_cache[key] = cached
        return cached


# ----------------------------------------------------------------------
# delta + varint column codec (columnar leaf format v3)
# ----------------------------------------------------------------------

# LEB128 varints for zigzagged int64 deltas never exceed 10 bytes; a
# longer continuation chain can only come from corruption.
_MAX_VARINT_BYTES = 10
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one with small absolute values first."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(encoded: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if encoded & 1:
        return -((encoded + 1) >> 1)
    return encoded >> 1


def varint_size(encoded: int) -> int:
    """Bytes a LEB128 varint of the (unsigned) value occupies."""
    size = 1
    while encoded >= 0x80:
        encoded >>= 7
        size += 1
    return size


def _varint(encoded: int) -> bytes:
    """LEB128 bytes of one unsigned value (the scalar reference)."""
    out = bytearray()
    while encoded >= 0x80:
        out.append((encoded & 0x7F) | 0x80)
        encoded >>= 7
    out.append(encoded)
    return bytes(out)


class _DeltaTokens(Dict[int, bytes]):
    """``delta -> varint(zigzag(delta))``, memoising the one- and two-byte
    encodings (|delta| < 8192) that sorted coordinate runs are made of."""

    def __missing__(self, delta: int) -> bytes:
        token = _varint(zigzag_encode(delta))
        if len(token) <= 2:
            self[delta] = token
        return token


_DELTA_TOKENS = _DeltaTokens()  # repro: guarded-by(GIL; idempotent memo of pure values)
#: zigzag-decoded value of every single-byte varint.
_UNZIGZAG = tuple(zigzag_decode(byte) for byte in range(0x80))
_ONE_BYTE_VARINTS = bytes(range(0x80))


def delta_tokens(values: Sequence[int], prev: int = 0) -> List[bytes]:
    """Each value's encoded delta against its predecessor (the first
    against ``prev``); the column stream is their concatenation and each
    token's length is what that entry costs a columnar leaf."""
    return [
        _DELTA_TOKENS[delta]
        for delta in map(sub, values, chain((prev,), values))
    ]


def encode_delta_column(values: Sequence[int]) -> bytes:
    """Encode a column of int64s as zigzag-varint deltas.

    The first value is delta-coded against an implicit 0, so the stream
    is self-contained: ``decode_delta_column`` needs only the bytes and
    the element count.
    """
    # An array('q') is in range by construction; anything else is checked
    # with two C-speed passes instead of a comparison per value.
    if not isinstance(values, array) and values and not (
        _INT64_MIN <= min(values) and max(values) <= _INT64_MAX
    ):
        raise InvalidRecordError("column value exceeds int64 range")
    return b"".join(delta_tokens(values))


def decode_delta_column(
    raw: "bytes | bytearray | memoryview",
    offset: int,
    length: int,
    count: int,
) -> array:
    """Decode ``count`` int64s from a delta-varint stream of ``length``
    bytes into an ``array('q')``.

    Raises :class:`InvalidRecordError` if the stream is truncated, has
    trailing bytes, contains an overlong varint, or decodes outside the
    int64 range — all symptoms of a corrupt columnar leaf.
    """
    end = offset + length
    if length < 0 or end > len(raw):
        raise InvalidRecordError(
            f"delta column claims {length} bytes at offset {offset}, "
            f"buffer holds {len(raw)}"
        )
    buf = bytes(raw[offset:end])
    # Sorted runs end in long stretches of one-byte varints (a leading
    # sort column is one-byte after its first value): everything past
    # the last multi-byte varint is a single table pass.
    head = len(buf.rstrip(_ONE_BYTE_VARINTS))
    if head:
        head += 1  # the byte that ends the last multi-byte varint
    deltas = _decode_varints(buf[:head]) if head else []
    deltas += [_UNZIGZAG[byte] for byte in buf[head:]]
    if len(deltas) != count:
        raise InvalidRecordError(
            f"delta column holds {len(deltas)} value(s), expected {count} "
            f"(truncated or trailing bytes)"
        )
    try:
        return array("q", list(accumulate(deltas)))
    except OverflowError:
        raise InvalidRecordError(
            "delta column decodes outside int64 range"
        ) from None


def _decode_varints(buf: bytes) -> List[int]:
    """Zigzag-decode a stream of whole varints, byte by byte."""
    deltas: List[int] = []
    append = deltas.append
    encoded = shift = 0
    for byte in buf:
        if byte >= 0x80:
            if shift >= 7 * (_MAX_VARINT_BYTES - 1):
                raise InvalidRecordError(
                    "varint exceeds the 10-byte int64 bound"
                )
            encoded |= (byte & 0x7F) << shift
            shift += 7
        else:
            encoded |= byte << shift
            append(-((encoded + 1) >> 1) if encoded & 1 else encoded >> 1)
            encoded = shift = 0
    if shift:
        raise InvalidRecordError("truncated varint ends the delta column")
    return deltas


def _string_converter(width: int) -> Callable[[object], bytes]:
    def convert(value: object) -> bytes:
        raw = str(value).encode("utf-8")
        if len(raw) > width:
            raise InvalidRecordError(
                f"string {value!r} exceeds column width {width}"
            )
        return raw

    return convert


class EntryCodec:
    """Batched pack/unpack of homogeneous fixed-width node entries.

    Tree pages (R-tree leaves/interiors, B+-tree nodes) store runs of
    identical little-endian items.  This helper turns the per-entry
    ``struct`` loops into one repeated-format call per page; instances are
    shared through :func:`entry_codec` so the compiled formats are built
    once per (layout, count).
    """

    __slots__ = ("item_fmt", "item_size", "_item", "_repeated")

    def __init__(self, item_fmt: str) -> None:
        self.item_fmt = item_fmt
        self.item_size = struct.calcsize("<" + item_fmt)
        self._item = struct.Struct("<" + item_fmt) if self.item_size else None
        self._repeated: Dict[int, struct.Struct] = {}

    def repeated(self, count: int) -> struct.Struct:
        """The compiled ``count``-times-repeated item format."""
        cached = self._repeated.get(count)
        if cached is None:
            cached = struct.Struct("<" + self.item_fmt * count)
            self._repeated[count] = cached
        return cached

    def pack_into(
        self,
        buf: bytearray,
        offset: int,
        flat_values: Iterable[object],
        count: int,
    ) -> int:
        """Pack ``count`` items' flattened values; returns bytes written."""
        if count and self.item_size:
            self.repeated(count).pack_into(buf, offset, *flat_values)
        return count * self.item_size

    def iter_unpack_from(
        self, raw: "bytes | memoryview", offset: int, count: int
    ) -> Iterator[Tuple[object, ...]]:
        """Yield ``count`` item tuples starting at ``offset``."""
        if count <= 0:
            return iter(())
        if self._item is None:  # zero-width entries (degenerate apex leaf)
            return iter([()] * count)
        end = offset + count * self.item_size
        if offset < 0 or end > len(raw):
            raise InvalidRecordError(
                f"{count} entries of {self.item_size} bytes at offset "
                f"{offset} overrun the {len(raw)}-byte buffer"
            )
        region = memoryview(raw)[offset:end]
        return self._item.iter_unpack(region)

    def unpack_flat_from(
        self, raw: "bytes | memoryview", offset: int, count: int
    ) -> Tuple[object, ...]:
        """Unpack ``count`` items as one flat field tuple."""
        if count <= 0 or self._item is None:
            return ()
        if offset < 0 or offset + count * self.item_size > len(raw):
            raise InvalidRecordError(
                f"{count} entries of {self.item_size} bytes at offset "
                f"{offset} overrun the {len(raw)}-byte buffer"
            )
        return self.repeated(count).unpack_from(raw, offset)


@lru_cache(maxsize=None)  # repro: guarded-by(functools.lru_cache internal lock)
def entry_codec(item_fmt: str) -> EntryCodec:
    """Shared :class:`EntryCodec` for a little-endian item format."""
    return EntryCodec(item_fmt)
