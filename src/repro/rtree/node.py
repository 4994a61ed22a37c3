"""On-page layout of R-tree nodes, including compressed Cubetree leaves.

Leaf page layout (little-endian)::

    offset 0   uint8    node type (1 = leaf)
    offset 1   uint16   entry count
    offset 3   int32    view id (-1 when the leaf holds raw d-dim points)
    offset 7   uint8    stored arity k (coords actually written per entry)
    offset 8   uint8    number of aggregate values per entry
    offset 9   int64    next-leaf page id (-1 for none)
    offset 17  entries  each: k * int64 coords + n_aggs * float64 values

This is the paper's leaf *compression*: a leaf belongs to exactly one view,
so only that view's ``k`` meaningful coordinates are stored; the padding
zeros of the valid mapping are implicit (Sec. 2.4).  The arity-0 super
aggregate stores no coordinates at all — just its aggregate vector at the
origin.

Columnar leaf page layout (type 3, format v3) shares the 17-byte header
(with type byte 3) and stores the same entries column-major::

    offset 0   uint8          node type (3 = columnar leaf)
    offset 1   uint16         entry count
    offset 3   int32          view id
    offset 7   uint8          stored arity k
    offset 8   uint8          number of aggregate values per entry
    offset 9   int64          next-leaf page id (-1 for none)
    offset 17  uint16 * k     byte length of each coordinate column
    ...        k columns      zigzag-varint delta streams (sorted runs)
    ...        n_aggs columns each: count * float64, packed

Packed runs are sorted, so coordinate deltas are tiny and most varints
take one byte — the source of the beyond-2:1 storage ratio.  Columnar
is what the packer writes; ``REPRO_LEAF_FORMAT=row`` (the
``leaf_format`` setting) pins row-major (type 1), and both decode
transparently.

Interior page layout::

    offset 0  uint8    node type (2 = interior)
    offset 1  uint16   entry count
    offset 3  uint8    dimensionality d
    offset 4  entries  each: int64 child page id + d int64 lows + d int64 highs
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Optional, Sequence, Tuple

from repro.constants import PAGE_SIZE
from repro.errors import InvalidRecordError, StorageError
from repro.rtree.geometry import Rect
from repro.storage.codec import (
    decode_delta_column,
    encode_delta_column,
    entry_codec,
)

LEAF_TYPE = 1
INTERIOR_TYPE = 2
LEAF_COLUMNAR_TYPE = 3

#: Node-type bytes that deserialize as :class:`RLeafNode`.
LEAF_TYPES = (LEAF_TYPE, LEAF_COLUMNAR_TYPE)

_LEAF_HEADER = struct.Struct("<BHiBBq")
_INTERIOR_HEADER = struct.Struct("<BHB")

# The count field is a uint16; columnar leaves can otherwise hold
# thousands of one-byte entries, so guard the header bound explicitly.
MAX_LEAF_ENTRIES = 0xFFFF

Point = Tuple[int, ...]
Values = Tuple[float, ...]

def leaf_capacity(arity: int, n_aggs: int) -> int:
    """Max entries for a leaf storing ``arity`` coords + ``n_aggs`` values."""
    entry = arity * 8 + n_aggs * 8
    if entry == 0:
        return 1  # the arity-0 super aggregate with no values is degenerate
    return (PAGE_SIZE - _LEAF_HEADER.size) // entry


def columnar_header_size(arity: int) -> int:
    """Fixed bytes of a columnar leaf: header + per-column length table."""
    return _LEAF_HEADER.size + 2 * arity


def columnar_leaf_size(
    points: Sequence[Point], arity: int, n_aggs: int
) -> int:
    """Total encoded byte size of a columnar leaf holding ``points``."""
    streams = sum(len(encode_delta_column(col)) for col in zip(*points))
    return columnar_header_size(arity) + streams + 8 * n_aggs * len(points)


def interior_capacity(dims: int) -> int:
    """Max entries an interior node of the given dimensionality holds."""
    entry = 8 + 2 * dims * 8
    return (PAGE_SIZE - _INTERIOR_HEADER.size) // entry


def _native(column: array) -> array:
    """Pages are little-endian: a swapped copy on big-endian hosts."""
    if sys.byteorder != "little":
        column = column[:]
        column.byteswap()
    return column


class RLeafNode:
    """A deserialized leaf: one view's entries plus aggregate vectors.

    ``columnar`` selects the on-page encoding (type 1 row-major vs type 3
    delta-varint columns); in memory both are column buffers —
    ``coord_cols`` (an ``array('q')`` per coordinate) and
    ``measure_cols`` (an ``array('d')`` per aggregate value) — which is
    all that decoding and packing ever build.  ``points``/``values``
    hand out per-entry tuple lists on demand; callers may edit those in
    place, so from then on the lists are the leaf's content and the
    buffers are dropped (:meth:`columns` rebuilds them when asked).
    Hand-built leaves (dynamic inserts, tests) start from empty lists;
    whoever edits the lists of a leaf the kernels have stashed columns
    on nulls the stash (see ``RTree._insert``).
    """

    __slots__ = (
        "view_id", "arity", "n_aggs", "next_leaf", "columnar",
        "coord_cols", "measure_cols", "_count", "_points", "_values",
    )

    def __init__(
        self,
        view_id: int,
        arity: int,
        n_aggs: int,
        columnar: bool = False,
        columns: Optional[Tuple[Sequence[array], Sequence[array], int]] = None,
    ) -> None:
        self.view_id = view_id
        self.arity = arity
        self.n_aggs = n_aggs
        self.next_leaf = -1
        self.columnar = columnar
        self.coord_cols: Optional[Tuple[array, ...]] = None
        self.measure_cols: Optional[Tuple[array, ...]] = None
        self._count = 0
        self._points: Optional[List[Point]] = []
        self._values: Optional[List[Values]] = []
        if columns is not None:  # (coord columns, measure columns, count)
            self.coord_cols, self.measure_cols = map(tuple, columns[:2])
            self._count = columns[2]
            self._points = self._values = None

    def _tuples(self) -> None:
        if self._points is None:
            count = self._count
            self._points = (
                list(zip(*self.coord_cols)) if self.arity else [()] * count
            )
            self._values = (
                list(zip(*self.measure_cols)) if self.n_aggs else [()] * count
            )
            self.coord_cols = self.measure_cols = None

    @property
    def points(self) -> List[Point]:
        """Per-entry coordinate tuples."""
        self._tuples()
        return self._points

    @points.setter
    def points(self, points: List[Point]) -> None:
        self._tuples()
        self._points = points

    @property
    def values(self) -> List[Values]:
        """Per-entry aggregate tuples."""
        self._tuples()
        return self._values

    @values.setter
    def values(self, values: List[Values]) -> None:
        self._tuples()
        self._values = values

    def __len__(self) -> int:
        return self._count if self._points is None else len(self._points)

    def columns(self) -> Tuple[Tuple[array, ...], Tuple[array, ...]]:
        """``(coord_cols, measure_cols)``; built from the tuple lists
        (and not kept: the lists may still change) once those exist."""
        if self.coord_cols is not None:
            return self.coord_cols, self.measure_cols
        return (
            tuple(
                array("q", [point[c] for point in self._points])
                for c in range(self.arity)
            ),
            tuple(
                array("d", [vals[m] for vals in self._values])
                for m in range(self.n_aggs)
            ),
        )

    def key_at(self, index: int) -> Point:
        """Reversed-coordinate (packing order) key of one entry."""
        if self.coord_cols is None:
            return tuple(reversed(self._points[index]))
        return tuple(col[index] for col in reversed(self.coord_cols))

    def mbr(self, dims: int) -> Rect:
        """Full-dimensional MBR of this leaf's (padded) points."""
        if not len(self):
            raise ValueError("cover of no points")
        coords, _measures = self.columns()
        pad = (0,) * (dims - self.arity)
        return Rect(
            tuple(map(min, coords)) + pad, tuple(map(max, coords)) + pad
        )

    def padded_point(self, point: Point, dims: int) -> Point:
        """Re-apply the valid mapping's zero padding up to ``dims``."""
        return tuple(point) + (0,) * (dims - len(point))

    def to_bytes(self, streams: Optional[Sequence[bytes]] = None) -> bytes:
        """Serialize into a full page buffer (row or columnar layout);
        ``streams``: the coordinate columns, if already delta-encoded."""
        count = len(self)
        coords, measures = self.columns()
        if not self.columnar:
            width = self.arity + self.n_aggs
            # Interleave the columns as int64 lanes (a float64 column
            # travels as its bit pattern), one strided store per column.
            flat = array("q", bytes(count * width * 8))
            for c, col in enumerate(coords):
                flat[c::width] = col
            for m, col in enumerate(measures, self.arity):
                flat[m::width] = array("q", col.tobytes())
            body = _native(flat).tobytes()
        else:
            if count > MAX_LEAF_ENTRIES:
                raise StorageError(
                    "R-tree columnar leaf entry count overflow"
                )
            if streams is None:
                streams = [encode_delta_column(col) for col in coords]
            body = b"".join(
                (
                    struct.pack(f"<{self.arity}H", *map(len, streams)),
                    *streams,
                    *(_native(col).tobytes() for col in measures),
                )
            )
        if _LEAF_HEADER.size + len(body) > PAGE_SIZE:
            raise StorageError("R-tree leaf overflow")
        out = bytearray(PAGE_SIZE)
        _LEAF_HEADER.pack_into(
            out, 0, LEAF_COLUMNAR_TYPE if self.columnar else LEAF_TYPE,
            count, self.view_id, self.arity, self.n_aggs, self.next_leaf,
        )
        out[_LEAF_HEADER.size : _LEAF_HEADER.size + len(body)] = body
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RLeafNode":
        """Deserialize from a page buffer (either leaf layout) straight
        into column buffers: no per-entry tuple is built."""
        node_type, count, view_id, arity, n_aggs, next_leaf = (
            _LEAF_HEADER.unpack_from(raw, 0)
        )
        if node_type not in LEAF_TYPES:
            raise StorageError(f"expected R-tree leaf, found type {node_type}")
        width, start = arity + n_aggs, _LEAF_HEADER.size
        if node_type == LEAF_TYPE:
            # The entry region read once as int64 and once as float64
            # lanes; a stride slice of either is one column.
            end = start + count * width * 8
            if end > len(raw):
                raise InvalidRecordError(
                    f"{count} row entries of {width * 8} bytes overrun "
                    f"the {len(raw)}-byte page"
                )
            ints = array("q", raw[start:end] if arity else b"")
            floats = array("d", raw[start:end] if n_aggs else b"")
            coords = [_native(ints[c::width]) for c in range(arity)]
            measures = [_native(floats[m::width]) for m in range(arity, width)]
        else:
            start += 2 * arity
            if start > len(raw):
                raise InvalidRecordError(
                    f"columnar leaf column table overruns the page "
                    f"(arity {arity})"
                )
            lengths = struct.unpack_from(f"<{arity}H", raw, _LEAF_HEADER.size)
            if start + sum(lengths) + count * 8 * n_aggs > len(raw):
                raise InvalidRecordError(
                    f"columnar leaf columns overrun the page "
                    f"(count {count}, column bytes {sum(lengths)})"
                )
            coords = []
            for length in lengths:
                coords.append(decode_delta_column(raw, start, length, count))
                start += length
            size = count * 8
            measures = [
                _native(array("d", raw[start + m * size : start + (m + 1) * size]))
                for m in range(n_aggs)
            ]
        node = cls(
            view_id, arity, n_aggs, node_type == LEAF_COLUMNAR_TYPE,
            (coords, measures, count),
        )
        node.next_leaf = next_leaf
        return node


class RInteriorNode:
    """A deserialized interior node: child page ids and their MBRs."""

    __slots__ = ("dims", "children", "mbrs")

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self.children: List[int] = []
        self.mbrs: List[Rect] = []

    def __len__(self) -> int:
        return len(self.children)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of this node's entries."""
        return Rect.cover(self.mbrs)

    def to_bytes(self) -> bytes:
        """Serialize into a full page buffer."""
        out = bytearray(PAGE_SIZE)
        _INTERIOR_HEADER.pack_into(
            out, 0, INTERIOR_TYPE, len(self.children), self.dims
        )
        codec = entry_codec(f"q{2 * self.dims}q")
        count = len(self.children)
        if _INTERIOR_HEADER.size + count * codec.item_size > PAGE_SIZE:
            raise StorageError("R-tree interior overflow")
        flat: List[object] = []
        for child, mbr in zip(self.children, self.mbrs):
            flat.append(child)
            flat.extend(mbr.lows)
            flat.extend(mbr.highs)
        codec.pack_into(out, _INTERIOR_HEADER.size, flat, count)
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RInteriorNode":
        """Deserialize from a page buffer."""
        node_type, count, dims = _INTERIOR_HEADER.unpack_from(raw, 0)
        if node_type != INTERIOR_TYPE:
            raise StorageError(
                f"expected R-tree interior, found type {node_type}"
            )
        node = cls(dims)
        codec = entry_codec(f"q{2 * dims}q")
        children = node.children
        mbrs = node.mbrs
        for fields in codec.iter_unpack_from(raw, _INTERIOR_HEADER.size, count):
            children.append(fields[0])
            mbrs.append(Rect(fields[1 : 1 + dims], fields[1 + dims :]))
        return node


def leaf_header(raw: "bytes | bytearray") -> Tuple[int, int, int, int, int, int]:
    """``(type, count, view id, arity, n_aggs, next leaf)`` of a leaf page."""
    return _LEAF_HEADER.unpack_from(raw, 0)


def node_type_of(raw: bytes) -> int:
    """Peek the node-type byte of a serialized R-tree page."""
    return raw[0]
