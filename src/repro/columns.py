"""Rows kept as typed columns, from the generator to the packed runs.

Fact data, computed views and replica orders all travel as ``array``
columns: ``array('q')`` for integer keys and measures, ``array('d')``
for float measures and aggregate states.  An 8-byte slot per value is
what makes the bootstrap cheap: the same data as tuples of Python
numbers costs seven to ten times as much.

:class:`ColumnRows` is the row face of such a batch.  It is a lazy
``Sequence`` of tuples over the columns, so code that reads rows
(``row[col]``, ``for row in rows``, ``zip(*...)``) keeps working
without a second copy of the data.  The sort helpers below order whole
columns through one index permutation, the way the cube computation and
the run preparation consume them.
"""

from __future__ import annotations

from array import array
from collections import abc
from itertools import compress, islice, repeat
from operator import add, eq, itemgetter, le, mul, ne, or_, sub
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

Row = Tuple[object, ...]

#: Rows transposed per step when a row stream becomes columns: bounds
#: the tuples alive at once while a heap scan or a merged sort stream
#: is folded into arrays.
TRANSPOSE_CHUNK = 8192


class ColumnRows(abc.Sequence):
    """A lazy row view over equal-length columns.

    Row ``i`` is ``tuple(column[i] for column in columns)``; iteration is
    ``zip(*columns)``.  Slicing returns another :class:`ColumnRows` over
    sliced columns.  Equality compares rows with any row sequence, so a
    view compares equal to the list of tuples it stands for.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[array]) -> None:
        self.columns: List[array] = list(columns)
        if len({len(column) for column in self.columns}) > 1:
            raise ValueError("columns of unequal length")

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[object]],
        width: Optional[int] = None,
        typecodes: Optional[Sequence[str]] = None,
    ) -> "ColumnRows":
        """Transpose a row iterable into columns, a chunk at a time.

        ``width`` defaults to the first row's.  Without ``typecodes`` a
        column is ``'q'`` while every value is an integer and becomes
        ``'d'`` at its first float.  A row of another width raises
        :class:`ValueError`.
        """
        stream = iter(rows)
        columns: Optional[List[array]] = None
        if typecodes is not None:
            columns = [array(code) for code in typecodes]
            width = len(columns)
        while True:
            chunk = list(islice(stream, TRANSPOSE_CHUNK))
            if not chunk:
                break
            if width is None:
                width = len(chunk[0])
            if set(map(len, chunk)) - {width}:
                bad = next(row for row in chunk if len(row) != width)
                raise ValueError(
                    f"row of {len(bad)} values in a batch of width {width}"
                )
            if columns is None:
                columns = [array("q") for _ in range(width)]
            for j, values in enumerate(zip(*chunk)):
                columns[j] = _extend(columns[j], values)
        if columns is None:
            columns = [array("q") for _ in range(width or 0)]
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnRows([column[index] for column in self.columns])
        return tuple([column[index] for column in self.columns])

    def __iter__(self) -> Iterator[Row]:
        return zip(*self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        codes = "".join(column.typecode for column in self.columns)
        return f"ColumnRows({len(self)} rows, columns {codes!r})"

    @property
    def width(self) -> int:
        """Values per row."""
        return len(self.columns)

    def select(self, positions: Sequence[int]) -> "ColumnRows":
        """The columns at ``positions``, shared, not copied."""
        return ColumnRows([self.columns[i] for i in positions])



def concat_rows(batches: Sequence[ColumnRows]) -> ColumnRows:
    """The batches one after another, as new columns (equal widths)."""
    widths = {batch.width for batch in batches}
    if len(widths) != 1:
        raise ValueError(f"cannot concatenate batches of widths {widths}")
    columns = [array(column.typecode) for column in batches[0].columns]
    for batch in batches:
        for j, column in enumerate(batch.columns):
            columns[j] = _extend(columns[j], column)
    return ColumnRows(columns)


def _extend(column: array, values: Sequence[object]) -> array:
    """``column`` with ``values`` appended, widened to ``'d'`` when an
    integer column meets a float or an integer outside int64."""
    if column.typecode == "q":
        try:
            column.extend(array("q", values))
            return column
        except (TypeError, OverflowError):
            column = array("d", column)
    column.extend(array("d", values))
    return column


def partition(
    batch: ColumnRows, homes: Sequence[int], parts: int
) -> List[ColumnRows]:
    """``batch`` split into ``parts`` batches: row ``i`` goes to part
    ``homes[i]``, and every part keeps the rows in their order."""
    picks: List[List[int]] = [[] for _ in range(parts)]
    appends = [picked.append for picked in picks]
    for i, home in enumerate(homes):
        appends[home](i)
    return [
        ColumnRows(gather(batch.columns, picked)) if picked else batch[:0]
        for picked in picks
    ]


def as_columns(
    rows: Iterable[Sequence[object]], width: Optional[int] = None
) -> ColumnRows:
    """``rows`` as a :class:`ColumnRows`: a column batch as it is (its
    width checked), anything else transposed once."""
    if not isinstance(rows, ColumnRows):
        return ColumnRows.from_rows(rows, width)
    if width is None or rows.width == width:
        return rows
    if not len(rows):
        return ColumnRows.from_rows((), width)
    raise ValueError(f"{rows.width}-wide rows in a batch of width {width}")


# ----------------------------------------------------------------------
# ordering whole columns through one permutation
# ----------------------------------------------------------------------
def sort_order(
    key_columns: Sequence[array], count: int
) -> Optional[List[int]]:
    """The stable sort permutation of ``count`` rows by ``key_columns``
    (most significant first), or ``None`` when they are already in
    order.

    Integer keys are packed into one Python int per row (each column
    shifted to start at zero and scaled by the spans of the columns
    after it), so the sort compares single numbers, not tuples.
    """
    if not key_columns or count < 2:
        return None
    if len(key_columns) == 1:
        keys: Sequence[object] = key_columns[0]
    elif all(column.typecode == "q" for column in key_columns):
        keys = _packed_keys(key_columns)
    else:
        keys = list(zip(*key_columns))
    if all(map(le, keys, islice(keys, 1, None))):
        return None
    return sorted(range(count), key=keys.__getitem__)


def _packed_keys(columns: Sequence[array]) -> List[int]:
    keys: Optional[List[int]] = None
    for column in columns:
        low = min(column)
        span = max(column) - low + 1
        shifted: Iterable[int] = (
            map(sub, column, repeat(low)) if low else column
        )
        keys = (
            list(shifted) if keys is None
            else list(map(add, map(mul, keys, repeat(span)), shifted))
        )
    return keys  # type: ignore[return-value]


def gather(
    columns: Sequence[array],
    order: Optional[Sequence[int]],
    typecode: str = "",
) -> List[array]:
    """Every column reordered by ``order`` (``None``: as it is), as an
    array of ``typecode`` (default: the column's own); a float column
    gathered as ``'q'`` truncates like ``int``.

    One ``itemgetter`` over the order picks every column at C speed.
    """
    if order is None:
        pick: Callable[[array], Iterable[object]] = iter
    elif len(order) > 1:
        pick = itemgetter(*order)
    else:
        pick = lambda column: [column[i] for i in order]  # noqa: E731
    out: List[array] = []
    for column in columns:
        code = typecode or column.typecode
        if code == column.typecode:
            out.append(column if order is None else array(code, pick(column)))
        elif code == "q":
            out.append(array(code, map(int, pick(column))))
        else:
            out.append(array(code, pick(column)))
    return out


def sort_columns(columns: Sequence[array], k: int) -> List[array]:
    """Every column reordered by a stable sort on the first ``k``."""
    if not columns:
        return []
    return gather(columns, sort_order(columns[:k], len(columns[0])))


def group_starts(key_columns: Sequence[array], count: int) -> List[int]:
    """Start index of every run of equal keys in sorted columns."""
    if count == 0:
        return []
    changed: Optional[Iterator[bool]] = None
    for column in key_columns:
        differs = map(ne, islice(column, 1, None), column)
        changed = differs if changed is None else map(or_, changed, differs)
    if changed is None:
        return [0]
    return [0, *compress(range(1, count), changed)]
