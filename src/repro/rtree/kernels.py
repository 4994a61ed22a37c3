"""Vectorized query kernels: every leaf a search reads is evaluated here.

Leaves decode column-at-a-time (:meth:`RLeafNode.from_bytes`, row and
columnar layouts alike); these kernels keep those decoded columns —
coordinates as ``array('q')``, measures as ``array('d')`` — and evaluate
slice rectangles against whole columns instead of building one
reversed-key tuple and one ``contains_point`` call per entry.  On a
packed leaf (``packed=True``):

* the *leading* run-key column (coordinate ``arity - 1``; packed runs
  are sorted by reversed coordinates, so that column is non-decreasing
  within a leaf) is narrowed by binary search,
* every other bound coordinate is filtered with one comparison pass
  over the narrowed range,
* unconstrained dimensions are skipped entirely — a packed run's
  coordinates are strictly positive (``PackedRun.validate``), so a
  ``[1, INT64_MAX]`` bound (what ``slice_spec`` emits for an unbound
  attribute) can never reject a point.

A leaf of a tree with no recorded run extents (dynamic inserts, or a
checkpoint that predates extents) may be unsorted and may hold
coordinate 0, so ``packed=False`` makes one full comparison pass over
every bound dimension instead, with no bisect and no skip.

The selection comes back as an index ``range`` whenever it is
contiguous (the common case for prefix-bounded slices), which lets the
aggregate pushdown (:class:`FoldAccumulator`) consume measure columns
as slices while preserving the exact serial float fold order of a
row-at-a-time fold.

:func:`take` cuts a selection out of a leaf's columns as one
:class:`Block`: the view's coordinate columns and measure columns of the
selected entries.  Blocks are what every search yields and what
:func:`repro.core.answer.finalize_matches` consumes, so no per-entry
tuple exists between the leaf page and the answer rows.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import repeat
from operator import add
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.rtree.geometry import Rect

#: Largest signed 64-bit coordinate — ``slice_spec``'s unbound high.
INT64_MAX = (1 << 63) - 1
#: Smallest coordinate a packed run may contain (validated at pack time).
MIN_COORD = 1

#: A leaf-entry selection: contiguous range or explicit index list.
Selection = Union[range, List[int]]
#: ``(view id, padded point, values)`` — one entry in row form.
Entry = Tuple[int, Tuple[int, ...], Tuple[float, ...]]


class Block(NamedTuple):
    """Selected entries of one leaf (or one merged stream), column-major.

    ``coords`` holds the stored coordinate columns — a view's ``arity``
    columns, without the valid mapping's zero padding — and
    ``measures`` the flattened aggregate-state columns, all ``count``
    long and in stream (packing) order.  Columns are ``array`` slices
    for contiguous selections and lists otherwise.
    """

    view_id: int
    count: int
    coords: Tuple[Sequence[int], ...]
    measures: Tuple[Sequence[float], ...]

    @classmethod
    def of_rows(
        cls, view_id: int, arity: int, rows: Iterable[Sequence[object]]
    ) -> "Block":
        """Transpose state rows (group values, then flattened states)."""
        columns = list(zip(*rows))
        return cls(
            view_id,
            len(columns[0]) if columns else 0,
            tuple(array("q", col) for col in columns[:arity]),
            tuple(array("d", col) for col in columns[arity:]),
        )

    def entries(self, dims: int) -> Iterator[Entry]:
        """Row form of the block: ``(view id, point padded to dims,
        values)`` per entry."""
        count = self.count
        # bytes(n) is n zeros: the valid mapping's padding coordinates.
        pad = [bytes(count)] * (dims - len(self.coords))
        return zip(
            repeat(self.view_id, count),
            zip(*self.coords, *pad) if self.coords or pad
            else repeat((), count),
            zip(*self.measures) if self.measures else repeat((), count),
        )


def block_rows(
    blocks: Iterable[Block],
) -> Iterator[Tuple[Tuple[int, ...], Tuple[float, ...]]]:
    """``(coords, values)`` per entry of a block stream: a view's group
    coordinates (unpadded) and flattened states, in stream order."""
    for block in blocks:
        for _view_id, coords, values in block.entries(len(block.coords)):
            yield coords, values


class LeafColumns:
    """Decoded column view of one leaf: coordinate and measure buffers."""

    __slots__ = ("count", "arity", "coords", "measures")

    def __init__(
        self,
        count: int,
        arity: int,
        coords: Tuple[array, ...],
        measures: Tuple[array, ...],
    ) -> None:
        self.count = count
        self.arity = arity
        self.coords = coords
        self.measures = measures


def leaf_columns(leaf) -> LeafColumns:
    """Column view of a leaf for the kernels.

    Decoded and packed leaves already carry their columns; a hand-built
    leaf gets them from its tuple lists on first use, stashed on the
    node (whoever mutates the lists afterwards nulls the stash).
    """
    leaf.coord_cols, leaf.measure_cols = leaf.columns()
    return LeafColumns(
        len(leaf), leaf.arity, leaf.coord_cols, leaf.measure_cols
    )


def take(cols: LeafColumns, sel: Selection, view_id: int) -> Block:
    """The entries ``sel`` picks out of a leaf's columns, as a block.

    A contiguous selection slices each column (one copy per column); an
    index list gathers through ``map``.  The block owns its columns, so
    it outlives the leaf's pin.
    """
    if isinstance(sel, range):
        lo, hi = sel.start, sel.stop
        return Block(
            view_id,
            hi - lo,
            tuple(col[lo:hi] for col in cols.coords),
            tuple(col[lo:hi] for col in cols.measures),
        )
    return Block(
        view_id,
        len(sel),
        tuple(list(map(col.__getitem__, sel)) for col in cols.coords),
        tuple(list(map(col.__getitem__, sel)) for col in cols.measures),
    )


def select_rows(
    cols: LeafColumns, rect: Rect, dims: int, packed: bool
) -> Optional[Selection]:
    """Indices of the leaf entries whose padded points lie in ``rect``.

    Returns a ``range`` when the selection is contiguous, an index list
    otherwise, or ``None`` when no entry qualifies — the entries
    ``rect.contains_point`` accepts, in leaf order.  ``packed`` says the
    leaf belongs to a packed run (lead column sorted, coordinates
    ``>= MIN_COORD``); without it every bound dimension is compared.
    """
    lows = rect.lows
    highs = rect.highs
    arity = cols.arity
    for dim in range(arity, dims):
        # Padding dimensions are implicitly zero for every entry.
        if lows[dim] > 0 or highs[dim] < 0:
            return None
    count = cols.count
    if count == 0:
        return None
    if arity == 0:
        return range(count)
    start, stop = 0, count
    filtered = range(arity)
    if packed:
        lead = arity - 1
        col = cols.coords[lead]
        lo = lows[lead]
        hi = highs[lead]
        if col[0] < lo:
            start = bisect_left(col, lo)
        if col[count - 1] > hi:
            stop = bisect_right(col, hi, start)
        if start >= stop:
            return None
        filtered = range(lead)
    selected: Optional[List[int]] = None
    for dim in filtered:
        lo = lows[dim]
        hi = highs[dim]
        if packed and lo <= MIN_COORD and hi >= INT64_MAX:
            continue  # unconstrained: packed coordinates are >= 1
        col = cols.coords[dim]
        if selected is None:
            selected = [i for i in range(start, stop) if lo <= col[i] <= hi]
        else:
            selected = [i for i in selected if lo <= col[i] <= hi]
        if not selected:
            return None
    if selected is None:
        return range(start, stop)
    return selected


class FoldAccumulator:
    """Left-fold of match states with exact serial float semantics.

    ``reducers`` holds one tag per flattened state component — ``"add"``
    for SUM/COUNT and both AVG components, ``"min"``/``"max"`` for
    MIN/MAX — mirroring ``combine_states`` applied pairwise in match
    order.  The fold is seeded from the *first* matching row's states
    (not zeros: ``0.0 + -0.0`` would flip a sign bit the row-at-a-time
    path preserves), so the result is bit-identical to folding
    :func:`repro.core.answer.finalize_matches`'s single group.
    """

    __slots__ = ("reducers", "states", "rows")

    def __init__(self, reducers: Sequence[str]) -> None:
        self.reducers = tuple(reducers)
        self.states: Optional[List[float]] = None
        self.rows = 0

    def add(self, values: Sequence[float]) -> None:
        """Fold one matching row (the multi-shard fold combines each
        shard's states through this)."""
        self.rows += 1
        states = self.states
        if states is None:
            self.states = list(values)
            return
        for c, reducer in enumerate(self.reducers):
            value = values[c]
            if reducer == "add":
                states[c] = states[c] + value
            elif reducer == "min":
                states[c] = min(states[c], value)
            else:
                states[c] = max(states[c], value)

    def add_block(
        self, measures: Sequence[array], sel: Selection
    ) -> None:
        """Fold the selected rows of whole measure columns.

        ``reduce(add, chunk, running)`` performs the identical left fold
        the row-at-a-time path does (``sum`` would not: from Python 3.12
        it compensates float rounding), and ``min(running, min(chunk))``
        preserves its first-seen tie semantics, so states stay
        bit-identical to :meth:`add` called per selected row in order.
        """
        n = len(sel)
        if n == 0:
            return
        self.rows += n
        states = self.states
        if states is None:
            first = sel[0]
            states = self.states = [col[first] for col in measures]
            if n == 1:
                return
            sel = sel[1:]
        if isinstance(sel, range):
            lo, hi = sel.start, sel.stop
            for c, reducer in enumerate(self.reducers):
                chunk = measures[c][lo:hi]
                if reducer == "add":
                    states[c] = reduce(add, chunk, states[c])
                elif reducer == "min":
                    states[c] = min(states[c], min(chunk))
                else:
                    states[c] = max(states[c], max(chunk))
        else:
            for c, reducer in enumerate(self.reducers):
                col = measures[c]
                if reducer == "add":
                    running = states[c]
                    for i in sel:
                        running = running + col[i]
                    states[c] = running
                elif reducer == "min":
                    states[c] = min(states[c], min(col[i] for i in sel))
                else:
                    states[c] = max(states[c], max(col[i] for i in sel))
