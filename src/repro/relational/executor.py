"""Physical operators: scans, filters, external sort, hash join, and
sort-based group aggregation.

These are the building blocks for both materializing views (the cube
computation sorts a parent and aggregates adjacent groups) and answering
queries from finer-grained views (re-aggregation).
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice, repeat
from math import copysign
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.columns import gather, group_starts
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec
from repro.storage.heap import HeapFile

Row = Tuple[object, ...]


def make_key_extractor(
    indexes: Sequence[int],
) -> Callable[[Row], Tuple[object, ...]]:
    """A ``row -> tuple(row[i] for i in indexes)`` built on ``itemgetter``.

    ``itemgetter`` runs the projection in C; the 0- and 1-index cases are
    special-cased because ``itemgetter`` would be invalid or return a bare
    scalar there.
    """
    idxs = tuple(indexes)
    if not idxs:
        return lambda row: ()
    if len(idxs) == 1:
        i = idxs[0]
        return lambda row: (row[i],)
    return itemgetter(*idxs)


class AggFunc(Enum):
    """Aggregate functions supported by views.

    The paper uses ``sum(quantity)`` throughout its experiments and notes
    the scheme "can be extended to support multiple aggregation functions
    for each point"; we support the usual distributive/algebraic set.
    """

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate column of a view: a function over a measure attribute.

    ``COUNT`` ignores the attribute (SQL's ``count(*)``).
    """

    func: AggFunc
    attribute: str = ""

    def __str__(self) -> str:
        arg = self.attribute or "*"
        return f"{self.func.value}({arg})"


def state_width(func: AggFunc) -> int:
    """Number of stored state values for a function (AVG keeps sum+count)."""
    return 2 if func is AggFunc.AVG else 1


def init_state(func: AggFunc, value: float) -> Tuple[float, ...]:
    """Aggregate state for a single raw measure value."""
    if func is AggFunc.COUNT:
        return (1.0,)
    if func is AggFunc.AVG:
        return (value, 1.0)
    return (value,)


def merge_value(
    func: AggFunc, state: Tuple[float, ...], value: float
) -> Tuple[float, ...]:
    """Fold one more raw measure value into an aggregate state."""
    if func is AggFunc.SUM:
        return (state[0] + value,)
    if func is AggFunc.COUNT:
        return (state[0] + 1.0,)
    if func is AggFunc.MIN:
        return (min(state[0], value),)
    if func is AggFunc.MAX:
        return (max(state[0], value),)
    return (state[0] + value, state[1] + 1.0)  # AVG


def combine_states(
    func: AggFunc, a: Tuple[float, ...], b: Tuple[float, ...]
) -> Tuple[float, ...]:
    """Merge two partial states (used by re-aggregation and merge-pack)."""
    if func is AggFunc.MIN:
        return (min(a[0], b[0]),)
    if func is AggFunc.MAX:
        return (max(a[0], b[0]),)
    return tuple(x + y for x, y in zip(a, b))


def finalize_state(func: AggFunc, state: Tuple[float, ...]) -> float:
    """Produce the user-visible value from a stored state."""
    if func is AggFunc.AVG:
        return state[0] / state[1] if state[1] else 0.0
    return state[0]


# ----------------------------------------------------------------------
# basic operators
# ----------------------------------------------------------------------
def filter_rows(
    rows: Iterable[Row], predicate: Callable[[Row], bool]
) -> Iterator[Row]:
    """Selection."""
    return (row for row in rows if predicate(row))


def project(rows: Iterable[Row], indexes: Sequence[int]) -> Iterator[Row]:
    """Projection by column positions."""
    idxs = tuple(indexes)
    return (tuple(row[i] for i in idxs) for row in rows)


def hash_join(
    left: Iterable[Row],
    right: Iterable[Row],
    left_key: int,
    right_key: int,
) -> Iterator[Row]:
    """Classic hash join; the right input is built into the hash table.

    Output rows are ``left + right`` concatenations.  Used when a view
    groups by a dimension attribute reachable only through the dimension
    table (e.g. ``part.brand``).
    """
    table: dict[object, List[Row]] = {}
    for row in right:
        table.setdefault(row[right_key], []).append(row)
    for row in left:
        for match in table.get(row[left_key], ()):
            yield row + match


# ----------------------------------------------------------------------
# external sort
# ----------------------------------------------------------------------
def external_sort(
    pool: BufferPool,
    codec: RecordCodec,
    rows: Iterable[Row],
    key: Callable[[Row], Tuple],
    chunk_rows: int = 100_000,
) -> Iterator[Row]:
    """Run-based external merge sort through the paged substrate.

    Rows are accumulated into in-memory chunks of ``chunk_rows``; each
    chunk is sorted and spilled to a temporary heap file (sequential
    writes); the runs are then k-way merged (see
    :func:`merge_sorted_chunks`).  Inputs that fit into a single chunk
    are sorted purely in memory.
    """
    return merge_sorted_chunks(
        pool, codec, _sorted_row_chunks(rows, key, chunk_rows), key,
        chunk_rows,
    )


def _sorted_row_chunks(
    rows: Iterable[Row], key: Callable[[Row], Tuple], chunk_rows: int
) -> Iterator[List[Row]]:
    chunk: List[Row] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= chunk_rows:
            chunk.sort(key=key)
            yield chunk
            chunk = []
    if chunk:
        chunk.sort(key=key)
        yield chunk


def merge_sorted_chunks(
    pool: BufferPool,
    codec: RecordCodec,
    chunks: Iterable[Sequence[Row]],
    key: Callable[[Row], Tuple],
    chunk_rows: int,
) -> Iterator[Row]:
    """The spill-and-merge half of :func:`external_sort`, over chunks
    the caller has already sorted by ``key``.

    Every chunk holds ``chunk_rows`` rows except perhaps the last.  A
    lone short chunk fits in memory and is yielded as it is; otherwise
    each chunk is spilled to a temporary heap file and the runs are
    k-way merged with :func:`heapq.merge`, which breaks ties by run
    order, so the result is the stable sort of the whole input.

    Each open run pins one page, so a merge reads at most the pool's
    free frames less one (the frame a spilled output run writes
    through) at once.  More runs than that are merged in passes: each
    pass merges consecutive groups into longer spilled runs, keeping
    their order, until one final merge can read them all.

    The temporary run pages are freed on every exit: once the merge
    completes, when the consumer closes the stream early or raises into
    it, and when a spill fails part way.
    """
    spilled: List[HeapFile] = []
    streams: List[Iterator[Row]] = []
    try:
        short: Optional[Sequence[Row]] = None
        for chunk in chunks:
            if short is not None:
                raise ValueError("only the last chunk may be short")
            if len(chunk) < chunk_rows and not spilled:
                short = chunk  # fits in memory unless more chunks follow
                continue
            run = HeapFile(pool, codec)
            spilled.append(run)  # before its pages: a failed spill frees them
            run.append_records(chunk)

        if not spilled:  # everything fits in memory
            yield from short or ()
            return

        runs = list(spilled)
        fan_in = max(2, pool.free_frames - 1)
        while len(runs) > fan_in:
            merged: List[HeapFile] = []
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                if len(group) > 1:
                    streams = [run.scan_records() for run in group]
                    out = HeapFile(pool, codec)
                    spilled.append(out)
                    rows = heapq.merge(*streams, key=key)
                    while batch := list(islice(rows, out.slots_per_page)):
                        out.append_records(batch)
                    for run in group:
                        _free_run(pool, run)
                    group = [out]
                merged.extend(group)
            runs = merged

        streams = [run.scan_records() for run in runs]
        yield from heapq.merge(*streams, key=key)
    finally:
        for stream in streams:  # (unpins a page a scan stopped on)
            stream.close()
        for run in spilled:
            _free_run(pool, run)


def _free_run(pool: BufferPool, run: HeapFile) -> None:
    """Drop a temporary run's pages from the pool and free them on disk."""
    for page_id in run.page_ids:
        pool.discard_page(page_id)
        pool.disk.free_page(page_id)
    run.page_ids = []


# ----------------------------------------------------------------------
# sort-based aggregation, a column at a time
# ----------------------------------------------------------------------
#: Integers up to this magnitude are exact doubles, so a group whose
#: partial sums stay within it sums the same in int and float arithmetic.
_EXACT_INT = 2**53


def aggregate_columns(
    key_columns: Sequence[array],
    value_columns: Sequence[array],
    count: int,
    measures: Sequence[Tuple[AggFunc, int]],
) -> Tuple[List[array], List[array]]:
    """Aggregate raw measures over columns sorted by their keys.

    ``measures`` holds ``(function, index into value_columns)`` pairs;
    the index is ignored for COUNT.  Returns the key columns with one
    entry per group and the flattened state columns (AVG keeps sum and
    count) — states, not final values, so AVG stays mergeable.
    """
    starts = group_starts(key_columns, count)
    ends = starts[1:] + [count]
    states: List[array] = []
    for func, idx in measures:
        if func is AggFunc.COUNT:
            states.append(_group_counts(starts, ends))
        elif func is AggFunc.SUM:
            states.append(_group_sums(value_columns[idx], starts, ends))
        elif func is AggFunc.AVG:
            states.append(_group_sums(value_columns[idx], starts, ends))
            states.append(_group_counts(starts, ends))
        else:
            pick = min if func is AggFunc.MIN else max
            states.append(_group_picks(pick, value_columns[idx], starts, ends))
    return gather(key_columns, starts), states


def reaggregate_columns(
    key_columns: Sequence[array],
    state_columns: Sequence[array],
    count: int,
    funcs: Sequence[AggFunc],
) -> Tuple[List[array], List[array]]:
    """Combine a finer view's flattened state columns, sorted by the
    coarser keys, into one state per group (see :func:`combine_states`)."""
    starts = group_starts(key_columns, count)
    ends = starts[1:] + [count]
    states: List[array] = []
    offset = 0
    for func in funcs:
        for column in state_columns[offset : offset + state_width(func)]:
            if func in (AggFunc.MIN, AggFunc.MAX):
                pick = min if func is AggFunc.MIN else max
                states.append(_group_picks(pick, column, starts, ends))
            else:  # SUM / COUNT / both AVG halves combine by addition
                states.append(_group_sums(column, starts, ends))
        offset += state_width(func)
    return gather(key_columns, starts), states


def _group_counts(starts: Sequence[int], ends: Sequence[int]) -> array:
    return array("d", map(float, map(sub, ends, starts)))


def _group_picks(
    pick: Callable[[array], object],
    column: array,
    starts: Sequence[int],
    ends: Sequence[int],
) -> array:
    """MIN or MAX per group: the first extreme value, as ``min(a, b)``
    folded left to right would keep it."""
    groups = map(column.__getitem__, map(slice, starts, ends))
    return array("d", map(float, map(pick, groups)))


def _group_sums(
    column: array, starts: Sequence[int], ends: Sequence[int]
) -> array:
    """Per-group sums, each equal to folding the group left to right in
    float arithmetic.

    When every value is an integer and no partial sum can pass 2**53,
    every such fold is exact, so the sums are differences of one prefix
    sum over the column, at C speed; otherwise each group is folded in
    order.
    """
    if not starts:
        return array("d")
    if not _sums_exactly(column):
        return array("d", map(_fold_sum, repeat(column), starts, ends))
    prefix = array(column.typecode, accumulate(column, initial=0))
    bounds = itemgetter(*starts, ends[-1])(prefix)
    return array("d", map(sub, bounds[1:], bounds[:-1]))


def _sums_exactly(column: array) -> bool:
    """True when the column holds integers whose partial sums, in any
    order, are all exact doubles.

    A ``-0.0`` rules the prefix sums out: a group of negative zeros
    folds to ``-0.0``, but a difference of prefix sums is ``+0.0``.
    """
    peak = max(max(column), -min(column))
    if not peak * len(column) <= _EXACT_INT:  # (also false for nan)
        return False
    if column.typecode == "q":
        return True
    return all(map(float.is_integer, column)) and not (
        0.0 in column and any(copysign(1.0, v) < 0 for v in column if not v)
    )


def _fold_sum(column: array, start: int, end: int) -> float:
    total = float(column[start])
    for value in column[start + 1 : end]:
        total = total + value
    return total
