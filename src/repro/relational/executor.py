"""Physical operators: scans, filters, external sort, hash join, and
sort-based group aggregation.

These are the building blocks for both materializing views (the cube
computation sorts a parent and aggregates adjacent groups) and answering
queries from finer-grained views (re-aggregation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec
from repro.storage.heap import HeapFile

Row = Tuple[object, ...]

#: Distinct from every group key (keys are tuples), so empty inputs and
#: the first row are told apart without an Optional check per row.
_NO_GROUP = object()


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


def make_row_projector(
    indexes: Sequence[int],
) -> Callable[[Row], Tuple[object, ...]]:
    """Same as :func:`make_key_extractor`; named for projection call sites."""
    return make_key_extractor(indexes)


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
    writes); the runs are then k-way merged.  Inputs that fit into a
    single chunk are sorted purely in memory.

    The temporary run pages are freed on every exit: once the merge
    completes, when the consumer closes the stream early or raises into
    it, and when a spill fails part way.
    """
    runs: List[HeapFile] = []
    streams: List[Iterator[Row]] = []
    try:
        chunk: List[Row] = []
        for row in rows:
            chunk.append(row)
            if len(chunk) >= chunk_rows:
                chunk.sort(key=key)
                run = HeapFile(pool, codec)
                runs.append(run)  # before its pages: a failed spill frees them
                run.bulk_append(chunk)
                chunk = []

        if not runs:  # everything fits in memory
            chunk.sort(key=key)
            yield from chunk
            return

        if chunk:
            chunk.sort(key=key)
            run = HeapFile(pool, codec)
            runs.append(run)
            run.bulk_append(chunk)

        streams = [run.scan_records() for run in runs]
        yield from heapq.merge(*streams, key=key)
    finally:
        for stream in streams:  # (unpins a page a scan stopped on)
            stream.close()
        for run in runs:
            for page_id in run.page_ids:
                pool.discard_page(page_id)
                pool.disk.free_page(page_id)


# ----------------------------------------------------------------------
# sort-based aggregation
# ----------------------------------------------------------------------
def sort_group_aggregate(
    sorted_rows: Iterable[Row],
    group_indexes: Sequence[int],
    measures: Sequence[Tuple[AggFunc, int]],
) -> Iterator[Row]:
    """Aggregate rows already sorted by their group columns.

    Parameters
    ----------
    sorted_rows:
        Input rows, sorted so equal groups are adjacent.
    group_indexes:
        Columns forming the group key.
    measures:
        ``(function, measure column)`` pairs; the column is ignored for
        COUNT.

    Yields
    ------
    ``group values + flattened aggregate states`` — states, not final
    values, so AVG stays mergeable (finalize at query time).
    """
    key_of = make_key_extractor(group_indexes)
    if len(measures) == 1:
        yield from _aggregate_single(sorted_rows, key_of, *measures[0])
        return

    current_key: object = _NO_GROUP
    states: List[Tuple[float, ...]] = []
    for row in sorted_rows:
        key = key_of(row)
        if key == current_key:
            states = [
                merge_value(func, state, _measure_of(row, idx, func))
                for (func, idx), state in zip(measures, states)
            ]
        else:
            if current_key is not _NO_GROUP:
                flat: List[float] = []
                for state in states:
                    flat.extend(state)
                yield current_key + tuple(flat)  # type: ignore[operator]
            current_key = key
            states = [
                init_state(func, _measure_of(row, idx, func))
                for func, idx in measures
            ]
    if current_key is not _NO_GROUP:
        flat = []
        for state in states:
            flat.extend(state)
        yield current_key + tuple(flat)  # type: ignore[operator]


def _aggregate_single(
    sorted_rows: Iterable[Row],
    key_of: Callable[[Row], Tuple[object, ...]],
    func: AggFunc,
    idx: int,
) -> Iterator[Row]:
    """One-measure aggregation with scalar accumulators (the hot shape).

    Avoids per-row state-tuple rebuilds; results are bit-identical to the
    generic path because the same float additions happen in the same
    order.
    """
    current_key: object = _NO_GROUP
    if func is AggFunc.SUM:
        acc = 0.0
        for row in sorted_rows:
            key = key_of(row)
            if key == current_key:
                acc = acc + row[idx]  # type: ignore[operator]
            else:
                if current_key is not _NO_GROUP:
                    yield current_key + (acc,)  # type: ignore[operator]
                current_key = key
                acc = float(row[idx])  # type: ignore[arg-type]
        if current_key is not _NO_GROUP:
            yield current_key + (acc,)  # type: ignore[operator]
    elif func is AggFunc.COUNT:
        count = 0.0
        for row in sorted_rows:
            key = key_of(row)
            if key == current_key:
                count += 1.0
            else:
                if current_key is not _NO_GROUP:
                    yield current_key + (count,)  # type: ignore[operator]
                current_key = key
                count = 1.0
        if current_key is not _NO_GROUP:
            yield current_key + (count,)  # type: ignore[operator]
    elif func is AggFunc.AVG:
        total = 0.0
        count = 0.0
        for row in sorted_rows:
            key = key_of(row)
            if key == current_key:
                total = total + row[idx]  # type: ignore[operator]
                count += 1.0
            else:
                if current_key is not _NO_GROUP:
                    yield current_key + (total, count)  # type: ignore[operator]
                current_key = key
                total = float(row[idx])  # type: ignore[arg-type]
                count = 1.0
        if current_key is not _NO_GROUP:
            yield current_key + (total, count)  # type: ignore[operator]
    else:  # MIN / MAX
        pick = min if func is AggFunc.MIN else max
        best = 0.0
        for row in sorted_rows:
            key = key_of(row)
            if key == current_key:
                best = pick(best, float(row[idx]))  # type: ignore[arg-type]
            else:
                if current_key is not _NO_GROUP:
                    yield current_key + (best,)  # type: ignore[operator]
                current_key = key
                best = float(row[idx])  # type: ignore[arg-type]
        if current_key is not _NO_GROUP:
            yield current_key + (best,)  # type: ignore[operator]


def reaggregate_states(
    sorted_rows: Iterable[Row],
    group_indexes: Sequence[int],
    funcs_with_slices: Sequence[Tuple[AggFunc, slice]],
) -> Iterator[Row]:
    """Combine *state* rows (a finer view's tuples) into coarser groups.

    ``funcs_with_slices`` locates each aggregate's state columns within the
    input rows.  Rows must be sorted by the group columns.
    """
    key_of = make_key_extractor(group_indexes)
    if len(funcs_with_slices) == 1:
        yield from _reaggregate_single(sorted_rows, key_of,
                                       *funcs_with_slices[0])
        return

    current_key: object = _NO_GROUP
    states: List[Tuple[float, ...]] = []
    for row in sorted_rows:
        key = key_of(row)
        row_states = [tuple(row[s]) for _f, s in funcs_with_slices]
        if key == current_key:
            states = [
                combine_states(func, old, new)
                for (func, _s), old, new in zip(
                    funcs_with_slices, states, row_states
                )
            ]
        else:
            if current_key is not _NO_GROUP:
                flat: List[float] = []
                for state in states:
                    flat.extend(state)
                yield current_key + tuple(flat)  # type: ignore[operator]
            current_key = key
            states = row_states
    if current_key is not _NO_GROUP:
        flat = []
        for state in states:
            flat.extend(state)
        yield current_key + tuple(flat)  # type: ignore[operator]


def _reaggregate_single(
    sorted_rows: Iterable[Row],
    key_of: Callable[[Row], Tuple[object, ...]],
    func: AggFunc,
    state_slice: slice,
) -> Iterator[Row]:
    """One-aggregate state re-aggregation with scalar accumulators."""
    current_key: object = _NO_GROUP
    start = state_slice.start
    if func is AggFunc.AVG:  # two state columns: running (sum, count)
        total = 0.0
        count = 0.0
        for row in sorted_rows:
            key = key_of(row)
            if key == current_key:
                total = total + row[start]  # type: ignore[operator]
                count = count + row[start + 1]  # type: ignore[operator]
            else:
                if current_key is not _NO_GROUP:
                    yield current_key + (total, count)  # type: ignore[operator]
                current_key = key
                total = row[start]  # type: ignore[assignment]
                count = row[start + 1]  # type: ignore[assignment]
        if current_key is not _NO_GROUP:
            yield current_key + (total, count)  # type: ignore[operator]
        return
    if func in (AggFunc.MIN, AggFunc.MAX):
        pick = min if func is AggFunc.MIN else max
        combine: Callable[[object, object], object] = pick
    else:  # SUM / COUNT states combine by addition
        def combine(a: object, b: object) -> object:
            return a + b  # type: ignore[operator]
    acc: object = 0.0
    for row in sorted_rows:
        key = key_of(row)
        if key == current_key:
            acc = combine(acc, row[start])
        else:
            if current_key is not _NO_GROUP:
                yield current_key + (acc,)  # type: ignore[operator]
            current_key = key
            acc = row[start]
    if current_key is not _NO_GROUP:
        yield current_key + (acc,)  # type: ignore[operator]


def _measure_of(row: Row, idx: int, func: AggFunc) -> float:
    if func is AggFunc.COUNT:
        return 0.0
    return float(row[idx])  # type: ignore[arg-type]
