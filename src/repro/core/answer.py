"""Turning view matches into query answers.

Both engines retrieve *state rows* of the routed view as column blocks
(:class:`~repro.rtree.kernels.Block`, one per leaf a search selects);
this module handles the rest: residual predicate filtering (bound
attributes the physical access could not apply), roll-ups for hierarchy
group-bys, re-aggregation to the query's grouping, and finalization of
aggregate states into user-visible values.  All of it runs column by
column: no per-match state list or ``combine_states`` call.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cubetree import fold_reducers, split_states
from repro.errors import QueryError
from repro.query.slice import SliceQuery
from repro.relational.executor import AggFunc, finalize_state
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import Block, FoldAccumulator
from repro.warehouse.hierarchy import Hierarchy

Row = Tuple[object, ...]
Columns = Sequence[Sequence[int]]
#: coordinate columns of a view -> the column of one attribute's values.
Extractor = Callable[[Columns], Sequence[int]]

#: hierarchy attribute -> (hierarchy, determining fact key).  Engines build
#: this from the star schema, so the answer layer never guesses key names.
HierarchyMap = Mapping[str, Tuple[Hierarchy, str]]


def attribute_extractor(
    view: ViewDefinition,
    attr: str,
    hierarchies: HierarchyMap,
) -> Extractor:
    """coordinate columns of ``view`` -> column of ``attr`` (direct or
    rolled up through its hierarchy with one ``map``)."""
    if attr in view.group_by:
        return itemgetter(view.group_by.index(attr))
    binding = hierarchies.get(attr)
    if binding is not None:
        hierarchy, source = binding
        if source in view.group_by:
            idx = view.group_by.index(source)
            roll_up = hierarchy.roll_up
            return lambda coords: list(map(roll_up, coords[idx]))
    raise QueryError(
        f"attribute {attr!r} is not derivable from view {view.name!r}"
    )


#: A pushed-down predicate: attr -> closed interval (equality is (v, v)).
Bounds = Dict[str, Tuple[int, int]]
#: A residual predicate: an extractor plus the interval it must land in.
Residual = Tuple[Extractor, int, int]


def split_bindings(
    view: ViewDefinition,
    query: SliceQuery,
    hierarchies: HierarchyMap,
) -> Tuple[Bounds, List[Residual]]:
    """Direct bounds (on view attributes) vs residual filters.

    A predicate on an attribute the view stores directly can be pushed
    into the physical access (Cubetree rectangle / B-tree prefix / row
    filter); a predicate on a hierarchy attribute of a finer view must be
    applied by rolling each match up.  Equality and range predicates are
    handled uniformly as closed intervals.
    """
    direct: Bounds = {}
    residual: List[Residual] = []
    for attr, (low, high) in query.bounds.items():
        if attr in view.group_by:
            direct[attr] = (low, high)
        else:
            residual.append(
                (attribute_extractor(view, attr, hierarchies), low, high)
            )
    return direct, residual


def finalize_matches(
    matches: Iterable[Block],
    view: ViewDefinition,
    query: SliceQuery,
    hierarchies: HierarchyMap,
    residual: List[Residual],
) -> List[Row]:
    """Aggregate match blocks to the query grouping and finalize them.

    ``matches`` is the block stream of one view, in stream (packing)
    order.  Residual predicates filter column by column; group keys come
    from one ``zip`` of the key columns.  Each group's flattened states
    fold in stream order under :func:`fold_reducers`' tags, so the
    answer is bit-identical to combining the matches one at a time with
    ``combine_states`` (MIN/MAX keep the first-seen of equal values,
    ``-0.0`` survives).  When every match is its own group (see
    :func:`_one_group_per_match`) the fold is skipped: the key columns
    zip with the finalized measure columns and sort on the keys.
    """
    block = _concat(matches)
    if block is None:
        return []
    count, coords, measures = block.count, block.coords, block.measures
    for extract, low, high in residual:
        keep = [
            i for i, value in enumerate(extract(coords))
            if low <= value <= high
        ]
        if len(keep) < count:
            count = len(keep)
            if not count:
                return []
            coords = tuple(list(map(col.__getitem__, keep)) for col in coords)
            measures = tuple(
                list(map(col.__getitem__, keep)) for col in measures
            )

    if not query.group_by:
        acc = FoldAccumulator(fold_reducers(view))
        acc.add_block(measures, range(count))
        return finalize_fold(view, split_states(view, acc))
    keys = [
        attribute_extractor(view, attr, hierarchies)(coords)
        for attr in query.group_by
    ]
    if _one_group_per_match(view, query):
        rows = list(zip(*keys, *_final_columns(view, measures)))
        # The keys are unique, so ordering by them alone is sorted(rows):
        # one stable sort per key column, last column first, each
        # comparing plain ints instead of whole tuples.
        for position in reversed(range(len(keys))):
            rows.sort(key=itemgetter(position))
        return rows

    # One int per match for a one-attribute grouping, else a tuple.
    group_keys = keys[0] if len(keys) == 1 else list(zip(*keys))
    folded = [
        _fold_column(group_keys, col, reducer)
        for col, reducer in zip(measures, fold_reducers(view))
    ]
    groups = sorted(folded[0] if folded else set(group_keys))
    finals = _final_columns(
        view, [list(map(states.__getitem__, groups)) for states in folded]
    )
    final_rows = zip(*finals) if finals else repeat(())
    if len(keys) == 1:
        return [(key,) + row for key, row in zip(groups, final_rows)]
    return [key + row for key, row in zip(groups, final_rows)]


def _concat(blocks: Iterable[Block]) -> Optional[Block]:
    """One block holding a stream's non-empty blocks in order (None when
    there are none); a single block is passed through uncopied."""
    parts = [block for block in blocks if block.count]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    first = parts[0]

    def joined(columns: Sequence[Sequence]) -> Tuple[List, ...]:
        return tuple(list(chain.from_iterable(group)) for group in columns)

    return Block(
        first.view_id,
        sum(block.count for block in parts),
        joined(list(zip(*(block.coords for block in parts)))),
        joined(list(zip(*(block.measures for block in parts)))),
    )


def _one_group_per_match(view: ViewDefinition, query: SliceQuery) -> bool:
    """Is every match its own group?

    A view holds one row per combination of its attributes.  When the
    query groups by view attributes only (no roll-up) and those, with
    the attributes bound by equality, cover all of the view's
    attributes, no two matches can share a group key — so there is
    nothing to fold, and the dict that would do it can be skipped.
    """
    grouped = set(query.group_by)
    if not grouped <= set(view.group_by):
        return False
    fixed = {
        attr for attr, (low, high) in query.bounds.items() if low == high
    }
    return set(view.group_by) <= grouped | fixed


def _fold_column(
    keys: Sequence[object], column: Sequence[float], reducer: str
) -> Dict[object, float]:
    """Per-group left fold of one state component, in stream order.

    ``-0.0`` is the exact identity of IEEE addition (``-0.0 + x`` is
    ``x`` bit for bit, ``-0.0`` and ``0.0`` included), so seeding each
    sum with it equals seeding with the group's first value.  MIN/MAX
    replace the running value only on a strict improvement, which keeps
    the first-seen of equal values as ``min``/``max`` do.
    """
    states: Dict[object, float] = {}
    get = states.get
    if reducer == "add":
        for key, value in zip(keys, column):
            states[key] = get(key, -0.0) + value
    elif reducer == "min":
        for key, value in zip(keys, column):
            old = get(key)
            states[key] = value if old is None or value < old else old
    else:
        for key, value in zip(keys, column):
            old = get(key)
            states[key] = value if old is None or value > old else old
    return states


def _final_columns(
    view: ViewDefinition, measures: Sequence[Sequence[float]]
) -> List[Sequence[float]]:
    """One column of finalized values per aggregate."""
    out: List[Sequence[float]] = []
    offset = 0
    for spec, width in zip(view.aggregates, view.state_widths):
        states = measures[offset : offset + width]
        if spec.func is AggFunc.AVG:
            out.append([finalize_state(spec.func, s) for s in zip(*states)])
        else:
            out.append(states[0])  # a one-component state is its value
        offset += width
    return out


def finalize_fold(
    view: ViewDefinition,
    states: Optional[Sequence[Tuple[float, ...]]],
) -> List[Row]:
    """Finalize pushed-down aggregate states into answer rows.

    The counterpart of :func:`finalize_matches` for a total query (empty
    grouping, no residual) answered by aggregate pushdown: the engine
    already holds the slice's combined per-aggregate states, so the only
    remaining work is finalization.  ``None`` (no tuple matched) yields
    the same empty answer an empty match list would.
    """
    if states is None:
        return []
    funcs = [spec.func for spec in view.aggregates]
    return [
        tuple(
            finalize_state(func, state)
            for func, state in zip(funcs, states)
        )
    ]
