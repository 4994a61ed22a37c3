"""Differential sweep that can see fold order.

The other sweeps use SUM over integer-valued floats, where any order of
additions gives the same bits.  Here measures are non-integer floats of
mixed magnitude (plus ``0.0``/``-0.0`` ties), every view carries SUM,
COUNT, AVG, MIN and MAX, and one attribute is a hierarchy level, used
both as a residual filter and as a roll-up grouping.  The reference is
written here, row at a time: the routed view's stored state rows (from
``scan_points()``, in packing order), filtered per point, combined
pairwise with ``combine_states`` in that order and finalized.  Answers
from ``query``, ``query_batch([q])`` and ``query_batch(all)`` must match
it bit for bit, at 1 and 3 shards, on row and columnar leaves.  A second
property runs the answer layer over a dynamically built (unsorted) tree.

Example count scales with ``REPRO_DIFF_EXAMPLES`` (default 200 locally).
"""

import os
import random
import struct
from itertools import combinations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.answer import finalize_matches, split_bindings
from repro.core.engine import CubetreeEngine
from repro.query.slice import SliceQuery
from repro.relational.executor import (
    AggFunc,
    AggSpec,
    combine_states,
    finalize_state,
)
from repro.relational.view import ViewDefinition
from repro.rtree.geometry import Rect
from repro.rtree.kernels import block_rows
from repro.rtree.packing import sort_key
from repro.rtree.tree import RTree
from repro.settings import override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import Dimension, StarSchema

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))

KEY_NAMES = ("ka", "kb", "kc")
#: The hierarchy level over ``ka``: ka -> 1 + ka % 2.
LEVEL = "grp"
AGGREGATES = (
    AggSpec(AggFunc.SUM, "quantity"),
    AggSpec(AggFunc.COUNT),
    AggSpec(AggFunc.AVG, "quantity"),
    AggSpec(AggFunc.MIN, "quantity"),
    AggSpec(AggFunc.MAX, "quantity"),
)
#: Magnitudes far apart, so a reassociated sum rounds differently.
MEASURES = (0.1, 0.7, 2.5e-3, 1e16, -1e16, 0.0, -0.0)


def _level(key):
    return 1 + key % 2


def _schema(domain_sizes):
    dimensions = {}
    for name, size in domain_sizes.items():
        if name == "ka":
            dimensions[name] = Dimension(
                name="dim_ka", key="ka", attributes=("ka", LEVEL),
                rows=[(v, _level(v)) for v in range(1, size + 1)],
            )
        else:
            dimensions[name] = Dimension(
                name=f"dim_{name}", key=name, attributes=(name,),
                rows=[(v,) for v in range(1, size + 1)],
            )
    schema = StarSchema(
        fact_keys=tuple(domain_sizes), measure="quantity",
        dimensions=dimensions,
    )
    return schema, {LEVEL: Hierarchy.from_dimension(dimensions["ka"], LEVEL)}


def _bits(row):
    """A row with every float replaced by its IEEE bytes."""
    return tuple(
        struct.pack("<d", v) if isinstance(v, float) else v for v in row
    )


@st.composite
def cases(draw):
    n_keys = draw(st.integers(min_value=2, max_value=3))
    keys = KEY_NAMES[:n_keys]
    sizes = {k: draw(st.integers(min_value=3, max_value=5)) for k in keys}
    facts = draw(
        st.lists(
            st.tuples(
                *[st.integers(min_value=1, max_value=sizes[k]) for k in keys],
                st.sampled_from(MEASURES),
            ),
            min_size=12,
            max_size=80,
        )
    )
    middles = [
        node for size in range(1, n_keys) for node in combinations(keys, size)
    ]
    # At most one middle node: most queries then fold a coarser view.
    chosen = draw(st.lists(st.sampled_from(middles), max_size=1))
    nodes = [tuple(keys), ()] + chosen
    views = [
        ViewDefinition("v_" + "_".join(node), node, AGGREGATES)
        for node in nodes
    ]
    queries = draw(st.lists(_queries(sizes), min_size=1, max_size=4))
    shards = draw(st.sampled_from((1, 3)))
    leaf_format = draw(st.sampled_from(("row", "columnar")))
    return sizes, facts, views, queries, shards, leaf_format


@st.composite
def _queries(draw, sizes):
    """Slices over the fact keys plus the ``grp`` level of ``ka``."""
    attrs = list(sizes) + [LEVEL]
    node = draw(
        st.lists(st.sampled_from(attrs), unique=True, min_size=1, max_size=3)
    )
    if LEVEL in node and "ka" in node:
        node.remove("ka")  # grp is determined by ka
    bound = draw(
        st.lists(st.sampled_from(node), unique=True, max_size=len(node))
        if node else st.just([])
    )
    bindings, ranges = [], []
    for attr in bound:
        size = 2 if attr == LEVEL else sizes[attr]
        if draw(st.booleans()):
            bindings.append((attr, draw(st.integers(1, size))))
        else:
            low = draw(st.integers(1, size))
            ranges.append((attr, low, draw(st.integers(low, size))))
    group_by = tuple(a for a in node if a not in bound)
    return SliceQuery(group_by, tuple(bindings), tuple(ranges))


def _stored_rows(engine, view):
    """The view's state rows over every shard, in global packing order."""
    rows = []
    for shard in engine.shards:
        forest = shard.require_forest()
        tree = forest._tree_for(view.name).tree
        rows.extend(
            (point[: view.arity], values)
            for view_id, point, values in tree.scan_points()
            if view_id == view.arity
        )
    dims = engine.shards[0].require_forest().tree_dims(view.name)
    return sorted(rows, key=lambda row: sort_key(row[0], dims))


def _value(view, coords, attr):
    if attr in view.group_by:
        return coords[view.group_by.index(attr)]
    return _level(coords[view.group_by.index("ka")])


def _reference(rows, view, query):
    """Row-at-a-time answer: filter, combine pairwise in order, finalize."""
    groups = {}
    for coords, values in rows:
        if any(
            not low <= _value(view, coords, attr) <= high
            for attr, (low, high) in query.bounds.items()
        ):
            continue
        key = tuple(_value(view, coords, attr) for attr in query.group_by)
        states, offset = [], 0
        for width in view.state_widths:
            states.append(tuple(values[offset : offset + width]))
            offset += width
        old = groups.get(key)
        groups[key] = states if old is None else [
            combine_states(spec.func, a, b)
            for spec, a, b in zip(view.aggregates, old, states)
        ]
    return [
        key + tuple(
            finalize_state(spec.func, state)
            for spec, state in zip(view.aggregates, groups[key])
        )
        for key in sorted(groups)
    ]


def _check(engine, query, result):
    view = engine.forest.view_definition(result.plan.split()[0])
    expected = _reference(_stored_rows(engine, view), view, query)
    assert [_bits(r) for r in result.rows] == [_bits(r) for r in expected]


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
def test_every_entry_point_folds_in_packing_order(case):
    sizes, facts, views, queries, shards, leaf_format = case
    schema, hierarchies = _schema(sizes)
    with override(leaf_format=leaf_format):
        engine = CubetreeEngine(schema, hierarchies, shards=shards)
        engine.materialize(views, facts)
        half = len(facts) // 2
        for phase in range(2):
            for query in queries:
                _check(engine, query, engine.query(query))
                _check(engine, query, engine.query_batch([query]).results[0])
            batch = engine.query_batch(queries)
            for query, result in zip(queries, batch.results):
                _check(engine, query, result)
            if phase == 0:
                engine.update(facts[:half])  # merge-packed states


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 6), st.integers(1, 6), st.sampled_from(MEASURES)
        ),
        min_size=1, max_size=120, unique_by=lambda r: r[:2],
    ),
    st.integers(0, 2**32 - 1),
    _queries({"ka": 6, "kb": 6}),
)
def test_dynamic_tree_blocks_fold_in_stream_order(points, seed, query):
    """A Guttman-built tree: unsorted leaves, index-list selections."""
    view = ViewDefinition("v_ka_kb", ("ka", "kb"), AGGREGATES)
    width = view.total_state_width
    pool = BufferPool(DiskManager(), capacity=64)
    tree = RTree(pool, 2, n_aggs=width)
    random.Random(seed).shuffle(points)
    for ka, kb, q in points:
        # SUM, COUNT, AVG (sum, count), MIN, MAX of one fact.
        tree.insert((ka, kb), (q, 1.0, q, 1.0, q, q))
    hierarchies = {
        LEVEL: (Hierarchy("dim_ka", LEVEL, {v: _level(v) for v in range(1, 7)}),
                "ka")
    }
    direct, residual = split_bindings(view, query, hierarchies)
    lows = [direct.get(a, (0, 7))[0] for a in view.group_by]
    highs = [direct.get(a, (0, 7))[1] for a in view.group_by]
    rect = Rect(tuple(lows), tuple(highs))
    stream = list(block_rows(tree.search(rect)))
    stored = [
        (point, values) for _id, point, values in tree.scan_points()
        if rect.contains_point(point)
    ]
    assert sorted(stream) == sorted(stored)
    got = finalize_matches(tree.search(rect), view, query, hierarchies, residual)
    assert [_bits(r) for r in got] == [
        _bits(r) for r in _reference(stream, view, query)
    ]
