"""Column query kernels: units and the differential sweep.

Every search reads its leaves through the kernels, so each is checked
against an independent brute-force oracle: ``rect.contains_point`` over
the tree's own ``scan_points()`` for the view (in order for run passes,
as sorted lists for descents).  Covers: ``select_rows`` against
per-point containment (packed and unsorted leaves),
``FoldAccumulator``'s exact serial float semantics, the run pass
(``search_run_group``: one request or several, collecting or folding) and
the classic descent over columnar and row leaves, dynamic trees with unsorted leaves and zero
coordinates, the aggregate pushdown, and a Hypothesis sweep that
answers random workloads through ``query``, a one-query batch and one
whole batch on row- and columnar-leaf engines and demands identical
rows, equal to the on-the-fly oracle's.

Example count scales with ``REPRO_DIFF_EXAMPLES`` (default 200 locally;
CI sets a smaller smoke profile).
"""

import os
from array import array
from itertools import combinations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.engine import CubetreeEngine
from repro.core.onthefly import OnTheFlyEngine
from repro.obs import get_registry
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.rtree.geometry import Rect
from repro.rtree.kernels import (
    FoldAccumulator,
    LeafColumns,
    leaf_columns,
    select_rows,
)
from repro.rtree.node import leaf_capacity
from repro.rtree.packing import PackedRun, pack_rtree
from repro.rtree.tree import RTree
from repro.settings import override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.warehouse.star import Dimension, StarSchema

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))

DIMS = 2
CAP1 = leaf_capacity(1, 1)
CAP2 = leaf_capacity(2, 1)
BIG = 10**9
INT64_MAX = (1 << 63) - 1

KEY_NAMES = ("ka", "kb", "kc")



def found(tree, blocks):
    """A search's blocks in row form: (view id, padded point, values)."""
    return [entry for block in blocks for entry in block.entries(tree.dims)]

def make_pool(capacity=2048):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def packed_tree(pool, n1=2 * CAP1 + 92, n2=2 * CAP2 + 31):
    """View 1 (arity 1) then view 2 (arity 2), several leaves each."""
    run1 = PackedRun.from_entries(
        1, 1, 1, [((i,), (float(i),)) for i in range(1, n1 + 1)]
    )
    entries2 = sorted(
        (
            ((x, y), (float(x * y),))
            for y in range(1, 41)
            for x in range(1, n2 // 40 + 2)
        ),
        key=lambda e: tuple(reversed(e[0])),
    )[:n2]
    run2 = PackedRun.from_entries(2, 2, 1, entries2)
    return pack_rtree(pool, DIMS, [run1, run2])


def view_rect(view_arity, bounds=None):
    """The slice rectangle for one view: padding dims pinned to zero."""
    lows, highs = [], []
    for dim in range(DIMS):
        if dim >= view_arity:
            lows.append(0)
            highs.append(0)
        elif bounds and dim in bounds:
            lo, hi = bounds[dim]
            lows.append(lo)
            highs.append(hi)
        else:
            lows.append(1)
            highs.append(BIG)
    return Rect(tuple(lows), tuple(highs))


def columnar_packed_tree(pool, **kwargs):
    """A packed tree whose leaves must be decoded from columnar pages."""
    return decoded_packed_tree(pool, "columnar", **kwargs)


def decoded_packed_tree(pool, leaf_format, **kwargs):
    """A packed tree whose leaves must be decoded from ``leaf_format``
    pages (row or columnar)."""
    with override(leaf_format=leaf_format):
        tree = packed_tree(pool, **kwargs)
    pool.clear()  # drop in-memory nodes: fetches decode the page bytes
    return tree


def run_pass(tree, view_id, rect, lo_key, hi_key):
    """One request through the run pass, collected and then folded:
    ``(its matches in row form, a FoldAccumulator of them)``."""
    request = (rect, lo_key, hi_key)
    (blocks,) = tree.search_run_group(view_id, [request])
    acc = FoldAccumulator(("add",))
    assert tree.search_run_group(view_id, [request], [acc]) == [[]]
    return found(tree, blocks), acc


def brute_force(tree, view_id, rect):
    """The oracle: every stored point of the view inside ``rect``, in
    leaf-chain (= run) order, by per-point containment."""
    return [
        match
        for match in tree.scan_points()
        if match[0] == view_id and rect.contains_point(match[1])
    ]


def make_cols(points, n_aggs=0):
    """LeafColumns for explicit points (sorted like a packed leaf)."""
    arity = len(points[0]) if points else 0
    coords = tuple(
        array("q", [p[c] for p in points]) for c in range(arity)
    )
    measures = tuple(
        array("d", [float(i)] * len(points)) for _ in range(n_aggs)
    )
    return LeafColumns(len(points), arity, coords, measures)


def scalar_selection(points, rect, dims):
    """Indices the scalar path would keep: padded containment, in order."""
    pad = (0,) * (dims - (len(points[0]) if points else 0))
    return [
        i
        for i, p in enumerate(points)
        if rect.contains_point(tuple(p) + pad)
    ]


# ----------------------------------------------------------------------
# select_rows
# ----------------------------------------------------------------------
def test_select_rows_arity_zero_selects_everything():
    cols = LeafColumns(3, 0, (), ())
    rect = Rect((0, 0), (0, 0))
    assert select_rows(cols, rect, DIMS, True) == range(3)


def test_select_rows_empty_leaf_is_none():
    cols = LeafColumns(0, 1, (array("q"),), ())
    assert select_rows(cols, view_rect(1), DIMS, True) is None


def test_select_rows_padding_dim_violation_is_none():
    points = [(1,), (2,), (3,)]
    cols = make_cols(points)
    # A rect demanding dim 1 >= 1 can never match an arity-1 leaf.
    rect = Rect((1, 1), (BIG, BIG))
    assert select_rows(cols, rect, DIMS, True) is None
    assert scalar_selection(points, rect, DIMS) == []


def test_select_rows_prefix_bounds_come_back_contiguous():
    points = [(i,) for i in range(1, 21)]
    cols = make_cols(points)
    rect = view_rect(1, {0: (5, 11)})
    sel = select_rows(cols, rect, DIMS, True)
    assert isinstance(sel, range)
    assert list(sel) == scalar_selection(points, rect, DIMS)


def test_select_rows_secondary_dim_filter_returns_index_list():
    # Sorted by reversed key: dim 1 (the lead column) non-decreasing.
    points = sorted(
        ((x, y) for y in range(1, 6) for x in range(1, 6)),
        key=lambda p: (p[1], p[0]),
    )
    cols = make_cols(points)
    rect = view_rect(2, {1: (2, 4), 0: (3, 3)})
    sel = select_rows(cols, rect, DIMS, True)
    assert isinstance(sel, list)
    assert sel == scalar_selection(points, rect, DIMS)


def test_select_rows_no_match_is_none():
    points = [(i,) for i in range(1, 9)]
    cols = make_cols(points)
    assert select_rows(cols, view_rect(1, {0: (100, 200)}), DIMS, True) is None


@given(st.data())
@settings(max_examples=max(20, EXAMPLES // 2), deadline=None)
def test_select_rows_matches_scalar_containment(data):
    """Kernel selection == per-point containment on any packed leaf."""
    n = data.draw(st.integers(min_value=1, max_value=40))
    raw = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=n,
            max_size=n,
        )
    )
    points = sorted(raw, key=lambda p: tuple(reversed(p)))
    cols = make_cols(points)
    bounds = {}
    for dim in range(2):
        if data.draw(st.booleans()):
            lo = data.draw(st.integers(min_value=1, max_value=9))
            hi = data.draw(st.integers(min_value=lo, max_value=9))
            bounds[dim] = (lo, hi)
    rect = view_rect(2, bounds or None)
    sel = select_rows(cols, rect, DIMS, True)
    got = list(sel) if sel is not None else []
    assert got == scalar_selection(points, rect, DIMS)


def test_select_rows_unpacked_compares_every_bound_dim():
    """Unsorted points holding 0 under an unbound ``[1, INT64_MAX]``
    dimension: no bisect, and the unbound bound still rejects the 0."""
    points = [(5, 2), (0, 3), (2, 9), (4, 0), (1, 1), (3, 2)]
    cols = make_cols(points)
    rect = Rect((1, 1), (INT64_MAX, 3))
    sel = select_rows(cols, rect, DIMS, False)
    assert sel == scalar_selection(points, rect, DIMS) == [0, 4, 5]


@given(st.data())
@settings(max_examples=max(20, EXAMPLES // 2), deadline=None)
def test_select_rows_unpacked_matches_scalar_containment(data):
    """The full comparison pass == per-point containment on any leaf,
    unsorted and with zero coordinates."""
    points = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=40,
        )
    )
    cols = make_cols(points)
    lows, highs = [], []
    for _dim in range(2):
        if data.draw(st.booleans()):
            lo = data.draw(st.integers(min_value=0, max_value=9))
            hi = data.draw(st.integers(min_value=lo, max_value=9))
        else:
            lo, hi = 1, INT64_MAX
        lows.append(lo)
        highs.append(hi)
    rect = Rect(tuple(lows), tuple(highs))
    sel = select_rows(cols, rect, DIMS, False)
    got = list(sel) if sel is not None else []
    assert got == scalar_selection(points, rect, DIMS)


# ----------------------------------------------------------------------
# FoldAccumulator
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=max(20, EXAMPLES // 2), deadline=None)
def test_fold_block_is_bit_identical_to_serial_adds(rows):
    reducers = ("add", "min", "max")
    serial = FoldAccumulator(reducers)
    for row in rows:
        serial.add(row)

    measures = tuple(
        array("d", [row[c] for row in rows]) for c in range(3)
    )
    as_range = FoldAccumulator(reducers)
    as_range.add_block(measures, range(len(rows)))
    as_list = FoldAccumulator(reducers)
    as_list.add_block(measures, list(range(len(rows))))

    import math

    for got in (as_range.states, as_list.states):
        assert got is not None
        for a, b in zip(got, serial.states):
            # == plus copysign: -0.0 vs 0.0 must not be conflated.
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    assert as_range.rows == as_list.rows == len(rows)


def test_fold_seeds_from_first_row_not_zero():
    acc = FoldAccumulator(("add",))
    acc.add((-0.0,))
    import math

    assert math.copysign(1.0, acc.states[0]) == -1.0  # not 0.0 + -0.0


def test_fold_empty_block_is_noop():
    acc = FoldAccumulator(("add",))
    acc.add_block((array("d"),), range(0))
    assert acc.states is None and acc.rows == 0


# ----------------------------------------------------------------------
# every tree path == the brute-force scalar oracle
# ----------------------------------------------------------------------
SLICES = [
    (1, None, (), ()),
    (1, {0: (40, 40)}, (40,), (40,)),
    (1, {0: (100, 400)}, (100,), (400,)),
    (2, None, (), ()),
    (2, {1: (7, 7)}, (7,), (7,)),
    (2, {1: (7, 7), 0: (2, 2)}, (7, 2), (7, 2)),
    (2, {1: (3, 9)}, (3,), (9,)),
    (2, {0: (2, 2)}, (), ()),
]

GROUP_REQUESTS = [
    (view_rect(2), (), ()),
    (view_rect(2, {1: (5, 5)}), (5,), (5,)),
    (view_rect(2, {1: (2, 8)}), (2,), (8,)),
    (view_rect(2, {0: (3, 3)}), (), ()),
]


@pytest.mark.parametrize("arity,bounds,lo_key,hi_key", SLICES)
def test_search_run_vectorized_equals_scalar(arity, bounds, lo_key, hi_key):
    _disk, pool = make_pool()
    tree = columnar_packed_tree(pool)
    rect = view_rect(arity, bounds)
    expected = brute_force(tree, arity, rect)
    got, folded = run_pass(tree, arity, rect, lo_key, hi_key)
    assert got == expected  # same matches, same order
    assert folded.rows == len(expected)


@pytest.mark.parametrize("arity,bounds,lo_key,hi_key", SLICES)
def test_descent_vectorized_equals_scalar(arity, bounds, lo_key, hi_key):
    _disk, pool = make_pool()
    tree = columnar_packed_tree(pool)
    rect = view_rect(arity, bounds)
    expected = sorted(brute_force(tree, arity, rect))
    assert sorted(found(tree, tree.search(rect))) == expected


def test_search_run_group_vectorized_equals_scalar():
    _disk, pool = make_pool()
    tree = columnar_packed_tree(pool)
    expected = [brute_force(tree, 2, rect) for rect, _lo, _hi in GROUP_REQUESTS]
    grouped = tree.search_run_group(2, GROUP_REQUESTS)
    assert [found(tree, blocks) for blocks in grouped] == expected


@pytest.mark.parametrize("arity,bounds,lo_key,hi_key", SLICES)
@pytest.mark.parametrize("row_leaves", [False, True])
def test_search_run_fold_equals_folding_matches(
    arity, bounds, lo_key, hi_key, row_leaves
):
    _disk, pool = make_pool()
    tree = decoded_packed_tree(pool, "row" if row_leaves else "columnar")
    rect = view_rect(arity, bounds)
    expected = FoldAccumulator(("add",))
    for _vid, _pt, values in brute_force(tree, arity, rect):
        expected.add(values)
    _got, acc = run_pass(tree, arity, rect, lo_key, hi_key)
    assert acc.states == expected.states
    assert acc.rows == expected.rows


@pytest.mark.parametrize("arity,bounds,lo_key,hi_key", SLICES)
def test_row_leaves_through_every_entry_point(arity, bounds, lo_key, hi_key):
    """Packed row (type 1) leaves go through the same kernels."""
    _disk, pool = make_pool()
    tree = decoded_packed_tree(pool, "row")
    rect = view_rect(arity, bounds)
    expected = brute_force(tree, arity, rect)
    assert sorted(found(tree, tree.search(rect))) == sorted(expected)
    got, folded = run_pass(tree, arity, rect, lo_key, hi_key)
    assert got == expected
    assert folded.rows == len(expected)


def test_dynamic_leaves_take_the_full_comparison_pass():
    """Dynamic inserts wipe the extents, so the descent must not bisect
    (possibly unsorted, possibly zero-coordinate) dynamic leaves."""
    _disk, pool = make_pool()
    with override(leaf_format="columnar"):
        tree = RTree(pool, dims=2, n_aggs=1)
        for point in [(5, 5), (1, 2), (0, 3), (4, 0)]:  # unsorted, zeros
            tree.insert(point, (1.0,))
        pool.clear()
        rect = Rect((0, 0), (4, BIG))
        got = sorted(pt for _vid, pt, _vals in found(tree, tree.search(rect)))
    assert got == [(0, 3), (1, 2), (4, 0)]


def test_dynamic_tree_with_zero_under_an_unbound_dimension():
    """Several unsorted dynamic leaves holding coordinate 0: an unbound
    ``[1, INT64_MAX]`` dimension rejects the zeros, exactly as
    per-point containment does."""
    _disk, pool = make_pool()
    tree = RTree(pool, dims=2, n_aggs=1)
    n = 3 * tree.dynamic_leaf_capacity
    for i in range(n):
        # A scrambled walk over the grid; every 7th point has x = 0.
        x = 0 if i % 7 == 0 else (i * 37) % 50 + 1
        tree.insert((x, (i * 11) % 13), (float(i),))
    assert not tree.view_extents and len(tree.leaf_page_ids) > 1
    pool.clear()
    for rect in (
        Rect((1, 0), (INT64_MAX, 12)),  # x unbound: zeros rejected
        Rect((0, 3), (20, 5)),
        Rect((1, 1), (INT64_MAX, INT64_MAX)),
    ):
        expected = sorted(brute_force(tree, -1, rect))
        assert expected  # not vacuous
        assert sorted(found(tree, tree.search(rect))) == expected


# ----------------------------------------------------------------------
# engine-level: pushdown + the differential sweep
# ----------------------------------------------------------------------
def _make_schema(domain_sizes):
    dimensions = {}
    for name, size in domain_sizes.items():
        dimensions[name] = Dimension(
            name=f"dim_{name}",
            key=name,
            attributes=(name,),
            rows=[(value,) for value in range(1, size + 1)],
        )
    return StarSchema(
        fact_keys=tuple(domain_sizes),
        measure="quantity",
        dimensions=dimensions,
    )


def _small_engine():
    domain = {"ka": 4, "kb": 4}
    schema = _make_schema(domain)
    facts = [
        (a, b, float(a * 10 + b)) for a in range(1, 5) for b in range(1, 5)
    ]
    views = [
        ViewDefinition("apex", ("ka", "kb")),
        ViewDefinition("v_ka", ("ka",)),
        ViewDefinition("none", ()),
    ]
    engine = CubetreeEngine(schema, buffer_pages=64)
    engine.materialize(views, facts)
    return engine


def test_total_query_takes_the_aggregate_pushdown():
    engine = _small_engine()
    total = SliceQuery((), (("ka", 2),), ())
    counter = get_registry().counter("query.cubetree.pushdowns")
    expected = engine.query(total)  # descent: matches, then finalize
    before = counter.value
    got = engine.query_batch([total]).results[0]
    assert counter.value == before + 1
    assert "[run]" in got.plan
    assert got.rows == expected.rows


def test_group_by_query_skips_the_pushdown():
    engine = _small_engine()
    grouped = SliceQuery(("ka",), (("kb", 3),), ())
    counter = get_registry().counter("query.cubetree.pushdowns")
    before = counter.value
    engine.query_batch([grouped])
    assert counter.value == before


@st.composite
def slice_queries(draw, domain_sizes):
    """A random slice query over the schema's fact keys."""
    keys = list(domain_sizes)
    node = draw(
        st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
    )
    bound = draw(
        st.lists(st.sampled_from(node), unique=True, max_size=len(node))
        if node
        else st.just([])
    )
    bindings = []
    ranges = []
    for attr in bound:
        size = domain_sizes[attr]
        if draw(st.booleans()):
            bindings.append(
                (attr, draw(st.integers(min_value=1, max_value=size)))
            )
        else:
            low = draw(st.integers(min_value=1, max_value=size))
            high = draw(st.integers(min_value=low, max_value=size))
            ranges.append((attr, low, high))
    group_by = tuple(a for a in node if a not in set(bound))
    return SliceQuery(group_by, tuple(bindings), tuple(ranges))


@st.composite
def sweep_cases(draw):
    n_keys = draw(st.integers(min_value=2, max_value=3))
    keys = KEY_NAMES[:n_keys]
    domain_sizes = {
        key: draw(st.integers(min_value=2, max_value=6)) for key in keys
    }
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.integers(min_value=1, max_value=domain_sizes[key])
                    for key in keys
                ],
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=40,
        )
    )
    facts = [tuple(row[:-1]) + (float(row[-1]),) for row in rows]
    views = [
        ViewDefinition("apex", tuple(keys)),
        ViewDefinition("none", ()),
    ]
    middles = [
        node
        for size in range(1, len(keys))
        for node in combinations(keys, size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(middles), unique=True, max_size=len(middles))
        if middles
        else st.just([])
    )
    views.extend(ViewDefinition(f"v_{'_'.join(n)}", n) for n in chosen)
    queries = draw(
        st.lists(slice_queries(domain_sizes), min_size=1, max_size=4)
    )
    return domain_sizes, facts, views, queries


@given(sweep_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_row_and_columnar_leaves_agree_on_every_entry_point(case):
    """query == a one-query batch == one whole batch, on row and on
    columnar leaves, and all equal the on-the-fly oracle's rows."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    oracle = OnTheFlyEngine(schema, buffer_pages=64)
    oracle.load_fact(facts)
    reference = [oracle.query(q).rows for q in queries]

    for leaf_format in ("row", "columnar"):
        with override(leaf_format=leaf_format):
            engine = CubetreeEngine(schema, buffer_pages=64)
            engine.materialize(views, facts)
        engine.pool.clear()  # force a decode on first touch
        serial = [engine.query(q).rows for q in queries]
        alone = [engine.query_batch([q]).results[0].rows for q in queries]
        batch = [r.rows for r in engine.query_batch(queries).results]
        assert serial == reference, leaf_format
        assert alone == reference, leaf_format
        assert batch == reference, leaf_format


def test_leaf_columns_builds_and_stashes_for_row_leaves():
    from repro.rtree.node import RLeafNode

    leaf = RLeafNode(view_id=1, arity=2, n_aggs=1)
    leaf.points = [(1, 2), (3, 4)]
    leaf.values = [(1.5,), (2.5,)]
    cols = leaf_columns(leaf)
    assert list(cols.coords[0]) == [1, 3]
    assert list(cols.coords[1]) == [2, 4]
    assert list(cols.measures[0]) == [1.5, 2.5]
    assert leaf.coord_cols is cols.coords  # stashed for reuse
