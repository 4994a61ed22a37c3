"""Round-trip property tests of the compressed leaf codec.

A Cubetree leaf stores only its view's ``k`` meaningful coordinates (the
paper's leaf compression); encode→decode must be the identity for every
arity from 0 (the super aggregate) to the max arity a page can carry,
including full-capacity leaves and int64-extreme coordinates.
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.constants import PAGE_SIZE
from repro.rtree.node import RLeafNode, leaf_capacity
from repro.rtree.packing import PackedRun, pack_rtree, sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

INT64_MAX = 2**63 - 1


@st.composite
def leaves(draw):
    """A populated leaf of random arity/width, up to full capacity."""
    arity = draw(st.integers(min_value=0, max_value=6))
    n_aggs = draw(st.integers(min_value=1, max_value=8))
    capacity = leaf_capacity(arity, n_aggs)
    coords = st.integers(min_value=1, max_value=INT64_MAX)
    count = draw(st.integers(min_value=0, max_value=min(capacity, 64)))
    node = RLeafNode(view_id=arity, arity=arity, n_aggs=n_aggs)
    node.next_leaf = draw(st.one_of(st.just(-1), st.integers(0, 2**40)))
    for _ in range(count):
        node.points.append(tuple(draw(coords) for _ in range(arity)))
        node.values.append(
            tuple(
                draw(
                    st.floats(
                        allow_nan=False,
                        allow_infinity=False,
                        width=64,
                    )
                )
                for _ in range(n_aggs)
            )
        )
    return node


def _assert_identical(a: RLeafNode, b: RLeafNode) -> None:
    assert b.view_id == a.view_id
    assert b.arity == a.arity
    assert b.n_aggs == a.n_aggs
    assert b.next_leaf == a.next_leaf
    assert b.points == a.points
    assert b.values == a.values


@given(leaves())
@settings(max_examples=150, deadline=None)
def test_leaf_round_trip_is_identity(node):
    raw = node.to_bytes()
    assert len(raw) == PAGE_SIZE
    _assert_identical(node, RLeafNode.from_bytes(raw))


@given(leaves())
@settings(max_examples=50, deadline=None)
def test_leaf_double_round_trip_is_stable(node):
    once = RLeafNode.from_bytes(node.to_bytes())
    twice = RLeafNode.from_bytes(once.to_bytes())
    _assert_identical(once, twice)


@pytest.mark.parametrize("arity,n_aggs", [(0, 1), (0, 8), (1, 1), (6, 8)])
def test_full_capacity_leaf_round_trips(arity, n_aggs):
    """The max-arity / max-width boundary: a leaf packed to capacity must
    fit the page exactly and survive the round trip."""
    capacity = leaf_capacity(arity, n_aggs)
    node = RLeafNode(view_id=arity, arity=arity, n_aggs=n_aggs)
    for i in range(capacity):
        node.points.append(tuple(INT64_MAX - i - j for j in range(arity)))
        node.values.append(tuple(float(i + j) for j in range(n_aggs)))
    raw = node.to_bytes()
    _assert_identical(node, RLeafNode.from_bytes(raw))


def test_super_aggregate_leaf_round_trips():
    """Arity 0: no coordinates at all, just the aggregate vector."""
    node = RLeafNode(view_id=0, arity=0, n_aggs=3)
    node.points.append(())
    node.values.append((1.5, -2.0, 1e300))
    decoded = RLeafNode.from_bytes(node.to_bytes())
    _assert_identical(node, decoded)
    assert decoded.padded_point((), 3) == (0, 0, 0)


@given(
    st.lists(
        st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
        unique=True, min_size=1, max_size=120,
    )
)
@settings(max_examples=40, deadline=None)
def test_single_view_packed_tree_round_trips_through_disk(points):
    """End to end: pack a single-view tree, flush every page, drop the
    cache, and read the identical entries back through the codec."""
    dims = 2
    points = sorted(points, key=lambda p: sort_key(p, dims))
    entries = [(p, (float(i),)) for i, p in enumerate(points)]
    run = PackedRun.from_entries(view_id=2, arity=2, n_aggs=1, entries=entries)

    pool = BufferPool(DiskManager(), capacity=64)
    tree = pack_rtree(pool, dims, [run])
    pool.flush_all()
    pool.clear()  # cold cache: everything must come back via from_bytes

    got = [(point, values) for _vid, point, values in tree.scan_points()]
    assert got == entries
