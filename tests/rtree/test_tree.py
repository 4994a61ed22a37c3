"""Tests for R-tree search and dynamic (Guttman) insertion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidCoordinateError
from repro.rtree.geometry import Rect
from repro.rtree.tree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager



def found(tree, blocks):
    """A search's blocks in row form: (view id, padded point, values)."""
    return [entry for block in blocks for entry in block.entries(tree.dims)]

def make_tree(dims=2, capacity=512, n_aggs=1):
    disk = DiskManager()
    pool = BufferPool(disk, capacity=capacity)
    return pool, RTree(pool, dims, n_aggs=n_aggs)


def test_empty_tree_search():
    _pool, tree = make_tree()
    assert found(tree, tree.search(Rect((0, 0), (10, 10)))) == []
    assert len(tree) == 0
    assert tree.num_pages == 0


def test_single_insert_and_search():
    _pool, tree = make_tree()
    tree.insert((3, 4), (7.0,))
    hits = found(tree, tree.search(Rect((0, 0), (10, 10))))
    assert hits == [(-1, (3, 4), (7.0,))]
    assert found(tree, tree.search(Rect((4, 4), (10, 10)))) == []


def test_many_inserts_split_and_search_exact():
    _pool, tree = make_tree()
    points = [(x, y) for x in range(1, 31) for y in range(1, 31)]
    random.Random(5).shuffle(points)
    for p in points:
        tree.insert(p, (float(p[0] * p[1]),))
    assert tree.height > 1
    tree.check_invariants()
    hits = {p for _, p, _ in found(tree, tree.search(Rect((5, 5), (10, 10))))}
    expected = {(x, y) for x in range(5, 11) for y in range(5, 11)}
    assert hits == expected


def test_slice_query_shape():
    """Equality on one dim, open on the other — the paper's slice queries."""
    _pool, tree = make_tree()
    for x in range(1, 50):
        for y in (1, 2, 3):
            tree.insert((x, y), (1.0,))
    hits = [p for _, p, _ in found(tree, tree.search(Rect((1, 2), (10**9, 2))))]
    assert sorted(hits) == [(x, 2) for x in range(1, 50)]


def test_negative_coordinate_rejected():
    _pool, tree = make_tree()
    with pytest.raises(InvalidCoordinateError):
        tree.insert((-1, 2), (0.0,))


def test_wrong_dims_rejected():
    _pool, tree = make_tree(dims=3)
    with pytest.raises(ValueError):
        tree.insert((1, 2), (0.0,))
    with pytest.raises(ValueError):
        found(tree, tree.search(Rect((0, 0), (1, 1))))


def test_wrong_value_count_rejected():
    _pool, tree = make_tree(n_aggs=2)
    with pytest.raises(ValueError):
        tree.insert((1, 1), (0.0,))


def test_duplicate_points_allowed():
    _pool, tree = make_tree()
    tree.insert((5, 5), (1.0,))
    tree.insert((5, 5), (2.0,))
    hits = found(tree, tree.search(Rect.from_point((5, 5))))
    assert len(hits) == 2


def test_survives_tiny_buffer_pool():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=8)
    tree = RTree(pool, 2)
    points = [(x, y) for x in range(1, 41) for y in range(1, 41)]
    random.Random(9).shuffle(points)
    for p in points:
        tree.insert(p, (1.0,))
    assert pool.stats.evictions > 0
    tree.check_invariants()
    assert len(found(tree, tree.search(Rect((1, 1), (40, 40))))) == 1600


def test_dynamic_leaf_utilization_below_packed():
    _pool, tree = make_tree()
    points = [(x, y) for x in range(1, 41) for y in range(1, 41)]
    random.Random(1).shuffle(points)
    for p in points:
        tree.insert(p, (1.0,))
    util = tree.leaf_utilization()
    assert 0.2 < util < 0.95  # dynamic trees never stay fully packed


def test_three_dimensional():
    _pool, tree = make_tree(dims=3)
    pts = [(x, y, z) for x in range(1, 9) for y in range(1, 9)
           for z in range(1, 9)]
    for p in pts:
        tree.insert(p, (1.0,))
    tree.check_invariants()
    hits = found(tree, tree.search(Rect((1, 1, 4), (8, 8, 4))))
    assert len(hits) == 64


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)),
                max_size=250),
       st.tuples(st.integers(1, 60), st.integers(1, 60)),
       st.tuples(st.integers(1, 60), st.integers(1, 60)))
def test_search_matches_naive_property(points, corner_a, corner_b):
    _pool, tree = make_tree()
    for p in points:
        tree.insert(p, (1.0,))
    lows = tuple(min(a, b) for a, b in zip(corner_a, corner_b))
    highs = tuple(max(a, b) for a, b in zip(corner_a, corner_b))
    rect = Rect(lows, highs)
    got = sorted(p for _, p, _ in found(tree, tree.search(rect)))
    expected = sorted(p for p in points if rect.contains_point(p))
    assert got == expected
