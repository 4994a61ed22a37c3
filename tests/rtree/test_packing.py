"""Tests for sort-order packing of R-trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidCoordinateError, MappingError
from repro.rtree.geometry import Rect
from repro.rtree.packing import (
    PackedRun,
    free_tree,
    hilbert_sort_key,
    pack_rtree,
    sort_key,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager



def found(tree, blocks):
    """A search's blocks in row form: (view id, padded point, values)."""
    return [entry for block in blocks for entry in block.entries(tree.dims)]

def make_pool(capacity=512):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def sorted_entries(points, value=1.0):
    dims = max(len(p) for p in points) if points else 1
    return sorted(
        [(tuple(p), (value,)) for p in points],
        key=lambda e: sort_key(e[0], dims),
    )


def test_sort_key_reverses_and_pads():
    assert sort_key((3, 7), 2) == (7, 3)
    assert sort_key((3,), 3) == (0, 0, 3)
    assert sort_key((), 2) == (0, 0)


def test_sort_key_orders_views_by_arity():
    """Padded lower-arity points sort before higher-arity ones."""
    one_d = sort_key((99,), 3)
    two_d = sort_key((1, 1), 3)
    three_d = sort_key((1, 1, 1), 3)
    assert one_d < two_d < three_d


def test_paper_table_2_and_4_sort_order():
    """Views V8 and V9 of the paper's worked example (Tables 1-4)."""
    v8 = [(4,), (2,), (3,), (1,), (6,), (5,)]
    v8_sorted = sorted(v8, key=lambda p: sort_key(p, 2))
    assert v8_sorted == [(1,), (2,), (3,), (4,), (5,), (6,)]
    v9 = [(3, 1), (1, 1), (1, 3), (3, 3), (2, 1)]
    v9_sorted = sorted(v9, key=lambda p: sort_key(p, 2))
    assert v9_sorted == [(1, 1), (2, 1), (3, 1), (1, 3), (3, 3)]


def test_pack_single_view():
    _disk, pool = make_pool()
    entries = sorted_entries([(x, y) for x in range(1, 51)
                              for y in range(1, 51)])
    run = PackedRun.from_entries(view_id=0, arity=2, n_aggs=1, entries=entries)
    tree = pack_rtree(pool, 2, [run])
    assert len(tree) == 2500
    tree.check_invariants()
    hits = found(tree, tree.search(Rect((10, 10), (12, 12))))
    assert len(hits) == 9
    assert all(view == 0 for view, _, _ in hits)


def test_pack_empty_is_empty_tree():
    _disk, pool = make_pool()
    tree = pack_rtree(pool, 2, [])
    assert len(tree) == 0
    assert tree.root_page_id == -1


def test_pack_multiple_views_no_interleaving():
    _disk, pool = make_pool()
    super_agg = PackedRun.from_entries(1, 0, 1, [((), (100.0,))])
    v1 = PackedRun.from_entries(2, 1, 1, sorted_entries([(i,) for i in range(1, 300)]))
    v2 = PackedRun.from_entries(
        3, 2, 1,
        sorted([((x, y), (1.0,)) for x in range(1, 40)
                for y in range(1, 40)], key=lambda e: sort_key(e[0], 3)),
    )
    v3 = PackedRun.from_entries(
        4, 3, 1,
        sorted([((x, y, z), (1.0,)) for x in range(1, 12)
                for y in range(1, 12) for z in range(1, 12)],
               key=lambda e: sort_key(e[0], 3)),
    )
    tree = pack_rtree(pool, 3, [super_agg, v1, v2, v3])
    assert len(tree) == 1 + 299 + 39 * 39 + 11 ** 3
    # Every leaf holds exactly one view, and leaves appear by ascending arity.
    leaf_views = [leaf.view_id for leaf in tree.scan_leaf_chain()]
    seen = []
    for view in leaf_views:
        if not seen or seen[-1] != view:
            seen.append(view)
    assert seen == [1, 2, 3, 4]  # contiguous runs, no interleaving


def test_pack_leaf_utilization_is_full():
    _disk, pool = make_pool()
    entries = sorted_entries([(i,) for i in range(1, 5001)])
    tree = pack_rtree(pool, 1, [PackedRun.from_entries(0, 1, 1, entries)])
    # Only the final leaf of the run may be partially filled (whichever
    # leaf format fills them: by slots or by encoded bytes).
    leaves = len(tree.leaf_page_ids)
    assert tree.leaf_utilization() > 0.99 * (leaves - 1) / leaves


def test_packed_search_views_separately():
    """Queries against one view's region never see another view's points."""
    _disk, pool = make_pool()
    v1 = PackedRun.from_entries(1, 1, 1, sorted_entries([(i,) for i in range(1, 100)]))
    v2 = PackedRun.from_entries(
        2, 2, 1,
        sorted([((x, y), (2.0,)) for x in range(1, 30)
                for y in range(1, 30)], key=lambda e: sort_key(e[0], 2)),
    )
    tree = pack_rtree(pool, 2, [v1, v2])
    # V1 lives on the x-axis plane y = 0.
    v1_hits = found(tree, tree.search(Rect((1, 0), (10**9, 0))))
    assert len(v1_hits) == 99
    assert all(view == 1 for view, _, _ in v1_hits)
    # V2 occupies y >= 1.
    v2_hits = found(tree, tree.search(Rect((1, 1), (10**9, 10**9))))
    assert len(v2_hits) == 29 * 29
    assert all(view == 2 for view, _, _ in v2_hits)


def test_pack_writes_sequentially():
    disk, pool = make_pool(capacity=8)
    entries = sorted_entries([(i,) for i in range(1, 30_000)])
    before = disk.cost_model.snapshot()
    pack_rtree(pool, 1, [PackedRun.from_entries(0, 1, 1, entries)])
    pool.flush_all()
    delta = disk.cost_model.stats - before
    assert delta.sequential_writes > 5 * delta.random_writes


def test_pack_rejects_unsorted_run():
    disk, pool = make_pool()
    run = PackedRun.from_entries(0, 1, 1, [((5,), (1.0,)), ((2,), (1.0,))])
    with pytest.raises(MappingError):
        pack_rtree(pool, 1, [run])
    assert disk.num_allocated == 0  # checked before the first page


def test_pack_rejects_nonpositive_coordinates():
    disk, pool = make_pool()
    run = PackedRun.from_entries(0, 1, 1, [((0,), (1.0,))])
    with pytest.raises(InvalidCoordinateError):
        pack_rtree(pool, 1, [run])
    assert disk.num_allocated == 0  # checked before the first page


def test_pack_rejects_same_arity_twice():
    disk, pool = make_pool()
    a = PackedRun.from_entries(0, 1, 1, sorted_entries([(1,)]))
    b = PackedRun.from_entries(1, 1, 1, sorted_entries([(2,)]))
    with pytest.raises(MappingError):
        pack_rtree(pool, 2, [a, b])
    assert disk.num_allocated == 0  # checked before the first page


def test_pack_rejects_wrong_arity_entries():
    with pytest.raises(MappingError):
        PackedRun.from_entries(0, 2, 1, [((1,), (1.0,))])


def test_free_tree_releases_pages():
    disk, pool = make_pool()
    entries = sorted_entries([(i,) for i in range(1, 2000)])
    tree = pack_rtree(pool, 1, [PackedRun.from_entries(0, 1, 1, entries)])
    allocated_before = disk.num_allocated
    freed = free_tree(pool, tree)
    assert freed > 0
    assert disk.num_allocated == allocated_before - freed
    assert tree.root_page_id == -1


def test_hilbert_key_basic_properties():
    # Distinct points get distinct keys on a small grid.
    keys = {hilbert_sort_key((x, y), 2, bits=4)
            for x in range(16) for y in range(16)}
    assert len(keys) == 256
    # Keys are within the curve's range.
    assert all(0 <= k < 256 for k in keys)


def test_hilbert_key_rejects_oversized_coords():
    with pytest.raises(ValueError):
        hilbert_sort_key((1 << 16,), 1, bits=16)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.tuples(st.integers(1, 200), st.integers(1, 200)),
               max_size=400))
def test_pack_then_search_equals_input_property(points):
    _disk, pool = make_pool()
    entries = sorted(
        [(p, (1.0,)) for p in points], key=lambda e: sort_key(e[0], 2)
    )
    tree = pack_rtree(pool, 2, [PackedRun.from_entries(0, 2, 1, entries)])
    got = sorted(p for _, p, _ in found(tree, tree.search(Rect((1, 1), (200, 200)))))
    assert got == sorted(points)
    tree.check_invariants()
