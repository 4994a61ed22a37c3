"""Tests for packed leaf-run extents and the run fast paths.

Covers: extent recording at pack/merge time, ``run_bounds`` resolution,
the run pass's (``search_run_group``, one request or several, collecting
or folding) identity with the classic descent, run-prefix seeking,
extent invalidation on dynamic inserts, and the pin protocol (every
fetch balanced by an unpin, even when an iterator is abandoned or a
pass fails part-way).
"""

import pytest

from repro.errors import StorageError
from repro.rtree.geometry import Rect
from repro.rtree.kernels import FoldAccumulator
from repro.rtree.merge import merge_pack
from repro.rtree.node import leaf_capacity
from repro.rtree.packing import PackedRun, pack_rtree
from repro.rtree.tree import RTree
from repro.settings import override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

DIMS = 2
CAP1 = leaf_capacity(1, 1)
CAP2 = leaf_capacity(2, 1)
BIG = 10**9



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


def assert_unpinned(pool):
    assert all(p.pin_count == 0 for p in pool._all_pages())


# ----------------------------------------------------------------------
# extent recording
# ----------------------------------------------------------------------
def test_pack_records_one_extent_per_view():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    assert sorted(tree.view_extents) == [1, 2]
    (lo1, hi1) = tree.run_bounds(1)
    (lo2, hi2) = tree.run_bounds(2)
    # The two runs partition the leaf chain, view 1 first.
    assert lo1 == 0
    assert hi1 + 1 == lo2
    assert hi2 == len(tree.leaf_page_ids) - 1
    assert tree.view_extents[1] == (
        tree.leaf_page_ids[lo1], tree.leaf_page_ids[hi1]
    )
    assert tree.view_extents[2] == (
        tree.leaf_page_ids[lo2], tree.leaf_page_ids[hi2]
    )


def test_run_bounds_none_without_extent():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    assert tree.run_bounds(9) is None
    tree.view_extents = {}
    tree._run_index.clear()
    assert tree.run_bounds(1) is None


def test_merge_pack_rerecords_extents():
    _disk, pool = make_pool()
    tree = packed_tree(pool, n1=300, n2=100)
    delta = [PackedRun.from_entries(1, 1, 1, [((i,), (2.0,)) for i in range(250, 351)])]
    merged = merge_pack(pool, DIMS, tree, delta)
    assert sorted(merged.view_extents) == [1, 2]
    lo1, hi1 = merged.run_bounds(1)
    lo2, hi2 = merged.run_bounds(2)
    assert lo1 == 0 and hi1 < lo2 and hi2 == len(merged.leaf_page_ids) - 1


def test_dynamic_insert_clears_extents():
    # A full-dimensional view, so a dynamic insert can land in its leaves.
    # Guttman inserts split by slot count, so the packed leaves they land
    # in are row leaves.
    _disk, pool = make_pool()
    run = PackedRun.from_entries(
        2, 2, 1, [((x, 1), (1.0,)) for x in range(1, 2 * CAP2 + 10)]
    )
    with override(leaf_format="row"):
        tree = pack_rtree(pool, DIMS, [run])
    assert tree.view_extents
    tree.insert((500_000, 1), (1.0,))
    assert tree.view_extents == {}
    assert tree.run_bounds(2) is None


# ----------------------------------------------------------------------
# the run pass == search, restricted to the view
# ----------------------------------------------------------------------
def _descent_matches(tree, rect):
    return found(tree, tree.search(rect))


def _one_request(tree, view_id, rect, lo_key=(), hi_key=()):
    """One request through the run pass: its matches in row form."""
    (blocks,) = tree.search_run_group(view_id, [(rect, lo_key, hi_key)])
    return found(tree, blocks)


@pytest.mark.parametrize(
    "arity,bounds,lo_key,hi_key",
    [
        (1, None, (), ()),                          # unbound run scan
        (1, {0: (40, 40)}, (40,), (40,)),           # equality prefix
        (1, {0: (100, 400)}, (100,), (400,)),       # range prefix
        (2, None, (), ()),
        (2, {1: (7, 7)}, (7,), (7,)),               # prefix on last attr
        (2, {1: (7, 7), 0: (2, 2)}, (7, 2), (7, 2)),
        (2, {1: (3, 9)}, (3,), (9,)),               # range closes prefix
        (2, {0: (2, 2)}, (), ()),                   # non-prefix binding
    ],
)
def test_search_run_matches_descent(arity, bounds, lo_key, hi_key):
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    rect = view_rect(arity, bounds)
    expected = _descent_matches(tree, rect)
    got = _one_request(tree, arity, rect, lo_key, hi_key)
    assert got == expected  # same matches, same (run) order
    # A fold sink reads the same matches, folded in run order.
    serial = FoldAccumulator(("add",))
    for _vid, _pt, values in expected:
        serial.add(values)
    acc = FoldAccumulator(("add",))
    request = (rect, lo_key, hi_key)
    assert tree.search_run_group(arity, [request], [acc]) == [[]]
    assert (acc.states, acc.rows) == (serial.states, serial.rows)
    assert_unpinned(pool)


def test_search_run_without_extent_raises():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    tree.view_extents = {}
    tree._run_index.clear()
    with pytest.raises(StorageError):
        tree.search_run_group(1, [(view_rect(1), (), ())])
    acc = FoldAccumulator(("add",))
    with pytest.raises(StorageError):
        tree.search_run_group(1, [(view_rect(1), (), ())], [acc])
    assert_unpinned(pool)


def test_run_leaves_are_only_the_views_leaves():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    lo, hi = tree.run_bounds(1)
    leaves = list(tree._scan_leaves(lo, hi, 1))
    assert len(leaves) == hi - lo + 1
    assert all(leaf.view_id == 1 for leaf in leaves)
    assert_unpinned(pool)


def test_search_run_group_matches_individual_runs():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    requests = [
        (view_rect(2), (), ()),
        (view_rect(2, {1: (5, 5)}), (5,), (5,)),
        (view_rect(2, {1: (2, 8)}), (2,), (8,)),
        (view_rect(2, {1: (9, 9), 0: (1, 1)}), (9, 1), (9, 1)),
        (view_rect(2, {0: (3, 3)}), (), ()),  # residual (no prefix)
    ]
    grouped = tree.search_run_group(2, requests)
    for (rect, lo, hi), blocks in zip(requests, grouped):
        got = found(tree, blocks)
        assert got == _one_request(tree, 2, rect, lo, hi)
    assert_unpinned(pool)


def test_search_run_group_empty():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    assert tree.search_run_group(1, []) == []


# ----------------------------------------------------------------------
# pin protocol on abandoned iterators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["scan_leaf_chain", "scan_points"])
def test_abandoned_chain_iterators_release_pins(method):
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    iterator = getattr(tree, method)()
    next(iterator)
    next(iterator)
    iterator.close()
    assert_unpinned(pool)


def test_abandoned_run_search_releases_pins():
    """A StorageError raised part-way through a run pass (a leaf of
    another view inside the run) leaves no page pinned."""
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    lo1, hi1 = tree.run_bounds(1)
    tree._run_index[1] = (lo1, hi1 + 1)  # the run now ends in view 2
    for folds in (None, [FoldAccumulator(("add",))]):
        with pytest.raises(StorageError, match="contains a page of view 2"):
            tree.search_run_group(1, [(view_rect(1), (), ())], folds)
        assert_unpinned(pool)


def test_every_fetch_is_unpinned_after_full_scan():
    """The unpins counter balances the scan's fetches exactly."""
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    before = pool.stats.copy()
    _one_request(tree, 1, view_rect(1))
    delta = pool.stats - before
    assert delta.unpins == delta.hits + delta.misses
    assert_unpinned(pool)
