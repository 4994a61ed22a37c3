"""Tests for merge-pack bulk-incremental updates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.rtree.geometry import Rect
from repro.rtree.merge import add_combiner, merge_pack
from repro.rtree.packing import PackedRun, pack_rtree, sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool(capacity=512):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def run_of(view_id, arity, pairs, dims):
    entries = sorted(
        [(tuple(p), (float(v),)) for p, v in pairs],
        key=lambda e: sort_key(e[0], dims),
    )
    return PackedRun.from_entries(view_id, arity, 1, entries)


def collect(tree):
    return {
        (view, point): values
        for view, point, values in tree.scan_points()
    }


def test_merge_disjoint_points():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((1,), 10), ((3,), 30)], 1)])
    delta = [run_of(0, 1, [((2,), 20), ((4,), 40)], 1)]
    new = merge_pack(pool, 1, old, delta)
    assert collect(new) == {
        (0, (1,)): (10.0,), (0, (2,)): (20.0,),
        (0, (3,)): (30.0,), (0, (4,)): (40.0,),
    }
    new.check_invariants()


def test_merge_combines_equal_points():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((1,), 10), ((2,), 20)], 1)])
    delta = [run_of(0, 1, [((2,), 5)], 1)]
    new = merge_pack(pool, 1, old, delta)
    assert collect(new)[(0, (2,))] == (25.0,)


def test_merge_empty_delta_is_copy():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((i,), i) for i in range(1, 500)], 1)])
    before = collect(old)
    new = merge_pack(pool, 1, old, [])
    assert collect(new) == before


def test_merge_into_empty_tree():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [])
    new = merge_pack(pool, 1, old, [run_of(0, 1, [((7,), 7)], 1)])
    assert collect(new) == {(0, (7,)): (7.0,)}


def test_merge_multiview_tree():
    _disk, pool = make_pool()
    v_low = run_of(1, 1, [((i,), 1) for i in range(1, 50)], 2)
    v_high = run_of(
        2, 2, [((x, y), 1) for x in range(1, 10) for y in range(1, 10)], 2
    )
    old = pack_rtree(pool, 2, [v_low, v_high])
    delta = [
        run_of(1, 1, [((25,), 9), ((100,), 5)], 2),
        run_of(2, 2, [((5, 5), 9)], 2),
    ]
    new = merge_pack(pool, 2, old, delta)
    data = collect(new)
    assert data[(1, (25, 0))] == (10.0,)
    assert data[(1, (100, 0))] == (5.0,)
    assert data[(2, (5, 5))] == (10.0,)
    assert len(data) == 49 + 81 + 1
    new.check_invariants()


def test_merge_retires_old_tree_by_default():
    disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((i,), i) for i in range(1, 5000)], 1)])
    pages_before = disk.num_allocated
    new = merge_pack(pool, 1, old, [run_of(0, 1, [((1,), 1)], 1)])
    assert old.root_page_id == -1
    # Old pages freed: allocation should not have doubled.
    assert disk.num_allocated < pages_before * 1.2
    assert len(new) == 4999


def test_merge_keep_old_tree_when_asked():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((1,), 1)], 1)])
    new = merge_pack(pool, 1, old, [], retire_old=False)
    assert old.root_page_id != -1
    assert collect(old) == collect(new)


def test_merge_is_sequential_io():
    disk, pool = make_pool(capacity=16)
    old = pack_rtree(
        pool, 1, [run_of(0, 1, [((i,), i) for i in range(1, 50_000)], 1)]
    )
    pool.flush_all()
    pool.clear()
    before = disk.cost_model.snapshot()
    merge_pack(pool, 1, old, [run_of(0, 1, [((5,), 1), ((70_000,), 1)], 1)])
    pool.flush_all()
    delta = disk.cost_model.stats - before
    assert delta.sequential_reads > 5 * delta.random_reads
    assert delta.sequential_writes > 5 * delta.random_writes


def test_view_collision_raises():
    # Two views of one arity cannot share a tree: a delta run whose view
    # id differs from the stored view of the same arity is rejected.
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(1, 1, [((5,), 1)], 1)])
    with pytest.raises(MappingError):
        merge_pack(pool, 1, old, [run_of(2, 1, [((5,), 1)], 1)])


def test_add_combiner():
    assert add_combiner(0, (1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)


def test_custom_combiner_applied():
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((1,), 10)], 1)])

    def max_combiner(_view, a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    new = merge_pack(pool, 1, old, [run_of(0, 1, [((1,), 3)], 1)],
                     combine=max_combiner)
    assert collect(new)[(0, (1,))] == (10.0,)


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(st.integers(1, 300), st.integers(1, 100), max_size=150),
    st.dictionaries(st.integers(1, 300), st.integers(1, 100), max_size=150),
)
def test_merge_equals_dict_union_property(base, delta):
    _disk, pool = make_pool()
    old = pack_rtree(pool, 1, [run_of(0, 1, [((k,), v) for k, v in base.items()], 1)])
    new = merge_pack(
        pool, 1, old, [run_of(0, 1, [((k,), v) for k, v in delta.items()], 1)]
    )
    expected = dict(base)
    for k, v in delta.items():
        expected[k] = expected.get(k, 0) + v
    got = {p[0]: v[0] for _, p, v in new.scan_points()}
    assert got == {k: float(v) for k, v in expected.items()}
    new.check_invariants()
