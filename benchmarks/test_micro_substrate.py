"""Microbenchmarks of the storage substrate (context for the experiments)."""

import random

from repro.btree.bulk import bulk_load_btree
from repro.btree.tree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec, float_column, int_column
from repro.storage.disk import DiskManager
from repro.storage.heap import RID, HeapFile


def make_pool(capacity=512):
    return BufferPool(DiskManager(), capacity=capacity)


def test_heap_insert_rate(benchmark):
    pool = make_pool()
    heap = HeapFile(pool, RecordCodec([int_column(), float_column()]))
    state = {"i": 0}

    def insert():
        state["i"] += 1
        return heap.insert((state["i"], 1.0))

    benchmark(insert)
    assert len(heap) > 0


def test_btree_insert_rate(benchmark):
    pool = make_pool()
    tree = BPlusTree(pool, 1)
    rng = random.Random(3)
    state = {"i": 0}

    def insert():
        state["i"] += 1
        tree.insert((rng.randrange(10**9),), RID(state["i"], 0))

    benchmark(insert)
    assert len(tree) > 0


def test_btree_bulk_load_rate(benchmark):
    entries = [((i,), RID(i, 0)) for i in range(20_000)]

    def load():
        return bulk_load_btree(make_pool(), 1, entries)

    tree = benchmark(load)
    assert len(tree) == 20_000


def test_btree_point_lookup_rate(benchmark):
    pool = make_pool()
    tree = bulk_load_btree(pool, 1, [((i,), RID(i, 0))
                                     for i in range(50_000)])
    rng = random.Random(5)

    def lookup():
        return tree.search_one((rng.randrange(50_000),))

    assert benchmark(lookup) is not None


def test_rtree_search_rate(benchmark):
    from repro.rtree.geometry import Rect
    from repro.rtree.packing import PackedRun, pack_rtree, sort_key

    pool = make_pool()
    points = sorted(
        [((x, y), (1.0,)) for x in range(1, 201) for y in range(1, 201)],
        key=lambda e: sort_key(e[0], 2),
    )
    tree = pack_rtree(pool, 2, [PackedRun.from_entries(0, 2, 1, points)])
    rng = random.Random(7)

    def search():
        y = rng.randrange(1, 201)
        # search yields one column block per matching leaf: count rows.
        return sum(block.count for block in tree.search(Rect((1, y), (200, y))))

    assert benchmark(search) == 200
