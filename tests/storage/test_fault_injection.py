"""Failure injection: storage errors must propagate, never corrupt.

A wrapper disk fails reads/writes on command; the structures above it
must surface :class:`StorageError` (or subclasses) rather than silently
losing or corrupting data, and must remain usable once the fault clears.
"""

import pytest

from repro.btree.tree import BPlusTree
from repro.errors import StorageError
from repro.rtree.packing import PackedRun, pack_rtree, sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import RID, HeapFile
from repro.storage.codec import RecordCodec, int_column


class FaultyDisk(DiskManager):
    """A disk whose next N accesses fail on command."""

    def __init__(self):
        super().__init__()
        self.fail_reads = 0
        self.fail_writes = 0

    def read_page(self, page_id):
        if self.fail_reads > 0:
            self.fail_reads -= 1
            raise StorageError(f"injected read fault at page {page_id}")
        return super().read_page(page_id)

    def write_page(self, page_id, data):
        if self.fail_writes > 0:
            self.fail_writes -= 1
            raise StorageError(f"injected write fault at page {page_id}")
        super().write_page(page_id, data)


def test_read_fault_surfaces_and_recovers():
    disk = FaultyDisk()
    pool = BufferPool(disk, capacity=2)
    heap = HeapFile(pool, RecordCodec([int_column()]))
    rids = [heap.insert((i,)) for i in range(500)]
    pool.flush_all()
    pool.clear()

    disk.fail_reads = 1
    with pytest.raises(StorageError, match="injected read fault"):
        heap.fetch(rids[0])
    # Fault cleared: same fetch now succeeds with correct data.
    assert heap.fetch(rids[0]) == (0,)


def test_write_fault_during_flush_surfaces():
    disk = FaultyDisk()
    pool = BufferPool(disk, capacity=8)
    heap = HeapFile(pool, RecordCodec([int_column()]))
    heap.insert((1,))
    disk.fail_writes = 1
    with pytest.raises(StorageError, match="injected write fault"):
        pool.flush_all()


def test_btree_search_fault_then_recovery():
    disk = FaultyDisk()
    pool = BufferPool(disk, capacity=4)
    tree = BPlusTree(pool, 1)
    for i in range(2000):
        tree.insert((i,), RID(i, 0))
    pool.flush_all()
    pool.clear()

    disk.fail_reads = 1
    with pytest.raises(StorageError, match="injected read fault"):
        tree.search((1500,))
    assert tree.search((1500,)) == [RID(1500, 0)]
    tree.check_invariants()


def test_rtree_pack_write_fault_mid_build():
    disk = FaultyDisk()
    pool = BufferPool(disk, capacity=4)
    entries = sorted(
        [((i,), (1.0,)) for i in range(1, 3000)],
        key=lambda e: sort_key(e[0], 1),
    )
    disk.fail_writes = 1
    with pytest.raises(StorageError, match="injected write fault"):
        pack_rtree(pool, 1, [PackedRun.from_entries(0, 1, 1, entries)])
        pool.flush_all()


def test_engine_query_fault_does_not_poison_engine():
    from repro.core.engine import CubetreeEngine
    from repro.query.slice import SliceQuery
    from repro.relational.view import ViewDefinition
    from repro.warehouse.tpcd import TPCDGenerator

    data = TPCDGenerator(scale_factor=0.0005, seed=19).generate()
    disk = FaultyDisk()
    engine = CubetreeEngine(data.schema, disks=[disk], buffer_pages=16)
    engine.materialize([ViewDefinition("V_ps", ("partkey", "suppkey")),
                        ViewDefinition("V_none", ())], data.facts)
    engine.pool.flush_all()
    engine.pool.clear()

    q = SliceQuery((), ())
    disk.fail_reads = 1
    with pytest.raises(StorageError, match="injected read fault"):
        engine.query(q)
    # The engine keeps working after the transient fault.
    expected = float(sum(r[-1] for r in data.facts))
    assert engine.query(q).scalar() == expected
