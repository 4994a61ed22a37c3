"""Model-based stateful property tests (hypothesis state machines).

Each machine drives a storage structure through random operation sequences
while maintaining a trivially-correct in-memory model, then checks full
agreement.  These are the tests most likely to find ordering, split, or
pin-accounting bugs that unit tests miss.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.btree.tree import BPlusTree
from repro.core.cubetree import Cubetree
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec, float_column, int_column
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from repro.errors import KeyNotFoundError


class BTreeMachine(RuleBasedStateMachine):
    """B+-tree against a sorted-list model (duplicates allowed)."""

    @initialize()
    def setup(self):
        disk = DiskManager()
        # Tiny pool: every operation round-trips serialization.
        self.pool = BufferPool(disk, capacity=8)
        self.tree = BPlusTree(self.pool, 1)
        self.model = []  # list of (key, rid)
        self.next_rid = 0

    @rule(key=st.integers(0, 200))
    def insert(self, key):
        from repro.storage.heap import RID

        rid = RID(self.next_rid, 0)
        self.next_rid += 1
        self.tree.insert((key,), rid)
        self.model.append(((key,), rid))

    @rule(key=st.integers(0, 200))
    def delete_one(self, key):
        matching = [rid for k, rid in self.model if k == (key,)]
        if matching:
            self.tree.delete((key,), matching[0])
            self.model.remove(((key,), matching[0]))
        else:
            try:
                self.tree.delete((key,))
                raise AssertionError("delete of absent key must fail")
            except KeyNotFoundError:
                pass

    @rule(key=st.integers(0, 200))
    def lookup(self, key):
        got = sorted(self.tree.search((key,)))
        expected = sorted(rid for k, rid in self.model if k == (key,))
        assert got == expected

    @rule(low=st.integers(0, 200), high=st.integers(0, 200))
    def range_scan(self, low, high):
        low, high = min(low, high), max(low, high)
        got = sorted(self.tree.range_scan((low,), (high,)))
        expected = sorted(
            (k, rid) for k, rid in self.model if low <= k[0] <= high
        )
        assert got == expected

    @invariant()
    def sorted_and_counted(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)

    @invariant()
    def no_leaked_pins(self):
        assert all(
            page.pin_count == 0
            for page in self.pool._frames.values()
        )


class HeapMachine(RuleBasedStateMachine):
    """Heap file against a dict model keyed by RID."""

    @initialize()
    def setup(self):
        disk = DiskManager()
        self.pool = BufferPool(disk, capacity=4)
        codec = RecordCodec([int_column(), float_column()])
        self.heap = HeapFile(self.pool, codec)
        self.model = {}

    @rule(a=st.integers(-10**6, 10**6),
          b=st.floats(allow_nan=False, allow_infinity=False, width=32))
    def insert(self, a, b):
        rid = self.heap.insert((a, float(b)))
        assert rid not in self.model
        self.model[rid] = (a, float(b))

    @rule(data=st.data())
    def update(self, data):
        if not self.model:
            return
        rid = data.draw(st.sampled_from(sorted(self.model)))
        new = (self.model[rid][0] + 1, self.model[rid][1])
        self.heap.update(rid, new)
        self.model[rid] = new

    @rule(data=st.data())
    def delete(self, data):
        if not self.model:
            return
        rid = data.draw(st.sampled_from(sorted(self.model)))
        self.heap.delete(rid)
        del self.model[rid]

    @rule(data=st.data())
    def fetch(self, data):
        if not self.model:
            return
        rid = data.draw(st.sampled_from(sorted(self.model)))
        assert self.heap.fetch(rid) == self.model[rid]

    @invariant()
    def scan_matches_model(self):
        got = dict(self.heap.scan())
        assert got == self.model
        assert len(self.heap) == len(self.model)


class CubetreeMachine(RuleBasedStateMachine):
    """A two-view Cubetree through repeated merge-packs vs dict models."""

    @initialize()
    def setup(self):
        disk = DiskManager()
        self.pool = BufferPool(disk, capacity=16)
        self.v1 = ViewDefinition("V1", ("a",))
        self.v2 = ViewDefinition("V2", ("a", "b"))
        self.tree = Cubetree(self.pool, 2, [self.v1, self.v2])
        self.tree.build({"V1": [], "V2": []})
        self.m1 = {}
        self.m2 = {}

    @rule(deltas=st.dictionaries(
        st.integers(1, 30), st.integers(1, 50), min_size=1, max_size=8,
    ))
    def merge_v1(self, deltas):
        rows = [(k, float(v)) for k, v in deltas.items()]
        self.tree.update({"V1": rows})
        for k, v in deltas.items():
            self.m1[k] = self.m1.get(k, 0.0) + v

    @rule(deltas=st.dictionaries(
        st.tuples(st.integers(1, 15), st.integers(1, 15)),
        st.integers(1, 50), min_size=1, max_size=8,
    ))
    def merge_v2(self, deltas):
        rows = [(a, b, float(v)) for (a, b), v in deltas.items()]
        self.tree.update({"V2": rows})
        for key, v in deltas.items():
            self.m2[key] = self.m2.get(key, 0.0) + v

    @rule(a=st.integers(1, 30))
    def point_query_v1(self, a):
        got = dict(block_rows(self.tree.query("V1", {"a": a})))
        expected = (
            {(a,): (self.m1[a],)} if a in self.m1 else {}
        )
        assert got == expected

    @rule(b=st.integers(1, 15))
    def slice_query_v2(self, b):
        got = {
            point: values[0]
            for point, values in block_rows(self.tree.query("V2", {"b": b}))
        }
        expected = {
            (a_, b_): total
            for (a_, b_), total in self.m2.items()
            if b_ == b
        }
        assert got == expected

    @invariant()
    def full_contents_match(self):
        assert dict(block_rows(self.tree.query("V1", {}))) == {
            (k,): (v,) for k, v in self.m1.items()
        }
        assert dict(block_rows(self.tree.query("V2", {}))) == {
            k: (v,) for k, v in self.m2.items()
        }
        self.tree.tree.check_invariants()


TestBTreeMachine = BTreeMachine.TestCase
TestBTreeMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestHeapMachine = HeapMachine.TestCase
TestHeapMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestCubetreeMachine = CubetreeMachine.TestCase
TestCubetreeMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
