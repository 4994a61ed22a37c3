"""The paper's Sec. 2.4 worked example: Tables 1–4 and Figure 8.

Views V8 = select partkey, sum(quantity) and V9 = select suppkey, custkey,
sum(quantity) share Cubetree R3{x,y}.  The paper gives their data and the
packed point order; we verify the reproduction byte for byte (modulo the
paper's fan-out-3 drawing — our leaves hold more entries, so the *order*
and *separation* are checked instead of the exact node boundaries).
"""

from repro.core.cubetree import Cubetree
from repro.core.mapping import select_mapping
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.rtree.packing import sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

# Table 1: data for view V8 (partkey, sum(quantity)).
V8_DATA = [(4, 15.0), (2, 84.0), (3, 67.0), (1, 102.0), (6, 42.0), (5, 24.0)]
# Table 2: the sorted points the paper expects.
V8_SORTED = [((1,), 102.0), ((2,), 84.0), ((3,), 67.0),
             ((4,), 15.0), ((5,), 24.0), ((6,), 42.0)]

# Table 3: data for view V9 (suppkey, custkey, sum(quantity)).
V9_DATA = [(3, 1, 2.0), (1, 1, 24.0), (1, 3, 11.0), (3, 3, 17.0),
           (2, 1, 6.0)]
# Table 4: sorted (y, x) order.
V9_SORTED = [((1, 1), 24.0), ((2, 1), 6.0), ((3, 1), 2.0),
             ((1, 3), 11.0), ((3, 3), 17.0)]


def build_r3():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=64)
    v8 = ViewDefinition("V8", ("partkey",))
    v9 = ViewDefinition("V9", ("suppkey", "custkey"))
    tree = Cubetree(pool, 2, [v8, v9])
    tree.build({
        "V8": [(p, q) for p, q in V8_DATA],
        "V9": [(s, c, q) for s, c, q in V9_DATA],
    })
    return tree


def test_table_2_sort_order():
    points = sorted(((p,) for p, _ in V8_DATA),
                    key=lambda pt: sort_key(pt, 2))
    assert points == [pt for pt, _ in V8_SORTED]


def test_table_4_sort_order():
    points = sorted(((s, c) for s, c, _ in V9_DATA),
                    key=lambda pt: sort_key(pt, 2))
    assert points == [pt for pt, _ in V9_SORTED]


def test_figure_8_leaf_content_order():
    """The packed leaf chain holds V8's points then V9's, in sort order."""
    tree = build_r3()
    stream = [
        (view_id, point, values[0])
        for view_id, point, values in tree.tree.scan_points()
    ]
    expected = (
        [(1, (p, 0), q) for (p,), q in V8_SORTED]
        + [(2, (s, c), q) for (s, c), q in V9_SORTED]
    )
    assert stream == expected


def test_figure_8_views_do_not_interleave():
    tree = build_r3()
    view_ids = [view_id for view_id, _, _ in tree.tree.scan_points()]
    # All V8 (arity 1) points strictly precede all V9 (arity 2) points.
    assert view_ids == sorted(view_ids)


def test_queries_on_the_example():
    tree = build_r3()
    assert dict(block_rows(tree.query("V8", {"partkey": 4}))) == {(4,): (15.0,)}
    assert dict(block_rows(tree.query("V9", {"custkey": 3}))) == {
        (1, 3): (11.0,), (3, 3): (17.0,),
    }
    assert dict(block_rows(tree.query("V9", {"suppkey": 3, "custkey": 1}))) == {
        (3, 1): (2.0,),
    }


def test_select_mapping_of_the_nine_views_matches_figure_7():
    views = [
        ViewDefinition("V1", ("brand",)),
        ViewDefinition("V2", ("suppkey", "partkey")),
        ViewDefinition("V3", ("brand_", "suppkey_", "custkey", "month")),
        ViewDefinition("V4", ("partkey", "suppkey__", "custkey_", "year")),
        ViewDefinition("V5", ("partkey_", "custkey__", "year_")),
        ViewDefinition("V6", ("custkey___",)),
        ViewDefinition("V7", ("custkey____", "partkey__")),
        ViewDefinition("V8", ("partkey___",)),
        ViewDefinition("V9", ("suppkey___", "custkey_____")),
    ]
    allocation = select_mapping(views)
    by_tree = [
        {view.name for view in tree.views} for tree in allocation.trees
    ]
    # Fig. 7: R1 <- {V1, V2, V5, V3}, R2 <- {V6, V7, V4}, R3 <- {V8, V9}.
    assert by_tree == [
        {"V1", "V2", "V5", "V3"},
        {"V6", "V7", "V4"},
        {"V8", "V9"},
    ]
