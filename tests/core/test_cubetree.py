"""Tests for a single Cubetree."""

import pytest

from repro.core.cubetree import Cubetree
from repro.errors import MappingError, QueryError
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool():
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=512)


def views_psc():
    return [
        ViewDefinition("V_ps", ("partkey", "suppkey")),
        ViewDefinition("V_p", ("partkey",)),
        ViewDefinition("V_none", ()),
    ]


def small_data():
    return {
        "V_ps": [(1, 1, 10.0), (2, 1, 5.0), (1, 2, 3.0)],
        "V_p": [(1, 13.0), (2, 5.0)],
        "V_none": [(18.0,)],
    }


def test_same_arity_twice_rejected():
    _disk, pool = make_pool()
    with pytest.raises(MappingError):
        Cubetree(pool, 2, [ViewDefinition("A", ("a",)),
                           ViewDefinition("B", ("b",))])


def test_arity_above_dims_rejected():
    _disk, pool = make_pool()
    with pytest.raises(MappingError):
        Cubetree(pool, 1, [ViewDefinition("A", ("a", "b"))])


def test_build_and_query_each_view():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    assert len(tree) == 6

    got = dict(block_rows(tree.query("V_ps", {})))
    assert got == {(1, 1): (10.0,), (2, 1): (5.0,), (1, 2): (3.0,)}
    got = dict(block_rows(tree.query("V_p", {})))
    assert got == {(1,): (13.0,), (2,): (5.0,)}
    got = dict(block_rows(tree.query("V_none", {})))
    assert got == {(): (18.0,)}


def test_build_empty_and_absent_views():
    from repro.rtree.tree import EMPTY_EXTENT

    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    # V_p is computed but has no rows; V_none is not in the data at all.
    tree.build({"V_p": [], "V_ps": [(1, 2, 3.0)]})
    assert tree.tree.view_extents[1] == EMPTY_EXTENT
    assert 0 not in tree.tree.view_extents
    assert tree.has_run("V_ps")
    # The empty run reads nothing; a one-slice run pass answers V_ps.
    assert tree.query_group("V_p", [{}]) == [[]]
    (blocks,) = tree.query_group("V_ps", [{}])
    assert list(block_rows(blocks)) == [((1, 2), (3.0,))]
    assert list(block_rows(tree.query("V_ps", {}))) == [((1, 2), (3.0,))]


def test_query_with_bindings():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    got = dict(block_rows(tree.query("V_ps", {"suppkey": 1})))
    assert got == {(1, 1): (10.0,), (2, 1): (5.0,)}
    got = dict(block_rows(tree.query("V_ps", {"partkey": 1, "suppkey": 2})))
    assert got == {(1, 2): (3.0,)}


def test_query_unknown_view_or_attr():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    with pytest.raises(QueryError):
        list(block_rows(tree.query("nope", {})))
    with pytest.raises(QueryError):
        list(block_rows(tree.query("V_p", {"custkey": 1})))


def test_view_sizes():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    assert tree.view_sizes() == {"V_ps": 3, "V_p": 2, "V_none": 1}


def test_update_merges_sum_states():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    tree.update({
        "V_ps": [(1, 1, 2.0), (9, 9, 1.0)],
        "V_p": [(1, 2.0), (9, 1.0)],
        "V_none": [(3.0,)],
    })
    assert dict(block_rows(tree.query("V_ps", {})))[(1, 1)] == (12.0,)
    assert dict(block_rows(tree.query("V_ps", {})))[(9, 9)] == (1.0,)
    assert dict(block_rows(tree.query("V_p", {})))[(9,)] == (1.0,)
    assert dict(block_rows(tree.query("V_none", {})))[()] == (21.0,)


def test_update_min_max_avg_states():
    _disk, pool = make_pool()
    aggs = (AggSpec(AggFunc.MIN, "q"), AggSpec(AggFunc.MAX, "q"),
            AggSpec(AggFunc.AVG, "q"))
    view = ViewDefinition("V_a", ("a",), aggregates=aggs)
    tree = Cubetree(pool, 1, [view])
    tree.build({"V_a": [(1, 5.0, 9.0, 14.0, 2.0)]})
    tree.update({"V_a": [(1, 3.0, 7.0, 10.0, 1.0)]})
    got = dict(block_rows(tree.query("V_a", {})))
    assert got[(1,)] == (3.0, 9.0, 24.0, 3.0)


def test_partial_update_leaves_other_views_untouched():
    _disk, pool = make_pool()
    tree = Cubetree(pool, 2, views_psc())
    tree.build(small_data())
    tree.update({"V_p": [(1, 1.0)]})
    assert dict(block_rows(tree.query("V_p", {})))[(1,)] == (14.0,)
    assert dict(block_rows(tree.query("V_ps", {}))) == {
        (1, 1): (10.0,), (2, 1): (5.0,), (1, 2): (3.0,),
    }


def test_leaf_utilization_packed():
    _disk, pool = make_pool()
    view = ViewDefinition("V_a", ("a",))
    tree = Cubetree(pool, 1, [view])
    tree.build({"V_a": [(i, 1.0) for i in range(1, 10_001)]})
    assert tree.leaf_utilization() > 0.95
    assert tree.num_pages > 10
