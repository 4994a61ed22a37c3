"""Tests for the Cubetree forest."""

import pytest

from repro.core.forest import CubetreeForest
from repro.core.mapping import select_mapping
from repro.errors import QueryError
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_forest():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=256)
    views = [
        ViewDefinition("V_ab", ("a", "b")),
        ViewDefinition("V_a", ("a",)),
        ViewDefinition("V_b", ("b",)),
        ViewDefinition("V_none", ()),
    ]
    allocation = select_mapping(views)
    forest = CubetreeForest(pool, allocation)
    data = {
        "V_ab": [(1, 1, 4.0), (2, 1, 6.0)],
        "V_a": [(1, 4.0), (2, 6.0)],
        "V_b": [(1, 10.0)],
        "V_none": [(10.0,)],
    }
    forest.build(data)
    return forest


def test_structure():
    forest = make_forest()
    assert forest.num_trees == 2  # two arity-1 views force a second tree
    assert forest.view_names() == ["V_a", "V_ab", "V_b", "V_none"]
    assert forest.num_pages > 0


def test_view_definition_lookup():
    forest = make_forest()
    assert forest.view_definition("V_ab").group_by == ("a", "b")
    with pytest.raises(QueryError):
        forest.view_definition("nope")


def test_build_requires_all_views():
    disk = DiskManager()
    pool = BufferPool(disk)
    allocation = select_mapping([ViewDefinition("V_a", ("a",))])
    forest = CubetreeForest(pool, allocation)
    with pytest.raises(QueryError):
        forest.build({})


def test_query_view_routes_to_right_tree():
    forest = make_forest()
    assert dict(block_rows(forest.query_view("V_b", {}))) == {(1,): (10.0,)}
    assert dict(block_rows(forest.query_view("V_ab", {"a": 2}))) == {(2, 1): (6.0,)}
    with pytest.raises(QueryError):
        list(block_rows(forest.query_view("nope", {})))


def test_view_sizes():
    forest = make_forest()
    assert forest.view_sizes() == {
        "V_ab": 2, "V_a": 2, "V_b": 1, "V_none": 1,
    }


def test_access_paths_carry_reversed_sort_order():
    forest = make_forest()
    paths = {p.view.name: p for p in forest.access_paths()}
    assert paths["V_ab"].orders == (("b", "a"),)
    assert paths["V_ab"].size == 2.0


def test_update_routes_deltas_per_tree():
    forest = make_forest()
    forest.update({"V_a": [(1, 1.0)], "V_b": [(2, 3.0)]})
    assert dict(block_rows(forest.query_view("V_a", {}))) == {
        (1,): (5.0,), (2,): (6.0,)
    }
    assert dict(block_rows(forest.query_view("V_b", {}))) == {
        (1,): (10.0,), (2,): (3.0,)
    }
    # untouched views stay intact
    assert dict(block_rows(forest.query_view("V_ab", {"a": 1}))) == {(1, 1): (4.0,)}


def test_leaf_utilization():
    forest = make_forest()
    assert 0.0 < forest.leaf_utilization() <= 1.0
