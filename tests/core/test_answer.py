"""Tests for the answer layer (residual filters, roll-ups, finalization)."""

import pytest

from repro.core.answer import (
    attribute_extractor,
    finalize_matches,
    split_bindings,
)
from repro.errors import QueryError
from repro.query.slice import SliceQuery
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import Block
from repro.warehouse.hierarchy import Hierarchy

VIEW = ViewDefinition("V_ps", ("partkey", "suppkey"))
BRAND = Hierarchy("part", "brand", {1: 10, 2: 10, 3: 20})
HIER = {"brand": (BRAND, "partkey")}


def block(matches, arity=2):
    """One column block from ``(coords, values)`` match pairs."""
    return [Block.of_rows(arity, arity, [c + v for c, v in matches])]


def test_direct_extractor():
    extract = attribute_extractor(VIEW, "suppkey", HIER)
    assert list(extract(([7, 8], [9, 4]))) == [9, 4]


def test_hierarchy_extractor():
    extract = attribute_extractor(VIEW, "brand", HIER)
    assert list(extract(([3, 1], [9, 9]))) == [20, 10]


def test_extractor_unknown_attr_raises():
    with pytest.raises(QueryError):
        attribute_extractor(VIEW, "custkey", HIER)


def test_split_bindings_direct_and_residual():
    q = SliceQuery((), (("partkey", 1), ("brand", 10)))
    direct, residual = split_bindings(VIEW, q, HIER)
    assert direct == {"partkey": (1, 1)}
    assert len(residual) == 1
    extract, low, high = residual[0]
    assert (low, high) == (10, 10)
    assert list(extract(([2], [5]))) == [10]


def test_split_bindings_with_ranges():
    q = SliceQuery((), (("suppkey", 4),),
                   ranges=(("partkey", 1, 2), ("brand", 10, 15)))
    direct, residual = split_bindings(VIEW, q, HIER)
    assert direct == {"suppkey": (4, 4), "partkey": (1, 2)}
    extract, low, high = residual[0]
    assert (low, high) == (10, 15)
    assert list(extract(([1], [0]))) == [10]


def test_finalize_matches_reaggregates_and_sorts():
    q = SliceQuery(("partkey",), ())
    matches = [((2, 1), (5.0,)), ((1, 1), (3.0,)), ((1, 2), (4.0,))]
    rows = finalize_matches(block(matches), VIEW, q, HIER, [])
    assert rows == [(1, 7.0), (2, 5.0)]


def test_finalize_matches_applies_residual_filter():
    q = SliceQuery(("suppkey",), (("brand", 10),))
    matches = [((1, 1), (3.0,)), ((3, 1), (9.0,)), ((2, 2), (4.0,))]
    _direct, residual = split_bindings(VIEW, q, HIER)
    rows = finalize_matches(block(matches), VIEW, q, HIER, residual)
    # part 3 has brand 20 and is filtered out.
    assert rows == [(1, 3.0), (2, 4.0)]


def test_finalize_matches_rolls_up_group_attr():
    q = SliceQuery(("brand",), ())
    matches = [((1, 1), (3.0,)), ((2, 1), (5.0,)), ((3, 1), (9.0,))]
    rows = finalize_matches(block(matches), VIEW, q, HIER, [])
    assert rows == [(10, 8.0), (20, 9.0)]


def test_finalize_matches_avg_states():
    view = ViewDefinition("V_p", ("partkey",),
                          aggregates=(AggSpec(AggFunc.AVG, "q"),))
    q = SliceQuery((), ())
    matches = [((1,), (10.0, 2.0)), ((2,), (2.0, 2.0))]
    rows = finalize_matches(block(matches, arity=1), view, q, {}, [])
    assert rows == [(3.0,)]  # (10 + 2) / (2 + 2)


def test_finalize_matches_empty():
    q = SliceQuery(("partkey",), ())
    assert finalize_matches([], VIEW, q, HIER, []) == []
