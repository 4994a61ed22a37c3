"""Tests for multi-sort-order replication."""

import pytest

from repro.core.replication import (
    PermutedRows,
    replica_definition,
    replica_name,
)
from repro.errors import MappingError
from repro.relational.view import ViewDefinition

BASE = ViewDefinition("V_psc", ("partkey", "suppkey", "custkey"))


def test_replica_definition():
    rep = replica_definition(BASE, ("suppkey", "custkey", "partkey"))
    assert rep.group_by == ("suppkey", "custkey", "partkey")
    assert rep.aggregates == BASE.aggregates
    assert rep.name == replica_name(BASE, ("suppkey", "custkey", "partkey"))
    assert rep.name != BASE.name


def test_replica_same_order_rejected():
    with pytest.raises(MappingError):
        replica_definition(BASE, BASE.group_by)


def test_replica_not_permutation_rejected():
    with pytest.raises(MappingError):
        replica_definition(BASE, ("partkey", "suppkey"))
    with pytest.raises(MappingError):
        replica_definition(BASE, ("partkey", "suppkey", "nope"))


def test_permute_state_rows():
    rows = [(1, 2, 3, 99.0), (4, 5, 6, 42.0)]
    out = PermutedRows(BASE, rows, ("custkey", "partkey", "suppkey"))
    assert list(out) == [(3, 1, 2, 99.0), (6, 4, 5, 42.0)]
    assert len(out) == 2
    assert out[1] == (6, 4, 5, 42.0)
    assert out[:1] == [(3, 1, 2, 99.0)]
    assert list(out) == list(out)  # a view: every pass sees the rows


def test_replicas_have_same_arity_so_map_to_distinct_trees():
    from repro.core.mapping import select_mapping

    r1 = replica_definition(BASE, ("suppkey", "custkey", "partkey"))
    r2 = replica_definition(BASE, ("custkey", "partkey", "suppkey"))
    allocation = select_mapping([BASE, r1, r2])
    trees = {allocation.tree_of(v.name) for v in (BASE, r1, r2)}
    assert len(trees) == 3
