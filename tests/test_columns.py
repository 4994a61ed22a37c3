"""Tests for the column batches the data path carries."""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns import (
    ColumnRows,
    as_columns,
    concat_rows,
    gather,
    group_starts,
    partition,
    sort_columns,
    sort_order,
)


def test_row_view_over_columns():
    rows = ColumnRows([array("q", [1, 2, 3]), array("d", [0.5, 1.5, 2.5])])
    assert len(rows) == 3
    assert rows[1] == (2, 1.5)
    assert list(rows) == [(1, 0.5), (2, 1.5), (3, 2.5)]
    assert rows[1:] == [(2, 1.5), (3, 2.5)]
    assert isinstance(rows[1:], ColumnRows)
    assert rows == [(1, 0.5), (2, 1.5), (3, 2.5)]
    assert [(1, 0.5), (2, 1.5), (3, 2.5)] == rows
    assert rows != [(1, 0.5)]
    assert rows != "abc"
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_unequal_columns_rejected():
    with pytest.raises(ValueError):
        ColumnRows([array("q", [1]), array("q", [1, 2])])


def test_from_rows_widens_a_column_at_its_first_float():
    rows = [(i, i) for i in range(10_000)] + [(1, 2.5)]
    batch = ColumnRows.from_rows(rows)
    assert [column.typecode for column in batch.columns] == ["q", "d"]
    assert batch == rows
    with pytest.raises(ValueError):
        ColumnRows.from_rows([(1, 2), (1, 2, 3)])


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1])
def test_from_rows_widens_a_column_at_an_integer_past_int64(big):
    batch = ColumnRows.from_rows([(1, 5), (2, big)])
    assert [column.typecode for column in batch.columns] == ["q", "d"]
    assert list(batch) == [(1, 5.0), (2, float(big))]


def test_partition_keeps_row_order_per_part():
    batch = ColumnRows([array("q", [5, 6, 7, 8, 9]), array("d", [1, 2, 3, 4, 5])])
    parts = partition(batch, [1, 0, 1, 1, 0], 3)
    assert parts == [[(6, 2.0), (9, 5.0)], [(5, 1.0), (7, 3.0), (8, 4.0)], []]
    assert [part.width for part in parts] == [2, 2, 2]


def test_as_columns_keeps_a_batch_and_checks_its_width():
    batch = ColumnRows([array("q", [1]), array("d", [2.0])])
    assert as_columns(batch, 2) is batch
    with pytest.raises(ValueError):
        as_columns(batch, 3)
    empty = as_columns([], 3)
    assert len(empty) == 0 and empty.width == 3


def test_concat_rows():
    a = ColumnRows([array("q", [1]), array("q", [2])])
    b = ColumnRows([array("q", [3]), array("d", [4.5])])
    assert concat_rows([a, b]) == [(1, 2), (3, 4.5)]
    with pytest.raises(ValueError):
        concat_rows([a, ColumnRows([array("q", [1])])])


def test_gather_coerces_like_int_and_float():
    column = array("d", [3.7, -1.2])
    assert gather([column], [1, 0], "q") == [array("q", [-1, 3])]
    assert gather([array("q", [1, 2])], None, "d") == [array("d", [1.0, 2.0])]
    assert gather([column], None)[0] is column
    assert gather([column], [1]) == [array("d", [-1.2])]
    assert gather([column], []) == [array("d")]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3),
                          st.integers(-(2**63), 2**63 - 1)), max_size=80))
def test_sort_order_is_a_stable_sort_by_the_keys(rows):
    batch = ColumnRows.from_rows(rows, 3)
    expected = sorted(range(len(rows)), key=lambda i: rows[i][:2])
    order = sort_order(batch.columns[:2], len(rows))
    assert (list(range(len(rows))) if order is None else order) == expected
    assert sort_columns(batch.columns, 2) == list(
        ColumnRows([array("q", [rows[i][j] for i in expected])
                    for j in range(3)]).columns
    )
    starts = group_starts(sort_columns(batch.columns, 2)[:2], len(rows))
    assert len(starts) == len({row[:2] for row in rows})
