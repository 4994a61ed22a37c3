"""Tests for physical operators and aggregate-state helpers."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidRecordError
from repro.relational.executor import (
    AggFunc,
    AggSpec,
    aggregate_columns,
    combine_states,
    external_sort,
    filter_rows,
    finalize_state,
    hash_join,
    init_state,
    make_key_extractor,
    merge_sorted_chunks,
    merge_value,
    project,
    reaggregate_columns,
    state_width,
)
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec, float_column, int_column
from repro.storage.disk import DiskManager


# ----------------------------------------------------------------------
# aggregate-state helpers
# ----------------------------------------------------------------------
def test_state_widths():
    assert state_width(AggFunc.SUM) == 1
    assert state_width(AggFunc.AVG) == 2


def test_agg_spec_str():
    assert str(AggSpec(AggFunc.SUM, "quantity")) == "sum(quantity)"
    assert str(AggSpec(AggFunc.COUNT)) == "count(*)"


def test_sum_lifecycle():
    state = init_state(AggFunc.SUM, 5.0)
    state = merge_value(AggFunc.SUM, state, 3.0)
    assert finalize_state(AggFunc.SUM, state) == 8.0


def test_count_lifecycle():
    state = init_state(AggFunc.COUNT, 99.0)
    state = merge_value(AggFunc.COUNT, state, 99.0)
    assert finalize_state(AggFunc.COUNT, state) == 2.0


def test_min_max_lifecycle():
    s = init_state(AggFunc.MIN, 5.0)
    s = merge_value(AggFunc.MIN, s, 9.0)
    assert finalize_state(AggFunc.MIN, s) == 5.0
    s = init_state(AggFunc.MAX, 5.0)
    s = merge_value(AggFunc.MAX, s, 9.0)
    assert finalize_state(AggFunc.MAX, s) == 9.0


def test_avg_lifecycle():
    s = init_state(AggFunc.AVG, 4.0)
    s = merge_value(AggFunc.AVG, s, 8.0)
    assert s == (12.0, 2.0)
    assert finalize_state(AggFunc.AVG, s) == 6.0


def test_avg_empty_state_finalizes_to_zero():
    assert finalize_state(AggFunc.AVG, (0.0, 0.0)) == 0.0


def test_combine_states():
    assert combine_states(AggFunc.SUM, (3.0,), (4.0,)) == (7.0,)
    assert combine_states(AggFunc.MIN, (3.0,), (4.0,)) == (3.0,)
    assert combine_states(AggFunc.MAX, (3.0,), (4.0,)) == (4.0,)
    assert combine_states(AggFunc.AVG, (3.0, 1.0), (5.0, 2.0)) == (8.0, 3.0)


# ----------------------------------------------------------------------
# basic operators
# ----------------------------------------------------------------------
def test_filter_and_project():
    rows = [(1, 10), (2, 20), (3, 30)]
    kept = list(filter_rows(rows, lambda r: r[0] >= 2))
    assert kept == [(2, 20), (3, 30)]
    assert list(project(kept, [1])) == [(20,), (30,)]


def test_hash_join():
    left = [(1, "x"), (2, "y"), (2, "z")]
    right = [(2, 20), (3, 30)]
    out = sorted(hash_join(left, right, 0, 0))
    assert out == [(2, "y", 2, 20), (2, "z", 2, 20)]


def test_hash_join_no_matches():
    assert list(hash_join([(1,)], [(2,)], 0, 0)) == []


# ----------------------------------------------------------------------
# external sort
# ----------------------------------------------------------------------
def make_pool():
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=128)


def test_external_sort_in_memory_path():
    _disk, pool = make_pool()
    codec = RecordCodec([int_column()])
    rows = [(i,) for i in range(100)]
    random.Random(1).shuffle(rows)
    out = list(external_sort(pool, codec, rows, key=lambda r: r))
    assert out == [(i,) for i in range(100)]


def test_external_sort_spills_and_merges():
    disk, pool = make_pool()
    codec = RecordCodec([int_column(), float_column()])
    n = 5000
    rows = [(i, float(i)) for i in range(n)]
    random.Random(2).shuffle(rows)
    allocated_before = disk.num_allocated
    out = list(external_sort(pool, codec, rows, key=lambda r: (r[0],),
                             chunk_rows=500))
    assert out == [(i, float(i)) for i in range(n)]
    # Temporary run pages are freed after the merge.
    assert disk.num_allocated == allocated_before


def test_external_sort_frees_runs_when_closed_early():
    disk, pool = make_pool()
    codec = RecordCodec([int_column(), float_column()])
    rows = [(i, float(i)) for i in range(5000)]
    random.Random(3).shuffle(rows)
    stream = external_sort(pool, codec, rows, key=lambda r: (r[0],),
                           chunk_rows=1000)
    assert next(stream) == (0, 0.0)
    stream.close()  # mid-merge: every scan still pins a page
    assert disk.num_allocated == 0


def test_external_sort_frees_runs_when_a_spill_fails():
    disk, pool = make_pool()
    codec = RecordCodec([int_column()])
    rows = [(i,) for i in range(5000)]
    rows[2500] = (2**70,)  # no int64: the third chunk's spill fails
    with pytest.raises(InvalidRecordError):
        list(external_sort(pool, codec, rows, key=lambda r: r,
                           chunk_rows=1000))
    assert disk.num_allocated == 0


def test_external_sort_with_duplicates_is_stable_sorted():
    _disk, pool = make_pool()
    codec = RecordCodec([int_column(), int_column()])
    rows = [(i % 5, i) for i in range(2000)]
    out = list(external_sort(pool, codec, rows, key=lambda r: (r[0],),
                             chunk_rows=100))
    assert [r[0] for r in out] == sorted(r[0] for r in rows)


def test_merge_runs_beyond_the_pool_in_passes():
    """More runs than free frames: a 4-frame pool cannot pin one page
    per run of six, so the merge takes passes through longer spilled
    runs — and still returns the stable sort and frees every page."""
    disk = DiskManager()
    pool = BufferPool(disk, capacity=4, eviction_batch=1)
    codec = RecordCodec([int_column(), int_column()])
    chunks = [[(value, i)] for i, value in enumerate((5, 3, 5, 1, 3, 0))]
    out = list(merge_sorted_chunks(
        pool, codec, chunks, make_key_extractor([0]), chunk_rows=1
    ))
    assert out == [(0, 5), (1, 3), (3, 1), (3, 4), (5, 0), (5, 2)]
    assert disk.num_allocated == 0


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=400),
    st.integers(3, 8),
    st.integers(1, 40),
)
def test_multi_pass_merge_is_a_stable_sort(values, frames, chunk_rows):
    disk = DiskManager()
    pool = BufferPool(disk, capacity=frames, eviction_batch=1)
    codec = RecordCodec([int_column(), int_column()])
    rows = [(v, i) for i, v in enumerate(values)]
    out = list(external_sort(pool, codec, rows, key=lambda r: (r[0],),
                             chunk_rows=chunk_rows))
    assert out == sorted(rows, key=lambda r: r[0])  # sorted() is stable
    assert disk.num_allocated == 0


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-1000, 1000), max_size=1500))
def test_external_sort_property(values):
    _disk, pool = make_pool()
    codec = RecordCodec([int_column()])
    rows = [(v,) for v in values]
    out = list(external_sort(pool, codec, rows, key=lambda r: r,
                             chunk_rows=200))
    assert out == sorted(rows)


# ----------------------------------------------------------------------
# sort-group aggregation
# ----------------------------------------------------------------------
def q(*values):
    return array("q", values)


def d(*values):
    return array("d", values)


def groups(keys, states):
    """Output columns as rows: group values, then flattened states."""
    return list(zip(*keys, *states))


def test_sort_group_aggregate_sum():
    out = aggregate_columns(
        [q(1, 1, 2)], [d(10.0, 5.0, 7.0)], 3, [(AggFunc.SUM, 0)]
    )
    assert groups(*out) == [(1, 15.0), (2, 7.0)]


def test_sort_group_aggregate_multiple_functions():
    out = aggregate_columns(
        [q(1, 1, 2)], [d(10.0, 4.0, 7.0)], 3,
        [(AggFunc.SUM, 0), (AggFunc.COUNT, 0), (AggFunc.AVG, 0)],
    )
    assert groups(*out) == [(1, 14.0, 2.0, 14.0, 2.0), (2, 7.0, 1.0, 7.0, 1.0)]


def test_sort_group_aggregate_composite_group():
    out = aggregate_columns(
        [q(1, 1, 1), q(1, 1, 2)], [d(2.0, 3.0, 4.0)], 3, [(AggFunc.SUM, 0)]
    )
    assert groups(*out) == [(1, 1, 5.0), (1, 2, 4.0)]


def test_sort_group_aggregate_empty():
    out = aggregate_columns([q()], [d()], 0, [(AggFunc.SUM, 0)])
    assert groups(*out) == []


def test_sort_group_aggregate_grand_total():
    """Empty group list produces the super aggregate."""
    out = aggregate_columns([], [d(2.0, 3.0, 4.0)], 3, [(AggFunc.SUM, 0)])
    assert groups(*out) == [(9.0,)]


def test_reaggregate_states():
    # Input: sum states from a finer (a, b) view, sorted by a.
    out = reaggregate_columns([q(1, 1, 2)], [d(5.0, 7.0, 3.0)], 3,
                              [AggFunc.SUM])
    assert groups(*out) == [(1, 12.0), (2, 3.0)]


def test_reaggregate_states_avg():
    out = reaggregate_columns(
        [q(1, 1, 2)], [d(4.0, 6.0, 1.0), d(2.0, 1.0, 1.0)], 3, [AggFunc.AVG]
    )
    assert groups(*out) == [(1, 10.0, 3.0), (2, 1.0, 1.0)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 100)),
                max_size=300))
def test_group_sum_matches_dict_property(pairs):
    rows = sorted((g, float(v)) for g, v in pairs)
    out = dict(groups(*aggregate_columns(
        [q(*(g for g, _v in rows))], [d(*(v for _g, v in rows))], len(rows),
        [(AggFunc.SUM, 0)],
    )))
    expected: dict = {}
    for g, v in pairs:
        expected[g] = expected.get(g, 0.0) + float(v)
    assert out == expected
