"""Microbenchmarks for the batched hot paths (pytest-benchmark).

These pin the three layers the perf work optimized — record codecs, leaf
(de)serialization, and streaming aggregation — at the function level, so
a regression shows up here before it shows up in the end-to-end suites
(``repro bench``).  Each benchmark asserts the result is correct, so a
"fast but wrong" implementation cannot pass.

Run with ``pytest tests/bench --benchmark-enable``; without the flag the
functions still run once as plain correctness tests (pytest-benchmark's
default), keeping tier-1 wall time unaffected.
"""

import random

import pytest

pytest.importorskip("pytest_benchmark")

from repro.columns import ColumnRows
from repro.relational.executor import AggFunc, aggregate_columns
from repro.rtree.node import RLeafNode, leaf_capacity
from repro.storage.codec import (
    RecordCodec,
    entry_codec,
    float_column,
    int_column,
)

N_ROWS = 2_000


@pytest.fixture(scope="module")
def fact_codec():
    return RecordCodec([int_column(), int_column(), float_column()])


@pytest.fixture(scope="module")
def fact_rows():
    rng = random.Random(7)
    return [
        (rng.randrange(1, 500), rng.randrange(1, 50), float(rng.randrange(100)))
        for _ in range(N_ROWS)
    ]


def test_encode_many(benchmark, fact_codec, fact_rows):
    raw = benchmark(fact_codec.encode_many, fact_rows)
    assert len(raw) == fact_codec.record_size * len(fact_rows)


def test_decode_many(benchmark, fact_codec, fact_rows):
    raw = fact_codec.encode_many(fact_rows)
    rows = benchmark(fact_codec.decode_many, raw)
    assert rows == fact_rows


def test_decode_strided(benchmark, fact_codec, fact_rows):
    pad = 4
    raw = fact_codec.encode_strided(fact_rows, pad)
    rows = benchmark(
        fact_codec.decode_strided, raw, len(fact_rows), pad
    )
    assert rows == fact_rows


def test_entry_codec_unpack(benchmark):
    codec = entry_codec("2q2d")
    entries = [(i, i * 3, float(i), float(i) / 2) for i in range(200)]
    buf = bytearray(len(entries) * codec.item_size)
    codec.pack_into(buf, 0, [v for e in entries for v in e], len(entries))
    result = benchmark(
        lambda: list(codec.iter_unpack_from(bytes(buf), 0, len(entries)))
    )
    assert result == entries


def test_leaf_round_trip(benchmark):
    arity, n_aggs = 3, 2
    leaf = RLeafNode(view_id=arity, arity=arity, n_aggs=n_aggs)
    for i in range(leaf_capacity(arity, n_aggs)):
        leaf.points.append((i, i % 7, i % 3))
        leaf.values.append((float(i), float(i * 2)))

    def round_trip():
        return RLeafNode.from_bytes(leaf.to_bytes())

    decoded = benchmark(round_trip)
    assert decoded.points == leaf.points
    assert decoded.values == leaf.values


def test_sort_group_aggregate_sum(benchmark, fact_rows):
    rows = sorted(fact_rows, key=lambda r: (r[0], r[1]))
    columns = ColumnRows.from_rows(rows).columns

    def aggregate():
        return aggregate_columns(
            columns[:2], columns, len(rows), [(AggFunc.SUM, 2)]
        )

    keys, states = benchmark(aggregate)
    assert len(keys[0]) == len({(r[0], r[1]) for r in rows})
    assert sum(states[0]) == sum(r[2] for r in rows)


def test_sort_group_aggregate_multi(benchmark, fact_rows):
    rows = sorted(fact_rows, key=lambda r: (r[0],))
    columns = ColumnRows.from_rows(rows).columns
    measures = [(AggFunc.SUM, 2), (AggFunc.COUNT, 2), (AggFunc.MAX, 2)]

    def aggregate():
        return aggregate_columns(columns[:1], columns, len(rows), measures)

    keys, states = benchmark(aggregate)
    assert len(keys[0]) == len({r[0] for r in rows})
    # One state column per measure: sum, count, max.
    assert sum(states[0]) == sum(r[2] for r in rows)
    assert sum(states[1]) == len(rows)
