"""End-to-end range-query tests (the paper's Sec. 3.1 extension).

The paper restricts its experiments to equality predicates but predicts
"in a more general experiment where arbitrary range queries are allowed
... the Cubetrees would be even faster".  These tests verify correctness
of range predicates through both engines against a brute-force oracle.
"""

import pytest

from repro.core.engine import CubetreeEngine
from repro.core.onthefly import OnTheFlyEngine
from repro.query.generator import RandomQueryGenerator
from repro.query.slice import SliceQuery
from repro.sql import parse_query
from repro.warehouse.tpcd import TPCDGenerator

from tests.core.conftest import PAPER_REPLICA_ORDERS, paper_views


def oracle(facts, query: SliceQuery):
    attrs = ("partkey", "suppkey", "custkey")
    bounds = query.bounds
    groups = {}
    for row in facts:
        values = dict(zip(attrs, row[:3]))
        if any(not lo <= values[a] <= hi for a, (lo, hi) in bounds.items()):
            continue
        key = tuple(values[a] for a in query.group_by)
        groups[key] = groups.get(key, 0.0) + float(row[3])
    return [key + (total,) for key, total in sorted(groups.items())]


@pytest.mark.parametrize("node", [
    ("partkey", "suppkey", "custkey"),
    ("partkey", "custkey"),
    ("suppkey",),
])
def test_range_queries_match_oracle(node, warehouse, cubetree_engine,
                                    conventional_engine):
    _gen, data = warehouse
    qgen = RandomQueryGenerator(data.schema, seed=31)
    for query in qgen.generate_range_queries(node, 10, width_fraction=0.1):
        expected = oracle(data.facts, query)
        assert cubetree_engine.query(query).rows == expected, query.describe()
        assert conventional_engine.query(query).rows == expected, (
            query.describe()
        )


def test_mixed_equality_and_range(warehouse, cubetree_engine,
                                  conventional_engine):
    _gen, data = warehouse
    suppkey = data.schema.key_domain("suppkey")[0]
    parts = sorted(data.schema.key_domain("partkey"))
    query = SliceQuery(
        ("custkey",),
        (("suppkey", suppkey),),
        (("partkey", parts[0], parts[len(parts) // 4]),),
    )
    expected = oracle(data.facts, query)
    assert cubetree_engine.query(query).rows == expected
    assert conventional_engine.query(query).rows == expected


def test_range_via_sql_between(warehouse, cubetree_engine):
    _gen, data = warehouse
    query = parse_query(
        "select suppkey, sum(quantity) from F "
        "where partkey between 1 and 50 group by suppkey",
        data.schema,
    )
    assert query.ranges == (("partkey", 1, 50),)
    expected = oracle(data.facts, query)
    assert cubetree_engine.query(query).rows == expected


def test_empty_range_rejected():
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        SliceQuery((), (), (("partkey", 5, 4),))


def test_range_attr_cannot_repeat():
    from repro.errors import QueryError

    with pytest.raises(QueryError):
        SliceQuery((), (("partkey", 3),), (("partkey", 1, 5),))


def test_describe_with_range():
    q = SliceQuery(("suppkey",), (), (("partkey", 1, 9),))
    assert "partkey between 1 and 9" in q.describe()


def test_full_domain_range_equals_unbound(warehouse, cubetree_engine):
    _gen, data = warehouse
    parts = data.schema.key_domain("partkey")
    bounded = SliceQuery((), (), (("partkey", min(parts), max(parts)),))
    unbound = SliceQuery((), ())
    assert (cubetree_engine.query(bounded).scalar()
            == cubetree_engine.query(unbound).scalar())


#: Bounds at or below 0, wholly negative, and past the populated domain
#: (up to past ``INT64_MAX``).  View coordinates are never below 1, so
#: each bound must be clamped, not let reach the zero padding of the
#: lower-arity views packed into the same Cubetree.
OUT_OF_DOMAIN = [
    SliceQuery(("partkey",), (("suppkey", 0),)),
    SliceQuery(("partkey",), (("suppkey", -3),)),
    SliceQuery(("partkey",), (), (("suppkey", -5, 2),)),
    SliceQuery(("partkey",), (), (("suppkey", -5, -1),)),
    SliceQuery(("suppkey",), (), (("partkey", -(2**40), 3),)),
    SliceQuery(("custkey",), (("partkey", 10**9),)),
    SliceQuery((), (("suppkey", 0), ("partkey", 1))),
    SliceQuery(("partkey", "suppkey"), (), (("custkey", 0, 2**63 + 5),)),
]


@pytest.fixture(scope="module", params=[1, 3], ids=["shards1", "shards3"])
def sharded_engine(request, warehouse):
    _gen, data = warehouse
    engine = CubetreeEngine(
        data.schema, buffer_pages=512, shards=request.param
    )
    engine.materialize(
        paper_views(), data.facts,
        replicate={"V_psc": PAPER_REPLICA_ORDERS},
    )
    return engine


@pytest.fixture(scope="module")
def onthefly(warehouse):
    _gen, data = warehouse
    engine = OnTheFlyEngine(data.schema, buffer_pages=512)
    engine.load_fact(data.facts)
    return engine


@pytest.mark.parametrize("query", OUT_OF_DOMAIN)
def test_bounds_outside_the_domain_match_onthefly(
    query, onthefly, sharded_engine
):
    expected = onthefly.query(query).rows
    assert sharded_engine.query(query).rows == expected
    assert sharded_engine.query_batch([query]).results[0].rows == expected
    batch = sharded_engine.query_batch(OUT_OF_DOMAIN)
    assert batch.results[OUT_OF_DOMAIN.index(query)].rows == expected


def test_out_of_domain_cases_are_not_all_empty(onthefly):
    assert any(onthefly.query(query).rows for query in OUT_OF_DOMAIN)
