"""Tests for sort-based cube computation."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cube.computation import CubeComputation
from repro.errors import SchemaError
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import Dimension, StarSchema


def small_schema():
    part = Dimension("part", "partkey", ("partkey", "brand"),
                     rows=[(i, (i - 1) % 3 + 1) for i in range(1, 10)])
    supp = Dimension("supplier", "suppkey", ("suppkey",),
                     rows=[(i,) for i in range(1, 5)])
    return StarSchema(("partkey", "suppkey"), "quantity",
                      {"partkey": part, "suppkey": supp})


def facts():
    return [
        (1, 1, 10), (1, 1, 5), (1, 2, 3),
        (2, 1, 7), (4, 2, 2), (4, 2, 1),
    ]


def v(name, attrs, aggs=None):
    if aggs is None:
        return ViewDefinition(name, tuple(attrs))
    return ViewDefinition(name, tuple(attrs), aggregates=tuple(aggs))


def test_compute_top_view_from_fact():
    comp = CubeComputation(small_schema())
    out = comp.execute(facts(), [v("V_ps", ("partkey", "suppkey"))])
    assert out["V_ps"] == [
        (1, 1, 15.0), (1, 2, 3.0), (2, 1, 7.0), (4, 2, 3.0),
    ]


def test_compute_super_aggregate():
    comp = CubeComputation(small_schema())
    out = comp.execute(facts(), [v("V_none", ())])
    assert out["V_none"] == [(28.0,)]


def test_child_computed_from_parent_equals_from_fact():
    comp = CubeComputation(small_schema())
    both = comp.execute(
        facts(), [v("V_ps", ("partkey", "suppkey")), v("V_p", ("partkey",))]
    )
    solo = comp.execute(facts(), [v("V_p", ("partkey",))])
    assert both["V_p"] == solo["V_p"]
    assert both["V_p"] == [(1, 18.0), (2, 7.0), (4, 3.0)]


def test_plan_uses_smallest_parent():
    comp = CubeComputation(small_schema())
    views = [
        v("V_ps", ("partkey", "suppkey")),
        v("V_p", ("partkey",)),
        v("V_none", ()),
    ]
    steps = {s.view.name: s.parent for s in comp.plan(views, 1000)}
    assert steps["V_ps"] is None
    assert steps["V_p"] == "V_ps"
    assert steps["V_none"] == "V_p"  # smallest ancestor


def test_plan_tie_break_is_stable_by_name():
    """Equal-size parent candidates resolve by view name, not input order."""
    import itertools

    part = Dimension("part", "partkey", ("partkey",),
                     rows=[(i,) for i in range(1, 5)])
    supp = Dimension("supplier", "suppkey", ("suppkey",),
                     rows=[(i,) for i in range(1, 5)])
    schema = StarSchema(("partkey", "suppkey"), "quantity",
                        {"partkey": part, "suppkey": supp})
    comp = CubeComputation(schema)
    views = [
        v("V_ps", ("partkey", "suppkey")),
        v("V_p", ("partkey",)),
        v("V_s", ("suppkey",)),
        v("V_none", ()),
    ]
    # V_p and V_s have identical Cardenas estimates (4 distinct each), so
    # V_none's parent is a tie — every supply order must pick the same one.
    parents = set()
    for perm in itertools.permutations(views):
        steps = {s.view.name: s.parent for s in comp.plan(list(perm), 1000)}
        parents.add(steps["V_none"])
    assert parents == {"V_p"}


def test_plan_describe():
    comp = CubeComputation(small_schema())
    steps = comp.plan([v("V_ps", ("partkey", "suppkey"))], 100)
    assert steps[0].describe() == "V_ps <- F"


def test_hierarchy_view_from_fact():
    schema = small_schema()
    brand = Hierarchy.from_dimension(schema.dimensions["partkey"], "brand")
    comp = CubeComputation(schema, {"brand": brand})
    out = comp.execute(facts(), [v("V_brand", ("brand",))])
    # parts 1,4 -> brand 1; part 2 -> brand 2
    assert out["V_brand"] == [(1, 21.0), (2, 7.0)]


def test_hierarchy_view_from_parent():
    schema = small_schema()
    brand = Hierarchy.from_dimension(schema.dimensions["partkey"], "brand")
    comp = CubeComputation(schema, {"brand": brand})
    out = comp.execute(
        facts(),
        [v("V_ps", ("partkey", "suppkey")), v("V_brand", ("brand",))],
    )
    assert out["V_brand"] == [(1, 21.0), (2, 7.0)]
    plan = comp.plan(
        [v("V_ps", ("partkey", "suppkey")), v("V_brand", ("brand",))],
        len(facts()),
    )
    parents = {s.view.name: s.parent for s in plan}
    assert parents["V_brand"] == "V_ps"


def test_unknown_attribute_raises():
    comp = CubeComputation(small_schema())
    with pytest.raises(SchemaError):
        comp.execute(facts(), [v("V_bad", ("nope",))])


def test_multiple_aggregates():
    comp = CubeComputation(small_schema())
    aggs = (AggSpec(AggFunc.SUM, "quantity"),
            AggSpec(AggFunc.COUNT),
            AggSpec(AggFunc.AVG, "quantity"))
    out = comp.execute(facts(), [v("V_p", ("partkey",), aggs)])
    # part 1: sum 18, count 3, avg state (18, 3)
    assert out["V_p"][0] == (1, 18.0, 3.0, 18.0, 3.0)


def test_min_max_aggregates_derive_correctly():
    comp = CubeComputation(small_schema())
    aggs = (AggSpec(AggFunc.MIN, "quantity"), AggSpec(AggFunc.MAX, "quantity"))
    out = comp.execute(
        facts(),
        [v("V_ps", ("partkey", "suppkey"), aggs), v("V_p", ("partkey",), aggs)],
    )
    assert out["V_p"] == [(1, 3.0, 10.0), (2, 7.0, 7.0), (4, 1.0, 2.0)]


def test_mismatched_aggregates_fall_back_to_fact():
    comp = CubeComputation(small_schema())
    parent = v("V_ps", ("partkey", "suppkey"))
    child = v("V_p", ("partkey",),
              aggs := (AggSpec(AggFunc.MIN, "quantity"),))
    plan = comp.plan([parent, child], len(facts()))
    parents = {s.view.name: s.parent for s in plan}
    assert parents["V_p"] is None  # different aggregates: recompute from F


def test_compute_one_from_fact():
    comp = CubeComputation(small_schema())
    rows = comp.compute_from_fact_rows(facts(), v("V_s", ("suppkey",)))
    assert rows == [(1, 22.0), (2, 6.0)]


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(1, 50)),
    max_size=200,
))
def test_parent_derivation_invariant_property(fact_rows):
    """Any view computed via a parent equals the same view from facts."""
    comp = CubeComputation(small_schema())
    views = [v("V_ps", ("partkey", "suppkey")),
             v("V_s", ("suppkey",)), v("V_none", ())]
    chained = comp.execute(fact_rows, views)
    for view in views[1:]:
        solo = comp.execute(fact_rows, [view])
        assert chained[view.name] == solo[view.name]


def test_multiple_measures_aggregate_independently():
    """Views can aggregate different measure columns (extendedprice)."""
    from repro.warehouse.tpcd import TPCDGenerator

    gen = TPCDGenerator(scale_factor=0.0005, seed=9, include_price=True)
    data = gen.generate()
    comp = CubeComputation(data.schema)
    view = ViewDefinition(
        "V_s", ("suppkey",),
        aggregates=(AggSpec(AggFunc.SUM, "quantity"),
                    AggSpec(AggFunc.SUM, "extendedprice"),
                    AggSpec(AggFunc.COUNT)),
    )
    rows = comp.execute(data.facts, [view])["V_s"]
    expected = {}
    for partkey, suppkey, _c, quantity, price in data.facts:
        q, p, n = expected.get(suppkey, (0.0, 0.0, 0))
        expected[suppkey] = (q + quantity, p + price, n + 1)
    assert rows == [
        (s,) + tuple(map(float, expected[s])) for s in sorted(expected)
    ]


def test_non_measure_aggregate_rejected():
    from repro.warehouse.tpcd import TPCDGenerator

    data = TPCDGenerator(scale_factor=0.0005, seed=9).generate()
    comp = CubeComputation(data.schema)
    view = ViewDefinition(
        "V_bad", ("suppkey",),
        aggregates=(AggSpec(AggFunc.SUM, "partkey"),),
    )
    with pytest.raises(SchemaError):
        comp.execute(data.facts, [view])


# ----------------------------------------------------------------------
# column-native computation against a dict group-by reference
# ----------------------------------------------------------------------
ALL_AGGS = (
    AggSpec(AggFunc.SUM, "quantity"),
    AggSpec(AggFunc.COUNT),
    AggSpec(AggFunc.MIN, "extendedprice"),
    AggSpec(AggFunc.MAX, "quantity"),
    AggSpec(AggFunc.AVG, "extendedprice"),
)


def priced_schema():
    part = Dimension("part", "partkey", ("partkey", "brand"),
                     rows=[(i, (i - 1) % 3 + 1) for i in range(1, 10)])
    supp = Dimension("supplier", "suppkey", ("suppkey",),
                     rows=[(i,) for i in range(1, 5)])
    return StarSchema(("partkey", "suppkey"), "quantity",
                      {"partkey": part, "suppkey": supp},
                      extra_measures=("extendedprice",))


def reference_group_by(fact_rows, attrs, brand):
    """``ALL_AGGS`` per group, folded over the facts in input order."""
    groups = {}
    for partkey, suppkey, quantity, price in fact_rows:
        values = {"partkey": partkey, "suppkey": suppkey,
                  "brand": brand.roll_up(partkey)}
        key = tuple(values[attr] for attr in attrs)
        state = groups.get(key)
        if state is None:
            groups[key] = [float(quantity), 1.0, float(price),
                           float(quantity), float(price), 1.0]
        else:
            state[0] = state[0] + quantity
            state[1] += 1.0
            state[2] = min(state[2], float(price))
            state[3] = max(state[3], float(quantity))
            state[4] = state[4] + price
            state[5] += 1.0
    return [key + tuple(groups[key]) for key in sorted(groups)]


#: Prices are quarters, so every sum is exact in any grouping order and
#: a view derived from its parent must match the facts bit for bit.
#: Some are ``-0.0``: a group of negative zeros sums to ``-0.0``.
priced_facts = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(1, 50),
              st.integers(0, 4000).map(lambda q: q / 4) | st.just(-0.0)),
    max_size=60,
)


def price_sum_signs(rows, arity):
    """The sign of every group's price sum (the AVG state's first half);
    ``==`` alone would take ``-0.0`` for ``0.0``."""
    return [math.copysign(1.0, row[arity + 4]) for row in rows]


@settings(max_examples=40, deadline=None)
@given(priced_facts, st.sampled_from([None, 1, 7, 25]))
@example([(1, 1, 1, -0.0), (2, 1, 1, 1.0)], None)
def test_execute_matches_dict_group_by_property(fact_rows, chunk_rows):
    """Every view — plain keys, a hierarchy roll-up, the apex — equals a
    dict group-by over the facts, with all five aggregate states, as
    rows or as columns, sorted in memory or spilled through the
    substrate sorter in chunks of ``chunk_rows``.  Price sums keep
    their sign; MIN keeps the first of ``-0.0`` and ``0.0`` it meets,
    which depends on the grouping order, so its sign is not compared."""
    from repro.columns import ColumnRows
    from repro.core.sorting import make_substrate_sorter
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager

    schema = priced_schema()
    brand = Hierarchy.from_dimension(schema.dimensions["partkey"], "brand")
    disk = DiskManager()
    # The k-way merge pins one page per run: room for 60 one-row runs.
    pool = BufferPool(disk, capacity=64)
    sorter = (
        None if chunk_rows is None
        else make_substrate_sorter(pool, chunk_rows=chunk_rows)
    )
    comp = CubeComputation(schema, {"brand": brand}, sorter=sorter)
    views = [
        v("V_ps", ("partkey", "suppkey"), ALL_AGGS),
        v("V_sp", ("suppkey", "partkey"), ALL_AGGS),
        v("V_p", ("partkey",), ALL_AGGS),
        v("V_brand", ("brand",), ALL_AGGS),
        v("V_brand_s", ("brand", "suppkey"), ALL_AGGS),
        v("V_none", (), ALL_AGGS),
    ]
    for facts in (fact_rows, ColumnRows.from_rows(fact_rows, 4)):
        out = comp.execute(facts, views)
        for view in views:
            expected = reference_group_by(fact_rows, view.group_by, brand)
            assert out[view.name] == expected, view.name
            assert price_sum_signs(out[view.name], view.arity) == (
                price_sum_signs(expected, view.arity)
            ), view.name
    if chunk_rows is not None and len(fact_rows) > chunk_rows:
        assert pool.stats.new_pages > 0  # the fact sort spilled
    assert disk.num_allocated == 0  # and freed its runs


def test_execute_outputs_typed_columns():
    comp = CubeComputation(small_schema())
    out = comp.execute(facts(), [v("V_ps", ("partkey", "suppkey"))])["V_ps"]
    assert [column.typecode for column in out.columns] == ["q", "q", "d"]


def test_execute_on_empty_facts():
    comp = CubeComputation(small_schema())
    out = comp.execute([], [v("V_ps", ("partkey", "suppkey")),
                            v("V_none", ())])
    assert out["V_ps"] == [] and out["V_none"] == []
    assert len(out["V_ps"].columns) == 3
