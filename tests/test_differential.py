"""Differential sweep: the Cubetree engine vs. on-the-fly recomputation.

Property: for ANY star schema, fact data, materialized lattice subset, and
slice query, routing the query through the Cubetree forest returns exactly
the rows that recomputing the aggregate from the raw fact table returns.
The :class:`~repro.core.onthefly.OnTheFlyEngine` is the oracle — it holds
no materialized views, so agreement means the whole pipeline (view
computation, valid mapping, packing, routing, reaggregation, finalization)
preserved the data.

Example count scales with ``REPRO_DIFF_EXAMPLES`` (default 200 for local
runs; CI sets a smaller smoke profile).
"""

import os
from itertools import combinations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.engine import CubetreeEngine
from repro.core.onthefly import OnTheFlyEngine
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.warehouse.star import Dimension, StarSchema

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))

#: Candidate fact-key names (2-3 are drawn per schema).
KEY_NAMES = ("ka", "kb", "kc")


def _make_schema(domain_sizes):
    dimensions = {}
    for name, size in domain_sizes.items():
        dimensions[name] = Dimension(
            name=f"dim_{name}",
            key=name,
            attributes=(name,),
            rows=[(value,) for value in range(1, size + 1)],
        )
    return StarSchema(
        fact_keys=tuple(domain_sizes),
        measure="quantity",
        dimensions=dimensions,
    )


@st.composite
def warehouses(draw):
    """A random star schema plus fact rows (integer-valued measures)."""
    n_keys = draw(st.integers(min_value=2, max_value=3))
    keys = KEY_NAMES[:n_keys]
    domain_sizes = {
        key: draw(st.integers(min_value=2, max_value=6)) for key in keys
    }
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.integers(min_value=1, max_value=domain_sizes[key])
                    for key in keys
                ],
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=50,
        )
    )
    # Integer-valued float quantities: float sums stay exact, so the two
    # engines' answers can be compared with ==.
    facts = [tuple(row[:-1]) + (float(row[-1]),) for row in rows]
    return domain_sizes, facts


@st.composite
def view_subsets(draw, keys):
    """The apex + V_none + a random subset of the proper lattice nodes."""
    nodes = [("apex", tuple(keys)), ("none", ())]
    middles = [
        node
        for size in range(1, len(keys))
        for node in combinations(keys, size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(middles), unique=True, max_size=len(middles))
        if middles
        else st.just([])
    )
    nodes.extend((f"v_{'_'.join(node)}", node) for node in chosen)
    return [ViewDefinition(name, group_by) for name, group_by in nodes]


@st.composite
def slice_queries(draw, domain_sizes):
    """A random slice query over the schema's fact keys."""
    keys = list(domain_sizes)
    node = draw(
        st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
    )
    bound = draw(
        st.lists(st.sampled_from(node), unique=True, max_size=len(node))
        if node
        else st.just([])
    )
    bindings = []
    ranges = []
    for attr in bound:
        # Bounds reach past the populated domain [1, size] on both sides:
        # 0 and negatives (never a view coordinate) and values above it.
        size = domain_sizes[attr]
        if draw(st.booleans()):
            bindings.append(
                (attr, draw(st.integers(min_value=-2, max_value=size + 2)))
            )
        else:
            low = draw(st.integers(min_value=-2, max_value=size + 2))
            high = draw(st.integers(min_value=low, max_value=size + 2))
            ranges.append((attr, low, high))
    group_by = tuple(a for a in node if a not in set(bound))
    return SliceQuery(group_by, tuple(bindings), tuple(ranges))


@st.composite
def differential_cases(draw):
    domain_sizes, facts = draw(warehouses())
    views = draw(view_subsets(tuple(domain_sizes)))
    queries = draw(
        st.lists(slice_queries(domain_sizes), min_size=1, max_size=4)
    )
    return domain_sizes, facts, views, queries


@given(differential_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_cubetree_answers_match_onthefly_recomputation(case):
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)

    cubetree = CubetreeEngine(schema, buffer_pages=64)
    cubetree.materialize(views, facts)

    oracle = OnTheFlyEngine(schema, buffer_pages=64)
    oracle.load_fact(facts)

    for query in queries:
        expected = oracle.query(query).rows
        got = cubetree.query(query).rows
        assert got == expected, query.describe()


@given(differential_cases())
@settings(max_examples=max(10, EXAMPLES // 10), deadline=None)
def test_differential_survives_incremental_refresh(case):
    """After a merge-pack refresh both engines still agree."""
    domain_sizes, facts, views, queries = case
    if len(facts) < 2:
        return
    split = len(facts) // 2
    initial, delta = facts[:split], facts[split:]

    schema = _make_schema(domain_sizes)
    cubetree = CubetreeEngine(schema, buffer_pages=64)
    cubetree.materialize(views, initial)
    cubetree.update(delta)

    oracle = OnTheFlyEngine(schema, buffer_pages=64)
    oracle.load_fact(facts)

    for query in queries:
        assert cubetree.query(query).rows == oracle.query(query).rows
