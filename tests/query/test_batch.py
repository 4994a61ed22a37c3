"""Tests for batched multi-query execution (shared leaf-run passes).

The load-bearing property is byte-identity: for ANY warehouse, view
subset, and query batch, ``engine.query_batch(queries)`` returns for each
query exactly the rows that serial ``engine.query(query)`` returns —
whether the batch answered it through a shared run pass or through the
per-query fallback — and a one-query batch (the query alone on its
run-aware plan) returns them too.
The hypothesis sweep proves it over random cases; the unit tests pin the
grouping, replica merging, and cost-gate mechanics.
"""

import os

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.engine import CubetreeEngine
from repro.query.batch import (
    _merge_replica_groups,
    _shared_pass_cheaper,
    execute_batch,
    route_batch,
)
from repro.query.router import (
    _DESCENT_PAGES,
    AccessPath,
    QueryRouter,
    RoutingDecision,
)
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.warehouse.tpcd import TPCDGenerator

from tests.test_differential import (
    _make_schema,
    slice_queries,
    view_subsets,
    warehouses,
)

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))


@st.composite
def batch_cases(draw):
    """A warehouse, a view subset, and a batch of 1-8 slice queries."""
    domain_sizes, facts = draw(warehouses())
    views = draw(view_subsets(tuple(domain_sizes)))
    queries = draw(
        st.lists(slice_queries(domain_sizes), min_size=1, max_size=8)
    )
    return domain_sizes, facts, views, queries


@given(batch_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_batched_answers_are_identical_to_serial(case):
    """query_batch == query (descent) == a one-query batch (the query's
    own run-aware plan), always."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    engine = CubetreeEngine(schema, buffer_pages=64)
    engine.materialize(views, facts)

    batch = engine.query_batch(queries)
    assert len(batch) == len(queries)
    for query, result in zip(queries, batch.results):
        serial = engine.query(query).rows
        assert result.rows == serial, query.describe()
        alone = engine.query_batch([query]).results[0]
        assert alone.rows == serial, query.describe()


def _engine(scale=0.001, seed=42, replicate=None):
    data = TPCDGenerator(scale_factor=scale, seed=seed).generate()
    engine = CubetreeEngine(data.schema, buffer_pages=256)
    views = [
        ViewDefinition("V_psc", ("partkey", "suppkey", "custkey")),
        ViewDefinition("V_ps", ("partkey", "suppkey")),
        ViewDefinition("V_s", ("suppkey",)),
        ViewDefinition("V_none", ()),
    ]
    engine.materialize(views, data.facts, replicate=replicate)
    return engine


def test_batch_result_carries_totals_and_plans():
    engine = _engine()
    queries = [
        SliceQuery(("partkey",), (("suppkey", s),)) for s in range(1, 9)
    ]
    engine.pool.clear()  # cold cache, so the batch pays real (simulated) I/O
    batch = engine.query_batch(queries)
    assert len(batch) == len(queries)
    assert batch.io.total_ios > 0
    assert batch.wall_ms > 0.0
    assert batch.groups >= 1
    for result in batch.results:
        assert "V_" in result.plan


def test_empty_batch():
    engine = _engine()
    batch = engine.query_batch([])
    assert len(batch) == 0
    assert batch.groups == 0
    assert batch.batched == 0


def test_unbound_node_queries_share_one_pass():
    """Whole-node queries over the same view are the shared-pass sweet
    spot: the group runs as one pass and every plan says so."""
    engine = _engine()
    queries = [SliceQuery(("partkey", "suppkey"), ())] * 6
    batch = engine.query_batch(queries)
    assert batch.batched == len(queries)
    assert all("[batched]" in r.plan for r in batch.results)
    serial = engine.query(queries[0]).rows
    assert all(r.rows == serial for r in batch.results)


def test_lone_selective_query_falls_back_to_its_own_plan():
    """One highly selective query is cheaper through its own descent
    than dragging a whole run scan; the gate must not share it."""
    engine = _engine()
    queries = [SliceQuery(("partkey",), (("custkey", 3), ("suppkey", 2)))]
    batch = engine.query_batch(queries)
    assert batch.batched == 0
    assert "[batched]" not in batch.results[0].plan
    assert batch.results[0].rows == engine.query(queries[0]).rows


def test_replica_views_are_answered_identically():
    """A batch over a replicated view set returns serial answers no
    matter which replica each query was routed to."""
    engine = _engine(replicate={"V_ps": [("suppkey", "partkey")]})
    queries = [
        SliceQuery(("partkey",), (("suppkey", s),)) for s in range(1, 5)
    ] + [
        SliceQuery(("suppkey",), (("partkey", p),)) for p in range(1, 5)
    ] + [SliceQuery(("partkey", "suppkey"), ())]
    batch = engine.query_batch(queries)
    for query, result in zip(queries, batch.results):
        assert result.rows == engine.query(query).rows


def test_merge_replica_groups_unites_sort_order_replicas():
    """Views with the same group-by set land in one replica class;
    views over different sets stay apart."""
    v_ps = ViewDefinition("V_ps", ("partkey", "suppkey"))
    v_sp = ViewDefinition("V_ps_sp", ("suppkey", "partkey"))
    v_s = ViewDefinition("V_s", ("suppkey",))
    decisions = [
        _decision(v_ps, 10.0), _decision(v_sp, 10.0), _decision(v_s, 10.0)
    ]
    groups = {"V_ps": [0], "V_ps_sp": [1], "V_s": [2]}
    merged = _merge_replica_groups(decisions, groups)
    assert sorted(map(sorted, merged)) == [
        ["V_ps", "V_ps_sp"], ["V_s"]
    ]


# ----------------------------------------------------------------------
# the cost gate, in isolation
# ----------------------------------------------------------------------
def _decision(view, est_cost, order=None, use_run=False, run_leaves=40):
    path = AccessPath(view, 1000.0, (), run_leaves=run_leaves)
    return RoutingDecision(
        path, order, (), est_cost, False, use_run=use_run
    )


def _gate_router():
    from repro.cube.lattice import CubeLattice

    return QueryRouter(
        CubeLattice(("a", "b")), {"a": 10.0, "b": 10.0},
        random_ms=8.0, sequential_ms=0.8,
    )


def test_gate_rejects_path_without_run():
    view = ViewDefinition("V_a", ("a",))
    path = AccessPath(view, 1000.0, (), run_leaves=None)
    group = [_decision(view, 1000.0)]
    assert not _shared_pass_cheaper(_gate_router(), path, group)


def test_gate_shares_when_many_descents_outweigh_one_scan():
    view = ViewDefinition("V_a", ("a",))
    path = AccessPath(view, 1000.0, (), run_leaves=10)
    # 10-leaf run: seek ~4 probes * 8 + 8 + 9*0.8 ~ 47 ms shared.
    group = [
        _decision(view, 32.0, order=("a",), run_leaves=10)
        for _ in range(20)
    ]
    assert _shared_pass_cheaper(_gate_router(), path, group)


def test_gate_declines_when_group_is_cheap():
    view = ViewDefinition("V_a", ("a",))
    path = AccessPath(view, 1000.0, (), run_leaves=500)
    group = [_decision(view, 10.0, order=("a",), run_leaves=500)]
    assert not _shared_pass_cheaper(_gate_router(), path, group)


def test_gate_serial_estimate_discounts_repeat_descents():
    """Only the first descent into a view pays the interior pages, so a
    group of N identical descents is priced N*cost - (N-1)*descent."""
    router = _gate_router()
    view = ViewDefinition("V_a", ("a",))
    per_query = 4.0 + _DESCENT_PAGES * router.random_ms  # 28 ms each
    # 60-leaf shared pass: 6 probes * 8 + 8 + 59*0.8 = 103.2 ms.
    # Naive serial estimate of 5 queries = 140 ms (would share);
    # caching-aware = 28 + 4*4 = 44 ms (must not share).
    path = AccessPath(view, 1000.0, (), run_leaves=60)
    group = [
        _decision(view, per_query, order=("a",), run_leaves=60)
        for _ in range(5)
    ]
    assert not _shared_pass_cheaper(router, path, group)
    # The same five plans priced as true run accesses (no descent to
    # share) keep their full cost and still lose to the shared pass at
    # a high enough count.
    run_group = [
        _decision(view, per_query, order=("a",), use_run=True,
                  run_leaves=60)
        for _ in range(5)
    ]
    assert _shared_pass_cheaper(router, path, run_group)


def test_execute_batch_groups_by_routed_view():
    engine = _engine()
    queries = [
        SliceQuery(("partkey", "suppkey"), ()),
        SliceQuery(("suppkey",), ()),
        SliceQuery(("partkey", "suppkey"), ()),
    ]
    decisions, groups = route_batch(
        engine.router, engine.forest.access_paths(), queries
    )
    assert groups["V_ps"] == [0, 2]
    assert groups["V_s"] == [1]
    batch = execute_batch(
        engine.router, engine.forest, engine.hierarchies, queries
    )
    for query, result in zip(queries, batch.results):
        assert result.rows == engine.query(query).rows
