"""Tests for cost-based query routing (page-level cost model)."""

import pytest

from repro.cube.lattice import CubeLattice
from repro.errors import QueryError
from repro.query.router import AccessPath, QueryRouter
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition

PSC = ("partkey", "suppkey", "custkey")
DISTINCT = {"partkey": 2000.0, "suppkey": 100.0, "custkey": 1500.0}


def router():
    return QueryRouter(CubeLattice(PSC), DISTINCT)


# TPC-D SF-1 statistics (the paper's setting): |V_psc| ~ 6M, |V_ps| ~ 800k.
PSC_DISTINCT_SF1 = {"partkey": 200_000.0, "suppkey": 10_000.0,
                    "custkey": 150_000.0}


def psc_path(clustered=("partkey", "suppkey", "custkey"), size=6_000_000.0):
    v_psc = ViewDefinition("V_psc", PSC)
    return AccessPath(
        v_psc, size,
        orders=(
            ("custkey", "partkey", "suppkey"),
            ("partkey", "suppkey", "custkey"),
            ("suppkey", "custkey", "partkey"),
        ),
        rows_per_page=120,
        clustered=clustered,
    )


def ps_path(size=800_000.0):
    v_ps = ViewDefinition("V_ps", ("partkey", "suppkey"))
    return AccessPath(v_ps, size, (), rows_per_page=150)


def sf1_router():
    return QueryRouter(CubeLattice(PSC), PSC_DISTINCT_SF1)


def test_route_prefers_indexed_apex_for_selective_binding():
    """The paper's Q1 at SF-1 sizes: the indexed apex view beats scanning
    the (unindexed) 800k-row V_ps."""
    q = SliceQuery(("suppkey",), (("partkey", 7),))
    decision = sf1_router().route(q, [psc_path(), ps_path()])
    assert decision.view_name == "V_psc"
    assert decision.order == ("partkey", "suppkey", "custkey")
    assert decision.needs_reaggregation


def test_tiny_view_scan_beats_index_descent():
    """A view that fits in a couple of pages is cheaper to scan than to
    reach through three random index-descent pages."""
    q = SliceQuery((), (("suppkey", 7),))
    v_s = ViewDefinition("V_s", ("suppkey",))
    tiny = AccessPath(v_s, 100.0, (("suppkey",),), rows_per_page=200,
                      clustered=("suppkey",))
    decision = router().route(q, [tiny])
    assert decision.order is None
    assert decision.est_cost < 3 * 8.0


def test_route_scan_when_no_order_matches():
    q = SliceQuery(("partkey",), (("suppkey", 1),))
    decision = router().route(q, [ps_path()])
    assert decision.order is None
    assert decision.prefix == ()


def test_route_rejects_unanswerable_query():
    q = SliceQuery(("custkey",), ())
    with pytest.raises(QueryError):
        router().route(q, [ps_path()])


def test_clustered_access_beats_unclustered():
    """Same index keys; only the clustered one fetches sequentially."""
    q = SliceQuery(("suppkey", "partkey"), (("custkey", 3),))
    # Bound {custkey}: order (c, p, s) has a usable prefix; ~40 matches.
    clustered = psc_path(clustered=("custkey", "partkey", "suppkey"))
    unclustered = psc_path(clustered=("partkey", "suppkey", "custkey"))
    d_clustered = sf1_router().route(q, [clustered])
    d_unclustered = sf1_router().route(q, [unclustered])
    assert d_clustered.order == ("custkey", "partkey", "suppkey")
    assert d_unclustered.order == ("custkey", "partkey", "suppkey")
    assert d_clustered.est_cost < d_unclustered.est_cost


def test_unclustered_fetch_priced_as_random_pages():
    """~600 unclustered matches cost ~600 random pages — still cheaper
    than scanning 6M rows, but ~60x a clustered fetch of the same rows."""
    q = SliceQuery(("partkey", "custkey"), (("suppkey", 9),))
    unclustered = sf1_router().route(q, [psc_path()])
    assert unclustered.order == ("suppkey", "custkey", "partkey")
    clustered = sf1_router().route(
        q, [psc_path(clustered=("suppkey", "custkey", "partkey"))]
    )
    assert unclustered.est_cost > 30 * clustered.est_cost


def test_route_picks_longest_prefix_order():
    q = SliceQuery(("suppkey",), (("custkey", 3), ("partkey", 9)))
    decision = router().route(
        q, [psc_path(clustered=("custkey", "partkey", "suppkey"))]
    )
    assert decision.order == ("custkey", "partkey", "suppkey")
    assert decision.prefix == ("custkey", "partkey")


def test_route_exact_view_without_reaggregation_wins_ties():
    v_exact = ViewDefinition("V_c", ("custkey",))
    v_fine = ViewDefinition("V_sc", ("suppkey", "custkey"))
    exact = AccessPath(v_exact, 10.0, (("custkey",),),
                       clustered=("custkey",))
    fine = AccessPath(v_fine, 10.0, (("custkey", "suppkey"),),
                      clustered=("custkey", "suppkey"))
    q = SliceQuery((), (("custkey", 5),))
    decision = router().route(q, [fine, exact])
    assert decision.view_name == "V_c"
    assert not decision.needs_reaggregation


def test_route_with_hierarchy_attribute():
    lattice = CubeLattice(PSC, hierarchies={"brand": "partkey"})
    r = QueryRouter(lattice, dict(DISTINCT, brand=25.0))
    q = SliceQuery(("brand",), (("custkey", 1),))
    decision = r.route(
        q, [psc_path(clustered=("custkey", "partkey", "suppkey"))]
    )
    assert decision.view_name == "V_psc"
    assert decision.prefix == ("custkey",)


def test_decision_describe():
    q = SliceQuery(("suppkey",), (("partkey", 7),))
    decision = router().route(q, [psc_path()])
    assert "V_psc" in decision.describe()
    assert "ms" in decision.describe()


# ----------------------------------------------------------------------
# run-aware (packed-run) costing
# ----------------------------------------------------------------------
def run_path(size=6_000_000.0, run_leaves=None,
             clustered=("partkey", "suppkey", "custkey")):
    v_psc = ViewDefinition("V_psc", PSC)
    return AccessPath(
        v_psc, size, (clustered,), rows_per_page=120,
        clustered=clustered, run_leaves=run_leaves,
    )


def test_classic_router_never_emits_run_plans():
    q = SliceQuery(("suppkey",), (("partkey", 7),))
    plans = sf1_router().candidate_plans(run_path(run_leaves=50_000), q)
    assert all(not plan.use_run for plan in plans)


def test_fast_router_enumerates_both_physical_paths():
    q = SliceQuery(("suppkey",), (("partkey", 7),))
    plans = sf1_router().candidate_plans(
        run_path(run_leaves=50_000), q, runs=True
    )
    assert any(plan.use_run for plan in plans)
    assert any(not plan.use_run for plan in plans)
    # The run alternatives price the same logical access differently;
    # route() then minimizes over all of them.


def test_fast_scan_of_small_run_beats_descent():
    """A few-leaf view: one seek + sequential run beats three random
    descent pages, so the fast plan wins and is marked use_run."""
    v_s = ViewDefinition("V_s", ("suppkey",))
    path = AccessPath(v_s, 600.0, (("suppkey",),), rows_per_page=200,
                      clustered=("suppkey",), run_leaves=3)
    q = SliceQuery(("suppkey",), ())
    decision = router().route(q, [path], runs=True)
    assert decision.use_run
    assert decision.est_cost == 8.0 + 2 * 0.8


def test_fast_prefix_seek_loses_on_deep_runs():
    """A big run needs ~log2(leaves) random probes to seek; the 3-page
    interior descent stays cheaper, so classic execution is kept."""
    q = SliceQuery(("suppkey", "custkey"), (("partkey", 7),))
    decision = sf1_router().route(
        q, [run_path(run_leaves=50_000)], runs=True
    )
    assert decision.order is not None
    assert not decision.use_run  # ceil(log2(50000)) = 16 probes > descent


def test_exact_cost_tie_keeps_classic_execution():
    """When the run seek prices exactly like the descent, the classic
    plan (enumerated first) must win — zero drift on ties."""
    v_s = ViewDefinition("V_s", ("suppkey",))
    # 8 leaves: ceil(log2(8)) = 3 probes == _DESCENT_PAGES.
    path = AccessPath(v_s, 1600.0, (("suppkey",),), rows_per_page=200,
                      clustered=("suppkey",), run_leaves=8)
    q = SliceQuery((), (("suppkey", 7),))
    plans = router().candidate_plans(path, q, runs=True)
    ordered = [p for p in plans if p.order is not None]
    assert len(ordered) == 2
    assert ordered[0].est_cost == ordered[1].est_cost
    decision = router().route(q, [path], runs=True)
    if decision.order is not None:
        assert not decision.use_run


def test_decision_describe_marks_run_plans():
    v_s = ViewDefinition("V_s", ("suppkey",))
    path = AccessPath(v_s, 600.0, (("suppkey",),), rows_per_page=200,
                      clustered=("suppkey",), run_leaves=3)
    q = SliceQuery(("suppkey",), ())
    decision = router().route(q, [path], runs=True)
    assert "[run]" in decision.describe()
    assert "[run]" not in router().route(q, [path]).describe()


# ----------------------------------------------------------------------
# property: route() == brute-force minimum over every candidate plan
# ----------------------------------------------------------------------
try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:

    @st.composite
    def routed_cases(draw):
        """Random paths (sizes, orders, run extents) + a random query."""
        attrs = PSC
        paths = []
        n_paths = draw(st.integers(min_value=1, max_value=4))
        for i in range(n_paths):
            n_attrs = draw(st.integers(min_value=0, max_value=3))
            group_by = tuple(draw(st.permutations(attrs)))[:n_attrs]
            size = draw(st.floats(min_value=1.0, max_value=1e7))
            clustered = tuple(reversed(group_by)) or None
            orders = (clustered,) if clustered else ()
            run_leaves = draw(
                st.one_of(st.none(), st.integers(min_value=1, max_value=60_000))
            )
            paths.append(
                AccessPath(
                    ViewDefinition(f"V_{i}_{'_'.join(group_by)}", group_by),
                    size, orders, rows_per_page=120,
                    clustered=clustered, run_leaves=run_leaves,
                )
            )
        node = tuple(
            draw(st.permutations(attrs))
        )[: draw(st.integers(min_value=0, max_value=3))]
        bound = draw(
            st.lists(st.sampled_from(attrs), unique=True, max_size=2)
            if attrs else st.just([])
        )
        bindings = []
        ranges = []
        for attr in bound:
            if attr in node:
                continue
            if draw(st.booleans()):
                bindings.append((attr, draw(st.integers(1, 100))))
            else:
                low = draw(st.integers(1, 100))
                ranges.append((attr, low, draw(st.integers(low, 200))))
        query = SliceQuery(tuple(node), tuple(bindings), tuple(ranges))
        runs = draw(st.booleans())
        return paths, query, runs

    @given(routed_cases())
    @settings(max_examples=150, deadline=None)
    def test_route_matches_brute_force_minimum(case):
        """route() returns exactly the cheapest plan any derivable path
        offers — the enumeration candidate_plans exposes."""
        paths, query, runs = case
        r = sf1_router()
        node = tuple(query.node)
        derivable = [
            p for p in paths
            if r.lattice.derives_from(node, p.view.group_by)
        ]
        all_plans = [
            plan
            for path in derivable
            for plan in r.candidate_plans(path, query, runs=runs)
        ]
        if not all_plans:
            with pytest.raises(QueryError):
                r.route(query, paths, runs=runs)
            return
        decision = r.route(query, paths, runs=runs)
        best = min(plan.est_cost for plan in all_plans)
        assert decision.est_cost == best
        if not runs:
            assert not decision.use_run
