"""Cost-based routing of slice queries to materialized views.

The paper hand-validated "the best way that each query should be written in
SQL" per query type (Sec. 3.3) — e.g. discovering that the indexed apex
view beats the seemingly-better-matching smaller view for query Q1.  The
router automates that choice with a page-level cost model:

* a **scan** reads the view's pages sequentially;
* an **ordered access** (B-tree search key / Cubetree sort order) whose key
  prefix lies inside the bound attributes narrows the matches by the
  prefix's selectivity; fetching the matches is *sequential* when the
  order agrees with the view's physical clustering (the Cubetree case, or
  the one B-tree whose key matches the heap's insertion order) and one
  *random* page per match otherwise (the unclustered-index case that makes
  two of the conventional configuration's three composite indexes
  expensive).

Each entry point keeps one routing rule.  A single query is priced with
the descent cost model (``route(query, paths)``), so it reads its view
through the classic interior descent.  Batched execution
(:func:`repro.query.batch.route_batch`) also prices the packed-run
executions (``runs=True``): a run scan for an unbound access and a
binary seek over the run's leaves for a clustered prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.constants import RANDOM_IO_MS, SEQUENTIAL_IO_MS
from repro.cube.lattice import CubeLattice
from repro.errors import UnanswerableQueryError
from repro.obs import get_registry
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition

#: Pages touched descending an index to its first qualifying entry.
_DESCENT_PAGES = 3


def run_scan_cost(
    run_pages: float,
    random_ms: float = RANDOM_IO_MS,
    sequential_ms: float = SEQUENTIAL_IO_MS,
) -> float:
    """Cost of scanning a packed leaf run end to end: one positioning
    seek, then purely sequential reads."""
    return random_ms + max(0.0, run_pages - 1.0) * sequential_ms


def run_seek_probes(run_pages: float) -> float:
    """Leaf pages a binary seek over a run's first-keys touches."""
    return max(1.0, math.ceil(math.log2(max(2.0, run_pages))))

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_DECISIONS = _REG.counter("router.decisions")
_OBS_SCANS = _REG.counter("router.plans.scan")
_OBS_ORDERED = _REG.counter("router.plans.ordered")
_OBS_REAGG = _REG.counter("router.plans.reaggregated")
_OBS_EST_COST = _REG.histogram("router.est_cost_ms")


@dataclass(frozen=True)
class AccessPath:
    """One candidate physical path to a view's tuples.

    Parameters
    ----------
    view:
        The view definition (a replica is its own view).
    size:
        Tuple count of the materialized view.
    orders:
        Physical orders usable for prefix access: B-tree keys on the view
        (conventional), or the view's Cubetree sort order(s).
    rows_per_page:
        Tuples per data page (for page-cost estimates).
    clustered:
        The attribute order the view's *data* is physically sorted by, or
        None when unknown.  Matches fetched through an order that agrees
        with this clustering are read sequentially.
    """

    view: ViewDefinition
    size: float
    orders: Tuple[Tuple[str, ...], ...] = ()
    rows_per_page: int = 100
    clustered: Optional[Tuple[str, ...]] = None
    #: Leaves in the view's packed Cubetree run, when a leaf-run extent
    #: is recorded (None for conventional paths and legacy trees).  Lets
    #: batch routing price run scans and binary-seek prefix access
    #: instead of the generic descent.
    run_leaves: Optional[int] = None


@dataclass(frozen=True)
class RoutingDecision:
    """The chosen plan for a query."""

    path: AccessPath
    order: Optional[Tuple[str, ...]]  # the order whose prefix is used
    prefix: Tuple[str, ...]           # bound attrs usable as access prefix
    est_cost: float                   # estimated milliseconds of I/O
    needs_reaggregation: bool         # view is finer than the query node
    #: Execute through the packed leaf run (binary seek / run scan)
    #: instead of the classic interior descent.  Only set on plans the
    #: run-aware cost model generated *and* priced cheaper than the
    #: descent.
    use_run: bool = False

    def describe(self) -> str:
        """Human-readable one-line rendering."""
        via = f" via {self.order}" if self.order else " (scan)"
        run = " [run]" if self.use_run else ""
        return f"{self.view_name}{via}{run} ~{self.est_cost:.1f} ms"

    @property
    def view_name(self) -> str:
        """Name of the routed view."""
        return self.path.view.name


class QueryRouter:
    """Picks the cheapest access path for each slice query."""

    def __init__(
        self,
        lattice: CubeLattice,
        distinct_counts: Mapping[str, float],
        random_ms: float = RANDOM_IO_MS,
        sequential_ms: float = SEQUENTIAL_IO_MS,
    ) -> None:
        self.lattice = lattice
        self.distinct = dict(distinct_counts)
        self.random_ms = random_ms
        self.sequential_ms = sequential_ms

    def route(
        self,
        query: SliceQuery,
        paths: Sequence[AccessPath],
        runs: bool = False,
    ) -> RoutingDecision:
        """Choose the cheapest plan (UnanswerableQueryError if none).

        ``runs`` also prices paths with a recorded leaf-run extent
        (:attr:`AccessPath.run_leaves`) as the packed-run executions
        read them: an unbound access is one positioning seek plus a
        sequential run scan, and a clustered prefix access is a binary
        seek over the run's leaves instead of a fixed-depth interior
        descent.  Only batch routing sets it.
        """
        best: Optional[RoutingDecision] = None
        node = tuple(query.node)
        for path in paths:
            if not self.lattice.derives_from(node, path.view.group_by):
                continue
            decision = self._best_plan_for(path, query, runs)
            if best is None or self._better(decision, best):
                best = decision
        if best is None:
            raise UnanswerableQueryError(
                f"no materialized view answers query over {sorted(node)}"
            )
        _OBS_DECISIONS.value += 1
        if best.order is None:
            _OBS_SCANS.value += 1
        else:
            _OBS_ORDERED.value += 1
        if best.needs_reaggregation:
            _OBS_REAGG.value += 1
        _OBS_EST_COST.observe(best.est_cost)
        return best

    # ------------------------------------------------------------------
    def _attr_selectivity(self, attr: str, query: SliceQuery) -> float:
        """Matching-fraction denominator of one bound attribute."""
        if attr in query.binding_map:
            return self.distinct.get(attr, 1.0)
        low, high = query.range_map[attr]
        width = high - low + 1
        return max(1.0, self.distinct.get(attr, 1.0) / width)

    def candidate_plans(
        self,
        path: AccessPath,
        query: SliceQuery,
        runs: bool = False,
    ) -> List[RoutingDecision]:
        """Every plan the cost model considers for one path.

        The scan plan comes first, then one plan per order with a usable
        prefix — the enumeration :meth:`route` minimizes over, exposed so
        tests can check the choice against the brute-force minimum.  With
        ``runs`` and a recorded run extent, each physical alternative
        appears as its own candidate — classic descent *and* run
        seek/scan — so minimizing picks the cheaper execution, not just
        the cheaper view.
        """
        needs_reagg = frozenset(path.view.group_by) != query.node
        data_pages = max(1.0, path.size / max(path.rows_per_page, 1))
        equality = set(query.binding_map)
        ranged = set(query.range_map)
        run_plans = runs and path.run_leaves is not None
        run_pages = float(path.run_leaves or 0)

        # Plan 0: sequential scan (classic: descend, then walk every
        # leaf; pages estimated from the view size).
        scan_cost = self.random_ms + data_pages * self.sequential_ms
        plans = [RoutingDecision(path, None, (), scan_cost, needs_reagg)]
        if run_plans:
            # Run alternative: the recorded extent bounds the scan to
            # exactly the view's own leaves, read sequentially.
            plans.append(
                RoutingDecision(
                    path, None, (),
                    run_scan_cost(
                        run_pages, self.random_ms, self.sequential_ms
                    ),
                    needs_reagg, use_run=True,
                )
            )

        # Ordered accesses: a usable prefix is any run of equality-bound
        # attributes, optionally ending with one range-bound attribute
        # (entries stop being contiguous past a range component).
        for order in path.orders:
            prefix: List[str] = []
            for attr in order:
                if attr in equality:
                    prefix.append(attr)
                elif attr in ranged:
                    prefix.append(attr)
                    break
                else:
                    break
            if not prefix:
                continue
            selectivity = 1.0
            for attr in prefix:
                selectivity *= self._attr_selectivity(attr, query)
            matches = max(1.0, path.size / selectivity)
            match_pages = max(1.0, matches / max(path.rows_per_page, 1))
            clustered = path.clustered is not None and tuple(
                path.clustered[: len(prefix)]
            ) == tuple(prefix)
            if clustered:
                # Matches are physically contiguous.
                cost = _DESCENT_PAGES * self.random_ms
                cost += self.random_ms + (match_pages - 1) * self.sequential_ms
            else:
                # One random data page per match (capped by the view size).
                cost = _DESCENT_PAGES * self.random_ms
                cost += min(matches, data_pages) * self.random_ms
            plans.append(
                RoutingDecision(
                    path, order, tuple(prefix), cost, needs_reagg
                )
            )
            if run_plans and clustered:
                # Run alternative: binary seek over the run's leaf
                # first-keys replaces the fixed-depth interior descent;
                # the matches then stream sequentially from the first
                # qualifying leaf.  Enumerated *after* the descent plan,
                # so an exact cost tie keeps the classic execution.
                probes = run_seek_probes(run_pages)
                cost = probes * self.random_ms
                cost += self.random_ms + (match_pages - 1) * self.sequential_ms
                plans.append(
                    RoutingDecision(
                        path, order, tuple(prefix), cost, needs_reagg,
                        use_run=True,
                    )
                )
        return plans

    def _best_plan_for(
        self,
        path: AccessPath,
        query: SliceQuery,
        runs: bool = False,
    ) -> RoutingDecision:
        plans = self.candidate_plans(path, query, runs)
        # First strictly-cheaper plan wins, so ties keep the scan plan —
        # the enumeration order candidate_plans guarantees.
        best = plans[0]
        for plan in plans[1:]:
            if plan.est_cost < best.est_cost:
                best = plan
        return best

    @staticmethod
    def _better(a: RoutingDecision, b: RoutingDecision) -> bool:
        # Cheaper wins; ties prefer the view that needs no reaggregation,
        # then the smaller view.
        if not math.isclose(a.est_cost, b.est_cost, rel_tol=1e-9):
            return a.est_cost < b.est_cost
        return (a.needs_reaggregation, a.path.size) < (
            b.needs_reaggregation, b.path.size,
        )
