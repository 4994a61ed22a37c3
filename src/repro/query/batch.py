"""Query execution: the one plan executor and batched shared run passes.

:func:`execute_plan` answers one routed query: ``CubetreeEngine.query``
calls it with descent plans, and :func:`execute_batch` with every query
it does not share a run pass for.

The paper's Fig. 13 throughput experiment fires many slice queries at the
same small set of materialized views.  Executed one at a time, every query
pays its own descent (or run seek) over a view whose leaves its neighbours
are about to read again.  :func:`execute_batch` instead:

1. routes every query of a batch with the run-aware cost model
   (``QueryRouter.route(..., runs=True)``), which also prices run scans
   and binary run seeks next to the classic descent;
2. groups the queries by the view the router assigned them to, then
   merges groups whose views are sort-order replicas of the same data —
   single-query routing picks the replica whose clustering matches each
   query's bound prefix, but a shared scan reads every leaf regardless
   of order, so one pass over one replica's run answers them all; and
3. answers each merged group in **one shared pass** over that view's
   packed leaf run (:meth:`repro.rtree.tree.RTree.search_run_group`),
   with the group sorted into run order so the pass reads each leaf at
   most once, sequentially — *when the cost model prices that pass below
   the cost of the group's individual plans run back to back*.  A few
   highly selective queries scattered over a large run are cheaper
   answered one by one (each reads two or three leaves; a shared pass
   would walk the whole span between them), so such groups fall back to
   :func:`execute_plan`, query by query, view by view.

Per-query answers are byte-identical to serial execution: the shared pass
hands every query its own column blocks in run order — the same entries,
in the same order, that the query's own run pass yields — and
:func:`finalize_matches` folds and sorts them per query as usual.  A total
query with no residual filter folds its measure columns inside the pass
(aggregate pushdown) instead.  Views without a recorded leaf-run extent
(dynamic trees, checkpoints predating the field) descend.

A one-query batch never passes the shared-pass gate (its estimate adds
seek probes to a run scan the router already priced), so
``query_batch([q])`` runs ``q``'s own cheapest run-aware plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.answer import (
    Residual,
    Row,
    finalize_fold,
    finalize_matches,
    split_bindings,
)
from repro.core.cubetree import FoldedSlice
from repro.obs import get_registry
from repro.query.result import QueryResult
from repro.query.router import (
    _DESCENT_PAGES,
    QueryRouter,
    RoutingDecision,
    run_scan_cost,
    run_seek_probes,
)
from repro.query.slice import SliceQuery
from repro.storage.iomodel import IOStats

_OBS_PUSHDOWNS = get_registry().counter("query.cubetree.pushdowns")


@dataclass
class BatchResult:
    """Answers for one query batch plus batch-level execution totals.

    ``results`` line up with the input queries.  Individual results carry
    empty ``io``/``wall_ms`` — a shared pass cannot honestly attribute
    page reads to single queries — so the totals live here instead.
    """

    results: List[QueryResult] = field(default_factory=list)
    io: IOStats = field(default_factory=IOStats)
    wall_ms: float = 0.0
    #: Shared run passes executed (= distinct views routed to).
    groups: int = 0
    #: Queries answered through a shared pass (vs per-query fallback).
    batched: int = 0

    def __len__(self) -> int:
        return len(self.results)


def route_batch(
    router: QueryRouter,
    paths: Sequence,
    queries: Sequence[SliceQuery],
) -> Tuple[List[RoutingDecision], Dict[str, List[int]]]:
    """Route every query and group query indices by assigned view.

    Every query is priced with the run-aware cost model, as batch
    execution can always use the runs; the shared pass then changes only
    how a group's leaves are read, never which view answers a query.
    Group lists preserve input order; callers re-sort into run order.
    """
    decisions = [router.route(query, paths, runs=True) for query in queries]
    groups: Dict[str, List[int]] = {}
    for index, decision in enumerate(decisions):
        groups.setdefault(decision.view_name, []).append(index)
    return decisions, groups


def execute_batch(
    router: QueryRouter,
    forest,
    hierarchies: Mapping[str, tuple],
    queries: Sequence[SliceQuery],
) -> BatchResult:
    """Answer a batch of slice queries with one pass per routed view.

    The caller (``CubetreeEngine.query_batch``) measures I/O and wall
    time around this call and fills in the :class:`BatchResult` totals.
    """
    batch = BatchResult(results=[QueryResult() for _ in queries])
    if not queries:
        return batch
    decisions, groups = route_batch(router, forest.access_paths(), queries)
    for view_names in _merge_replica_groups(decisions, groups):
        indices = sorted(i for name in view_names for i in groups[name])
        target = _scan_target(forest, decisions, groups, view_names)
        if target is not None and _shared_pass_cheaper(
            router,
            decisions[groups[target][0]].path,
            [decisions[i] for i in indices],
        ):
            view = forest.view_definition(target)
            splits = [
                split_bindings(view, queries[i], hierarchies)
                for i in indices
            ]
            # Total queries with no residual filter fold inside the
            # shared pass (aggregate pushdown) instead of materializing
            # their matches; same leaves read, same rows out.
            fold = [
                not queries[i].group_by and not residual
                for i, (_direct, residual) in zip(indices, splits)
            ]
            block_lists = forest.query_view_group(
                target,
                [direct for direct, _ in splits],
                fold=fold if any(fold) else None,
            )
            _OBS_PUSHDOWNS.value += sum(fold)
            batch.batched += len(indices)
            batch.groups += 1
            for i, matches, (_direct, residual) in zip(
                indices, block_lists, splits
            ):
                batch.results[i] = QueryResult(
                    rows=_finalize(
                        view, queries[i], hierarchies, residual, matches
                    ),
                    plan=decisions[i].describe() + " [batched]",
                )
            continue
        # Fallback: each routed view's queries run their own best plans.
        for view_name in view_names:
            for i in groups[view_name]:
                batch.results[i] = QueryResult(
                    rows=execute_plan(
                        forest, hierarchies, queries[i], decisions[i]
                    ),
                    plan=decisions[i].describe(),
                )
            batch.groups += 1
    return batch


def execute_plan(
    forest,
    hierarchies: Mapping[str, tuple],
    query: SliceQuery,
    decision: RoutingDecision,
) -> List[Row]:
    """Answer one query on its routed plan: the one plan executor.

    Splits the query's bindings on the routed view, reads the slice and
    finalises it.  A run plan (``decision.use_run``) on a view with a
    recorded run reads through a one-slice run pass
    (``query_view_group``) and, for a total query with no residual,
    folds inside it; every other plan descends (``query_view``).
    """
    view = decision.path.view
    direct, residual = split_bindings(view, query, hierarchies)
    if decision.use_run and forest.has_run(view.name):
        fold = not query.group_by and not residual
        (matches,) = forest.query_view_group(view.name, [direct], fold=[fold])
        _OBS_PUSHDOWNS.value += int(fold)
    else:
        matches = forest.query_view(view.name, direct)
    return _finalize(view, query, hierarchies, residual, matches)


def _finalize(
    view,
    query: SliceQuery,
    hierarchies: Mapping[str, tuple],
    residual: List[Residual],
    matches: object,
) -> List[Row]:
    """Fold one query's blocks (or pushed-down states) into its rows."""
    if isinstance(matches, FoldedSlice):
        return finalize_fold(view, matches.states)
    return finalize_matches(matches, view, query, hierarchies, residual)


def _merge_replica_groups(
    decisions: Sequence[RoutingDecision],
    groups: Mapping[str, List[int]],
) -> List[List[str]]:
    """Partition routed view names into replica classes.

    Views with the same group-by *set* hold the same rows in different
    physical orders (the Datablade's replication); one shared scan can
    answer every query routed to any of them.  Returns sorted name lists
    in deterministic order.
    """
    classes: Dict[frozenset, List[str]] = {}
    for view_name in sorted(groups):
        view = decisions[groups[view_name][0]].path.view
        classes.setdefault(frozenset(view.group_by), []).append(view_name)
    return [classes[key] for key in sorted(classes, key=sorted)]


def _scan_target(
    forest,
    decisions: Sequence[RoutingDecision],
    groups: Mapping[str, List[int]],
    view_names: Sequence[str],
) -> Optional[str]:
    """The replica whose run a merged shared pass should read, if any."""
    candidates = [name for name in view_names if forest.has_run(name)]
    if not candidates:
        return None
    def run_length(name: str) -> Tuple[int, str]:
        path = decisions[groups[name][0]].path
        return (path.run_leaves or 0, name)
    return min(candidates, key=run_length)


def _shared_pass_cheaper(
    router: QueryRouter,
    path,
    group: Sequence[RoutingDecision],
) -> bool:
    """Should this view group run as one shared pass over the leaf run?

    Compares a conservative shared-pass estimate — one binary seek plus,
    at worst, the whole run read sequentially — against the cost of
    running the group's individual best plans back to back.  The serial
    side is *caching-aware*: consecutive descents into the same view
    re-read the same interior pages, so only the group's first descent
    pays them (the router's single-query estimate charges every query).
    The shared estimate over-counts a bounded group's span (we do not
    know where its prefixes land without reading leaves), so the gate
    only shares when the pass wins even in the worst case; per-query
    answers are identical either way.
    """
    if path.run_leaves is None:
        return False
    run_pages = float(path.run_leaves)
    shared_est = (
        run_seek_probes(run_pages) * router.random_ms
        + run_scan_cost(run_pages, router.random_ms, router.sequential_ms)
    )
    serial_est = 0.0
    seen_descent: set = set()
    for decision in group:
        cost = decision.est_cost
        if decision.order is not None and not decision.use_run:
            # Interiors are shared between descents into the same view.
            if decision.view_name in seen_descent:
                cost -= _DESCENT_PAGES * router.random_ms
            seen_descent.add(decision.view_name)
        serial_est += cost
    return shared_est < serial_est
