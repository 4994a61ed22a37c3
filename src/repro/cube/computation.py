"""Sort-based cube computation from the smallest parent.

Implements the [AAD+96]-style strategy the paper uses (Fig. 10/11): the set
of materialized views is computed as a pipeline where each view is derived
from the smallest already-computed view that can answer it, falling back to
the fact table only when necessary.  Hierarchy attributes (``brand``,
``month``...) are resolved by rolling fact keys up through their
:class:`~repro.warehouse.hierarchy.Hierarchy`.

Data flows as columns (:mod:`repro.columns`).  The facts come in as
typed ``array`` columns; each step gathers its source columns into the
view's group order through one sort permutation and folds every
aggregate over the runs of equal keys a column at a time.  The output
per view is a :class:`~repro.columns.ColumnRows`: ``array('q')`` group
columns followed by ``array('d')`` mergeable aggregate-state columns,
sorted by the view's group-by attributes — the sorted runs that both
storage engines load from (the sort "can be hardly considered as an
overhead, since sorting is at the same time used for computing the
views", Sec. 3.2).  Its row face is the state rows ``group values +
states``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.columns import ColumnRows, as_columns, sort_columns
from repro.cube.cost import estimate_view_size
from repro.errors import SchemaError
from repro.relational.executor import aggregate_columns, reaggregate_columns
from repro.relational.view import ViewDefinition
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import StarSchema

Row = Tuple[object, ...]

#: ``sorter(columns, k)``: the columns reordered by a stable sort on the
#: first ``k`` of them.
ColumnSorter = Callable[[List[array], int], List[array]]


@dataclass(frozen=True)
class CubePlanStep:
    """One step of the computation plan: a view and its source."""

    view: ViewDefinition
    parent: Optional[str]  # parent view name; None means the fact table

    def describe(self) -> str:
        """One-line rendering, e.g. ``V_p <- V_ps``."""
        source = self.parent if self.parent is not None else "F"
        return f"{self.view.name} <- {source}"


class CubeComputation:
    """Plans and executes the computation of a set of aggregate views."""

    def __init__(
        self,
        schema: StarSchema,
        hierarchies: Optional[Mapping[str, Hierarchy]] = None,
        sorter: Optional[ColumnSorter] = None,
    ) -> None:
        """``sorter(columns, k)`` lets engines route large sorts through
        the paged substrate (external sort); the default sorts in
        memory."""
        self.schema = schema
        self.sorter = sorter
        self.hierarchies: Dict[str, Hierarchy] = dict(hierarchies or {})
        self._distinct = {
            attr: float(schema.distinct_count(attr))
            for attr in schema.groupable_attributes()
        }
        for attr, hierarchy in self.hierarchies.items():
            self._distinct.setdefault(attr, float(hierarchy.distinct_count()))

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def estimated_size(self, view: ViewDefinition, num_facts: int) -> float:
        """Expected tuple count of a view (Cardenas estimate)."""
        for attr in view.group_by:
            if attr not in self._distinct:
                raise SchemaError(
                    f"view {view.name!r}: attribute {attr!r} is neither a "
                    f"fact key nor a known hierarchy attribute"
                )
        return estimate_view_size(view.group_by, self._distinct, num_facts)

    def can_derive(
        self, child: ViewDefinition, parent: ViewDefinition
    ) -> bool:
        """True when the child is computable from the parent's tuples."""
        if child.aggregates != parent.aggregates:
            return False
        parent_attrs = set(parent.group_by)
        for attr in child.group_by:
            if attr in parent_attrs:
                continue
            hierarchy = self.hierarchies.get(attr)
            if hierarchy is None:
                return False
            source = self._source_key(hierarchy)
            if source not in parent_attrs:
                return False
        return True

    def plan(
        self, views: Sequence[ViewDefinition], num_facts: int
    ) -> List[CubePlanStep]:
        """Order views largest-first and pick each one's smallest parent."""
        ordered = sorted(
            views,
            key=lambda v: self.estimated_size(v, num_facts),
            reverse=True,
        )
        steps: List[CubePlanStep] = []
        for view in ordered:
            parent_name: Optional[str] = None
            parent_size = float(num_facts)
            for earlier in steps:
                if not self.can_derive(view, earlier.view):
                    continue
                size = self.estimated_size(earlier.view, num_facts)
                # Strictly-smaller wins; equal-size candidates tie-break
                # on view name so the plan is stable regardless of the
                # order the views were supplied in.
                if size < parent_size or (
                    size == parent_size
                    and (parent_name is None or earlier.view.name < parent_name)
                ):
                    parent_name = earlier.view.name
                    parent_size = size
            steps.append(CubePlanStep(view, parent_name))
        return steps

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        facts: Iterable[Row],
        views: Sequence[ViewDefinition],
    ) -> Dict[str, ColumnRows]:
        """Compute every view; returns name -> sorted state columns.

        ``facts`` is a fact batch as columns, or fact rows, which are
        transposed once here.
        """
        facts = self.fact_columns(facts)
        steps = self.plan(views, len(facts))
        results: Dict[str, ColumnRows] = {}
        defs = {view.name: view for view in views}
        for step in steps:
            if step.parent is None:
                out = self._compute_from_fact(facts, step.view)
            else:
                out = self._compute_from_parent(
                    results[step.parent], defs[step.parent], step.view
                )
            results[step.view.name] = out
        return results

    def fact_columns(self, facts: Iterable[Row]) -> ColumnRows:
        """``facts`` as a column batch one fact row wide."""
        return as_columns(facts, len(self.schema.fact_columns))

    def compute_from_fact_rows(
        self, facts: Iterable[Row], view: ViewDefinition
    ) -> ColumnRows:
        """Public step API: aggregate a fact batch into one view.

        Engines use this to drive plan steps against their own physical
        sources (e.g. a heap-file scan of the fact table).
        """
        return self._compute_from_fact(self.fact_columns(facts), view)

    def compute_from_parent_rows(
        self,
        parent_rows: Iterable[Row],
        parent: ViewDefinition,
        child: ViewDefinition,
    ) -> ColumnRows:
        """Public step API: derive a child view from a parent's state
        rows or columns."""
        width = parent.arity + parent.total_state_width
        return self._compute_from_parent(
            as_columns(parent_rows, width), parent, child
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sorted(self, columns: List[array], k: int) -> List[array]:
        if self.sorter is not None:
            return self.sorter(columns, k)
        return sort_columns(columns, k)

    def _source_key(self, hierarchy: Hierarchy) -> str:
        for fact_key in self.schema.fact_keys:
            if self.schema.dimensions[fact_key].name == hierarchy.dimension:
                return fact_key
        raise SchemaError(
            f"hierarchy over unknown dimension {hierarchy.dimension!r}"
        )

    def _group_columns(
        self,
        view: ViewDefinition,
        source_attrs: Sequence[str],
        source: ColumnRows,
    ) -> List[array]:
        """The view's group columns over a source batch: a plain source
        column is shared as it is; a hierarchy attribute is its source
        key column rolled up."""
        columns: List[array] = []
        for attr in view.group_by:
            if attr in source_attrs:
                columns.append(source.columns[source_attrs.index(attr)])
                continue
            hierarchy = self.hierarchies.get(attr)
            if hierarchy is None:
                raise SchemaError(
                    f"view {view.name!r}: attribute {attr!r} is neither "
                    f"a fact key nor a known hierarchy attribute"
                )
            key = source.columns[source_attrs.index(self._source_key(hierarchy))]
            columns.append(_roll_up(hierarchy, key))
        return columns

    def _compute_from_fact(
        self, facts: ColumnRows, view: ViewDefinition
    ) -> ColumnRows:
        fact_columns = self.schema.fact_columns
        group = self._group_columns(view, fact_columns, facts)
        k = view.arity

        # The measure column of each aggregate (COUNT needs none; it
        # reuses the primary measure's slot, which it ignores).
        measure_idxs: List[int] = []
        measures = []
        for spec in view.aggregates:
            attr = spec.attribute or self.schema.measure
            if attr not in self.schema.measures:
                raise SchemaError(
                    f"view {view.name!r}: {attr!r} is not a measure"
                )
            src = fact_columns.index(attr)
            if src not in measure_idxs:
                measure_idxs.append(src)
            measures.append((spec.func, measure_idxs.index(src)))

        columns = self._sorted(
            group + [facts.columns[i] for i in measure_idxs], k
        )
        keys, states = aggregate_columns(
            columns[:k], columns[k:], len(facts), measures
        )
        return ColumnRows(keys + states)

    def _compute_from_parent(
        self,
        parent_rows: ColumnRows,
        parent: ViewDefinition,
        child: ViewDefinition,
    ) -> ColumnRows:
        group = self._group_columns(child, parent.group_by, parent_rows)
        k = child.arity
        states = parent_rows.columns[
            parent.arity : parent.arity + parent.total_state_width
        ]
        columns = self._sorted(group + states, k)
        keys, folded = reaggregate_columns(
            columns[:k],
            columns[k:],
            len(parent_rows),
            [spec.func for spec in child.aggregates],
        )
        return ColumnRows(keys + folded)


def _roll_up(hierarchy: Hierarchy, keys: array) -> array:
    """A key column mapped to the hierarchy's coarse values."""
    try:
        return array("q", map(hierarchy.mapping.__getitem__, keys))
    except KeyError as missing:
        hierarchy.roll_up(missing.args[0])  # raises the SchemaError
        raise
