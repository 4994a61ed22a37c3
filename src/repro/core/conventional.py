"""ConventionalEngine — materialized views as tables + B-trees.

The paper's baseline: the same selected views, materialized as relational
summary tables inside a 1998-style server and indexed with composite
B-trees.  The engine follows that server's physical discipline:

* **Loading** (Table 6): each view is computed with a separate statement —
  scan its smallest materialized parent *from disk*, sort, aggregate — and
  inserted through the transactional per-row path (WAL record + row-op
  overhead per tuple).  Indexes are then built with sort + bottom-up bulk
  load (the ``CREATE INDEX`` phase, the paper's "Indices" column).
* **Queries** (Fig. 12/13): route to the cheapest view/index, B-tree
  prefix descent, then fetch each qualifying row from the heap — the heap
  is clustered for at most one order, so two of the three composite
  indexes fetch scattered pages.
* **Refresh** (Table 7): per-tuple incremental maintenance (lookup +
  update/insert per delta group, through WAL and overhead), or full
  recomputation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constants import DEFAULT_BUFFER_PAGES, ROW_OP_OVERHEAD_MS
from repro.btree.keys import INT64_MAX, INT64_MIN
from repro.core.answer import finalize_matches, split_bindings
from repro.core.reports import LoadReport, PhaseReport, UpdateReport
from repro.core.sorting import make_substrate_sorter
from repro.cube.computation import CubeComputation
from repro.cube.lattice import CubeLattice
from repro.errors import QueryError
from repro.query.result import QueryResult
from repro.query.router import AccessPath, QueryRouter
from repro.query.slice import SliceQuery
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.view import MaterializedView, ViewDefinition
from repro.rtree.kernels import Block
from repro.storage.buffer import BufferPool
from repro.storage.codec import float_column, int_column
from repro.storage.disk import DiskManager
from repro.storage.wal import WriteAheadLog
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import StarSchema

Row = Tuple[object, ...]


class ConventionalEngine:
    """The relational-storage configuration of the experiments."""

    def __init__(
        self,
        schema: StarSchema,
        hierarchies: Optional[Mapping[str, Hierarchy]] = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        sort_chunk_rows: int = 100_000,
        disk: Optional[DiskManager] = None,
        row_op_overhead_ms: float = ROW_OP_OVERHEAD_MS,
    ) -> None:
        self.schema = schema
        self.disk = disk if disk is not None else DiskManager()
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        self.wal = WriteAheadLog(self.disk.cost_model)
        self.row_op_overhead_ms = row_op_overhead_ms
        self.computation = CubeComputation(
            schema,
            hierarchies,
            sorter=make_substrate_sorter(self.pool, sort_chunk_rows),
        )
        self.hierarchies: Dict[str, Tuple[Hierarchy, str]] = {}
        for attr, hierarchy in (hierarchies or {}).items():
            source = self.computation._source_key(hierarchy)
            self.hierarchies[attr] = (hierarchy, source)
        self.lattice = CubeLattice(
            schema.fact_keys,
            {attr: source for attr, (_h, source) in self.hierarchies.items()},
        )
        self.router = QueryRouter(
            self.lattice,
            {
                attr: float(schema.distinct_count(attr))
                for attr in schema.groupable_attributes()
            },
        )
        self.catalog = Catalog()
        self.fact_table: Optional[Table] = None
        self.views: Dict[str, MaterializedView] = {}
        self.index_keys: Dict[str, List[Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # fact data
    # ------------------------------------------------------------------
    def load_fact(self, fact_rows: Sequence[Row]) -> None:
        """Bulk-load the fact table F (common to both configurations, so
        excluded from the Table 6 timings)."""
        columns = [(attr, int_column()) for attr in self.schema.fact_keys]
        columns.extend(
            (measure, float_column()) for measure in self.schema.measures
        )
        self.fact_table = Table(
            self.pool, TableSchema("F", columns)  # type: ignore[arg-type]
        )
        self.fact_table.bulk_append(fact_rows)
        self.catalog.register_table(self.fact_table)
        self.pool.flush_all()

    # ------------------------------------------------------------------
    # loading (Table 6)
    # ------------------------------------------------------------------
    def materialize(
        self,
        views: Sequence[ViewDefinition],
        indexes: Optional[Mapping[str, Sequence[Sequence[str]]]] = None,
    ) -> LoadReport:
        """Materialize the views (per-row transactional path) and build
        the selected B-tree indexes (sort + bulk load)."""
        if self.fact_table is None:
            raise QueryError("load_fact must run before materialize")
        report = LoadReport()

        # -------------------------- views --------------------------
        wall_start = time.perf_counter()
        io_start = self.disk.cost_model.snapshot()
        steps = self.computation.plan(views, len(self.fact_table))
        defs = {view.name: view for view in views}
        for step in steps:
            if step.parent is None:
                source = self.fact_table.scan_rows()
                state_rows = self.computation.compute_from_fact_rows(
                    source, step.view
                )
            else:
                parent_view = self.views[step.parent]
                state_rows = self.computation.compute_from_parent_rows(
                    parent_view.table.scan_rows(),
                    defs[step.parent],
                    step.view,
                )
            materialized = MaterializedView(self.pool, step.view)
            for row in state_rows:
                materialized.table.insert(row)
                self.wal.log_row_operation()
                self.disk.cost_model.record_overhead(self.row_op_overhead_ms)
            self.wal.commit()
            self.views[step.view.name] = materialized
            self.catalog.register_view(materialized)
            report.view_rows += len(materialized)
        self.pool.flush_all()
        report.phases["views"] = PhaseReport(
            io=self.disk.cost_model.stats - io_start,
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
        )

        # -------------------------- indexes --------------------------
        wall_start = time.perf_counter()
        io_start = self.disk.cost_model.snapshot()
        for view_name, keys in (indexes or {}).items():
            for key in keys:
                self.views[view_name].build_index(tuple(key))
                self.index_keys.setdefault(view_name, []).append(tuple(key))
        self.pool.flush_all()
        report.phases["indexes"] = PhaseReport(
            io=self.disk.cost_model.stats - io_start,
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
        )

        report.pages = self.storage_pages()
        report.bytes_on_disk = self.storage_bytes()
        return report

    # ------------------------------------------------------------------
    # queries (Fig. 12 / 13)
    # ------------------------------------------------------------------
    def access_paths(self) -> List[AccessPath]:
        """Router inputs: each view with its B-tree search keys."""
        paths = []
        for name, view in sorted(self.views.items()):
            orders = tuple(self.index_keys.get(name, ()))
            paths.append(
                AccessPath(
                    view.definition,
                    float(len(view)),
                    orders,
                    rows_per_page=view.table.heap.slots_per_page,
                    # The summary table is written in computation output
                    # order — sorted by the view's own attribute order.
                    clustered=view.definition.group_by,
                )
            )
        return paths

    def query(self, query: SliceQuery) -> QueryResult:
        """Answer one slice query from the summary tables."""
        if not self.views:
            raise QueryError("engine has no materialized views yet")
        wall_start = time.perf_counter()
        io_start = self.disk.cost_model.snapshot()

        decision = self.router.route(query, self.access_paths())
        view_def = decision.path.view
        view = self.views[view_def.name]
        direct, residual = split_bindings(view_def, query, self.hierarchies)

        matches: List[Row] = []
        if decision.order is not None and decision.prefix:
            tree = view.indexes[decision.order]
            # Equality components pin both key bounds; a trailing range
            # component opens an interval; remaining positions are padded
            # to the int64 extremes.
            low_vals = [direct[attr][0] for attr in decision.prefix]
            high_vals = [direct[attr][1] for attr in decision.prefix]
            pad = len(decision.order) - len(decision.prefix)
            low = tuple(low_vals) + (INT64_MIN,) * pad
            high = tuple(high_vals) + (INT64_MAX,) * pad
            leftover = {
                attr: bounds
                for attr, bounds in direct.items()
                if attr not in decision.prefix
            }
            for _key, rid in tree.range_scan(low, high):
                row = view.table.fetch(rid)
                if self._row_matches(row, view_def, leftover):
                    matches.append(row)
        else:
            for row in view.table.scan_rows():
                if self._row_matches(row, view_def, direct):
                    matches.append(row)

        # The matching rows reach the answer layer as one column block.
        block = Block.of_rows(view_def.arity, view_def.arity, matches)
        rows = finalize_matches(
            [block], view_def, query, self.hierarchies, residual
        )
        return QueryResult(
            rows=rows,
            io=self.disk.cost_model.stats - io_start,
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
            plan=decision.describe(),
        )

    @staticmethod
    def _row_matches(
        row: Row, view: ViewDefinition, bounds: Mapping[str, tuple]
    ) -> bool:
        for attr, (low, high) in bounds.items():
            if not low <= row[view.group_by.index(attr)] <= high:  # type: ignore[operator]
                return False
        return True

    # ------------------------------------------------------------------
    # refresh (Table 7)
    # ------------------------------------------------------------------
    def update_incremental(
        self,
        fact_delta: Sequence[Row],
        deadline_ms: Optional[float] = None,
    ) -> UpdateReport:
        """Per-tuple incremental maintenance of every view.

        Raises :class:`~repro.errors.UpdateTimeoutError` if the simulated
        time exceeds ``deadline_ms`` — the paper's ">24 hours" outcome.
        """
        if not self.views:
            raise QueryError("engine has no materialized views yet")
        wall_start = time.perf_counter()
        io_start = self.disk.cost_model.snapshot()

        base_defs = [view.definition for view in self.views.values()]
        deltas = self.computation.execute(fact_delta, base_defs)
        applied = 0
        for name, view in self.views.items():
            updated, inserted = view.apply_delta(
                deltas[name],
                cost_model=self.disk.cost_model,
                deadline_ms=deadline_ms,
                wal=self.wal,
                per_row_overhead_ms=self.row_op_overhead_ms,
            )
            self.wal.commit()
            applied += updated + inserted
        self.pool.flush_all()

        return UpdateReport(
            method="conventional incremental",
            io=self.disk.cost_model.stats - io_start,
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
            rows_applied=applied,
        )

    def update_recompute(self, all_fact_rows: Sequence[Row]) -> UpdateReport:
        """Rebuild every view and index from scratch (the down-time
        alternative most 1998 warehouses used)."""
        if not self.views:
            raise QueryError("engine has no materialized views yet")
        wall_start = time.perf_counter()
        io_start = self.disk.cost_model.snapshot()

        view_defs = [view.definition for view in self.views.values()]
        index_keys = dict(self.index_keys)
        # Drop old structures (their pages are not reclaimed — the paper's
        # servers also rebuilt into fresh segments before swapping).
        for name in list(self.views):
            self.catalog.drop_view(name)
        self.views = {}
        self.index_keys = {}
        # Reload the fact table image (the increment is already in F).
        self.catalog.drop_table("F")
        self.load_fact(all_fact_rows)
        report = self.materialize(view_defs, index_keys)

        return UpdateReport(
            method="conventional recompute",
            io=self.disk.cost_model.stats - io_start,
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
            rows_applied=report.view_rows,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def view_sizes(self) -> Dict[str, int]:
        """Tuple count per materialized view."""
        return {name: len(view) for name, view in self.views.items()}

    def storage_pages(self) -> int:
        """Pages of view data + view indexes (excludes F, as the paper's
        602 MB figure covers 'the views and their indices')."""
        return sum(
            view.data_pages + view.index_pages
            for view in self.views.values()
        )

    def storage_bytes(self) -> int:
        """Total bytes on disk (pages * PAGE_SIZE)."""
        from repro.constants import PAGE_SIZE

        return self.storage_pages() * PAGE_SIZE
