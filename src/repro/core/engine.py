"""CubetreeEngine — the "Cubetree Datablade" of the experiments.

The one engine: a forest of ``shards >= 1`` residue partitions
(:class:`~repro.core.sharded.ShardedForest`), each shard a complete
:class:`~repro.core.forest.CubetreeForest` on its own simulated disk.
One object offers the full lifecycle the paper measures:

* :meth:`materialize` — compute the selected views (sort-based, smallest
  parent first), optionally replicate chosen views in extra sort orders,
  run SelectMapping, and bulk-load the packed forest (Fig. 11);
* :meth:`query` / :meth:`query_batch` — route a slice query to the best
  view/sort order, search the Cubetree(s), and aggregate/finalize the
  answer (Fig. 4);
* :meth:`update` — compute the delta views from a warehouse increment and
  merge-pack every tree (Fig. 15);
* :meth:`checkpoint` — commit a crash-safe generation of every shard.

With the default ``shards=1`` all I/O flows through one simulated disk,
so the reports are directly comparable with
:class:`~repro.core.conventional.ConventionalEngine` runs on an identical
device.  With more shards the reports follow the *critical-path*
convention (:func:`~repro.core.sharded.combine_io`): counters sum over
shards, simulated milliseconds are the slowest shard's.  Whole-engine
accounting goes through :meth:`io_snapshot` / :meth:`io_delta`;
:attr:`pool` and :attr:`disk` mean shard 0's device.
"""

from __future__ import annotations

import time
from dataclasses import fields
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.constants import DEFAULT_BUFFER_PAGES, PAGE_SIZE
from repro.core.mapping import select_mapping
from repro.core.replication import PermutedRows, replica_definition
from repro.core.reports import LoadReport, PhaseReport, UpdateReport
from repro.core.sharded import Shard, ShardedForest, combine_io
from repro.core.sorting import make_substrate_sorter
from repro.cube.lattice import CubeLattice
from repro.cube.computation import CubeComputation
from repro.errors import QueryError
from repro.obs import get_registry, trace
from repro.query.result import QueryResult
from repro.query.router import QueryRouter
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.disk import DiskManager
from repro.storage.iomodel import IOStats
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import StarSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.batch import BatchResult

Row = Tuple[object, ...]

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_QUERIES = _REG.counter("query.cubetree.count")
_OBS_QUERY_SIM_MS = _REG.histogram("query.cubetree.simulated_ms")
_OBS_QUERY_WALL_MS = _REG.histogram("query.cubetree.wall_ms")
_OBS_BATCHES = _REG.counter("query.cubetree.batches")
_OBS_BATCHED_QUERIES = _REG.counter("query.cubetree.batched_queries")


class CubetreeEngine:
    """Materialized ROLAP views stored as a forest of Cubetrees."""

    def __init__(
        self,
        schema: StarSchema,
        hierarchies: Optional[Mapping[str, Hierarchy]] = None,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        sort_chunk_rows: int = 100_000,
        disks: Optional[Sequence[DiskManager]] = None,
        shards: int = 1,
    ) -> None:
        """``shards`` residue partitions (default 1) each get their own
        disk and a ``buffer_pages``-page pool; ``disks`` supplies the
        per-shard disks instead of fresh ones (checkpoint recovery hands
        back the restored devices, tests inject faulty ones)."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if disks is not None and len(disks) != shards:
            raise ValueError(f"{len(disks)} disk(s) for {shards} shard(s)")
        self.schema = schema
        self.shards = [
            Shard(
                index,
                buffer_pages,
                disk=disks[index] if disks is not None else None,
            )
            for index in range(shards)
        ]
        # The cube computation is global, so its (rare) substrate sort
        # spills are charged to shard 0's device.
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
        self.forest: Optional[ShardedForest] = None
        self.base_views: List[ViewDefinition] = []
        self.replicas: Dict[str, str] = {}  # replica name -> base name

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def pool(self) -> BufferPool:
        """Shard 0's buffer pool (the whole engine's when ``shards=1``)."""
        return self.shards[0].pool

    @property
    def disk(self) -> DiskManager:
        """Shard 0's disk (the whole engine's when ``shards=1``)."""
        return self.shards[0].disk

    # ------------------------------------------------------------------
    # I/O accounting (critical-path convention)
    # ------------------------------------------------------------------
    def io_snapshot(self) -> List[IOStats]:
        """Per-shard cost-model snapshots (pass to :meth:`io_delta`)."""
        return [shard.disk.cost_model.snapshot() for shard in self.shards]

    def io_delta(self, snapshots: Sequence[IOStats]) -> IOStats:
        """Combined delta since a snapshot: summed counters, max ms."""
        return combine_io(
            [
                shard.disk.cost_model.stats - before
                for shard, before in zip(self.shards, snapshots)
            ]
        )

    def io_totals(self) -> IOStats:
        """Lifetime combined stats (critical-path milliseconds)."""
        return combine_io(
            [shard.disk.cost_model.stats for shard in self.shards]
        )

    def buffer_totals(self) -> BufferStats:
        """Summed lifetime buffer-pool stats across shards."""
        total = BufferStats()
        for shard in self.shards:
            for counter in fields(BufferStats):
                setattr(
                    total,
                    counter.name,
                    getattr(total, counter.name)
                    + getattr(shard.pool.stats, counter.name),
                )
        return total

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def materialize(
        self,
        views: Sequence[ViewDefinition],
        fact_rows: Sequence[Row],
        replicate: Optional[Mapping[str, Sequence[Sequence[str]]]] = None,
    ) -> LoadReport:
        """Compute, map, and bulk-load the view set.

        Parameters
        ----------
        views:
            The selected views (paper's set V).
        fact_rows:
            The warehouse fact data.
        replicate:
            Optional ``view name -> list of replica attribute orders``
            (the Datablade's multi-sort-order replication).
        """
        wall_start = time.perf_counter()
        snapshots = self.io_snapshot()

        with trace(
            "engine.materialize", views=len(views), shards=self.num_shards
        ):
            self.base_views = list(views)
            data: Dict[str, Sequence[Row]] = dict(
                self.computation.execute(fact_rows, self.base_views)
            )
            # A caller that handed over its only reference frees the
            # facts here, before the trees are prepared.
            del fact_rows

            all_views = list(self.base_views)
            by_name = {view.name: view for view in self.base_views}
            self.replicas = {}
            for base_name, orders in (replicate or {}).items():
                base = by_name[base_name]
                for order in orders:
                    replica = replica_definition(base, order)
                    all_views.append(replica)
                    self.replicas[replica.name] = base_name
                    data[replica.name] = PermutedRows(
                        base, data[base_name], order
                    )

            self.forest = ShardedForest(
                self.shards, select_mapping(all_views)
            )
            self.forest.build(data)
            self.forest.flush()

        report = LoadReport()
        report.phases["views"] = PhaseReport(
            io=self.io_delta(snapshots),
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
        )
        report.view_rows = sum(len(rows) for rows in data.values())
        report.pages = self.forest.num_pages
        report.bytes_on_disk = self.storage_bytes()
        return report

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: SliceQuery) -> QueryResult:
        """Answer one slice query through the forest.

        The router plans with the descent cost model (``runs=False``):
        the query takes its cheapest view and sort order and the plan
        executor (:func:`repro.query.batch.execute_plan`) reads it
        through the classic interior descent (the paper's R-tree
        search).  Run passes and the aggregate pushdown belong to
        :meth:`query_batch`; ``query_batch([query]).results[0]`` answers
        one query with them, with identical rows.
        """
        from repro.query.batch import execute_plan

        forest = self._require_forest()
        wall_start = time.perf_counter()
        snapshots = self.io_snapshot()

        decision = self.router.route(
            query, forest.access_paths(), runs=False
        )
        rows = execute_plan(forest, self.hierarchies, query, decision)
        io = self.io_delta(snapshots)
        wall_ms = (time.perf_counter() - wall_start) * 1000.0
        _OBS_QUERIES.value += 1
        _OBS_QUERY_SIM_MS.observe(io.simulated_ms)
        _OBS_QUERY_WALL_MS.observe(wall_ms)
        return QueryResult(
            rows=rows,
            io=io,
            wall_ms=wall_ms,
            plan=decision.describe(),
        )

    def query_batch(self, queries: Sequence[SliceQuery]) -> "BatchResult":
        """Answer a batch of slice queries with one shared run pass per
        routed view and shard (see :mod:`repro.query.batch`).

        Each query's rows are identical to what :meth:`query` returns for
        it alone; the batch-level I/O and wall totals live on the result.
        """
        from repro.query.batch import execute_batch

        forest = self._require_forest()
        forest.protect_index_pages()
        wall_start = time.perf_counter()
        snapshots = self.io_snapshot()

        with trace(
            "engine.query_batch", queries=len(queries), shards=self.num_shards
        ):
            batch = execute_batch(
                self.router, forest, self.hierarchies, queries
            )
        batch.io = self.io_delta(snapshots)
        batch.wall_ms = (time.perf_counter() - wall_start) * 1000.0
        _OBS_BATCHES.value += 1
        _OBS_BATCHED_QUERIES.value += batch.batched
        _OBS_QUERIES.value += len(queries)
        return batch

    # ------------------------------------------------------------------
    # bulk-incremental updates
    # ------------------------------------------------------------------
    def update(self, fact_delta: Sequence[Row]) -> UpdateReport:
        """Merge-pack a warehouse increment into every touched shard."""
        forest = self._require_forest()
        wall_start = time.perf_counter()
        snapshots = self.io_snapshot()

        with trace(
            "engine.update", rows=len(fact_delta), shards=self.num_shards
        ):
            deltas: Dict[str, Sequence[Row]] = dict(
                self.computation.execute(fact_delta, self.base_views)
            )
            by_name = {view.name: view for view in self.base_views}
            for replica_name, base_name in self.replicas.items():
                replica = forest.view_definition(replica_name)
                deltas[replica_name] = PermutedRows(
                    by_name[base_name], deltas[base_name], replica.group_by
                )
            forest.update(deltas)
            forest.flush()

        return UpdateReport(
            method="cubetree merge-pack",
            io=self.io_delta(snapshots),
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
            rows_applied=sum(len(rows) for rows in deltas.values()),
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str, retain: int = 2) -> str:
        """Write a crash-safe generational checkpoint of this engine.

        A thin wrapper over :func:`repro.core.persistence.save_database`
        (create-new-then-swap at the checkpoint level: a new ``gen-<n>/``
        holding every shard is committed by one atomic manifest rename
        and the previous generation survives any mid-checkpoint crash).
        Returns the committed generation directory.
        """
        from repro.core.persistence import save_database

        return save_database(self, directory, retain=retain)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def view_sizes(self) -> Dict[str, int]:
        """Tuple count per materialized view (summed over shards)."""
        return self._require_forest().view_sizes()

    def storage_pages(self) -> int:
        """Total pages owned by this engine's structures."""
        return self._require_forest().num_pages

    def storage_bytes(self) -> int:
        """Total bytes on disk (pages * PAGE_SIZE)."""
        return self.storage_pages() * PAGE_SIZE

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard observability: pages, I/O, hit rates, routed queries."""
        records: List[Dict[str, object]] = []
        for shard in self.shards:
            io = shard.disk.cost_model.stats
            buf = shard.pool.stats
            forest = shard.require_forest()
            records.append(
                {
                    "shard": shard.index,
                    "pages": forest.num_pages,
                    "rows": sum(forest.view_sizes().values()),
                    "simulated_ms": io.simulated_ms,
                    "reads": io.reads,
                    "writes": io.writes,
                    "buffer_hit_ratio": (
                        buf.hit_ratio if buf.accesses > 0 else None
                    ),
                    "routed_queries": shard.routed_queries,
                }
            )
        return records

    def _require_forest(self) -> ShardedForest:
        if self.forest is None:
            raise QueryError("engine has no materialized views yet")
        return self.forest
