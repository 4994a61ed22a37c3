"""Process-parallel cube computation over the plan DAG.

Gray et al.'s cube operator is decomposable two ways, and this module
uses both:

* **Across the DAG** — once a parent view is computed, every child
  derived from it is independent of its siblings, so plan steps run as a
  dependency DAG: each step starts as soon as its parent's rows exist.
* **Within a step** — when a step's first group attribute is a plain
  source column (no hierarchy roll-up), its input rows are partitioned
  by that coordinate's residue mod the worker count.  Equal group keys
  share a first coordinate, so no group spans two partitions: each
  worker aggregates complete groups from a stable subsequence of the
  input, and a k-way merge of the (disjoint-key, sorted) partial outputs
  reproduces the serial result *bit for bit* — including float aggregate
  states, which are folded over exactly the same rows in exactly the
  same order as the serial pipeline.

Within-step partitioning is what actually wins wall-clock here: the
paper's 6-view lattice is dominated by the fact-rooted apex view plus a
sequential parent chain, so shipping whole steps to workers roughly
doubles their latency (pickle out, compute, pickle back) without enough
sibling overlap to pay for it.  Steps that are too small to amortize a
round-trip — and the rare non-partitionable ones — are computed inline
in the parent, which also keeps the DAG loop trivially correct.

The parallel path is only taken when it cannot disturb the simulated-I/O
model: workers sort purely in memory, which matches the serial substrate
sorter exactly as long as no projected row list exceeds the sorter's
spill threshold.  Larger inputs (which the serial sorter would spill to
the buffer pool, charging I/O) and single-worker configurations fall
back to the serial pipeline, so results — including I/O charges — are
identical in every configuration.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.columns import (
    ColumnRows,
    as_columns,
    concat_rows,
    partition,
    sort_columns,
)
from repro.cube.computation import ColumnSorter, CubeComputation, CubePlanStep
from repro.parallel import MIN_PARALLEL_ROWS, shared_pool
from repro.relational.view import ViewDefinition
from repro.settings import current
from repro.warehouse.hierarchy import Hierarchy
from repro.warehouse.star import StarSchema

Row = Tuple[object, ...]

#: Below this many source rows a step is computed inline: a worker
#: round-trip (payload pickle out, result pickle back, dispatch) costs
#: milliseconds, which small aggregations don't amortize.
DEFAULT_MIN_PARALLEL_ROWS = MIN_PARALLEL_ROWS


def _compute_step(
    payload: Tuple[
        StarSchema,
        Dict[str, Hierarchy],
        ViewDefinition,
        Optional[ViewDefinition],
        ColumnRows,
    ],
) -> ColumnRows:
    """Worker body: compute one view from its source rows (pure CPU)."""
    schema, hierarchies, view, parent, source_rows = payload
    computation = CubeComputation(schema, hierarchies)  # in-memory sorts
    if parent is None:
        return computation.compute_from_fact_rows(source_rows, view)
    return computation.compute_from_parent_rows(source_rows, parent, view)


class ParallelCubeComputation(CubeComputation):
    """A :class:`CubeComputation` that fans plan steps out to processes.

    Parameters
    ----------
    workers:
        Process count; ``None`` reads ``REPRO_WORKERS``.  One worker means
        the serial pipeline, untouched.
    serial_row_threshold:
        Fall back to the serial pipeline when the fact input exceeds this
        many rows — the size at which the serial substrate sorter starts
        spilling runs through the buffer pool (charging simulated I/O that
        in-memory workers would not charge).  Keep it equal to the
        engine's ``sort_chunk_rows``.
    min_parallel_rows:
        Steps with fewer source rows than this are computed inline; fact
        inputs below it skip the parallel path entirely.
    """

    def __init__(
        self,
        schema: StarSchema,
        hierarchies: Optional[Mapping[str, Hierarchy]] = None,
        sorter: Optional[ColumnSorter] = None,
        workers: Optional[int] = None,
        serial_row_threshold: int = 100_000,
        min_parallel_rows: int = DEFAULT_MIN_PARALLEL_ROWS,
    ) -> None:
        super().__init__(schema, hierarchies, sorter)
        self.workers = (
            current().workers if workers is None else max(1, workers)
        )
        self.serial_row_threshold = serial_row_threshold
        self.min_parallel_rows = min_parallel_rows

    def execute(
        self,
        facts: Iterable[Row],
        views: Sequence[ViewDefinition],
    ) -> Dict[str, ColumnRows]:
        """Compute every view; returns name -> sorted state columns.

        Results are identical to the serial pipeline's: the same plan, the
        same stable sorts, and the output dict in the same (plan-step)
        insertion order.
        """
        facts = self.fact_columns(facts)
        if (
            self.workers <= 1
            or len(facts) > self.serial_row_threshold
            or len(facts) < self.min_parallel_rows
        ):
            return super().execute(facts, views)
        steps = self.plan(views, len(facts))
        computed = self._execute_dag(steps, facts)
        return {step.view.name: computed[step.view.name] for step in steps}

    # ------------------------------------------------------------------
    def _partition_column(
        self, view: ViewDefinition, parent: Optional[ViewDefinition]
    ) -> Optional[int]:
        """Source column to partition a step's input on, if any.

        Only the view's *first* group attribute qualifies, and only when
        it is a plain source column: two source values that roll up to the
        same hierarchy member could land in different partitions, which
        would split a group across workers.
        """
        if view.arity < 1:
            return None
        columns: Sequence[str] = (
            self.schema.fact_columns if parent is None else parent.group_by
        )
        attr = view.group_by[0]
        if attr not in columns:
            return None
        return list(columns).index(attr)

    def _execute_dag(
        self, steps: Sequence[CubePlanStep], facts: ColumnRows
    ) -> Dict[str, ColumnRows]:
        defs = {step.view.name: step.view for step in steps}
        children: Dict[Optional[str], List[CubePlanStep]] = {}
        for step in steps:
            children.setdefault(step.parent, []).append(step)

        results: Dict[str, ColumnRows] = {}
        partials: Dict[str, List[Optional[ColumnRows]]] = {}
        pending: Dict[object, Tuple[CubePlanStep, int]] = {}
        pool = shared_pool(self.workers)

        def start(step: CubePlanStep) -> None:
            parent = defs[step.parent] if step.parent else None
            source = results[step.parent] if step.parent else facts
            buckets = self._split(step.view, parent, source)
            if buckets is None:
                if parent is None:
                    out = self._compute_from_fact(source, step.view)
                else:
                    out = self._compute_from_parent(source, parent, step.view)
                finish(step, out)
                return
            partials[step.view.name] = [None] * len(buckets)
            for i, bucket in enumerate(buckets):
                payload = (
                    self.schema, self.hierarchies, step.view, parent, bucket,
                )
                pending[pool.submit(_compute_step, payload)] = (step, i)

        def finish(step: CubePlanStep, out: ColumnRows) -> None:
            results[step.view.name] = out
            for child in children.get(step.view.name, ()):
                start(child)

        for step in children.get(None, ()):
            start(step)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                step, i = pending.pop(future)
                parts = partials[step.view.name]
                parts[i] = future.result()
                if all(part is not None for part in parts):
                    # Disjoint sorted groups: one stable sort merges them.
                    merged = concat_rows(parts)  # type: ignore[arg-type]
                    finish(step, ColumnRows(
                        sort_columns(merged.columns, step.view.arity)
                    ))
        return results

    def _split(
        self,
        view: ViewDefinition,
        parent: Optional[ViewDefinition],
        source: Iterable[Row],
    ) -> Optional[List[ColumnRows]]:
        """Partition a step's input for the pool, or None to run inline.

        Partitions are keyed on the first group coordinate, so group keys
        never span partitions and each partition preserves the source's
        row order — both required for bit-identical merged output.
        """
        source = as_columns(source)
        if len(source) < self.min_parallel_rows:
            return None
        idx = self._partition_column(view, parent)
        if idx is None:
            return None
        n = self.workers
        residues = [hash(value) % n for value in source.columns[idx]]
        buckets = [part for part in partition(source, residues, n) if len(part)]
        return buckets if len(buckets) > 1 else None
