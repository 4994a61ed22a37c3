"""The scatter-gather forest: N >= 1 residue shards behind one surface.

Every materialized view is partitioned by the residue of its *leading
group coordinate* modulo ``N`` (:func:`shard_of`, the one partitioning
rule).  Equal group keys share their leading coordinate, so a group row
lives in exactly one shard and no aggregate state is ever split; fsck's
``shard-residue`` check re-verifies the split from the pages on disk.
Each :class:`Shard` is a fully independent
:class:`~repro.core.forest.CubetreeForest` with its own
:class:`~repro.storage.disk.DiskManager`, buffer pool, and (at checkpoint
time) its own ``shard-XX/`` directory under one atomically committed
generation manifest (see :func:`repro.core.persistence.save_database`).

:class:`ShardedForest` is the forest the one engine
(:class:`~repro.core.engine.CubetreeEngine`) and the plan executor
(:mod:`repro.query.batch`) talk to.  It presents the
:class:`~repro.core.forest.CubetreeForest` surface — ``build`` /
``update`` / ``access_paths`` and the two slice reads, ``query_view``
(the descent) and ``query_view_group`` (the run pass, one slice or
many) — and runs each call scatter-gather: the binding on the routed
view's leading coordinate prunes the shard set (a point restriction hits
exactly one shard), each target shard executes the per-shard read, and
partial block streams are expanded, k-way merged back into the exact
serial packing order and re-blocked, so the float fold order of
:func:`~repro.core.answer.finalize_matches` is preserved bit-for-bit.
A shard without a recorded run extent descends instead.

Aggregate pushdown (``query_view_group(fold=)``) folds *inside* a shard
only when the binding targets exactly one shard — always at ``N = 1``,
and on a point restriction of the leading coordinate at ``N > 1``.  A
slice that spans several shards comes back as the merged block stream
instead: folding per shard and combining the partial states would
reassociate the float additions and break bit-identity with the serial
answer.

``N = 1`` is not a special engine: the one shard receives every row, is
the target of every binding, and the same call sequence reaches its one
pool, so rows, aggregate states and simulated I/O are exactly those of a
lone :class:`~repro.core.forest.CubetreeForest`.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.columns import ColumnRows, as_columns, partition
from repro.core.cubetree import Cubetree
from repro.core.forest import CubetreeForest
from repro.core.mapping import CubetreeAllocation
from repro.errors import QueryError
from repro.obs import get_registry
from repro.query.router import AccessPath
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import Block, block_rows
from repro.rtree.packing import sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.iomodel import IOStats

Row = Tuple[object, ...]

_OBS_SHARDS_TOUCHED = get_registry().counter("query.cubetree.shards_touched")


# ----------------------------------------------------------------------
# the partitioning rule (one place; fsck re-checks it on disk)
# ----------------------------------------------------------------------
def shard_of(leading_coordinate: object, num_shards: int) -> int:
    """Home shard of a group row: leading coordinate mod N."""
    return int(leading_coordinate) % num_shards  # type: ignore[call-overload]


def partition_state_rows(
    view: ViewDefinition, rows: Sequence[Row], num_shards: int
) -> List[ColumnRows]:
    """Split one view's state columns across shards, order preserved.

    Arity-0 views (the apex) have no leading coordinate; their single
    row lives in shard 0 by convention.
    """
    batch = as_columns(rows, view.arity + view.total_state_width)
    if view.arity == 0:
        return [batch] + [batch[:0]] * (num_shards - 1)
    homes = [shard_of(value, num_shards) for value in batch.columns[0]]
    return partition(batch, homes, num_shards)


def shard_targets(num_shards: int, bound: object) -> List[int]:
    """Shard indices whose residues can satisfy a leading-coordinate bound.

    ``bound`` is the direct binding on the routed view's leading group
    attribute: ``None`` (unrestricted), a point value, or a closed
    ``(low, high)`` range.  A point hits exactly one shard; a range
    narrower than N hits only the residues it covers.
    """
    if num_shards == 1:
        return [0]
    if bound is None:
        return list(range(num_shards))
    if isinstance(bound, tuple):
        low, high = int(bound[0]), int(bound[1])
    else:
        low = high = int(bound)  # type: ignore[call-overload]
    width = high - low + 1
    if width <= 0:
        return []
    if width >= num_shards:
        return list(range(num_shards))
    return sorted({(low + offset) % num_shards for offset in range(width)})


def combine_io(deltas: Sequence[IOStats]) -> IOStats:
    """Critical-path combination of per-shard I/O deltas.

    Counters sum (total device work), but the simulated milliseconds are
    the *max* over shards: shards are independent devices working in
    parallel, so elapsed simulated time is the slowest shard's, not the
    sum.  With one shard this is exactly that shard's stats.
    """
    combined = IOStats()
    for delta in deltas:
        combined.sequential_reads += delta.sequential_reads
        combined.random_reads += delta.random_reads
        combined.sequential_writes += delta.sequential_writes
        combined.random_writes += delta.random_writes
        combined.simulated_ms = max(combined.simulated_ms, delta.simulated_ms)
        combined.overhead_ms = max(combined.overhead_ms, delta.overhead_ms)
    return combined


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------
class Shard:
    """One partition: its own disk, pool, and Cubetree forest."""

    __slots__ = ("index", "disk", "pool", "forest", "routed_queries")

    def __init__(
        self,
        index: int,
        buffer_pages: int,
        disk: Optional[DiskManager] = None,
    ) -> None:
        self.index = index
        self.disk = disk if disk is not None else DiskManager()
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        self.forest: Optional[CubetreeForest] = None
        #: Slice executions routed to this shard (scatter-gather skew).
        self.routed_queries = 0

    def require_forest(self) -> CubetreeForest:
        if self.forest is None:  # pragma: no cover - defensive
            raise QueryError(f"shard {self.index} has no forest yet")
        return self.forest

    def routed(self, slices: int = 1) -> CubetreeForest:
        """Count ``slices`` executions on this shard; return its forest."""
        self.routed_queries += slices
        _OBS_SHARDS_TOUCHED.value += slices
        return self.require_forest()


class ShardedForest:
    """The Cubetree forest of a database: N per-shard forests, one surface.

    Constructing it gives every shard an empty
    :class:`~repro.core.forest.CubetreeForest` over the same allocation
    (the view -> tree mapping is global; only the rows are partitioned).
    """

    def __init__(
        self, shards: Sequence[Shard], allocation: CubetreeAllocation
    ) -> None:
        if not shards:
            raise ValueError("a sharded forest needs at least one shard")
        self.shards = list(shards)
        self.allocation = allocation
        for shard in self.shards:
            shard.forest = CubetreeForest(shard.pool, allocation)
        self._paths: Optional[List[AccessPath]] = None

    # -- catalog delegation (identical across shards) -------------------
    @property
    def num_trees(self) -> int:
        """Cubetrees per shard (the allocation's tree count)."""
        return len(self.allocation.trees)

    @property
    def cubetrees(self) -> List[Cubetree]:
        """Every shard's Cubetrees, in (shard, tree) order."""
        return [
            tree
            for shard in self.shards
            for tree in shard.require_forest().cubetrees
        ]

    def view_names(self) -> List[str]:
        return self.shards[0].require_forest().view_names()

    def view_definition(self, view_name: str) -> ViewDefinition:
        return self.shards[0].require_forest().view_definition(view_name)

    # -- loading --------------------------------------------------------
    def build(self, data: Mapping[str, Sequence[Row]]) -> None:
        """Residue-split the view data and bulk-load every shard."""
        parts = self._partition(data, keep_empty=True)
        for shard, part in zip(self.shards, parts):
            shard.require_forest().build(part)
        self._paths = None

    def update(self, deltas: Mapping[str, Sequence[Row]]) -> None:
        """Residue-split the deltas and merge-pack every touched shard.

        A shard whose residue class received no delta rows is left
        untouched: no merge-pack, no I/O, its cached sizes stay valid.
        """
        parts = self._partition(deltas, keep_empty=False)
        for shard, part in zip(self.shards, parts):
            if part:
                shard.require_forest().update(part)
        self._paths = None

    def _partition(
        self, data: Mapping[str, Sequence[Row]], keep_empty: bool
    ) -> List[Dict[str, Sequence[Row]]]:
        """One data mapping per shard.

        ``keep_empty`` keeps zero-row views in each shard's mapping (the
        bulk load requires data for every view); updates drop them so a
        shard tree with no deltas skips merge-pack entirely.  One shard
        receives every view as given, empty ones included.
        """
        if len(self.shards) == 1:
            return [dict(data)]
        per_shard: List[Dict[str, Sequence[Row]]] = [{} for _ in self.shards]
        for name, rows in data.items():
            parts = partition_state_rows(
                self.view_definition(name), rows, len(self.shards)
            )
            for index, part in enumerate(parts):
                if part or keep_empty:
                    per_shard[index][name] = part
        return per_shard

    def flush(self) -> None:
        """Write every shard pool's dirty pages to its disk."""
        for shard in self.shards:
            shard.pool.flush_all()

    # -- shard pruning --------------------------------------------------
    def target_shards(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> List[Shard]:
        """Shards whose residue can match the leading-coordinate binding."""
        if len(self.shards) == 1:
            return self.shards
        view = self.view_definition(view_name)
        if view.arity == 0:
            return [self.shards[0]]
        bound = bindings.get(view.group_by[0])
        return [
            self.shards[index]
            for index in shard_targets(len(self.shards), bound)
        ]

    def _merge(
        self, view_name: str, streams: Sequence[Iterable[Block]]
    ) -> List[Block]:
        """K-way merge of per-shard block streams into one block in
        global packing order (empty list when nothing matched)."""
        arity = self.view_definition(view_name).arity
        dims = self.shards[0].require_forest().tree_dims(view_name)
        merged = heapq.merge(
            *map(block_rows, streams),
            key=lambda row: sort_key(row[0], dims),
        )
        block = Block.of_rows(
            arity, arity, (coords + values for coords, values in merged)
        )
        return [block] if block.count else []

    # -- scatter-gather execution ---------------------------------------
    def query_view(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> Iterator[Block]:
        """Slice one view across its target shards by descent.

        A single target returns that shard's block stream untouched
        (``N = 1`` and point restrictions).  Several targets k-way merge
        on the packing sort key into one block, reproducing the exact
        order a single tree would have yielded, so downstream float folds
        are bit-identical.
        """
        streams = [
            shard.routed().query_view(view_name, bindings)
            for shard in self.target_shards(view_name, bindings)
        ]
        if len(streams) == 1:
            return streams[0]
        return iter(self._merge(view_name, streams))

    def query_view_group(
        self,
        view_name: str,
        bindings_list: Sequence[Mapping[str, object]],
        fold: Optional[Sequence[bool]] = None,
    ) -> List[object]:
        """Answer slices of one view, one run pass per shard.

        Every shard runs a single run pass over only the bindings
        whose residue can land in it; each binding's per-shard partials
        are then merged in packing order.  One shard per binding (the
        common point-restriction batch) skips the merge, and only such a
        binding honours its ``fold`` flag (see the module docstring): its
        entry comes back as a :class:`~repro.core.cubetree.FoldedSlice`,
        every other entry as a block list.
        """
        targets = [
            self.target_shards(view_name, bindings)
            for bindings in bindings_list
        ]
        per_shard: List[List[int]] = [[] for _ in self.shards]
        for position, shards in enumerate(targets):
            for shard in shards:
                per_shard[shard.index].append(position)
        partials: List[List[object]] = [[] for _ in bindings_list]
        for shard, positions in zip(self.shards, per_shard):
            if not positions:
                continue
            forest = shard.routed(len(positions))
            subset = [bindings_list[i] for i in positions]
            if forest.has_run(view_name):
                folds = [
                    fold is not None and fold[i] and len(targets[i]) == 1
                    for i in positions
                ]
                answers = forest.query_view_group(
                    view_name, subset, fold=folds if any(folds) else None
                )
            else:
                # No extent on this shard (dynamic build): per-binding
                # classic descent, still in packing order.
                answers = [
                    list(forest.query_view(view_name, bindings))
                    for bindings in subset
                ]
            for position, answer in zip(positions, answers):
                partials[position].append(answer)
        results: List[object] = []
        for streams in partials:
            if len(streams) == 1:
                results.append(streams[0])
            else:
                results.append(self._merge(view_name, streams))
        return results

    def has_run(self, view_name: str) -> bool:
        """True when any shard recorded a leaf-run extent for the view."""
        return any(
            shard.require_forest().has_run(view_name)
            for shard in self.shards
        )

    def protect_index_pages(self) -> int:
        """Shelter every shard's interior pages (idempotent)."""
        return sum(
            shard.require_forest().protect_index_pages()
            for shard in self.shards
        )

    # -- routing inputs -------------------------------------------------
    def access_paths(self) -> List[AccessPath]:
        """Merged router inputs: global sizes, summed run extents.

        The router plans against the *whole* view (total size, total run
        leaves); shard pruning happens afterwards, per query, from the
        decision's leading-coordinate binding.
        """
        if self._paths is None:
            per_shard = [
                shard.require_forest().access_paths() for shard in self.shards
            ]
            self._paths = []
            for group in zip(*per_shard):  # one view's path on every shard
                runs = [
                    path.run_leaves
                    for path in group
                    if path.run_leaves is not None
                ]
                self._paths.append(
                    replace(
                        group[0],
                        size=sum(path.size for path in group),
                        run_leaves=sum(runs) if runs else None,
                    )
                )
        return self._paths

    # -- statistics -----------------------------------------------------
    def view_sizes(self) -> Dict[str, int]:
        """Global tuple count per view (sum of the shard partitions)."""
        totals = {name: 0 for name in self.view_names()}
        for shard in self.shards:
            for name, size in shard.require_forest().view_sizes().items():
                totals[name] += size
        return totals

    @property
    def num_pages(self) -> int:
        return sum(
            shard.require_forest().num_pages for shard in self.shards
        )
