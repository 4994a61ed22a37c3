"""Merge-pack: bulk-incremental update of a packed R-tree.

The paper's Fig. 15 architecture: the warehouse increment is sorted with the
*same* order used to compute the views, then merged with the old Cubetree in
one linear pass.  Points present on both sides combine their aggregate
vectors; the output stream feeds straight into the packer, so the new tree
is written with sequential I/O and the old tree is read with sequential I/O
(its leaf chain is in sort order by construction).

This is the source of the paper's ~100:1 refresh advantage over per-tuple
maintenance of relational summary tables.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Deque, List, Sequence, Tuple

from repro.errors import MappingError
from repro.obs import get_registry, trace
from repro.rtree.node import RLeafNode
from repro.rtree.packing import (
    Chunk,
    PackedRun,
    free_tree,
    validate_runs,
    write_chunks,
)
from repro.rtree.tree import EMPTY_EXTENT, RTree
from repro.settings import current
from repro.storage.buffer import BufferPool

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_MERGES = _REG.counter("rtree.merge_pack.count")
_OBS_MERGED_ENTRIES = _REG.counter("rtree.merge_pack.entries")

Point = Tuple[int, ...]
Values = Tuple[float, ...]

#: Combines the aggregate vectors of an existing point and a delta point of
#: the same view: ``combine(view_id, old_values, delta_values) -> values``.
Combiner = Callable[[int, Values, Values], Values]


def add_combiner(_view_id: int, old: Values, delta: Values) -> Values:
    """Element-wise addition — correct for sum and count aggregates."""
    return tuple(a + b for a, b in zip(old, delta))


def _locate(
    keycols: Sequence[array], key: Point, lo: int, hi: int
) -> Tuple[int, int]:
    """``[lo, hi)`` of the entries equal to ``key`` among sorted entries
    given as run-order key columns (last coordinate first): a ``bisect``
    pair per column, each inside the range the previous column left.
    An empty range sits at the key's insertion point."""
    for col, part in zip(keycols, key):
        if lo == hi:
            break
        lo, hi = bisect_left(col, part, lo, hi), bisect_right(col, part, lo, hi)
    return lo, hi


def _splice(col: array, hits: Sequence[Tuple[int, int]], inserted) -> array:
    """``col`` with ``inserted[j]`` placed at ``hits[j] = (position,
    entries it replaces)`` — slice-extends between the insertion points."""
    out = array(col.typecode)
    prev = 0
    for (at, replaced), value in zip(hits, inserted):
        out.extend(col[prev:at])
        out.append(value)
        prev = at + replaced
    out.extend(col[prev:])
    return out


class _Delta:
    """One (validated) delta run, consumed front to back."""

    def __init__(self, run: PackedRun, dims: int) -> None:
        validate_runs([run], dims)
        self.run = run
        self.pos, self.count = 0, run.count
        self.coords, self.measures = run.coords, run.measures

    def rest(self) -> Chunk:
        """Everything not merged yet."""
        pos, run, self.pos = self.pos, self.run, self.count
        return (
            run.view_id, run.arity, run.n_aggs,
            [col[pos:] for col in self.coords],
            [col[pos:] for col in self.measures],
            self.count - pos,
        )

    def merge_into(self, leaf: RLeafNode, combine: Combiner) -> Chunk:
        """The leaf's entries merged with every delta entry up to the
        leaf's last key (later ones wait for the next leaf)."""
        if self.run.view_id != leaf.view_id:
            raise MappingError(
                f"delta view {self.run.view_id} collides with stored view "
                f"{leaf.view_id} (same arity {leaf.arity})"
            )
        coords, measures = leaf.columns()
        count = len(leaf)
        keycols, delta_keys = coords[::-1], self.coords[::-1]
        start = self.pos
        if count:
            self.pos = _locate(
                delta_keys, leaf.key_at(count - 1), start, self.count
            )[1]
        hits: List[Tuple[int, int]] = []
        values: List[Values] = []
        at = 0
        for i in range(start, self.pos):
            key = tuple(col[i] for col in delta_keys)
            at, end = _locate(keycols, key, at, count)
            delta_values = tuple(col[i] for col in self.measures)
            if end > at:  # the point exists: combine its aggregates
                delta_values = combine(
                    leaf.view_id,
                    tuple(col[at] for col in measures),
                    delta_values,
                )
            hits.append((at, int(end > at)))
            values.append(delta_values)
            at = min(end, at + 1)
        if hits:  # (no hits: the leaf's own buffers pass through)
            coords = [
                _splice(col, hits, mine[start : self.pos])
                for col, mine in zip(coords, self.coords)
            ]
            measures = [
                _splice(col, hits, column)
                for col, column in zip(measures, zip(*values))
            ]
            count += sum(1 - replaced for _at, replaced in hits)
        return leaf.view_id, leaf.arity, leaf.n_aggs, coords, measures, count


def merge_pack(
    pool: BufferPool,
    dims: int,
    old_tree: RTree,
    delta_runs: Sequence[PackedRun],
    combine: Combiner = add_combiner,
    retire_old: bool = True,
) -> RTree:
    """Merge a sorted delta into a packed tree, producing a new packed tree.

    Parameters
    ----------
    pool / dims:
        Substrate and dimensionality (must match the old tree).
    old_tree:
        The currently-live packed tree.
    delta_runs:
        Per-view sorted deltas, ordered by ascending arity.
    combine:
        Aggregate combiner for points present on both sides.
    retire_old:
        When true (default), the old tree's pages are freed after the new
        tree is built — the paper's create-new-then-swap discipline.
    """
    with trace("rtree.merge_pack", deltas=len(delta_runs)):
        return _merge_pack(
            pool, dims, old_tree, delta_runs, combine, retire_old
        )


def _merge_pack(
    pool: BufferPool,
    dims: int,
    old_tree: RTree,
    delta_runs: Sequence[PackedRun],
    combine: Combiner,
    retire_old: bool,
) -> RTree:
    _OBS_MERGES.value += 1
    pending: Deque[_Delta] = deque(_Delta(run, dims) for run in delta_runs)
    # Pass 1 reads the old chain leaf by leaf, splicing the delta into
    # its columns; pass 2 hands the chunks to the leaf writer.  Reading
    # the old tree to the end before the first new page is allocated is
    # the pool-call order every simulated-I/O baseline was recorded with.
    chunks: List[Chunk] = []
    for leaf in old_tree.scan_leaf_chain():
        # Delta views of lower arity sort wholly before this leaf.
        while pending and pending[0].run.arity < leaf.arity:
            chunks.append(pending.popleft().rest())
        if pending and pending[0].run.arity == leaf.arity:
            chunks.append(pending[0].merge_into(leaf, combine))
            if pending[0].pos == pending[0].count:
                pending.popleft()
        else:
            view = (leaf.view_id, leaf.arity, leaf.n_aggs)
            chunks.append((*view, *leaf.columns(), len(leaf)))
    chunks.extend(delta.rest() for delta in pending)
    new_tree = write_chunks(pool, dims, chunks)
    # A view that is still empty after the merge produces no stream
    # entries and hence no run above; carry its explicit empty extent
    # forward so the zero-row view keeps an (empty) run on the new tree.
    for view_id in old_tree.view_extents:
        new_tree.view_extents.setdefault(view_id, EMPTY_EXTENT)
    _OBS_MERGED_ENTRIES.value += new_tree.count
    # Debug post-condition: merge-pack must hand back a freshly packed
    # tree (full leaves, contiguous sorted view runs).  Checked before
    # the old tree is retired so a violation loses no data.  The import
    # is local because repro.analysis.fsck itself depends on this
    # package.
    if current().debug_checks:
        from repro.analysis.fsck import verify_tree

        verify_tree(new_tree, context="merge_pack post-condition")
    if retire_old:
        free_tree(pool, old_tree)
    return new_tree
