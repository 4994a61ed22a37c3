"""One Cubetree: a packed, compressed R-tree holding one view per arity.

Under the valid mapping (Sec. 2.2), a tuple of view ``V{a1..ak}`` becomes
the point ``(a1, ..., ak, 0, ..., 0)`` in the tree's d-dimensional space;
its aggregate states are the point's content.  Within a tree the view id
stored on each leaf is simply the view's arity — SelectMapping guarantees
at most one view per arity per tree, and the id is then stable across
merge-packs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.btree.keys import INT64_MAX
from repro.columns import as_columns, gather, sort_order
from repro.errors import IntegrityError, MappingError, QueryError
from repro.obs import trace
from repro.relational.executor import AggFunc, combine_states
from repro.relational.view import ViewDefinition
from repro.rtree.geometry import Rect
from repro.rtree.kernels import Block, FoldAccumulator
from repro.rtree.merge import merge_pack
from repro.rtree.packing import PackedRun, pack_rtree, width_error
from repro.rtree.tree import RTree, RunKey
from repro.settings import current
from repro.storage.buffer import BufferPool

Row = Tuple[object, ...]
Values = Tuple[float, ...]


@dataclass(frozen=True)
class SliceSpec:
    """A compiled slice over one view: the Fig. 4 query rectangle plus
    the run-key prefix bounds a run pass can seek with.

    ``lo_key``/``hi_key`` bound the longest leading prefix of the run's
    sort order (``reversed(group_by)``) made of equality bindings,
    optionally closed by a single range binding; empty tuples mean the
    query has no usable prefix and a run pass covers the whole run.
    ``rect`` is ``None`` when a bound is empty once clamped to the
    coordinate domain ``[1, INT64_MAX]``: the slice matches nothing.
    """

    view: ViewDefinition
    rect: Optional[Rect]
    lo_key: RunKey
    hi_key: RunKey


@dataclass(frozen=True)
class FoldedSlice:
    """A slice answered by aggregate pushdown: per-aggregate combined
    states instead of a block list (``None`` when nothing matched)."""

    states: Optional[Tuple[Values, ...]]


def fold_reducers(view: ViewDefinition) -> Tuple[str, ...]:
    """Per-flattened-state-component reducer tags for a view.

    Mirrors :func:`repro.relational.executor.combine_states` applied
    pairwise: MIN/MAX components reduce by ``min``/``max``, every other
    component (SUM, COUNT, both AVG halves) by addition.
    """
    tags: List[str] = []
    for spec, width in zip(view.aggregates, view.state_widths):
        if spec.func is AggFunc.MIN:
            tags.append("min")
        elif spec.func is AggFunc.MAX:
            tags.append("max")
        else:
            tags.extend(["add"] * width)
    return tuple(tags)


def split_states(
    view: ViewDefinition, acc: FoldAccumulator
) -> Optional[Tuple[Values, ...]]:
    """Split an accumulator's flat states into per-aggregate tuples."""
    if acc.states is None:
        return None
    out: List[Values] = []
    offset = 0
    for width in view.state_widths:
        out.append(tuple(acc.states[offset : offset + width]))
        offset += width
    return tuple(out)


def prepare_packed_runs(
    dims: int,
    views: Sequence[ViewDefinition],
    data: Mapping[str, Sequence[Row]],
) -> List[PackedRun]:
    """Gather per-view state columns into packing-order runs (pure CPU).

    This is the compute-heavy half of a build/merge-pack — the
    packing-order sort plus coordinate and value coercion — and touches
    no storage; only the pack that follows charges simulated I/O.  Each
    view is sorted once, as a permutation,
    by its group columns last to first: within one view the zero pad of
    :func:`sort_key` is a constant prefix, so that is the packing order.
    The permutation then gathers ``int`` coordinate and ``float`` value
    columns.  State rows that are not columns yet are transposed first.
    """
    runs: List[PackedRun] = []
    for view in sorted(views, key=lambda v: v.arity):
        rows = data.get(view.name)
        if rows is None:
            continue
        arity, n_aggs = view.arity, view.total_state_width
        try:
            columns = as_columns(rows, arity + n_aggs).columns
        except ValueError:
            raise width_error(view.name, arity, n_aggs) from None
        count = len(columns[0])
        order = sort_order(columns[arity - 1 :: -1] if arity else (), count)
        runs.append(
            PackedRun(
                arity, arity, n_aggs,
                gather(columns[:arity], order, "q"),
                gather(columns[arity:], order, "d"),
                count,
            )
        )
    return runs


class Cubetree:
    """A packed R-tree materializing a set of views of distinct arities.

    Parameters
    ----------
    pool:
        Shared buffer pool.
    dims:
        Dimensionality (>= the largest view arity).
    views:
        The views this tree holds; at most one per arity.
    """

    def __init__(
        self,
        pool: BufferPool,
        dims: int,
        views: Sequence[ViewDefinition],
    ) -> None:
        self.pool = pool
        self.dims = dims
        self.views: Tuple[ViewDefinition, ...] = tuple(views)
        arities = [view.arity for view in self.views]
        if len(set(arities)) != len(arities):
            raise MappingError("a Cubetree holds at most one view per arity")
        if arities and max(arities) > dims:
            raise MappingError(
                f"view arity {max(arities)} exceeds tree dimensionality {dims}"
            )
        self._by_arity: Dict[int, ViewDefinition] = {
            view.arity: view for view in self.views
        }
        self._by_name: Dict[str, ViewDefinition] = {
            view.name: view for view in self.views
        }
        self.tree = RTree(pool, dims)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def build(self, data: Mapping[str, Sequence[Row]]) -> None:
        """Bulk-load from per-view state rows (sorted or not).

        ``data`` maps view names to state rows or state columns (group
        values + aggregate states).  Each view is sorted into packing
        order and the runs are packed into a fresh tree.
        """
        with trace("cubetree.build", views=len(self.views)):
            runs = prepare_packed_runs(self.dims, self.views, data)
            self.tree = pack_rtree(self.pool, self.dims, runs)
            self._debug_verify("Cubetree.build")

    def update(self, deltas: Mapping[str, Sequence[Row]]) -> None:
        """Merge-pack a sorted delta into the tree (Fig. 15)."""
        with trace("cubetree.update", views=len(self.views)):
            runs = prepare_packed_runs(self.dims, self.views, deltas)
            self.tree = merge_pack(
                self.pool, self.dims, self.tree, runs, combine=self._combine
            )
            self._debug_verify("Cubetree.update")

    def _debug_verify(self, context: str) -> None:
        """Post-condition fsck behind the ``REPRO_DEBUG_CHECKS`` flag."""
        if not current().debug_checks:
            return
        # Local import: the verifier is an analysis tool, and the serving
        # path must not load repro.analysis just to skip the check.
        from repro.analysis.fsck import check_cubetree

        report = check_cubetree(self)
        if not report.ok:
            raise IntegrityError(f"{context}: {report.format()}")

    def _combine(self, view_id: int, old: Values, delta: Values) -> Values:
        view = self._by_arity.get(view_id)
        if view is None:
            raise MappingError(f"no view of arity {view_id} in this tree")
        out: List[float] = []
        offset = 0
        for spec, width in zip(view.aggregates, view.state_widths):
            merged = combine_states(
                spec.func,
                old[offset : offset + width],
                delta[offset : offset + width],
            )
            out.extend(merged)
            offset += width
        return tuple(out)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def slice_spec(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> SliceSpec:
        """Compile a slice into its query rectangle and run-key bounds.

        Builds the query rectangle of Fig. 4: bound attributes become
        degenerate or closed ranges, open attributes span the positive
        axis, and the padding dimensions are pinned to zero so no other
        view's region is touched.  Each binding value is either an int
        (equality) or a ``(low, high)`` interval — R-trees handle range
        predicates natively, which is the paper's point that "in a more
        general experiment where arbitrary range queries are allowed ...
        the Cubetrees would be even faster".

        The run-key bounds cover the longest leading prefix of the
        packing order (last group-by attribute first) that is
        equality-bound, plus at most one trailing range binding — the
        same prefix rule the query router costs with.

        Bounds are clamped to ``[1, INT64_MAX]``: view coordinates are
        never below 1, and a coordinate of 0 would reach into the zero
        padding of lower-arity views.
        """
        view = self._by_name.get(view_name)
        if view is None:
            raise QueryError(f"view {view_name!r} is not in this Cubetree")
        unknown = set(bindings) - set(view.group_by)
        if unknown:
            raise QueryError(
                f"bound attributes {sorted(unknown)} not in view "
                f"{view_name!r}"
            )
        lows: List[int] = []
        highs: List[int] = []
        for attr in view.group_by:
            if attr in bindings:
                value = bindings[attr]
                if isinstance(value, tuple):
                    low, high = int(value[0]), int(value[1])
                else:
                    low = high = int(value)  # type: ignore[arg-type]
                lows.append(max(low, 1))
                highs.append(min(high, INT64_MAX))
            else:
                lows.append(1)
                highs.append(INT64_MAX)
        arity = view.arity
        lo_key: List[int] = []
        hi_key: List[int] = []
        for pos in range(arity - 1, -1, -1):
            if view.group_by[pos] not in bindings:
                break
            lo_key.append(lows[pos])
            hi_key.append(highs[pos])
            if lows[pos] != highs[pos]:
                break  # a range binding closes the usable prefix
        rect = None
        if all(low <= high for low, high in zip(lows, highs)):
            lows.extend([0] * (self.dims - arity))
            highs.extend([0] * (self.dims - arity))
            rect = Rect(tuple(lows), tuple(highs))
        return SliceSpec(view, rect, tuple(lo_key), tuple(hi_key))

    def query(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> Iterator[Block]:
        """Slice one view by the classic R-tree descent from the root:
        yields column blocks of the view's group coordinates and
        aggregate states.  (The run read is :meth:`query_group`.)  Each
        block's view id is checked once.
        """
        spec = self.slice_spec(view_name, bindings)
        if spec.rect is None:
            return
        arity = spec.view.arity
        for block in self.tree.search(spec.rect):
            if block.view_id != arity:  # pragma: no cover - defensive
                raise MappingError("search strayed into another view region")
            yield block

    def query_group(
        self,
        view_name: str,
        bindings_list: Sequence[Mapping[str, object]],
        fold: Optional[Sequence[bool]] = None,
    ) -> List[object]:
        """Answer slices of one view in one pass over its leaf run
        (:meth:`RTree.search_run_group`); requires a recorded extent
        (:meth:`has_run`).

        One entry per binding set, in input order: the blocks
        :meth:`query` would have matched, in run order — or, where
        ``fold`` (aligned with ``bindings_list``) is set, a
        :class:`FoldedSlice` of their combined per-aggregate states,
        folded inside the pass (aggregate pushdown for total slices)
        and bit-identical to combining the matches serially.
        """
        specs = [self.slice_spec(view_name, b) for b in bindings_list]
        if not specs:
            return []
        if fold is not None and len(fold) != len(specs):
            raise QueryError(
                f"{len(fold)} fold flag(s) for {len(specs)} slice(s)"
            )
        arity = specs[0].view.arity
        results: List[object] = [
            FoldedSlice(None) if fold is not None and fold[i] else []
            for i in range(len(specs))
        ]
        # Sort the group into run order (unbounded slices first), so the
        # shared pass opens at the earliest qualifying leaf and retires
        # requests front to back as the scan advances.  Slices that match
        # nothing stay out of the pass.
        requests = {
            i: (spec.rect, spec.lo_key, spec.hi_key)
            for i, spec in enumerate(specs)
            if spec.rect is not None
        }
        order = sorted(requests, key=lambda i: specs[i].lo_key)
        if not order:
            return results
        accs: Optional[List[Optional[FoldAccumulator]]] = None
        if fold is not None and any(fold):
            reducers = fold_reducers(specs[0].view)
            accs = [
                FoldAccumulator(reducers) if fold[i] else None
                for i in order
            ]
        grouped = self.tree.search_run_group(
            arity, [requests[i] for i in order], accs
        )
        for position, i in enumerate(order):
            if accs is not None and accs[position] is not None:
                results[i] = FoldedSlice(
                    split_states(specs[i].view, accs[position])
                )
            else:
                results[i] = grouped[position]
        return results

    def has_run(self, view_name: str) -> bool:
        """True when the view has a usable recorded leaf-run extent."""
        view = self._by_name.get(view_name)
        if view is None:
            raise QueryError(f"view {view_name!r} is not in this Cubetree")
        return self.tree.run_bounds(view.arity) is not None

    def run_leaf_count(self, view_name: str) -> Optional[int]:
        """Number of leaves in the view's packed run (None if unknown)."""
        view = self._by_name.get(view_name)
        if view is None:
            raise QueryError(f"view {view_name!r} is not in this Cubetree")
        bounds = self.tree.run_bounds(view.arity)
        if bounds is None:
            return None
        return bounds[1] - bounds[0] + 1

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tree)

    @property
    def num_pages(self) -> int:
        """Number of pages this structure occupies."""
        return self.tree.num_pages

    def leaf_utilization(self) -> float:
        """Average leaf fill fraction (1.0 = packed full)."""
        return self.tree.leaf_utilization()

    def view_sizes(self) -> Dict[str, int]:
        """Tuple count per view (the packer's per-view entry counts)."""
        counts = self.tree.view_counts
        return {view.name: counts.get(view.arity, 0) for view in self.views}
