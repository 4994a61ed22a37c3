"""R-tree search plus classic dynamic (Guttman) insertion.

The Cubetree engine never inserts one point at a time — it always packs
(:mod:`repro.rtree.packing`) or merge-packs (:mod:`repro.rtree.merge`).
Dynamic insertion with quadratic splits is kept as the ablation baseline
demonstrating *why*: dynamically-built trees have ~50-70% leaf utilization
and random write patterns, packed trees have ~100% and sequential writes.

A slice is read one of two ways: :meth:`RTree.search` descends from
the root, and :meth:`RTree.search_run_group` reads the view's packed
leaf run (for one request or many, folding or collecting).  Both hand
back column blocks (:class:`repro.rtree.kernels.Block`): one per leaf
with a selected entry, cut from the leaf's columns by the kernels'
``select_rows`` selection, so no per-match tuple is built on the query
path.  :meth:`RTree.scan_points` is the row-form view of a whole
tree, for verification and examples.

Pin protocol: ``_fetch_node`` pins and returns ``(node, page)``; callers
``_release`` (read-only) or ``_flush_node`` (write + unpin dirty) once.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.constants import PAGE_SIZE
from repro.errors import InvalidCoordinateError, StorageError
from repro.obs import get_registry
from repro.rtree.geometry import Rect
from repro.rtree.kernels import (
    Block,
    Entry,
    FoldAccumulator,
    leaf_columns,
    select_rows,
    take,
)
from repro.rtree.node import (
    LEAF_TYPES,
    RInteriorNode,
    RLeafNode,
    columnar_leaf_size,
    interior_capacity,
    leaf_capacity,
    node_type_of,
)
from repro.storage.buffer import BufferPool
from repro.storage.page import Page

Point = Tuple[int, ...]
Values = Tuple[float, ...]

#: Sentinel extent the packer records for a view that materialized zero
#: rows.  A real extent is a pair of leaf page ids (both >= 0), so the
#: pair (-1, -1) is unambiguous; ``run_bounds`` maps it to the empty
#: position range and run seeks/scans yield nothing instead of
#: misfiring on a degenerate ``(first, last)`` pair.
EMPTY_EXTENT: Tuple[int, int] = (-1, -1)

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_SEARCHES = _REG.counter("rtree.searches")
_OBS_INSERTS = _REG.counter("rtree.inserts")
_OBS_RUN_SEARCHES = _REG.counter("rtree.run_searches")

#: Leaves prefetched per read-ahead window during a run scan.
RUN_READAHEAD = 8

#: Reversed-coordinate key — the order packed runs are sorted in.
RunKey = Tuple[int, ...]
#: A slice request against one view's leaf run: the full filter rect plus
#: lower/upper bounds on the leading run-key prefix (empty = unbounded).
RunRequest = Tuple[Rect, RunKey, RunKey]


class RTree:
    """A d-dimensional R-tree over the paged substrate.

    Parameters
    ----------
    pool:
        Shared buffer pool.
    dims:
        Dimensionality of the indexed space.
    n_aggs:
        Aggregate values carried per point (for dynamically built trees;
        packed leaves carry their own per-view value counts).
    """

    def __init__(self, pool: BufferPool, dims: int, n_aggs: int = 1) -> None:
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.pool = pool
        self.dims = dims
        self.n_aggs = n_aggs
        self.interior_capacity = interior_capacity(dims)
        self.dynamic_leaf_capacity = leaf_capacity(dims, n_aggs)
        self.count = 0
        self.height = 0
        self.root_page_id = -1
        #: Leaf page ids in sort order; maintained by the packer/merger so
        #: merge-pack can stream the old tree sequentially.
        self.leaf_page_ids: List[int] = []
        #: Every page this tree owns (leaves + interiors), maintained by
        #: the packer and by dynamic inserts so the tree can be retired
        #: without re-reading it from disk.
        self.owned_page_ids: List[int] = []
        #: Per-view leaf-run extents ``view_id -> (first, last)`` leaf
        #: page ids, recorded by the packer and persisted in the catalog.
        #: Empty for dynamically built trees and for trees restored from
        #: checkpoints that predate the field — run plans then fall
        #: back to the interior descent, and leaves are searched with the
        #: kernels' unsorted full comparison pass.
        self.view_extents: Dict[int, Tuple[int, int]] = {}
        #: Lazily resolved ``view_id -> (lo, hi)`` positions of each
        #: extent inside :attr:`leaf_page_ids`.
        self._run_index: Dict[int, Tuple[int, int]] = {}
        #: Entries per view id, counted by the packer as it writes them
        #: and restored from the catalog on reopen.  Empty for
        #: dynamically built trees.
        self.view_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def search(self, rect: Rect) -> Iterator[Block]:
        """Yield the entries inside ``rect``: one block per leaf that
        holds any, in descent order."""
        if rect.dims != self.dims:
            raise ValueError(
                f"query rect has {rect.dims} dims, tree has {self.dims}"
            )
        _OBS_SEARCHES.value += 1
        if self.root_page_id == -1:
            return
        yield from self._search(self.root_page_id, rect)

    def scan_leaf_chain(self) -> Iterator[RLeafNode]:
        """Yield leaves in packed (sort) order via the next-leaf chain.

        Each page's pin is released in a ``finally`` block, so a consumer
        that abandons the iterator early (``break``, exception,
        ``close()``) still leaves the pool fully unpinned.
        """
        if not self.leaf_page_ids:
            return
        page_id = self.leaf_page_ids[0]
        while page_id != -1:
            node, page = self._fetch_node(page_id)
            try:
                if not isinstance(node, RLeafNode):
                    raise StorageError("leaf chain points at a non-leaf page")
                next_id = node.next_leaf
                yield node
            finally:
                self._release(page)
            page_id = next_id

    def scan_points(self) -> Iterator[Entry]:
        """Yield every stored point in leaf-chain order, as
        ``(view id, padded point, values)``."""
        with closing(self.scan_leaf_chain()) as leaves:
            for leaf in leaves:
                block = take(leaf_columns(leaf), range(len(leaf)), leaf.view_id)
                yield from block.entries(self.dims)

    # ------------------------------------------------------------------
    # packed-run reads
    # ------------------------------------------------------------------
    def run_bounds(self, view_id: int) -> Optional[Tuple[int, int]]:
        """Positions ``(lo, hi)`` of ``view_id``'s leaf run inside
        :attr:`leaf_page_ids`, or None when no extent is recorded."""
        cached = self._run_index.get(view_id)
        if cached is not None:
            return cached
        extent = self.view_extents.get(view_id)
        if extent is None:
            return None
        if extent == EMPTY_EXTENT:
            # Zero-row view: an empty position range (hi < lo), so a
            # run pass reads nothing.
            self._run_index[view_id] = (0, -1)
            return (0, -1)
        first, last = extent
        try:
            lo = self.leaf_page_ids.index(first)
            hi = self.leaf_page_ids.index(last, lo)
        except ValueError as exc:
            raise StorageError(
                f"leaf-run extent {extent} of view {view_id} not found "
                "in the leaf chain"
            ) from exc
        self._run_index[view_id] = (lo, hi)
        return (lo, hi)

    def search_run_group(
        self,
        view_id: int,
        requests: Sequence[RunRequest],
        folds: Optional[Sequence[Optional[FoldAccumulator]]] = None,
    ) -> List[List[Block]]:
        """Answer slice requests in one pass over the view's leaf run:
        the run read beside the descent (:meth:`search`).

        ``requests`` holds ``(rect, lo_key, hi_key)`` triples in any
        order; the keys bound the leading prefix of the run's
        reversed-coordinate sort key (empty = unbounded).  When every
        request has a lower bound, the pass starts at the earliest one
        (a binary search on leaf first-keys); a request retires at the
        first leaf past its ``hi_key``, and the pass stops once all have.
        The keys only position the pass: each leaf's entries are
        selected by the rectangle alone, through the column kernels
        (containment implies the prefix bounds, which the slice compiler
        derives from the rectangle).  Each request gets the matches of
        :meth:`search` restricted to the view, as blocks in run order.

        ``folds`` (aligned with ``requests``) marks requests for
        aggregate pushdown: their matches fold into the given
        :class:`FoldAccumulator` in run order — the serial order
        :func:`repro.core.answer.finalize_matches` combines matches in —
        and their block lists stay empty.  Folding reads the same leaves.
        """
        results: List[List[Block]] = [[] for _ in requests]
        if not requests:
            return results
        bounds = self.run_bounds(view_id)
        if bounds is None:
            raise StorageError(
                f"no leaf-run extent recorded for view {view_id}"
            )
        lo_idx, hi_idx = bounds
        specs: List[RunRequest] = []
        for rect, lo_key, hi_key in requests:
            if rect.dims != self.dims:
                raise ValueError(
                    f"query rect has {rect.dims} dims, tree has {self.dims}"
                )
            specs.append((rect, tuple(lo_key), tuple(hi_key)))
        sinks: List[Optional[FoldAccumulator]] = (
            list(folds) if folds is not None else [None] * len(specs)
        )
        if len(sinks) != len(specs):
            raise ValueError(
                f"{len(sinks)} fold slot(s) for {len(specs)} request(s)"
            )
        _OBS_RUN_SEARCHES.value += len(specs)
        start = lo_idx
        if all(spec[1] for spec in specs):
            start = self._run_seek(
                lo_idx, hi_idx, min(spec[1] for spec in specs)
            )
        active = [True] * len(specs)
        remaining = len(specs)
        with closing(self._scan_leaves(start, hi_idx, view_id)) as leaves:
            for leaf in leaves:
                if not len(leaf):
                    continue
                first = leaf.key_at(0)
                for r, (_rect, _lo, hi) in enumerate(specs):
                    if active[r] and hi and first[: len(hi)] > hi:
                        active[r] = False
                        remaining -= 1
                if remaining == 0:
                    break
                cols = leaf_columns(leaf)
                for r in range(len(specs)):
                    if not active[r]:
                        continue
                    sel = select_rows(cols, specs[r][0], self.dims, True)
                    if sel is None:
                        continue
                    sink = sinks[r]
                    if sink is not None:
                        sink.add_block(cols.measures, sel)
                    else:
                        results[r].append(take(cols, sel, view_id))
        return results

    def _scan_leaves(
        self,
        lo: int,
        hi: int,
        view_id: Optional[int] = None,
    ) -> Iterator[RLeafNode]:
        """Yield leaves ``leaf_page_ids[lo..hi]`` through the scan
        (probationary) segment, reading ahead a window at a time."""
        run = self.leaf_page_ids
        for idx in range(lo, hi + 1):
            if (idx - lo) % RUN_READAHEAD == 0:
                self.pool.prefetch_run(
                    run[idx : min(idx + RUN_READAHEAD, hi + 1)]
                )
            node, page = self._fetch_node(run[idx], scan=True)
            try:
                if not isinstance(node, RLeafNode):
                    raise StorageError(
                        "leaf run contains a non-leaf page"
                    )
                if view_id is not None and node.view_id != view_id:
                    raise StorageError(
                        f"leaf run of view {view_id} contains a page of "
                        f"view {node.view_id}"
                    )
                yield node
            finally:
                self._release(page)

    def _leaf_first_key(self, idx: int) -> RunKey:
        """Reversed-coordinate key of the first point in leaf ``idx``."""
        node, page = self._fetch_node(self.leaf_page_ids[idx], scan=True)
        try:
            if not isinstance(node, RLeafNode) or not len(node):
                raise StorageError(
                    "packed leaf run contains an empty or non-leaf page"
                )
            return node.key_at(0)
        finally:
            self._release(page)

    def _run_seek(self, lo_idx: int, hi_idx: int, lo_key: RunKey) -> int:
        """Binary-search the run for the leaf where matches can start.

        Returns the position just before the leftmost leaf whose
        first-key prefix reaches ``lo_key`` — keys equal to the bound may
        begin in the preceding leaf, so the scan starts one leaf early.
        """
        p = len(lo_key)
        lo, hi = lo_idx, hi_idx + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._leaf_first_key(mid)[:p] < lo_key:
                lo = mid + 1
            else:
                hi = mid
        return max(lo_idx, lo - 1)

    # ------------------------------------------------------------------
    # dynamic insertion (ablation baseline)
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[int], values: Sequence[float]) -> None:
        """Guttman-style one-at-a-time insert of a full-dimensional point."""
        pt = tuple(int(c) for c in point)
        if len(pt) != self.dims:
            raise ValueError(f"point has {len(pt)} dims, tree has {self.dims}")
        if any(c < 0 for c in pt):
            raise InvalidCoordinateError(f"negative coordinate in {pt}")
        vals = tuple(float(v) for v in values)
        if len(vals) != self.n_aggs:
            raise ValueError(f"expected {self.n_aggs} aggregate values")
        _OBS_INSERTS.value += 1
        # Dynamic inserts split and reorder leaves, so any packed-run
        # extents and per-view counts recorded for this tree no longer
        # describe the chain.
        if self.view_extents or self.view_counts:
            self.view_extents = {}
            self.view_counts = {}
        self._run_index.clear()

        if self.root_page_id == -1:
            leaf = RLeafNode(view_id=-1, arity=self.dims, n_aggs=self.n_aggs)
            leaf.points.append(pt)
            leaf.values.append(vals)
            page = self.pool.new_page()
            self.root_page_id = page.page_id
            self.leaf_page_ids = [page.page_id]
            self.owned_page_ids.append(page.page_id)
            self.height = 1
            self._flush_node(leaf, page)
            self.count = 1
            return

        split = self._insert(self.root_page_id, pt, vals)
        if split is not None:
            (left_mbr, right_id, right_mbr) = split
            new_root = RInteriorNode(self.dims)
            new_root.children = [self.root_page_id, right_id]
            new_root.mbrs = [left_mbr, right_mbr]
            page = self.pool.new_page()
            self.root_page_id = page.page_id
            self.owned_page_ids.append(page.page_id)
            self._flush_node(new_root, page)
            self.height += 1
        self.count += 1

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Pages owned by this tree."""
        return len(self.owned_page_ids)

    def leaf_utilization(self) -> float:
        """Average leaf fill fraction (1.0 = every leaf at capacity)."""
        total = 0.0
        leaves = 0
        for leaf in self.scan_leaf_chain():
            if leaf.columnar:
                # Columnar leaves are byte-filled, not slot-filled.
                total += (
                    columnar_leaf_size(leaf.points, leaf.arity, leaf.n_aggs)
                    / PAGE_SIZE
                )
            else:
                cap = leaf_capacity(leaf.arity, leaf.n_aggs)
                total += len(leaf) / cap
            leaves += 1
        return total / leaves if leaves else 0.0

    def check_invariants(self) -> None:
        """Verify MBR containment and the stored point count."""
        if self.root_page_id == -1:
            if self.count != 0:
                raise StorageError("empty tree with non-zero count")
            return
        found = self._check_node(self.root_page_id)
        if found != self.count:
            raise StorageError(
                f"point count mismatch: tree={found} counter={self.count}"
            )

    # ------------------------------------------------------------------
    # node I/O
    # ------------------------------------------------------------------
    def _fetch_node(self, page_id: int, scan: bool = False):
        page = self.pool.fetch_page(page_id, scan=scan)
        if page.cached_obj is None:
            raw = bytes(page.data)
            if node_type_of(raw) in LEAF_TYPES:
                page.cached_obj = RLeafNode.from_bytes(raw)
            else:
                page.cached_obj = RInteriorNode.from_bytes(raw)
        return page.cached_obj, page

    def _release(self, page: Page) -> None:
        self.pool.unpin_page(page.page_id)

    def _flush_node(self, node, page: Page, raw: Optional[bytes] = None) -> None:
        page.data[:] = node.to_bytes() if raw is None else raw  # pre-serialized
        page.cached_obj = node
        self.pool.unpin_page(page.page_id, dirty=True)

    # ------------------------------------------------------------------
    # search machinery
    # ------------------------------------------------------------------
    def _search(self, page_id: int, rect: Rect) -> Iterator[Block]:
        node, page = self._fetch_node(page_id)
        try:
            if isinstance(node, RLeafNode):
                # Recorded extents mean a packed tree (dynamic inserts
                # wipe them): lead column sorted, coordinates >= 1.
                cols = leaf_columns(node)
                sel = select_rows(
                    cols, rect, self.dims, bool(self.view_extents)
                )
                if sel is not None:
                    yield take(cols, sel, node.view_id)
            else:
                children = [
                    child
                    for child, mbr in zip(node.children, node.mbrs)
                    if rect.intersects(mbr)
                ]
        finally:
            self._release(page)
        if isinstance(node, RInteriorNode):
            for child in children:
                yield from self._search(child, rect)

    # ------------------------------------------------------------------
    # dynamic-insert machinery (Guttman, quadratic split)
    # ------------------------------------------------------------------
    def _insert(
        self, page_id: int, point: Point, values: Values
    ) -> Optional[Tuple[Rect, int, Rect]]:
        """Insert below ``page_id``.

        Returns None when no split happened, else
        ``(this node's new MBR, new sibling page id, sibling MBR)``.
        The caller is responsible for updating its own entry for
        ``page_id`` — searching works off interior MBRs, so we recompute
        them on the way back up.
        """
        node, page = self._fetch_node(page_id)
        if isinstance(node, RLeafNode):
            node.points.append(point)
            node.values.append(values)
            node.coord_cols = None
            node.measure_cols = None
            if len(node.points) <= self.dynamic_leaf_capacity:
                self._flush_node(node, page)
                return None
            return self._split_leaf(node, page)

        # ChooseSubtree: least enlargement, ties by smallest area.
        point_rect = Rect.from_point(point)
        best_idx = min(
            range(len(node.children)),
            key=lambda i: (
                node.mbrs[i].enlargement(point_rect),
                node.mbrs[i].area(),
            ),
        )
        child_id = node.children[best_idx]
        self._release(page)
        split = self._insert(child_id, point, values)

        node, page = self._fetch_node(page_id)
        if split is None:
            node.mbrs[best_idx] = node.mbrs[best_idx].union(point_rect)
            self._flush_node(node, page)
            return None
        child_mbr, right_id, right_mbr = split
        node.mbrs[best_idx] = child_mbr
        node.children.insert(best_idx + 1, right_id)
        node.mbrs.insert(best_idx + 1, right_mbr)
        if len(node.children) <= self.interior_capacity:
            self._flush_node(node, page)
            return None
        return self._split_interior(node, page)

    def _split_leaf(
        self, node: RLeafNode, page: Page
    ) -> Tuple[Rect, int, Rect]:
        entries = [
            (Rect.from_point(p), (p, v))
            for p, v in zip(node.points, node.values)
        ]
        left, right = _quadratic_split(entries)
        node.points = [p for _, (p, _) in left]
        node.values = [v for _, (_, v) in left]
        node.coord_cols = None
        node.measure_cols = None
        sibling = RLeafNode(node.view_id, node.arity, node.n_aggs)
        sibling.points = [p for _, (p, _) in right]
        sibling.values = [v for _, (_, v) in right]
        sibling.next_leaf = node.next_leaf
        right_page = self.pool.new_page()
        node.next_leaf = right_page.page_id
        self.owned_page_ids.append(right_page.page_id)
        try:
            idx = self.leaf_page_ids.index(page.page_id)
            self.leaf_page_ids.insert(idx + 1, right_page.page_id)
        except ValueError:
            self.leaf_page_ids.append(right_page.page_id)
        left_mbr = Rect.cover_points(node.points)
        right_mbr = Rect.cover_points(sibling.points)
        self._flush_node(sibling, right_page)
        self._flush_node(node, page)
        return left_mbr, right_page.page_id, right_mbr

    def _split_interior(
        self, node: RInteriorNode, page: Page
    ) -> Tuple[Rect, int, Rect]:
        entries = [
            (mbr, (child, mbr))
            for child, mbr in zip(node.children, node.mbrs)
        ]
        left, right = _quadratic_split(entries)
        node.children = [c for _, (c, _) in left]
        node.mbrs = [m for _, (_, m) in left]
        sibling = RInteriorNode(self.dims)
        sibling.children = [c for _, (c, _) in right]
        sibling.mbrs = [m for _, (_, m) in right]
        right_page = self.pool.new_page()
        self.owned_page_ids.append(right_page.page_id)
        left_mbr = node.mbr()
        right_mbr = sibling.mbr()
        self._flush_node(sibling, right_page)
        self._flush_node(node, page)
        return left_mbr, right_page.page_id, right_mbr

    # ------------------------------------------------------------------
    def _check_node(self, page_id: int, bound: Optional[Rect] = None) -> int:
        node, page = self._fetch_node(page_id)
        try:
            if isinstance(node, RLeafNode):
                if len(node):
                    mbr = node.mbr(self.dims)
                    if bound is not None and not bound.contains_rect(mbr):
                        raise StorageError("leaf escapes its parent MBR")
                return len(node)
            pairs = list(zip(node.children, node.mbrs))
            if bound is not None:
                for _child, mbr in pairs:
                    if not bound.contains_rect(mbr):
                        raise StorageError("child MBR escapes parent MBR")
        finally:
            self._release(page)
        return sum(self._check_node(c, m) for c, m in pairs)


def _quadratic_split(entries):
    """Guttman's quadratic split over (mbr, payload) entries.

    Returns two non-empty entry lists with a min fill of ~40%.
    """
    if len(entries) < 2:
        raise StorageError("cannot split fewer than 2 entries")
    min_fill = max(1, int(0.4 * len(entries)))

    # PickSeeds: the pair wasting the most area if grouped together.
    best_pair = (0, 1)
    best_waste = None
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            union = entries[i][0].union(entries[j][0])
            waste = union.area() - entries[i][0].area() - entries[j][0].area()
            if best_waste is None or waste > best_waste:
                best_waste = waste
                best_pair = (i, j)

    left = [entries[best_pair[0]]]
    right = [entries[best_pair[1]]]
    left_mbr = entries[best_pair[0]][0]
    right_mbr = entries[best_pair[1]][0]
    rest = [
        e for idx, e in enumerate(entries) if idx not in best_pair
    ]

    while rest:
        # Honour the minimum fill before PickNext preference.
        if len(left) + len(rest) == min_fill:
            left.extend(rest)
            break
        if len(right) + len(rest) == min_fill:
            right.extend(rest)
            break
        # PickNext: entry with the greatest preference for one group.
        best_idx = max(
            range(len(rest)),
            key=lambda i: abs(
                left_mbr.enlargement(rest[i][0])
                - right_mbr.enlargement(rest[i][0])
            ),
        )
        entry = rest.pop(best_idx)
        d_left = left_mbr.enlargement(entry[0])
        d_right = right_mbr.enlargement(entry[0])
        if (d_left, left_mbr.area(), len(left)) <= (
            d_right,
            right_mbr.area(),
            len(right),
        ):
            left.append(entry)
            left_mbr = left_mbr.union(entry[0])
        else:
            right.append(entry)
            right_mbr = right_mbr.union(entry[0])
    return left, right
