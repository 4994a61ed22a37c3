"""Sort-order bulk loading ("packing") of R-trees.

This is the core mechanism behind Cubetrees (paper Sec. 2.3–2.4): the
tuples of every view are sorted by *reversed* coordinate order — first by
the last coordinate, then the one before it, and so on — and streamed into
leaves that are filled to capacity and written sequentially.  Because the
valid mapping pads unused coordinates with zero and real coordinates are
strictly positive, the reversed-order sort groups views by ascending arity
with no interleaving, so every view occupies a contiguous run of leaves and
each leaf can be *compressed* to the view's own arity.

The paper deliberately rejects space-filling-curve orders (Hilbert et al.)
because they would interleave views; ``hilbert_sort_key`` is provided for
the ablation bench that demonstrates this.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import le
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.constants import PAGE_SIZE
from repro.errors import InvalidCoordinateError, MappingError
from repro.obs import get_registry, trace
from repro.rtree.geometry import Rect
from repro.rtree.node import (
    MAX_LEAF_ENTRIES,
    RInteriorNode,
    RLeafNode,
    columnar_header_size,
    interior_capacity,
    leaf_capacity,
)
from repro.rtree.tree import EMPTY_EXTENT, RTree
from repro.settings import current
from repro.storage.buffer import BufferPool
from repro.storage.codec import delta_tokens

Point = Tuple[int, ...]
Values = Tuple[float, ...]
Entry = Tuple[Point, Values]
#: Sorted entries of one view as column buffers: view id, arity, number
#: of aggregate values, one ``array('q')`` per coordinate, one
#: ``array('d')`` per aggregate value, and the entry count.
Chunk = Tuple[int, int, int, Sequence[array], Sequence[array], int]

#: Entries sliced into one column chunk at a time.
_BLOCK = 8192

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_PACK_ENTRIES = _REG.counter("rtree.pack.entries")
_OBS_PACK_LEAVES = _REG.counter("rtree.pack.leaves")
_OBS_FREED_PAGES = _REG.counter("rtree.free_tree.pages")


def sort_key(point: Sequence[int], dims: int) -> Tuple[int, ...]:
    """The packing sort key of a (possibly compressed) point.

    Pads the point with zeros up to ``dims`` and reverses it, so an
    ``R{x,y}`` tree sorts its points in (y, x) order — exactly the order of
    paper Tables 2 and 4.
    """
    padded = tuple(point) + (0,) * (dims - len(point))
    return tuple(reversed(padded))


@dataclass
class PackedRun:
    """One view's worth of sorted data heading into a packed tree, as
    columns.

    Attributes
    ----------
    view_id:
        Identifier the engine uses to find the view again.
    arity:
        Number of meaningful coordinates per point (0 for the super
        aggregate, which is mapped to the origin).
    n_aggs:
        Aggregate values carried per point.
    coords:
        ``arity`` ``array('q')`` columns, entry ``i`` of column ``c``
        being coordinate ``c`` of point ``i``; the points are sorted by
        :func:`sort_key`.
    measures:
        ``n_aggs`` ``array('d')`` columns of the aggregate values.
    count:
        Number of entries (every column's length).
    """

    view_id: int
    arity: int
    n_aggs: int
    coords: Sequence[array]
    measures: Sequence[array]
    count: int

    def __post_init__(self) -> None:
        if (
            len(self.coords) != self.arity
            or len(self.measures) != self.n_aggs
            or any(
                len(col) != self.count
                for col in (*self.coords, *self.measures)
            )
        ):
            raise width_error(self.view_id, self.arity, self.n_aggs)

    @classmethod
    def from_entries(
        cls,
        view_id: int,
        arity: int,
        n_aggs: int,
        entries: Iterable[Entry],
    ) -> "PackedRun":
        """A run from ``(point, values)`` pairs sorted by :func:`sort_key`
        (each ``point`` exactly ``arity`` coordinates wide)."""
        # Not zip(*entries): an iterator per entry means thousands of live
        # containers, which sets the cyclic GC off.
        entries = list(entries)
        points = [entry[0] for entry in entries]
        values = [entry[1] for entry in entries]
        if set(map(len, points)) - {arity} or set(map(len, values)) - {n_aggs}:
            raise width_error(view_id, arity, n_aggs)
        flat = array("q", list(chain.from_iterable(points)))
        coords = [flat[c::arity] for c in range(arity)]
        flat = array("d", list(chain.from_iterable(values)))
        measures = [flat[m::n_aggs] for m in range(n_aggs)]
        return cls(view_id, arity, n_aggs, coords, measures, len(entries))


def width_error(view: object, arity: int, n_aggs: int) -> MappingError:
    """The error for an entry (or row) not ``arity + n_aggs`` wide."""
    return MappingError(
        f"view {view}: every entry must carry {arity} coords and "
        f"{n_aggs} aggregate values"
    )


def validate_runs(runs: Iterable[PackedRun], dims: int) -> None:
    """Check packing input on whole columns, in place.

    Per run: the arity fits in ``dims``; then, for a non-empty run,
    every coordinate is positive, the run starts at or after the
    previous run's last key, its entries are in packing (reversed
    coordinate) order, and no earlier run had its arity — one column
    pass per check, not a comparison per entry.
    """
    last_key: Optional[Tuple[int, ...]] = None
    seen_arity = set()
    for run in runs:
        view_id, arity = run.view_id, run.arity
        if not 0 <= arity <= dims:
            raise MappingError(
                f"view {view_id}: arity {arity} does not fit in "
                f"a {dims}-dimensional Cubetree"
            )
        if not run.count:
            continue
        if run.coords and min(map(min, run.coords)) <= 0:
            raise InvalidCoordinateError(
                f"view {view_id}: non-positive coordinate; the "
                f"valid mapping requires coordinates > 0"
            )
        # Packing order is reversed-coordinate order; keys are zipped
        # lazily so no tuple outlives its comparison.
        order = run.coords[::-1]
        pad = (0,) * (dims - arity)
        if last_key is not None and last_key > pad + tuple(
            col[0] for col in order
        ):
            raise MappingError(
                "runs are not ordered by the global packing order"
            )
        if not all(map(le, zip(*order), islice(zip(*order), 1, None))):
            raise MappingError(
                f"view {view_id}: entries are not in packing sort order"
            )
        if arity in seen_arity:
            raise MappingError(f"two views of arity {arity} in one Cubetree")
        seen_arity.add(arity)
        last_key = pad + tuple(col[-1] for col in order)


def column_chunks(runs: Iterable[PackedRun]) -> Iterator[Chunk]:
    """The runs as column chunks of at most ``_BLOCK`` entries (an empty
    run yields one empty chunk)."""
    for run in runs:
        for start in range(0, max(run.count, 1), _BLOCK):
            stop = min(start + _BLOCK, run.count)
            yield (
                run.view_id, run.arity, run.n_aggs,
                [col[start:stop] for col in run.coords],
                [col[start:stop] for col in run.measures],
                stop - start,
            )


def pack_rtree(
    pool: BufferPool,
    dims: int,
    runs: Sequence[PackedRun],
    validate: bool = True,
) -> RTree:
    """Build a packed R-tree from per-view sorted runs.

    ``runs`` must be ordered by ascending arity (SelectMapping guarantees at
    most one view per arity per tree), which makes the concatenated stream
    globally sorted.  Leaves are filled to capacity, never mix views, and
    are written in strictly increasing page order — i.e. sequentially.
    A run with no entries records the :data:`EMPTY_EXTENT` sentinel so the
    zero-row view still has an explicit (empty) run.  With ``validate``
    the runs are checked in full before the first page is allocated:
    invalid input leaves the pool untouched.  The leaf writer then takes
    the runs a block at a time, so packing holds no second copy of them.
    """
    with trace("rtree.pack", runs=len(runs)):
        if validate:
            validate_runs(runs, dims)
        return write_chunks(pool, dims, column_chunks(runs))


def write_chunks(pool: BufferPool, dims: int, chunks: Iterable[Chunk]) -> RTree:
    """Pack sorted column chunks (views in ascending arity) into a tree."""
    writer = LeafWriter(pool, dims)
    for chunk in chunks:
        writer.add(chunk)
    return writer.finish()


class LeafWriter:
    """The one leaf writer behind bulk load and merge-pack.

    :meth:`add` cuts sorted column chunks into leaves filled to capacity:
    row leaves by slot count, columnar leaves by encoded size (a chunk's
    coordinates are delta-encoded once; the token lengths price the
    entries and the tokens become the page, so one ``bisect`` over the
    running cost places each cut).  A leaf's page is allocated when its
    first entry arrives and written when the next leaf's first entry
    arrives — the pool-call order of packing entry by entry.
    """

    def __init__(self, pool: BufferPool, dims: int) -> None:
        self.tree = RTree(pool, dims)
        self._columnar = current().leaf_format == "columnar"
        self._level: List[Tuple[Rect, int]] = []  # (mbr, page id) per leaf
        self._total = 0
        # The open leaf: its pinned page, (view id, arity, n_aggs), the
        # columns so far, their encoded streams (columnar only), and the
        # capacity used: bytes of a columnar page, slots of a row page.
        self._page = None
        self._view: Tuple[int, int, int] = (-1, 0, 0)
        self._coords: List[array] = []
        self._measures: List[array] = []
        self._streams: List[bytearray] = []
        self._count = self._used = 0

    def add(self, chunk: Chunk) -> None:
        """Append the sorted entries of one view."""
        view_id, arity, n_aggs, coords, measures, count = chunk
        # (a view that never gets a leaf keeps the empty-run sentinel)
        self.tree.view_extents.setdefault(view_id, EMPTY_EXTENT)
        counts = self.tree.view_counts
        counts[view_id] = counts.get(view_id, 0) + count
        self._total += count
        _OBS_PACK_ENTRIES.value += count
        continues = self._page is not None and self._view[0] == view_id
        tokens: List[List[bytes]] = []
        capacity, cost_through = leaf_capacity(arity, n_aggs), lambda i: i + 1
        if self._columnar:
            # Entry i's token is its delta against entry i-1 (entry 0's
            # against the open leaf's last entry, when it continues it).
            last = [col[-1] for col in self._coords] if continues else [0] * arity
            tokens = [delta_tokens(col, prev) for col, prev in zip(coords, last)]
            ends = [list(accumulate(map(len, toks))) for toks in tokens]
            capacity = PAGE_SIZE

            def cost_through(i: int) -> int:  # bytes of chunk entries 0..i
                return (i + 1) * 8 * n_aggs + sum(end[i] for end in ends)

        pos = 0
        while pos < count:
            before = cost_through(pos - 1) if pos else 0
            room = 0
            if continues:
                room = min(
                    bisect_right(
                        range(count), capacity - self._used + before,
                        pos, key=cost_through,
                    ) - pos,
                    MAX_LEAF_ENTRIES - self._count,
                )
            if room and arity + n_aggs:  # (zero-width entries never share)
                stop = pos + room
                pieces = [b"".join(toks[pos:stop]) for toks in tokens]
                cost = cost_through(stop - 1) - before
            else:
                # Entry ``pos`` opens a leaf: page first, then close the old.
                self._open(view_id, arity, n_aggs)
                continues = True
                stop, cost, pieces = pos + 1, 1, []
                if self._columnar:  # a first entry is coded against 0
                    pieces = [delta_tokens(col[pos:stop])[0] for col in coords]
                    cost = (
                        columnar_header_size(arity) + 8 * n_aggs
                        + sum(map(len, pieces))
                    )
            for mine, col in zip(self._coords + self._measures, (*coords, *measures)):
                mine.extend(col[pos:stop])
            for mine, piece in zip(self._streams, pieces):
                mine += piece
            self._used += cost
            self._count += stop - pos
            pos = stop

    def _open(self, view_id: int, arity: int, n_aggs: int) -> None:
        tree = self.tree
        page = tree.pool.new_page()
        closing = self._page
        self._page = page
        self._close(closing, page.page_id)
        self._view = (view_id, arity, n_aggs)
        self._coords = [array("q") for _ in range(arity)]
        self._measures = [array("d") for _ in range(n_aggs)]
        self._streams = [bytearray() for _ in range(arity * self._columnar)]
        self._count = self._used = 0
        tree.leaf_page_ids.append(page.page_id)
        tree.owned_page_ids.append(page.page_id)
        first = tree.view_extents[view_id][0]  # EMPTY_EXTENT: its first leaf
        tree.view_extents[view_id] = (
            page.page_id if first == -1 else first, page.page_id
        )
        _OBS_PACK_LEAVES.value += 1

    def _close(self, page, next_leaf: int) -> None:
        """Write the open leaf (if any) into its page."""
        if page is None:
            return
        node = RLeafNode(
            *self._view, self._columnar,
            (self._coords, self._measures, self._count),
        )
        node.next_leaf = next_leaf
        # MBR from column extremes; the leading sort column (the last
        # coordinate) is non-decreasing, so its ends are its extremes.
        inner, lead = self._coords[:-1], self._coords[-1:]
        pad = (0,) * (self.tree.dims - len(self._coords))
        mbr = Rect(
            (*map(min, inner), *(col[0] for col in lead), *pad),
            (*map(max, inner), *(col[-1] for col in lead), *pad),
        )
        self._level.append((mbr, page.page_id))
        raw = node.to_bytes(self._streams if self._columnar else None)
        self.tree._flush_node(node, page, raw)

    def finish(self) -> RTree:
        """Write the last leaf and the interior levels; return the tree."""
        tree = self.tree
        if self._page is not None:
            self._close(self._page, -1)
            self._page = None
            build_interior_levels(tree, self._level)
            tree.count = self._total
        return tree  # (no data: an empty tree; extents may hold sentinels)


def build_interior_levels(tree: RTree, level: List[Tuple[Rect, int]]) -> None:
    """Write the interior levels over packed leaves (``level``: their
    ``(mbr, page id)`` in chain order); sets the tree's root and height."""
    cap = interior_capacity(tree.dims)
    height = 1
    while len(level) > 1:
        next_level: List[Tuple[Rect, int]] = []
        i = 0
        while i < len(level):
            take = min(cap, len(level) - i)
            remaining = len(level) - i - take
            if 0 < remaining < 2 and take > 2:
                take -= 2 - remaining
            group = level[i : i + take]
            node = RInteriorNode(tree.dims)
            node.mbrs = [mbr for mbr, _ in group]
            node.children = [pid for _, pid in group]
            page = tree.pool.new_page()
            tree.owned_page_ids.append(page.page_id)
            tree._flush_node(node, page)
            next_level.append((node.mbr(), page.page_id))
            i += take
        level = next_level
        height += 1
    tree.root_page_id = level[0][1]
    tree.height = height


def free_tree(pool: BufferPool, tree: RTree) -> int:
    """Release every page of a tree back to the disk free list.

    Used by merge-pack to retire the old tree once the new one is built.
    Uses the tree's owned-page list when available (no I/O); trees built
    before that bookkeeping existed fall back to a traversal.
    Returns the number of pages freed.
    """
    if tree.root_page_id == -1:
        return 0
    if tree.owned_page_ids:
        freed = list(tree.owned_page_ids)
    else:
        freed = _collect_pages(tree, tree.root_page_id)
    for page_id in freed:
        pool.discard_page(page_id)
        pool.disk.free_page(page_id)
    tree.root_page_id = -1
    tree.leaf_page_ids = []
    tree.owned_page_ids = []
    tree.view_extents = {}
    tree.view_counts = {}
    tree._run_index.clear()
    tree.count = 0
    tree.height = 0
    _OBS_FREED_PAGES.value += len(freed)
    return len(freed)


def _collect_pages(tree: RTree, page_id: int) -> List[int]:
    node, page = tree._fetch_node(page_id)
    try:
        if isinstance(node, RLeafNode):
            return [page_id]
        children = list(node.children)
    finally:
        tree._release(page)
    pages = [page_id]
    for child in children:
        pages.extend(_collect_pages(tree, child))
    return pages


# ----------------------------------------------------------------------
# ablation: space-filling-curve ordering the paper rejects
# ----------------------------------------------------------------------
def hilbert_sort_key(point: Sequence[int], dims: int, bits: int = 16):
    """Hilbert-curve index of a padded point (for the sort-order ablation).

    A compact iterative d-dimensional Hilbert encoding (Butz/Lawder style):
    transposes the coordinate bits, applies the Gray-code walk, and returns
    the curve index as an integer.
    """
    x = list(tuple(point) + (0,) * (dims - len(point)))
    if any(c < 0 or c >= (1 << bits) for c in x):
        raise ValueError(f"coordinates must fit in {bits} bits")
    # Inverse undo excess work
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        x[i] ^= t
    # Interleave bits: curve index
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index
