"""Structural verifier ("cubetree fsck") for packed R-trees.

The paper's correctness argument rests on *physical* invariants that the
packer (:mod:`repro.rtree.packing`) and merge-packer
(:mod:`repro.rtree.merge`) must preserve (Sec. 2.3–2.4 and
``docs/STORAGE_FORMAT.md``):

* every leaf except the last of its view's run is filled to
  ``leaf_capacity`` (packed trees have ~100% utilization);
* each view occupies one contiguous run of leaves — views never
  interleave on the leaf level, and runs appear in ascending arity
  order (the order the reversed-coordinate sort produces);
* the whole leaf chain is strictly sorted by the reversed-coordinate
  :func:`~repro.rtree.packing.sort_key`;
* compressed leaves store exactly arity-``k`` coordinates with the
  valid mapping's zero padding elided, and every stored coordinate is
  strictly positive;
* interior MBRs contain their children (recorded and recomputed);
* the ``next_leaf`` chain, the tree's ``leaf_page_ids`` index, and the
  set of leaves reachable from the root all agree; and
* the stored entry total matches the tree's counter, and each view's
  entries match the tree's per-view count (the sizes the router and
  the catalog use).

Checks deserialize nodes from the raw page bytes (via
:class:`~repro.storage.page.Page` buffers served by the
:class:`~repro.storage.buffer.BufferPool`), so they exercise the
*persisted* layout rather than any cached node objects.

:func:`check_tree` / :func:`check_cubetree` / :func:`check_forest` /
:func:`check_database` return a structured :class:`FsckReport`;
:func:`verify_tree` raises :class:`~repro.errors.IntegrityError`
instead, and is what ``rtree.merge`` and ``core.cubetree`` call behind
the ``REPRO_DEBUG_CHECKS`` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.constants import PAGE_SIZE
from repro.errors import IntegrityError, ReproError
from repro.rtree.geometry import Rect
from repro.rtree.node import (
    INTERIOR_TYPE,
    LEAF_TYPES,
    MAX_LEAF_ENTRIES,
    RInteriorNode,
    RLeafNode,
    columnar_leaf_size,
    leaf_capacity,
    node_type_of,
)
from repro.rtree.packing import sort_key
from repro.rtree.tree import EMPTY_EXTENT, RTree
from repro.storage.codec import delta_tokens

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.cubetree import Cubetree
    from repro.core.engine import CubetreeEngine
    from repro.core.forest import CubetreeForest

# ----------------------------------------------------------------------
# violation codes
# ----------------------------------------------------------------------
LEAF_UNDERFILLED = "leaf-underfilled"
LEAF_OVERFILLED = "leaf-overfilled"
VIEW_INTERLEAVED = "view-interleaved"
CHAIN_UNSORTED = "chain-unsorted"
BAD_ARITY = "bad-arity"
NONPOSITIVE_COORD = "nonpositive-coordinate"
MBR_NOT_CONTAINED = "mbr-not-contained"
LEAF_CHAIN_BROKEN = "leaf-chain-broken"
COUNT_MISMATCH = "count-mismatch"
UNKNOWN_VIEW = "unknown-view"
PAGE_CORRUPT = "page-corrupt"
STRUCTURE_CYCLE = "structure-cycle"
CHECKPOINT_CORRUPT = "checkpoint-corrupt"
RUN_EXTENT_MISMATCH = "run-extent-mismatch"
SHARD_RESIDUE = "shard-residue"
VIEW_SIZE_MISMATCH = "view-size-mismatch"

#: view_id -> (expected arity, expected aggregate-value count)
ExpectedViews = Mapping[int, Tuple[int, int]]


@dataclass(frozen=True)
class Violation:
    """One invariant violation, locatable on the page level."""

    code: str
    message: str
    page_id: Optional[int] = None
    view_id: Optional[int] = None
    tree_label: str = ""

    def format(self) -> str:
        """One-line rendering: ``[code] tree/page/view: message``."""
        where = []
        if self.tree_label:
            where.append(self.tree_label)
        if self.page_id is not None:
            where.append(f"page {self.page_id}")
        if self.view_id is not None:
            where.append(f"view {self.view_id}")
        location = ", ".join(where) or "tree"
        return f"[{self.code}] {location}: {self.message}"


@dataclass
class FsckReport:
    """Structured result of one verification pass."""

    violations: List[Violation] = field(default_factory=list)
    trees_checked: int = 0
    pages_checked: int = 0
    leaves_checked: int = 0
    entries_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def codes(self) -> List[str]:
        """The violation codes, in report order."""
        return [violation.code for violation in self.violations]

    def merge(self, other: "FsckReport") -> None:
        """Fold another report's findings and counters into this one."""
        self.violations.extend(other.violations)
        self.trees_checked += other.trees_checked
        self.pages_checked += other.pages_checked
        self.leaves_checked += other.leaves_checked
        self.entries_checked += other.entries_checked

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"cubetree fsck: {self.trees_checked} tree(s), "
            f"{self.pages_checked} page(s), {self.leaves_checked} leaf/"
            f"leaves, {self.entries_checked} entries checked: "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(violation.format() for violation in self.violations)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def check_tree(
    tree: RTree,
    expected_views: Optional[ExpectedViews] = None,
    packed: bool = True,
    label: str = "",
) -> FsckReport:
    """Verify one R-tree's structural invariants.

    Parameters
    ----------
    tree:
        The tree to verify (its pages are read through its buffer pool).
    expected_views:
        Optional ``view_id -> (arity, n_aggs)`` map; when given, every
        leaf must belong to a listed view and match its shape.
    packed:
        When true (the default), enforce the packing invariants (full
        leaves, contiguous sorted view runs, positive coordinates).
        Dynamically built ablation trees only get the structural checks
        (MBRs, chain consistency, counts).
    label:
        Prefix for violation locations when checking a forest.
    """
    checker = _TreeChecker(tree, expected_views, packed, label)
    return checker.run()


def check_cubetree(cubetree: "Cubetree", label: str = "") -> FsckReport:
    """Verify one :class:`~repro.core.cubetree.Cubetree`.

    Within a Cubetree every leaf's view id equals the view's arity and
    its value count equals the view's total state width.
    """
    expected = {
        view.arity: (view.arity, view.total_state_width)
        for view in cubetree.views
    }
    return check_tree(cubetree.tree, expected_views=expected, label=label)


def check_forest(forest: "CubetreeForest") -> FsckReport:
    """Verify every Cubetree of a forest; one aggregated report."""
    report = FsckReport()
    for i, cubetree in enumerate(forest.cubetrees, start=1):
        report.merge(check_cubetree(cubetree, label=f"R{i}"))
    return report


def check_database(engine: "CubetreeEngine") -> FsckReport:
    """Verify every shard of a loaded engine, plus residue disjointness.

    Each shard's forest gets the full structural fsck (labels like
    ``shard0/R1``), and on top of it the sharding contract is enforced:
    a leaf entry of an arity-``k >= 1`` view must live on the shard its
    leading group coordinate hashes to (``coord % num_shards``), and the
    apex (arity-0) row may only appear on shard 0.  A misplaced entry
    would silently vanish from pruned scatter-gather queries, so it is
    its own violation code (``shard-residue``).  With one shard every
    residue is 0 and the walk is skipped.
    """
    if engine.forest is None:
        raise ReproError("engine has no materialized forest to check")
    report = FsckReport()
    for shard in engine.shards:
        forest = shard.require_forest()
        for i, cubetree in enumerate(forest.cubetrees, start=1):
            label = f"shard{shard.index}/R{i}"
            report.merge(check_cubetree(cubetree, label=label))
            _check_shard_residues(
                cubetree, shard.index, engine.num_shards, label, report
            )
    return report


def _check_shard_residues(
    cubetree: "Cubetree",
    shard_index: int,
    num_shards: int,
    label: str,
    report: FsckReport,
) -> None:
    """Flag leaf entries whose leading coordinate maps to another shard."""
    if num_shards <= 1:
        return
    for leaf in cubetree.tree.scan_leaf_chain():
        if leaf.arity == 0:
            if shard_index != 0 and leaf.points:
                report.violations.append(
                    Violation(
                        SHARD_RESIDUE,
                        f"apex (arity-0) entries live on shard "
                        f"{shard_index}; the apex belongs to shard 0",
                        view_id=leaf.view_id,
                        tree_label=label,
                    )
                )
            continue
        for point in leaf.points:
            residue = int(point[0]) % num_shards
            if residue != shard_index:
                report.violations.append(
                    Violation(
                        SHARD_RESIDUE,
                        f"entry {point} has leading coordinate "
                        f"{point[0]} (residue {residue} mod "
                        f"{num_shards}) but lives on shard "
                        f"{shard_index}",
                        view_id=leaf.view_id,
                        tree_label=label,
                    )
                )
                break  # one misplaced entry per leaf is enough signal


def check_checkpoint(directory: str) -> FsckReport:
    """Verify a *saved* database: checksums first, then structural fsck.

    Runs :func:`repro.core.persistence.verify_checkpoint` over the newest
    committed generation (manifest/size/CRC32 validation, per-page
    checksums per shard, manifest completeness across every shard
    directory), and — when that passes — reopens the database and runs
    :func:`check_database` on it (structure of every shard's forest plus
    the cross-shard residue-disjointness walk), so ``repro check
    --checkpoint`` covers both the bytes on disk and the structure they
    encode.  Checksum problems and load failures surface as
    ``checkpoint-corrupt`` violations.
    """
    from repro.core.persistence import (
        PersistenceError,
        load_any_engine,
        verify_checkpoint,
    )

    report = FsckReport()
    label = os.path.basename(os.path.abspath(directory))
    checkpoint = verify_checkpoint(directory)
    report.pages_checked += checkpoint.pages_checked
    for problem in checkpoint.problems:
        report.violations.append(
            Violation(CHECKPOINT_CORRUPT, problem, tree_label=label)
        )
    if not checkpoint.ok:
        return report
    try:
        engine = load_any_engine(directory)
    except PersistenceError as exc:
        report.violations.append(
            Violation(CHECKPOINT_CORRUPT, str(exc), tree_label=label)
        )
        return report
    report.merge(check_database(engine))
    return report


def verify_tree(
    tree: RTree,
    expected_views: Optional[ExpectedViews] = None,
    context: str = "",
) -> None:
    """Run :func:`check_tree` and raise :class:`IntegrityError` on failure."""
    report = check_tree(tree, expected_views=expected_views)
    if not report.ok:
        prefix = f"{context}: " if context else ""
        raise IntegrityError(prefix + report.format())


# ----------------------------------------------------------------------
# implementation
# ----------------------------------------------------------------------
class _TreeChecker:
    """Stateful single-tree verification pass."""

    def __init__(
        self,
        tree: RTree,
        expected_views: Optional[ExpectedViews],
        packed: bool,
        label: str,
    ) -> None:
        self.tree = tree
        self.expected_views = expected_views
        self.packed = packed
        self.label = label
        self.report = FsckReport(trees_checked=1)
        self._visited: set[int] = set()

    # -- helpers -------------------------------------------------------
    def _flag(
        self,
        code: str,
        message: str,
        page_id: Optional[int] = None,
        view_id: Optional[int] = None,
    ) -> None:
        self.report.violations.append(
            Violation(code, message, page_id, view_id, self.label)
        )

    def _load(self, page_id: int):
        """Deserialize a node from its persisted page bytes.

        Always decodes from the page buffer (never a cached object), so
        the check covers what is actually on disk after a flush.
        """
        pool = self.tree.pool
        page = pool.fetch_page(page_id)
        try:
            raw = bytes(page.data)
            kind = node_type_of(raw)
            if kind in LEAF_TYPES:
                return RLeafNode.from_bytes(raw)
            if kind == INTERIOR_TYPE:
                return RInteriorNode.from_bytes(raw)
            raise IntegrityError(f"unknown node type byte {kind}")
        finally:
            pool.unpin_page(page_id)

    # -- pass ----------------------------------------------------------
    def run(self) -> FsckReport:
        tree = self.tree
        if tree.root_page_id == -1:
            if tree.count != 0:
                self._flag(
                    COUNT_MISMATCH,
                    f"empty tree carries count {tree.count}",
                )
            if tree.leaf_page_ids:
                self._flag(
                    LEAF_CHAIN_BROKEN,
                    "empty tree still lists leaf pages",
                )
            return self.report

        traversal_leaves: List[int] = []
        self._walk(tree.root_page_id, bound=None, leaves=traversal_leaves)
        chain_leaves = self._check_chain()
        if chain_leaves is not None:
            # Packed trees build interiors over consecutive chain groups,
            # so in-order traversal must reproduce the chain exactly;
            # dynamic (Guttman) trees only promise the same leaf *set*.
            agree = (
                traversal_leaves == chain_leaves
                if self.packed
                else set(traversal_leaves) == set(chain_leaves)
            )
            if not agree:
                self._flag(
                    LEAF_CHAIN_BROKEN,
                    f"leaf chain {chain_leaves} disagrees with the leaves "
                    f"reachable from the root {traversal_leaves}",
                )
        return self.report

    def _walk(
        self,
        page_id: int,
        bound: Optional[Rect],
        leaves: List[int],
    ) -> Optional[Rect]:
        """Depth-first structural walk; returns the node's actual coverage."""
        if page_id in self._visited:
            self._flag(
                STRUCTURE_CYCLE,
                "page is referenced more than once",
                page_id=page_id,
            )
            return None
        self._visited.add(page_id)
        self.report.pages_checked += 1

        try:
            node = self._load(page_id)
        except ReproError as exc:
            self._flag(PAGE_CORRUPT, str(exc), page_id=page_id)
            return None

        if isinstance(node, RLeafNode):
            leaves.append(page_id)
            if not node.points:
                return None
            try:
                actual = node.mbr(self.tree.dims)
            except (ReproError, ValueError) as exc:
                self._flag(PAGE_CORRUPT, str(exc), page_id=page_id)
                return None
            if bound is not None and not bound.contains_rect(actual):
                self._flag(
                    MBR_NOT_CONTAINED,
                    f"leaf coverage {actual} escapes the MBR its parent "
                    f"recorded ({bound})",
                    page_id=page_id,
                    view_id=node.view_id,
                )
            return actual

        for child_id, recorded in zip(node.children, node.mbrs):
            if bound is not None and not bound.contains_rect(recorded):
                self._flag(
                    MBR_NOT_CONTAINED,
                    f"child MBR {recorded} escapes parent MBR {bound}",
                    page_id=page_id,
                )
            actual = self._walk(child_id, recorded, leaves)
            if actual is not None and not recorded.contains_rect(actual):
                self._flag(
                    MBR_NOT_CONTAINED,
                    f"recorded MBR {recorded} for child page {child_id} "
                    f"does not contain its actual coverage {actual}",
                    page_id=page_id,
                )
        if not node.mbrs:
            self._flag(
                PAGE_CORRUPT, "interior node with no entries", page_id=page_id
            )
            return None
        return Rect.cover(node.mbrs)

    # -- leaf-chain checks ---------------------------------------------
    def _check_chain(self) -> Optional[List[int]]:
        """Walk the next-leaf chain, enforcing the packing invariants.

        Returns the chain's page ids (None when the chain is unwalkable).
        """
        tree = self.tree
        if not tree.leaf_page_ids:
            self._flag(LEAF_CHAIN_BROKEN, "tree has no leaf page index")
            return None

        chain: List[int] = []
        seen: set[int] = set()
        page_id = tree.leaf_page_ids[0]
        prev_key: Optional[Tuple[int, ...]] = None
        prev_view: Optional[int] = None
        prev_leaf: Optional[Tuple[int, RLeafNode]] = None
        #: view_id -> arity of each completed run, in chain order
        runs: List[Tuple[int, int]] = []
        #: (view_id, first page id, last page id) per run, in chain order
        run_extents: List[Tuple[int, int, int]] = []
        total_entries = 0
        view_entries: Dict[int, int] = {}

        while page_id != -1:
            if page_id in seen:
                self._flag(
                    STRUCTURE_CYCLE,
                    "next-leaf chain revisits a page",
                    page_id=page_id,
                )
                return None
            seen.add(page_id)
            chain.append(page_id)
            try:
                node = self._load(page_id)
            except ReproError as exc:
                self._flag(PAGE_CORRUPT, str(exc), page_id=page_id)
                return None
            if not isinstance(node, RLeafNode):
                self._flag(
                    LEAF_CHAIN_BROKEN,
                    "next-leaf chain points at a non-leaf page",
                    page_id=page_id,
                )
                return None

            self.report.leaves_checked += 1
            total_entries += len(node)
            view_entries[node.view_id] = (
                view_entries.get(node.view_id, 0) + len(node)
            )

            # A new run starts whenever the view id changes; the leaf
            # that closed the previous run is allowed to be partial.
            if prev_view is None or node.view_id != prev_view:
                runs.append((node.view_id, node.arity))
                run_extents.append((node.view_id, page_id, page_id))
                prev_view = node.view_id
            else:
                view_id, first, _last = run_extents[-1]
                run_extents[-1] = (view_id, first, page_id)
                # The *previous* leaf was not the last of its run, so it
                # must have been full.
                if self.packed and prev_leaf is not None:
                    self._check_full(prev_leaf, node)

            self._check_leaf(node, page_id)
            if node.columnar:
                size = columnar_leaf_size(
                    node.points, node.arity, node.n_aggs
                )
                if size > PAGE_SIZE or len(node) > MAX_LEAF_ENTRIES:
                    self._flag(
                        LEAF_OVERFILLED,
                        f"columnar leaf encodes {len(node)} entries to "
                        f"{size} bytes, page size is {PAGE_SIZE}",
                        page_id=page_id,
                        view_id=node.view_id,
                    )
            else:
                cap = leaf_capacity(node.arity, node.n_aggs)
                if len(node) > cap:
                    self._flag(
                        LEAF_OVERFILLED,
                        f"leaf holds {len(node)} entries, capacity is {cap}",
                        page_id=page_id,
                        view_id=node.view_id,
                    )
            if self.packed and len(node) == 0:
                self._flag(
                    LEAF_UNDERFILLED,
                    "packed tree contains an empty leaf",
                    page_id=page_id,
                    view_id=node.view_id,
                )
            prev_leaf = (page_id, node)

            if self.packed:
                prev_key = self._check_sorted(node, page_id, prev_key)

            page_id = node.next_leaf

        self.report.entries_checked += total_entries
        if self.packed:
            if self._check_runs(runs):
                # Extent verification presumes well-formed runs; when
                # views interleave, every extent is wrong for the same
                # root cause, so reporting them would only bury the
                # interleaving violation in noise (so would sizes).
                self._check_extents(run_extents)
                self._check_view_sizes(view_entries)
        if chain != list(tree.leaf_page_ids):
            self._flag(
                LEAF_CHAIN_BROKEN,
                f"next-leaf chain {chain} disagrees with the tree's leaf "
                f"page index {list(tree.leaf_page_ids)}",
            )
        if total_entries != tree.count:
            self._flag(
                COUNT_MISMATCH,
                f"leaves hold {total_entries} entries, tree counter says "
                f"{tree.count}",
            )
        return chain

    def _check_view_sizes(self, view_entries: Dict[int, int]) -> None:
        """Each view's leaf entries against the tree's recorded count
        (the size the router plans with and the catalog saves).  A tree
        that records no counts at all (built outside the leaf writer)
        has nothing to compare, like one without extents."""
        counts = self.tree.view_counts
        if not counts:
            return
        for view_id in sorted(set(counts) | set(view_entries)):
            recorded = counts.get(view_id, 0)
            held = view_entries.get(view_id, 0)
            if recorded != held:
                self._flag(
                    VIEW_SIZE_MISMATCH,
                    f"view {view_id}'s leaves hold {held} entries, its "
                    f"recorded size is {recorded}",
                    view_id=view_id,
                )

    def _check_full(
        self, prev_leaf: Tuple[int, RLeafNode], successor: RLeafNode
    ) -> None:
        """Flag a non-final run leaf that was closed before it was full.

        Row-major leaves are slot-filled: full means ``leaf_capacity``
        entries.  Columnar leaves are byte-filled: full means the
        successor leaf's first entry would no longer have fit.
        """
        fill_page, prev = prev_leaf
        if prev.columnar:
            if not prev.points or not successor.points:
                return
            size = columnar_leaf_size(prev.points, prev.arity, prev.n_aggs)
            next_cost = 8 * prev.n_aggs + sum(
                len(delta_tokens([coord], before)[0])
                for before, coord in zip(prev.points[-1], successor.points[0])
            )
            if (
                next_cost > 0
                and size + next_cost <= PAGE_SIZE
                and len(prev) < MAX_LEAF_ENTRIES
            ):
                self._flag(
                    LEAF_UNDERFILLED,
                    f"non-final columnar leaf of a view run holds {size} "
                    f"encoded bytes; the next run entry ({next_cost} "
                    f"bytes) would still have fit in the {PAGE_SIZE}-byte "
                    f"page",
                    page_id=fill_page,
                    view_id=prev.view_id,
                )
            return
        cap = leaf_capacity(prev.arity, prev.n_aggs)
        if len(prev) < cap:
            self._flag(
                LEAF_UNDERFILLED,
                f"non-final leaf of a view run holds {len(prev)} "
                f"entries, capacity is {cap}",
                page_id=fill_page,
                view_id=prev.view_id,
            )

    def _check_leaf(self, node: RLeafNode, page_id: int) -> None:
        """Per-leaf shape checks: arity, padding elision, value width."""
        dims = self.tree.dims
        if not 0 <= node.arity <= dims:
            self._flag(
                BAD_ARITY,
                f"leaf arity {node.arity} does not fit dimensionality "
                f"{dims}",
                page_id=page_id,
                view_id=node.view_id,
            )
            return
        if self.expected_views is not None:
            expected = self.expected_views.get(node.view_id)
            if expected is None:
                self._flag(
                    UNKNOWN_VIEW,
                    f"leaf belongs to view {node.view_id}, which is not "
                    f"registered on this tree",
                    page_id=page_id,
                    view_id=node.view_id,
                )
            else:
                arity, n_aggs = expected
                if node.arity != arity or node.n_aggs != n_aggs:
                    self._flag(
                        BAD_ARITY,
                        f"leaf stores {node.arity} coords / {node.n_aggs} "
                        f"values; view {node.view_id} requires {arity} / "
                        f"{n_aggs} (compressed-leaf contract)",
                        page_id=page_id,
                        view_id=node.view_id,
                    )
        if not self.packed:
            return
        for point in node.points:
            if any(coord <= 0 for coord in point):
                self._flag(
                    NONPOSITIVE_COORD,
                    f"point {point} stores a non-positive coordinate; the "
                    f"valid mapping elides padding zeros, so stored "
                    f"coordinates must be > 0",
                    page_id=page_id,
                    view_id=node.view_id,
                )
                break

    def _check_sorted(
        self,
        node: RLeafNode,
        page_id: int,
        prev_key: Optional[Tuple[int, ...]],
    ) -> Optional[Tuple[int, ...]]:
        """Enforce strict reversed-coordinate order across the chain."""
        dims = self.tree.dims
        for point in node.points:
            key = sort_key(node.padded_point(point, dims), dims)
            if prev_key is not None and key <= prev_key:
                self._flag(
                    CHAIN_UNSORTED,
                    f"point {point} is out of packing sort order "
                    f"(key {key} <= previous {prev_key})",
                    page_id=page_id,
                    view_id=node.view_id,
                )
                return prev_key
            prev_key = key
        return prev_key

    def _check_extents(
        self, run_extents: List[Tuple[int, int, int]]
    ) -> None:
        """Verify persisted leaf-run extents against the actual chain.

        Trees without recorded extents (dynamic builds, checkpoints
        predating the field) are skipped — the fast path falls back to
        the descent for them, so there is nothing to betray a query.
        """
        recorded = self.tree.view_extents
        if not recorded:
            return
        actual = {
            view_id: (first, last)
            for view_id, first, last in run_extents
        }
        for view_id in sorted(recorded):
            extent = tuple(recorded[view_id])
            found = actual.get(view_id)
            if extent == EMPTY_EXTENT:
                # Explicit zero-row sentinel: valid exactly when the
                # chain really holds no leaves for the view.
                if found is not None:
                    self._flag(
                        RUN_EXTENT_MISMATCH,
                        f"catalog records an empty run, but the leaf "
                        f"chain holds leaves [{found[0]}, {found[1]}] "
                        f"for this view",
                        view_id=view_id,
                    )
                continue
            if found is None:
                self._flag(
                    RUN_EXTENT_MISMATCH,
                    f"catalog records leaf-run extent {extent}, but the "
                    f"leaf chain holds no run for this view",
                    view_id=view_id,
                )
            elif extent != found:
                self._flag(
                    RUN_EXTENT_MISMATCH,
                    f"catalog leaf-run extent {extent} disagrees with the "
                    f"chain's actual run [{found[0]}, {found[1]}]",
                    view_id=view_id,
                )
        for view_id, first, last in run_extents:
            if view_id not in recorded:
                self._flag(
                    RUN_EXTENT_MISMATCH,
                    f"leaf chain holds a run [{first}, {last}] with no "
                    f"recorded extent in the catalog",
                    view_id=view_id,
                )
        # Runs ascend by arity (== view id inside a Cubetree), so the
        # recorded extents must appear at monotonically increasing chain
        # positions when visited in view-id order.
        positions = {
            pid: i for i, pid in enumerate(self.tree.leaf_page_ids)
        }
        prev_end: Optional[int] = None
        for view_id in sorted(recorded):
            first, last = recorded[view_id]
            if (first, last) == EMPTY_EXTENT:
                continue  # zero-row runs occupy no chain positions
            lo = positions.get(first)
            hi = positions.get(last)
            if lo is None or hi is None or lo > hi:
                self._flag(
                    RUN_EXTENT_MISMATCH,
                    f"leaf-run extent [{first}, {last}] does not name an "
                    f"ordered span of the leaf chain",
                    view_id=view_id,
                )
                continue
            if prev_end is not None and lo <= prev_end:
                self._flag(
                    RUN_EXTENT_MISMATCH,
                    f"leaf-run extent [{first}, {last}] overlaps or "
                    f"precedes the previous view's run — runs must be "
                    f"disjoint and in ascending order",
                    view_id=view_id,
                )
            prev_end = hi

    def _check_runs(self, runs: List[Tuple[int, int]]) -> bool:
        """Views must form contiguous runs in ascending arity order.

        Returns True when the run structure is clean (extent checks only
        make sense then).
        """
        ok = True
        seen_views: Dict[int, int] = {}
        prev_arity: Optional[int] = None
        for run_index, (view_id, arity) in enumerate(runs):
            if view_id in seen_views:
                ok = False
                self._flag(
                    VIEW_INTERLEAVED,
                    f"view reappears at run {run_index} after its run "
                    f"{seen_views[view_id]} ended — views must occupy one "
                    f"contiguous run of leaves",
                    view_id=view_id,
                )
                continue
            seen_views[view_id] = run_index
            if prev_arity is not None and arity <= prev_arity:
                ok = False
                self._flag(
                    VIEW_INTERLEAVED,
                    f"run of arity {arity} follows a run of arity "
                    f"{prev_arity}; packed runs must ascend strictly by "
                    f"arity",
                    view_id=view_id,
                )
            prev_arity = arity
        return ok
