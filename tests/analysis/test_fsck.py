"""Tests for the structural verifier (cubetree fsck).

Each corruption test takes a freshly packed tree, rewrites one page's
persisted bytes, and asserts the verifier reports exactly the expected
structured finding.
"""

import pytest

from repro.analysis import fsck
from repro.analysis.fsck import (
    FsckReport,
    check_cubetree,
    check_tree,
    verify_tree,
)
from repro.errors import IntegrityError
from repro.relational.view import ViewDefinition
from repro.rtree.geometry import Rect
from repro.rtree.merge import merge_pack
from repro.rtree.node import RInteriorNode, RLeafNode, leaf_capacity
from repro.rtree.packing import PackedRun, pack_rtree
from repro.rtree.tree import RTree
from repro.core.cubetree import Cubetree
from repro.settings import Settings, current, override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

DIMS = 2
CAP1 = leaf_capacity(1, 1)  # arity-1 leaves (254 at 4 KiB pages)
CAP2 = leaf_capacity(2, 1)  # arity-2 leaves


@pytest.fixture(autouse=True)
def _row_leaves():
    """The fixtures below count leaf slots (CAP1/CAP2), so they pin the
    row format; fsck's columnar walk is tests/rtree/test_columnar_leaf."""
    with override(leaf_format="row"):
        yield


def make_pool(capacity=2048):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def packed_tree(pool, n1=2 * CAP1 + 92, n2=CAP2 + 31):
    """A 2-d packed tree: view 1 (arity 1) then view 2 (arity 2)."""
    run1 = PackedRun.from_entries(
        1, 1, 1, [((i,), (1.0,)) for i in range(1, n1 + 1)]
    )
    entries2 = [
        ((x, y), (1.0,))
        for y in range(1, 21)
        for x in range(1, n2 // 20 + 2)
    ][:n2]
    run2 = PackedRun.from_entries(2, 2, 1, entries2)
    return pack_rtree(pool, DIMS, [run1, run2])


def rewrite_leaf(pool, page_id, mutate):
    """Mutate one persisted leaf page in place."""
    page = pool.fetch_page(page_id)
    node = RLeafNode.from_bytes(bytes(page.data))
    mutate(node)
    page.data[:] = node.to_bytes()
    page.cached_obj = None
    pool.unpin_page(page_id, dirty=True)


def rewrite_interior(pool, page_id, mutate):
    """Mutate one persisted interior page in place."""
    page = pool.fetch_page(page_id)
    node = RInteriorNode.from_bytes(bytes(page.data))
    mutate(node)
    page.data[:] = node.to_bytes()
    page.cached_obj = None
    pool.unpin_page(page_id, dirty=True)


# ----------------------------------------------------------------------
# clean trees
# ----------------------------------------------------------------------
def test_fresh_packed_tree_is_clean():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    report = check_tree(tree)
    assert report.ok
    assert report.codes() == []
    assert report.trees_checked == 1
    assert report.leaves_checked == len(tree.leaf_page_ids)
    assert report.entries_checked == tree.count
    assert report.pages_checked > report.leaves_checked  # interiors too


def test_empty_tree_is_clean():
    _disk, pool = make_pool()
    tree = pack_rtree(pool, DIMS, [])
    assert check_tree(tree).ok


def test_dynamic_tree_passes_structural_checks_only():
    _disk, pool = make_pool()
    tree = RTree(pool, 2)
    for i in range(400):
        tree.insert((i * 7 % 101 + 1, i * 13 % 89 + 1), (1.0,))
    # Guttman trees have ~50-70% utilization: the packing checks would
    # (correctly) scream, the structural half must stay green.
    assert check_tree(tree, packed=False).ok
    assert not check_tree(tree, packed=True).ok


def test_report_merge_accumulates():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    total = FsckReport()
    total.merge(check_tree(tree))
    total.merge(check_tree(tree))
    assert total.trees_checked == 2
    assert total.entries_checked == 2 * tree.count


# ----------------------------------------------------------------------
# corruption fixtures — each must produce exactly the expected finding
# ----------------------------------------------------------------------
def test_underfilled_leaf_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    first_leaf = tree.leaf_page_ids[0]

    def chop(node):
        del node.points[-10:]
        del node.values[-10:]

    rewrite_leaf(pool, first_leaf, chop)
    # Keep the counters honest: isolate the fill check.
    tree.count -= 10
    tree.view_counts[1] -= 10
    report = check_tree(tree)
    assert report.codes() == [fsck.LEAF_UNDERFILLED]
    violation = report.violations[0]
    assert violation.page_id == first_leaf
    assert violation.view_id == 1
    assert str(CAP1) in violation.message


def test_interleaved_views_are_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    # View 1 occupies three leaves; relabel the middle one so the run is
    # broken in two by a foreign view.
    middle_leaf = tree.leaf_page_ids[1]

    def relabel(node):
        node.view_id = 9

    rewrite_leaf(pool, middle_leaf, relabel)
    report = check_tree(tree)
    assert report.violations
    assert set(report.codes()) == {fsck.VIEW_INTERLEAVED}
    assert any(v.view_id == 1 for v in report.violations)


def test_broken_interior_mbr_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    root = tree.root_page_id
    assert root not in tree.leaf_page_ids  # fixture needs an interior root

    def shrink_first_child(node):
        mbr = node.mbrs[0]
        node.mbrs[0] = Rect(
            mbr.lows, (mbr.highs[0] - 1,) + mbr.highs[1:]
        )

    rewrite_interior(pool, root, shrink_first_child)
    report = check_tree(tree)
    assert report.violations
    assert set(report.codes()) == {fsck.MBR_NOT_CONTAINED}


def test_count_mismatch_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    tree.count += 5
    report = check_tree(tree)
    assert report.codes() == [fsck.COUNT_MISMATCH]


def test_nonpositive_coordinate_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    last_leaf = tree.leaf_page_ids[-1]

    def zero_out(node):
        node.points[-1] = (0,) * len(node.points[-1])

    rewrite_leaf(pool, last_leaf, zero_out)
    report = check_tree(tree)
    assert fsck.NONPOSITIVE_COORD in report.codes()


def test_verify_tree_raises_integrity_error():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    rewrite_leaf(pool, tree.leaf_page_ids[1], lambda n: setattr(n, "view_id", 9))
    with pytest.raises(IntegrityError, match="view-interleaved"):
        verify_tree(tree, context="test")
    # The context string must survive into the error message.
    with pytest.raises(IntegrityError, match="test:"):
        verify_tree(tree, context="test")


# ----------------------------------------------------------------------
# cubetree-level checks (expected view shapes)
# ----------------------------------------------------------------------
def cubetree_fixture(pool):
    views = [
        ViewDefinition("V_a", ("a",)),
        ViewDefinition("V_ab", ("a", "b")),
    ]
    cube = Cubetree(pool, 2, views)
    cube.build({
        "V_a": [(i, float(i)) for i in range(1, 40)],
        "V_ab": [(i, j, 1.0) for i in range(1, 7) for j in range(1, 7)],
    })
    return cube


def test_check_cubetree_clean():
    _disk, pool = make_pool()
    cube = cubetree_fixture(pool)
    assert check_cubetree(cube).ok


def test_unregistered_view_is_reported():
    _disk, pool = make_pool()
    cube = cubetree_fixture(pool)
    # Both views fit one leaf each; relabel the arity-2 leaf as a view
    # id this Cubetree never registered.
    last_leaf = cube.tree.leaf_page_ids[-1]
    rewrite_leaf(pool, last_leaf, lambda n: setattr(n, "view_id", 5))
    report = check_cubetree(cube)
    assert fsck.UNKNOWN_VIEW in report.codes()


# ----------------------------------------------------------------------
# debug flag + merge-pack post-condition
# ----------------------------------------------------------------------
def test_debug_flag_defaults_off():
    assert not Settings.from_env({}).debug_checks
    assert Settings.from_env({"REPRO_DEBUG_CHECKS": "1"}).debug_checks
    assert not Settings.from_env({"REPRO_DEBUG_CHECKS": "false"}).debug_checks
    with override(debug_checks=True):
        assert current().debug_checks


def test_merge_pack_verifies_under_debug_flag():
    _disk, pool = make_pool()
    tree = packed_tree(pool, n1=300, n2=100)
    delta = [
        PackedRun.from_entries(1, 1, 1, [((i,), (2.0,)) for i in range(250, 351)])
    ]
    with override(debug_checks=True):
        merged = merge_pack(pool, DIMS, tree, delta)
    assert check_tree(merged).ok
    assert merged.count == 300 + 100 + 101 - 51  # 51 keys overlap


def test_cubetree_build_verifies_under_debug_flag():
    _disk, pool = make_pool()
    with override(debug_checks=True):
        cube = cubetree_fixture(pool)
        cube.update({"V_a": [(100, 1.0)]})
    assert check_cubetree(cube).ok


# ----------------------------------------------------------------------
# persisted leaf-run extents vs the actual leaf chain
# ----------------------------------------------------------------------
def test_fresh_extents_verify_clean():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    assert sorted(tree.view_extents) == [1, 2]
    assert check_tree(tree).ok


def test_tampered_extent_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    first, _last = tree.view_extents[1]
    # Catalog claims view 1's run ends one leaf early.
    tree.view_extents[1] = (first, tree.leaf_page_ids[0])
    report = check_tree(tree)
    assert report.codes() == [fsck.RUN_EXTENT_MISMATCH]
    assert report.violations[0].view_id == 1
    assert "disagrees" in report.violations[0].message


def test_extent_for_absent_run_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    tree.view_extents[7] = tree.view_extents[1]
    report = check_tree(tree)
    codes = report.codes()
    assert fsck.RUN_EXTENT_MISMATCH in codes
    assert any(
        v.view_id == 7 and "no run" in v.message
        for v in report.violations
    )


def test_run_without_recorded_extent_is_reported():
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    del tree.view_extents[2]
    report = check_tree(tree)
    assert fsck.RUN_EXTENT_MISMATCH in report.codes()
    assert any(
        "no recorded extent" in v.message for v in report.violations
    )


def test_extents_absent_entirely_is_legacy_clean():
    """Dynamic builds and pre-extent checkpoints record nothing; the
    fast path falls back to the descent, so fsck stays green."""
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    tree.view_extents = {}
    assert check_tree(tree).ok


def test_interleaving_suppresses_extent_findings():
    """When the runs themselves are broken, every extent is wrong for
    the same root cause — only the interleaving must be reported."""
    _disk, pool = make_pool()
    tree = packed_tree(pool)
    rewrite_leaf(
        pool, tree.leaf_page_ids[1], lambda n: setattr(n, "view_id", 9)
    )
    report = check_tree(tree)
    assert set(report.codes()) == {fsck.VIEW_INTERLEAVED}
