"""Property tests of the packing bulk loader (paper Sec. 2.3-2.4).

For arbitrary per-view sorted runs, a packed tree must:

* yield its points in reversed-coordinate sort order when scanned;
* fill every leaf of a view's run to capacity except the run's last leaf;
* keep each view in one contiguous run of leaves, runs ascending by arity;
* write its leaves in ascending page order (the sequential-I/O claim);
* pass the structural verifier (``analysis/fsck.check_tree``).
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.analysis.fsck import check_tree
from repro.rtree.node import leaf_capacity
from repro.rtree.packing import PackedRun, pack_rtree, sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


@st.composite
def packing_inputs(draw):
    """dims + per-view sorted runs (unique positive points, arity==view_id)."""
    dims = draw(st.integers(min_value=1, max_value=4))
    arities = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=dims),
                unique=True, min_size=1, max_size=dims + 1,
            )
        )
    )
    runs = []
    for arity in arities:
        # High n_aggs shrinks leaf capacity, so moderate entry counts
        # still produce multi-leaf runs.
        n_aggs = draw(st.integers(min_value=1, max_value=8))
        if arity == 0:
            points = [()]
        else:
            points = draw(
                st.lists(
                    st.tuples(
                        *[st.integers(min_value=1, max_value=30)] * arity
                    ),
                    unique=True, min_size=1, max_size=150,
                )
            )
            points.sort(key=lambda p: sort_key(p, dims))
        entries = [
            (point, tuple(float(i + j) for j in range(n_aggs)))
            for i, point in enumerate(points)
        ]
        runs.append(PackedRun.from_entries(arity, arity, n_aggs, entries))
    return dims, runs


def run_entries(run):
    """A column run's ``(point, values)`` pairs."""
    return [
        (
            tuple(col[i] for col in run.coords),
            tuple(col[i] for col in run.measures),
        )
        for i in range(run.count)
    ]


@given(packing_inputs())
@settings(max_examples=60, deadline=None)
def test_pack_rtree_preserves_order_and_packs_leaves_full(case):
    dims, runs = case
    pool = BufferPool(DiskManager(), capacity=64)
    tree = pack_rtree(pool, dims, runs, validate=True)

    total = sum(run.count for run in runs)
    assert tree.count == total

    # 1. Reversed-coordinate sort order over the whole leaf chain, and
    #    exactly the input points come back.
    scanned = list(tree.scan_points())
    keys = [sort_key(point, dims) for _vid, point, _vals in scanned]
    assert keys == sorted(keys)
    expected = {
        (run.view_id, tuple(point) + (0,) * (dims - run.arity)): values
        for run in runs
        for point, values in run_entries(run)
    }
    got = {(vid, point): values for vid, point, values in scanned}
    assert got == expected

    # 2. Contiguous view runs, ascending by arity, with every non-final
    #    leaf of a run filled to its compressed capacity.
    leaves = list(tree.scan_leaf_chain())
    run_order = []
    for leaf in leaves:
        if not run_order or run_order[-1] != leaf.view_id:
            run_order.append(leaf.view_id)
    assert run_order == sorted(run_order), "view runs interleaved"
    assert run_order == [run.view_id for run in runs if run.count]
    by_view = {}
    for leaf in leaves:
        by_view.setdefault(leaf.view_id, []).append(leaf)
    for view_id, view_leaves in by_view.items():
        for leaf in view_leaves[:-1]:
            assert len(leaf) == leaf_capacity(leaf.arity, leaf.n_aggs), (
                f"non-final leaf of view {view_id} is not full"
            )

    # 3. Leaves were written to ascending page ids (sequential output).
    assert tree.leaf_page_ids == sorted(tree.leaf_page_ids)

    # 4. The independent structural verifier agrees.
    report = check_tree(
        tree,
        expected_views={
            run.view_id: (run.arity, run.n_aggs) for run in runs
        },
        packed=True,
    )
    assert report.ok, report.format()
    assert report.entries_checked == total


@given(packing_inputs())
@settings(max_examples=20, deadline=None)
def test_packed_tree_survives_cold_cache(case):
    """Order/full-leaf properties hold after flushing + dropping the pool
    (i.e. they are on-disk properties, not in-memory artifacts)."""
    dims, runs = case
    pool = BufferPool(DiskManager(), capacity=64)
    tree = pack_rtree(pool, dims, runs, validate=True)
    pool.flush_all()
    pool.clear()

    keys = [
        sort_key(point, dims) for _vid, point, _vals in tree.scan_points()
    ]
    assert keys == sorted(keys)
    report = check_tree(
        tree,
        expected_views={
            run.view_id: (run.arity, run.n_aggs) for run in runs
        },
        packed=True,
    )
    assert report.ok, report.format()
