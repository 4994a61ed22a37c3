"""The v3 columnar leaf format and the explicit empty-run extent.

Covers the format gate, encode/decode round trips (including arity 0
and int64-extreme coordinates), corrupt-page decoding, the row-vs-
columnar pack differential (identical entries, fewer pages), fsck's
columnar leaf walk, and the ``EMPTY_EXTENT`` sentinel for zero-row
views.
"""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.analysis.fsck import check_tree
from repro.constants import PAGE_SIZE
from repro.errors import ConfigError, InvalidRecordError, StorageError
from repro.rtree.geometry import Rect
from repro.rtree.node import (
    LEAF_COLUMNAR_TYPE,
    LEAF_TYPE,
    RLeafNode,
    columnar_leaf_size,
)
from repro.rtree.packing import PackedRun, pack_rtree, sort_key
from repro.rtree.tree import EMPTY_EXTENT
from repro.settings import Settings, current, override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

INT64_MAX = 2**63 - 1


def make_pool(capacity=256):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def two_view_runs(dims=3, n_1d=600, n_2d=24):
    one_d = [((i * 7,), (float(i),)) for i in range(1, n_1d + 1)]
    two_d = [
        ((x, y), (float(x + y),))
        for x in range(1, n_2d + 1)
        for y in range(1, n_2d + 1)
    ]
    return [
        PackedRun.from_entries(
            1, 1, 1, sorted(one_d, key=lambda e: sort_key(e[0], dims))
        ),
        PackedRun.from_entries(
            2, 2, 1, sorted(two_d, key=lambda e: sort_key(e[0], dims))
        ),
    ]


# ----------------------------------------------------------------------
# gate
# ----------------------------------------------------------------------
def test_format_gate_defaults_to_columnar():
    assert Settings.from_env({}).leaf_format == "columnar"


def test_format_gate_env():
    pinned = Settings.from_env({"REPRO_LEAF_FORMAT": "row"})  # explicit pin
    assert pinned.leaf_format == "row"
    with override(leaf_format="row"):
        with override(leaf_format="columnar"):  # innermost override wins
            assert current().leaf_format == "columnar"
        assert current().leaf_format == "row"


def test_format_gate_rejects_unknown():
    with pytest.raises(ConfigError):
        with override(leaf_format="parquet"):
            pass
    with pytest.raises(ConfigError, match="REPRO_LEAF_FORMAT"):
        Settings.from_env({"REPRO_LEAF_FORMAT": "parquet"})


# ----------------------------------------------------------------------
# leaf round trip
# ----------------------------------------------------------------------
@st.composite
def columnar_leaves(draw):
    arity = draw(st.integers(min_value=0, max_value=5))
    n_aggs = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=48))
    node = RLeafNode(
        view_id=arity, arity=arity, n_aggs=n_aggs, columnar=True
    )
    node.next_leaf = draw(st.one_of(st.just(-1), st.integers(0, 2**40)))
    coords = st.integers(min_value=1, max_value=INT64_MAX)
    for _ in range(count):
        node.points.append(tuple(draw(coords) for _ in range(arity)))
        node.values.append(
            tuple(
                draw(st.floats(allow_nan=False, allow_infinity=False))
                for _ in range(n_aggs)
            )
        )
    return node


@given(columnar_leaves())
@settings(max_examples=120, deadline=None)
def test_columnar_leaf_round_trip(node):
    if columnar_leaf_size(node.points, node.arity, node.n_aggs) > PAGE_SIZE:
        with pytest.raises(StorageError):
            node.to_bytes()
        return
    raw = node.to_bytes()
    assert raw[0] == LEAF_COLUMNAR_TYPE
    back = RLeafNode.from_bytes(raw)
    assert back.columnar
    assert back.view_id == node.view_id
    assert back.arity == node.arity
    assert back.n_aggs == node.n_aggs
    assert back.next_leaf == node.next_leaf
    assert back.points == node.points
    assert back.values == node.values


def test_columnar_beats_row_for_clustered_coords():
    row = RLeafNode(view_id=2, arity=2, n_aggs=1)
    col = RLeafNode(view_id=2, arity=2, n_aggs=1, columnar=True)
    for i in range(100):
        point, values = (5, 1000 + i), (1.0,)
        row.points.append(point)
        row.values.append(values)
        col.points.append(point)
        col.values.append(values)
    assert columnar_leaf_size(col.points, 2, 1) < len(row.to_bytes())


def test_corrupt_columnar_page_raises_typed_error():
    node = RLeafNode(view_id=1, arity=1, n_aggs=1, columnar=True)
    for i in range(1, 20):
        node.points.append((i * 3,))
        node.values.append((float(i),))
    raw = bytearray(node.to_bytes())
    # Truncate below the declared column lengths (past the header).
    with pytest.raises(InvalidRecordError):
        RLeafNode.from_bytes(bytes(raw[:24]))
    # Declare a column longer than the page holds.
    import struct

    struct.pack_into("<H", raw, 17, 0xFFFF)
    with pytest.raises(InvalidRecordError):
        RLeafNode.from_bytes(bytes(raw))


# ----------------------------------------------------------------------
# pack differential + fsck
# ----------------------------------------------------------------------
def _scan(tree):
    return [
        (leaf.view_id, point, values)
        for leaf in tree.scan_leaf_chain()
        for point, values in zip(leaf.points, leaf.values)
    ]


def test_columnar_pack_matches_row_pack_and_shrinks():
    dims = 3
    _disk, pool_row = make_pool()
    with override(leaf_format="row"):
        row_tree = pack_rtree(pool_row, dims, two_view_runs(dims))

    _disk2, pool_col = make_pool()
    with override(leaf_format="columnar"):
        col_tree = pack_rtree(pool_col, dims, two_view_runs(dims))

    assert _scan(row_tree) == _scan(col_tree)
    assert col_tree.num_pages < row_tree.num_pages
    assert dict(col_tree.view_extents).keys() == dict(
        row_tree.view_extents
    ).keys()
    # Every columnar leaf actually used the v3 encoding.
    assert all(leaf.columnar for leaf in col_tree.scan_leaf_chain())
    assert 0.0 < col_tree.leaf_utilization() <= 1.0


def test_fsck_accepts_columnar_tree():
    _disk, pool = make_pool()
    with override(leaf_format="columnar"):
        tree = pack_rtree(pool, 3, two_view_runs())
    report = check_tree(tree)
    assert report.ok, report.format()


def test_run_scan_identical_across_formats():
    dims = 3
    _disk, pool_row = make_pool()
    with override(leaf_format="row"):
        row_tree = pack_rtree(pool_row, dims, two_view_runs(dims))
    _disk2, pool_col = make_pool()
    with override(leaf_format="columnar"):
        col_tree = pack_rtree(pool_col, dims, two_view_runs(dims))
    def run_entries(tree, view_id):
        return [
            (point, values)
            for leaf in tree._scan_leaves(*tree.run_bounds(view_id))
            for point, values in zip(leaf.points, leaf.values)
        ]

    for view_id in (1, 2):
        assert run_entries(row_tree, view_id) == run_entries(
            col_tree, view_id
        )


# ----------------------------------------------------------------------
# empty extents
# ----------------------------------------------------------------------
def test_zero_row_view_records_empty_extent():
    _disk, pool = make_pool()
    runs = two_view_runs()
    runs.insert(0, PackedRun.from_entries(0, 0, 1, []))  # present but empty apex view
    tree = pack_rtree(pool, 3, runs)
    assert tree.view_extents[0] == EMPTY_EXTENT
    assert tree.run_bounds(0) == (0, -1)
    assert list(tree._scan_leaves(*tree.run_bounds(0))) == []
    assert tree.search_run_group(0, [(Rect((0,) * 3, (0,) * 3), (), ())]) == [[]]
    report = check_tree(tree)
    assert report.ok, report.format()


def test_fsck_flags_nonempty_chain_behind_empty_extent():
    _disk, pool = make_pool()
    tree = pack_rtree(pool, 3, two_view_runs())
    tree.view_extents[1] = EMPTY_EXTENT
    report = check_tree(tree)
    assert not report.ok
    assert "run-extent-mismatch" in report.codes()


def test_all_views_empty_builds_empty_tree():
    _disk, pool = make_pool()
    tree = pack_rtree(
        pool, 3,
        [PackedRun.from_entries(1, 1, 1, []), PackedRun.from_entries(2, 2, 1, [])],
    )
    assert tree.view_extents == {1: EMPTY_EXTENT, 2: EMPTY_EXTENT}
    assert len(tree) == 0
    assert list(tree.scan_leaf_chain()) == []
    assert check_tree(tree).ok
