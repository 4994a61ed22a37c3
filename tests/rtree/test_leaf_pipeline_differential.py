"""Differential test of the column-native leaf pipeline.

The packer and merge-pack work on column buffers (decode -> splice ->
leaf writer).  What they must produce is defined by the entry-at-a-time
packer they replaced, kept here as a small tuple reference: the same
page bytes, the same extents and leaf chain, and the same buffer-pool
traffic (hence the same simulated I/O), for both leaf formats.  The
codec's table passes are held to the scalar LEB128/zigzag reference the
same way, malformed streams included.
"""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.analysis.fsck import check_tree, verify_tree
from repro.constants import PAGE_SIZE
from repro.errors import InvalidRecordError
from repro.rtree.merge import add_combiner, merge_pack
from repro.rtree.node import (
    MAX_LEAF_ENTRIES,
    RLeafNode,
    columnar_header_size,
    leaf_capacity,
)
from repro.rtree.packing import (
    PackedRun,
    build_interior_levels,
    free_tree,
    pack_rtree,
    sort_key,
)
from repro.rtree.tree import EMPTY_EXTENT, RTree
from repro.settings import override
from repro.storage.buffer import BufferPool
from repro.storage.codec import (
    decode_delta_column,
    delta_tokens,
    encode_delta_column,
    varint_size,
    zigzag_encode,
)
from repro.storage.disk import DiskManager

DIMS = 3


def run_entries(run):
    """A column run's ``(point, values)`` pairs."""
    return [
        (
            tuple(col[i] for col in run.coords),
            tuple(col[i] for col in run.measures),
        )
        for i in range(run.count)
    ]


# ----------------------------------------------------------------------
# the tuple reference: one entry at a time, exactly as it used to be
# ----------------------------------------------------------------------
def columnar_entry_cost(prev_point, point, n_aggs):
    """Encoded bytes one entry adds to a columnar leaf (a leaf's first
    entry, ``prev_point`` None, is delta-coded against 0)."""
    prev = prev_point if prev_point is not None else (0,) * len(point)
    return 8 * n_aggs + sum(
        varint_size(zigzag_encode(coord - before))
        for coord, before in zip(point, prev)
    )


def reference_pack(pool, runs, columnar):
    tree, level = RTree(pool, DIMS), []
    leaf = page = None
    used = 0
    for run in runs:
        first = None
        for point, values in run_entries(run):
            fits = leaf is not None and leaf.view_id == run.view_id
            if fits and columnar:
                inc = columnar_entry_cost(leaf.points[-1], point, run.n_aggs)
                fits = (
                    inc > 0 and used + inc <= PAGE_SIZE
                    and len(leaf.points) < MAX_LEAF_ENTRIES
                )
            elif fits:
                fits = len(leaf.points) < leaf_capacity(run.arity, run.n_aggs)
            if not fits:
                new_page = pool.new_page()
                if leaf is not None:
                    leaf.next_leaf = new_page.page_id
                    level.append((leaf.mbr(DIMS), page.page_id))
                    tree._flush_node(leaf, page)
                leaf = RLeafNode(run.view_id, run.arity, run.n_aggs, columnar)
                page, used = new_page, columnar_header_size(run.arity)
                inc = columnar_entry_cost(None, point, run.n_aggs)
                tree.leaf_page_ids.append(page.page_id)
                tree.owned_page_ids.append(page.page_id)
                first = page.page_id if first is None else first
            leaf.points.append(point)
            leaf.values.append(values)
            used += inc
            tree.count += 1
        tree.view_extents[run.view_id] = (
            EMPTY_EXTENT if first is None else (first, tree.leaf_page_ids[-1])
        )
    if leaf is not None:
        level.append((leaf.mbr(DIMS), page.page_id))
        tree._flush_node(leaf, page)
        build_interior_levels(tree, level)
    return tree


def reference_merge(pool, old_tree, delta_runs, columnar):
    """Two-way tuple merge of the old chain and the delta, then a pack."""
    merged = {}  # (arity, view id, n_aggs) -> {sort key: (point, values)}
    for leaf in old_tree.scan_leaf_chain():
        view = merged.setdefault((leaf.arity, leaf.view_id, leaf.n_aggs), {})
        for point, values in zip(leaf.points, leaf.values):
            view[sort_key(point, DIMS)] = (point, values)
    for run in delta_runs:
        view = merged.setdefault((run.arity, run.view_id, run.n_aggs), {})
        for point, values in run_entries(run):
            key = sort_key(point, DIMS)
            if key in view:
                values = add_combiner(run.view_id, view[key][1], values)
            view[key] = (point, values)
    runs = [
        PackedRun.from_entries(
            view_id, arity, n_aggs, [view[k] for k in sorted(view)]
        )
        for (arity, view_id, n_aggs), view in sorted(merged.items())
        if view
    ]
    new_tree = reference_pack(pool, runs, columnar)
    for view_id in list(old_tree.view_extents) + [r.view_id for r in delta_runs]:
        new_tree.view_extents.setdefault(view_id, EMPTY_EXTENT)
    verify_tree(new_tree)  # merge_pack's REPRO_DEBUG_CHECKS post-condition
    free_tree(pool, old_tree)
    return new_tree


# ----------------------------------------------------------------------
# generated forests
# ----------------------------------------------------------------------
def _run(rng, arity, n_aggs, size, domain):
    """A sorted run of ``size`` distinct points of one view (id = arity)."""
    cells = domain ** arity
    chosen = rng.sample(range(cells), min(size, cells)) if arity else [0][:size]
    points = [
        tuple(cell // domain ** c % domain + 1 for c in range(arity))
        for cell in chosen
    ]
    points.sort(key=lambda point: sort_key(point, DIMS))
    return PackedRun.from_entries(
        arity, arity, n_aggs,
        [
            (point, tuple(float(rng.randint(-9, 99)) for _ in range(n_aggs)))
            for point in points
        ],
    )


@st.composite
def forests(draw):
    """``(old runs, delta runs)``: arities 0-3, 1-3 aggregates per view,
    delta keys that hit stored keys (small domains), views only the
    delta has, and views with no rows at all."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    old, delta = [], []
    for arity in range(DIMS + 1):
        n_aggs = draw(st.integers(1, 3))
        domain = draw(st.sampled_from([6, 40, 300]))
        stored = draw(st.sampled_from([None, 0, 1, 300, 2500]))
        fresh = draw(st.sampled_from([None, 0, 1, 25, 600]))
        if stored is not None:
            old.append(_run(rng, arity, n_aggs, stored, domain))
        if fresh is not None:
            delta.append(_run(rng, arity, n_aggs, fresh, domain))
    return old, delta


def _snapshot(disk, pool, tree):
    pool.flush_all()
    stats = disk.cost_model.stats
    return {
        "pages": [
            bytes(disk.read_page(page_id)) for page_id in tree.owned_page_ids
        ],
        "owned": list(tree.owned_page_ids),
        "chain": list(tree.leaf_page_ids),
        "extents": dict(tree.view_extents),
        "shape": (tree.root_page_id, tree.height, tree.count),
        "io": (
            stats.sequential_reads, stats.random_reads,
            stats.sequential_writes, stats.random_writes,
        ),
        "simulated_ms": stats.simulated_ms,
    }


@pytest.mark.parametrize("fmt", ["row", "columnar"])
@settings(max_examples=60, deadline=None)
@given(forest=forests(), capacity=st.sampled_from([4, 16, 64]))
def test_pack_and_merge_pack_match_the_tuple_reference(fmt, forest, capacity):
    old_runs, delta_runs = forest
    columnar = fmt == "columnar"
    # Small pools make the outcome order-sensitive: one pool call out of
    # place changes which page is evicted, and with it the I/O kinds.
    disk = DiskManager()
    pool = BufferPool(disk, capacity=capacity)
    ref_disk = DiskManager()
    ref_pool = BufferPool(ref_disk, capacity=capacity)
    # debug_checks=True: the merge-pack post-condition still runs.
    with override(leaf_format=fmt, debug_checks=True):
        tree = pack_rtree(pool, DIMS, old_runs)
        ref_tree = reference_pack(ref_pool, old_runs, columnar)
        assert _snapshot(disk, pool, tree) == _snapshot(
            ref_disk, ref_pool, ref_tree
        )
        # fsck reads through the pool, so both sides get one
        assert check_tree(tree).ok and check_tree(ref_tree).ok

        tree = merge_pack(pool, DIMS, tree, delta_runs)
        ref_tree = reference_merge(
            ref_pool, ref_tree, delta_runs, columnar
        )
    assert _snapshot(disk, pool, tree) == _snapshot(
        ref_disk, ref_pool, ref_tree
    )
    assert check_tree(tree).ok, check_tree(tree).format()
    assert all(
        leaf.columnar == columnar for leaf in tree.scan_leaf_chain()
    )


# ----------------------------------------------------------------------
# codec: table passes vs the scalar reference
# ----------------------------------------------------------------------
def scalar_encode(values):
    """LEB128 of zigzagged deltas, one byte at a time."""
    out, prev = bytearray(), 0
    for value in values:
        encoded, prev = zigzag_encode(value - prev), value
        while encoded >= 0x80:
            out.append((encoded & 0x7F) | 0x80)
            encoded >>= 7
        out.append(encoded)
    return bytes(out)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Values whose deltas mix one-, two- and many-byte varints, with long
#: one-byte stretches (the decoder's table pass) between the wide ones.
def _running(deltas):
    values, value = [], 0
    for delta in deltas:
        value = max(INT64_MIN, min(INT64_MAX, value + delta))
        values.append(value)
    return values


columns = st.lists(
    st.one_of(
        st.integers(-70, 70),
        st.integers(-9000, 9000),
        st.integers(INT64_MIN, INT64_MAX),
    ),
    max_size=120,
).map(_running)


@given(columns)
@settings(max_examples=300, deadline=None)
def test_codec_matches_the_scalar_reference(values):
    raw = encode_delta_column(values)
    assert raw == scalar_encode(values)
    assert decode_delta_column(raw, 0, len(raw), len(values)).tolist() == values
    tokens = delta_tokens(values)
    assert b"".join(tokens) == raw
    assert [len(token) for token in tokens] == [
        varint_size(zigzag_encode(value - prev))
        for value, prev in zip(values, [0] + values)
    ]


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=60),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_malformed_streams_still_raise(values, data):
    values.sort()  # a sorted run: mostly one-byte varints, like a leaf
    raw = encode_delta_column(values)
    count = len(values)

    def rejects(buf, n):
        with pytest.raises(InvalidRecordError):
            decode_delta_column(buf, 0, len(buf), n)

    cut = data.draw(st.integers(0, len(raw) - 1))
    rejects(raw[:cut], count)  # truncated
    rejects(raw + b"\x00", count)  # a trailing byte
    rejects(raw, count + 1)  # a value short
    position = data.draw(st.integers(0, len(raw)))
    rejects(raw[:position] + b"\x80" * 10 + b"\x01" + raw[position:], count + 1)
    # two max-magnitude deltas push the running value past int64
    overflow = scalar_encode([INT64_MAX]) * 2
    rejects(raw + overflow, count + 2)
