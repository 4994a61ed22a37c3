"""View sizes and page counts against a walk of the pages themselves.

The engine never walks a tree to count: ``RTree.num_pages`` is the
owned-page list and view sizes are the packer's per-view entry counts
(restored from the catalog on reopen).  This oracle walks the leaf
chain's headers and the tree from its root, after a build, after a
merge-pack and after a reopen, for both leaf formats and 1 and 2
shards.
"""

import pytest

from repro.core.engine import CubetreeEngine
from repro.core.persistence import load_any_engine, save_database
from repro.rtree.node import LEAF_TYPES, RInteriorNode, leaf_header, node_type_of
from repro.settings import override
from repro.warehouse.tpcd import TPCDGenerator
from repro.warehouse.views import paper_replicas, paper_views


def _walk_pages(tree, page_id):
    page = tree.pool.fetch_page(page_id)
    try:
        raw = bytes(page.data)
    finally:
        tree.pool.unpin_page(page_id)
    if node_type_of(raw) in LEAF_TYPES:
        return 1
    children = RInteriorNode.from_bytes(raw).children
    return 1 + sum(_walk_pages(tree, child) for child in children)


def _walk_sizes(cubetree):
    counts = {}
    tree = cubetree.tree
    page_id = tree.leaf_page_ids[0] if tree.leaf_page_ids else -1
    while page_id != -1:
        page = tree.pool.fetch_page(page_id)
        try:
            _kind, count, view_id, _arity, _n_aggs, page_id = leaf_header(
                page.data
            )
        finally:
            tree.pool.unpin_page(page.page_id)
        counts[view_id] = counts.get(view_id, 0) + count
    return {view.name: counts.get(view.arity, 0) for view in cubetree.views}


def _assert_matches_walk(engine):
    total = {}
    for shard in engine.shards:
        forest = shard.require_forest()
        walked = {}
        for cubetree in forest.cubetrees:
            tree = cubetree.tree
            pages = 0 if tree.root_page_id == -1 else _walk_pages(
                tree, tree.root_page_id
            )
            assert cubetree.num_pages == pages
            walked.update(_walk_sizes(cubetree))
        assert forest.view_sizes() == walked
        for name, size in walked.items():
            total[name] = total.get(name, 0) + size
    assert engine.view_sizes() == total


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("leaf_format", ["row", "columnar"])
def test_sizes_and_pages_match_a_walk(tmp_path, leaf_format, shards):
    generator = TPCDGenerator(scale_factor=0.0005, seed=11)
    data = generator.generate()
    with override(leaf_format=leaf_format):
        engine = CubetreeEngine(data.schema, buffer_pages=64, shards=shards)
        engine.materialize(paper_views(), data.facts, paper_replicas())
        _assert_matches_walk(engine)

        engine.update(generator.generate_increment(0.1, stream="oracle-1"))
        _assert_matches_walk(engine)

        directory = str(tmp_path / "db")
        save_database(engine, directory)
        reopened = load_any_engine(directory)
        _assert_matches_walk(reopened)

        reopened.update(generator.generate_increment(0.1, stream="oracle-2"))
        _assert_matches_walk(reopened)
