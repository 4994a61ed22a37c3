"""Oracle for column-native run preparation.

``prepare_packed_runs`` sorts each view's state rows once and transposes
them straight into coordinate and value columns.  The reference below is
the entry-tuple preparation it replaced: every row coerced to a
``(point, values)`` pair, the pairs sorted by ``sort_key``, then turned
into columns.  Bulk load and merge-pack through either must write the
same pages in the same pool-call order.
"""

from array import array

import pytest

import repro.core.cubetree as cubetree
from repro.core.engine import CubetreeEngine
from repro.errors import MappingError
from repro.experiments.common import PAPER_REPLICA_ORDERS, PAPER_VIEW_SPECS
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.rtree.packing import PackedRun, sort_key
from repro.settings import override
from repro.warehouse.tpcd import TPCDGenerator

#: Six state columns per row; the price ones are non-integral.
AGGREGATES = (
    AggSpec(AggFunc.SUM, "quantity"),
    AggSpec(AggFunc.COUNT),
    AggSpec(AggFunc.AVG, "extendedprice"),
    AggSpec(AggFunc.MIN, "extendedprice"),
    AggSpec(AggFunc.MAX, "quantity"),
)


def reference_prepare(dims, views, data):
    """The entry-tuple preparation, one ``(point, values)`` per row."""
    runs = []
    for view in sorted(views, key=lambda v: v.arity):
        rows = data.get(view.name)
        if rows is None:
            continue
        arity, n_aggs = view.arity, view.total_state_width
        entries = [
            (
                tuple(int(value) for value in row[:arity]),
                tuple(float(value) for value in row[arity:]),
            )
            for row in rows
        ]
        entries.sort(key=lambda e: sort_key(e[0], dims))
        coords = [array("q", [p[c] for p, _ in entries]) for c in range(arity)]
        measures = [
            array("d", [v[m] for _, v in entries]) for m in range(n_aggs)
        ]
        runs.append(
            PackedRun(arity, arity, n_aggs, coords, measures, len(entries))
        )
    return runs


def _state(engine):
    """Everything a build or merge-pack leaves behind, per shard."""
    shards = []
    for shard in engine.shards:
        trees = [
            (
                tree.tree.root_page_id,
                tree.tree.height,
                tree.tree.count,
                list(tree.tree.leaf_page_ids),
                dict(tree.tree.view_extents),
            )
            for tree in shard.require_forest().cubetrees
        ]
        stats = shard.disk.cost_model.stats
        shards.append(
            (
                trees,
                dict(shard.disk._pages),
                (
                    stats.sequential_reads,
                    stats.random_reads,
                    stats.sequential_writes,
                    stats.random_writes,
                ),
                stats.simulated_ms,
            )
        )
    return shards


def _fractional(facts):
    """The facts with a non-integral price (the generator's are whole)."""
    return [(*row[:-1], row[-1] / 7) for row in facts]


def _load_and_update(warehouse, increment, shards):
    engine = CubetreeEngine(warehouse.schema, buffer_pages=64, shards=shards)
    engine.materialize(
        [ViewDefinition(name, attrs, AGGREGATES)
         for name, attrs in PAPER_VIEW_SPECS],
        _fractional(warehouse.facts),
        replicate={"V_psc": PAPER_REPLICA_ORDERS},
    )
    loaded = _state(engine)
    engine.update(_fractional(increment))
    return loaded, _state(engine)


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("leaf_format", ["row", "columnar"])
def test_column_runs_match_the_entry_reference(
    monkeypatch, leaf_format, shards
):
    """The paper's views (arities 0-3 in 3-d trees) with five aggregates
    each, plus both V_psc replicas, loaded and then merge-packed with a
    10% increment."""
    generator = TPCDGenerator(scale_factor=0.001, seed=5, include_price=True)
    warehouse = generator.generate()
    increment = generator.generate_increment(0.1)
    with override(leaf_format=leaf_format):
        loaded, updated = _load_and_update(warehouse, increment, shards)
        monkeypatch.setattr(cubetree, "prepare_packed_runs", reference_prepare)
        ref_loaded, ref_updated = _load_and_update(
            warehouse, increment, shards
        )
    assert all(tree[2] for shard in loaded for tree in shard[0])
    for got, want in zip(loaded + updated, ref_loaded + ref_updated):
        trees, pages, ios, simulated_ms = got
        assert trees == want[0]
        assert pages == want[1]
        assert ios == want[2]
        assert simulated_ms == want[3]


def test_prepare_rejects_rows_of_the_wrong_width():
    view = ViewDefinition("V_ps", ("partkey", "suppkey"))
    with pytest.raises(MappingError, match="V_ps"):
        cubetree.prepare_packed_runs(3, [view], {"V_ps": [(2, 1, 4.0), (1, 1)]})
