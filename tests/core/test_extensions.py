"""Tests for capabilities the paper sketches beyond the main experiments.

* Views from *different fact tables* sharing one Cubetree ("one may
  visualize an index containing arbitrary aggregate data, originating even
  from different fact tables", Sec. 2.2).
* File-backed disks: "bytes on disk" is literal, and the data round-trips
  through a real file.
* Multiple aggregate functions per point (footnote 3).
"""

import os

from repro.core.cubetree import Cubetree
from repro.core.engine import CubetreeEngine
from repro.query.slice import SliceQuery
from repro.relational.executor import AggFunc, AggSpec
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.warehouse.tpcd import TPCDGenerator


def test_views_from_different_fact_tables_share_a_cubetree():
    """A sales view (arity 2) and a returns view (arity 1) from two
    different fact tables coexist in one index space."""
    disk = DiskManager()
    pool = BufferPool(disk, capacity=128)
    sales = ViewDefinition("V_sales_ps", ("partkey", "suppkey"))
    returns = ViewDefinition(
        "V_returns_p", ("partkey",),
        aggregates=(AggSpec(AggFunc.SUM, "returned_qty"),),
    )
    tree = Cubetree(pool, 2, [sales, returns])
    tree.build({
        "V_sales_ps": [(1, 1, 50.0), (2, 1, 30.0)],
        "V_returns_p": [(1, 5.0), (3, 2.0)],
    })
    assert dict(block_rows(tree.query("V_sales_ps", {"suppkey": 1}))) == {
        (1, 1): (50.0,), (2, 1): (30.0,),
    }
    assert dict(block_rows(tree.query("V_returns_p", {}))) == {
        (1,): (5.0,), (3,): (2.0,),
    }
    # Independent updates per fact table's delta.
    tree.update({"V_returns_p": [(1, 1.0)]})
    assert dict(block_rows(tree.query("V_returns_p", {})))[(1,)] == (6.0,)
    assert dict(block_rows(tree.query("V_sales_ps", {})))[(1, 1)] == (50.0,)


def test_engine_on_file_backed_disk(tmp_path):
    """The Cubetree engine runs unchanged on a real file; bytes on disk
    are literal."""
    path = str(tmp_path / "cubetrees.db")
    data = TPCDGenerator(scale_factor=0.0005, seed=3).generate()
    disk = DiskManager(path=path)
    engine = CubetreeEngine(data.schema, disks=[disk], buffer_pages=64)
    views = [ViewDefinition("V_ps", ("partkey", "suppkey")),
             ViewDefinition("V_none", ())]
    report = engine.materialize(views, data.facts)
    engine.pool.flush_all()

    assert os.path.getsize(path) > 0
    # Page accounting matches the physical file (modulo trailing pages
    # that were allocated but hold empty structures).
    assert os.path.getsize(path) <= disk.bytes_allocated + 4096

    total = engine.query(SliceQuery((), ())).scalar()
    assert total == float(sum(r[-1] for r in data.facts))
    disk.delete_backing_file()
    assert not os.path.exists(path)


def test_multiple_aggregates_per_point_end_to_end():
    """Footnote 3: points carry several aggregate functions at once."""
    data = TPCDGenerator(scale_factor=0.0005, seed=5).generate()
    aggs = (
        AggSpec(AggFunc.SUM, "quantity"),
        AggSpec(AggFunc.COUNT),
        AggSpec(AggFunc.MIN, "quantity"),
        AggSpec(AggFunc.MAX, "quantity"),
        AggSpec(AggFunc.AVG, "quantity"),
    )
    views = [ViewDefinition("V_s", ("suppkey",), aggregates=aggs)]
    engine = CubetreeEngine(data.schema)
    engine.materialize(views, data.facts)

    suppkey = data.facts[0][1]
    result = engine.query(SliceQuery((), (("suppkey", suppkey),)))
    quantities = [float(r[3]) for r in data.facts if r[1] == suppkey]
    row = result.rows[0]
    assert row[0] == sum(quantities)              # sum
    assert row[1] == len(quantities)              # count
    assert row[2] == min(quantities)              # min
    assert row[3] == max(quantities)              # max
    assert abs(row[4] - sum(quantities) / len(quantities)) < 1e-9  # avg


def test_multiple_aggregates_survive_merge_pack():
    data = TPCDGenerator(scale_factor=0.0005, seed=6)
    base = data.generate()
    delta = data.generate_increment(0.2)
    aggs = (AggSpec(AggFunc.SUM, "quantity"), AggSpec(AggFunc.COUNT),
            AggSpec(AggFunc.MIN, "quantity"), AggSpec(AggFunc.MAX, "quantity"))
    views = [ViewDefinition("V_s", ("suppkey",), aggregates=aggs)]
    engine = CubetreeEngine(base.schema)
    engine.materialize(views, base.facts)
    engine.update(delta)

    all_rows = list(base.facts) + list(delta)
    suppkey = all_rows[0][1]
    quantities = [float(r[3]) for r in all_rows if r[1] == suppkey]
    row = engine.query(SliceQuery((), (("suppkey", suppkey),))).rows[0]
    assert row == (sum(quantities), float(len(quantities)),
                   min(quantities), max(quantities))


def test_multi_measure_views_end_to_end():
    """Cubetree engine serving views over two measure columns."""
    gen = TPCDGenerator(scale_factor=0.0005, seed=31, include_price=True)
    data = gen.generate()
    views = [
        ViewDefinition(
            "V_s", ("suppkey",),
            aggregates=(AggSpec(AggFunc.SUM, "quantity"),
                        AggSpec(AggFunc.SUM, "extendedprice")),
        ),
        ViewDefinition(
            "V_none", (),
            aggregates=(AggSpec(AggFunc.SUM, "quantity"),
                        AggSpec(AggFunc.SUM, "extendedprice")),
        ),
    ]
    engine = CubetreeEngine(data.schema)
    engine.materialize(views, data.facts)

    result = engine.query(SliceQuery((), ()))
    assert result.rows == [(
        float(sum(r[3] for r in data.facts)),
        float(sum(r[4] for r in data.facts)),
    )]

    # Merge-pack keeps both measures consistent.
    delta = gen.generate_increment(0.2)
    engine.update(delta)
    all_rows = list(data.facts) + list(delta)
    result = engine.query(SliceQuery((), ()))
    assert result.rows == [(
        float(sum(r[3] for r in all_rows)),
        float(sum(r[4] for r in all_rows)),
    )]


def test_multi_measure_sql_binding():
    from repro.sql import parse_view

    gen = TPCDGenerator(scale_factor=0.0005, seed=31, include_price=True)
    data = gen.generate()
    view = parse_view(
        "select suppkey, sum(quantity), avg(extendedprice) from F "
        "group by suppkey",
        data.schema, "V_rev",
    )
    assert view.aggregates[1].attribute == "extendedprice"
