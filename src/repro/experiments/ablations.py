"""Ablations for the design choices the paper argues for.

Six studies, each isolating one mechanism:

* ``run_sort_order``      — low-coordinate sort vs Hilbert curve: the
  space-filling curve interleaves views, killing contiguous runs and
  therefore leaf compression (Sec. 2.4's reason for rejecting [FR89]).
* ``run_compression``     — compressed vs uncompressed leaves: storing
  only a view's own coordinates shrinks the tree.
* ``run_mapping_policy``  — SelectMapping vs one-tree-per-view: the
  minimal forest needs fewer pages and hits the buffer more often.
* ``run_packing``         — packed bulk load vs dynamic (Guttman)
  inserts: utilization, size, write pattern, build cost.
* ``run_replication``     — replicas of the apex view on/off: query
  time vs storage trade.
* ``run_buffer_sensitivity`` — buffer-pool size vs Cubetree query cost
  (the Sec. 2.4 hit-ratio argument).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.engine import CubetreeEngine
from repro.core.forest import CubetreeForest
from repro.core.mapping import CubetreeAllocation, TreeAssignment, select_mapping
from repro.experiments.common import (
    FIG12_NODES,
    ExperimentConfig,
    build_warehouse,
    fmt_duration,
    paper_views,
    paper_replicas,
    print_table,
)
from repro.query.generator import RandomQueryGenerator
from repro.rtree.packing import PackedRun, hilbert_sort_key, pack_rtree, sort_key
from repro.rtree.tree import RTree
from repro.settings import override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def _pool(buffer_pages: int = 256):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=buffer_pages)


def _two_view_points(n_1d: int = 3000, n_2d: int = 60):
    one_d = [((i,), (1.0,)) for i in range(1, n_1d + 1)]
    two_d = [
        ((x, y), (1.0,))
        for x in range(1, n_2d + 1)
        for y in range(1, n_2d + 1)
    ]
    return one_d, two_d


# ----------------------------------------------------------------------
def run_sort_order(verbose: bool = True) -> Dict:
    """Low-coordinate packing order vs a Hilbert curve."""
    one_d, two_d = _two_view_points()
    dims = 2

    def padded(stream, view_id):
        for point, values in stream:
            yield view_id, tuple(point) + (0,) * (dims - len(point)), values

    combined = list(padded(one_d, 1)) + list(padded(two_d, 2))

    low_order = sorted(combined, key=lambda e: sort_key(e[1], dims))
    hilbert_order = sorted(
        combined, key=lambda e: hilbert_sort_key(e[1], dims)
    )

    def transitions(stream):
        views = [view_id for view_id, _, _ in stream]
        return sum(1 for a, b in zip(views, views[1:]) if a != b)

    low_t = transitions(low_order)
    hil_t = transitions(hilbert_order)
    print_table(
        "Ablation: packing sort order (view interleaving)",
        ["order", "view transitions in leaf stream", "compression valid"],
        [["low-coordinate (paper)", low_t, "yes (1 transition)"],
         ["Hilbert curve", hil_t,
          "no (views interleave; leaves must store full-width points)"]],
        verbose,
    )
    return {"low_transitions": low_t, "hilbert_transitions": hil_t}


# ----------------------------------------------------------------------
def run_compression(verbose: bool = True) -> Dict:
    """Compressed (arity-wide) vs uncompressed (dims-wide) leaves,
    plus the v3 columnar (delta+varint) leaf format on top."""
    one_d, two_d = _two_view_points()
    dims = 3

    def packed(fmt: str, arity_of=lambda arity: arity, **kwargs):
        """Both views packed in ``fmt`` leaves, ``arity_of`` coords wide."""
        with override(leaf_format=fmt):
            return pack_rtree(_pool()[1], dims, [
                PackedRun.from_entries(
                    view, arity_of(view), 1,
                    sorted(
                        [(tuple(p) + (0,) * (arity_of(view) - view), v)
                         for p, v in entries],
                        key=lambda e: sort_key(e[0], dims),
                    ),
                )
                for view, entries in ((1, one_d), (2, two_d))
            ], **kwargs)

    compressed = packed("row")
    columnar = packed("columnar")
    uncompressed = packed("row", lambda _arity: dims, validate=False)

    saving = 1.0 - compressed.num_pages / uncompressed.num_pages
    columnar_ratio = uncompressed.num_pages / columnar.num_pages
    print_table(
        "Ablation: leaf compression",
        ["variant", "pages", "leaf pages"],
        [["compressed (paper)", compressed.num_pages,
          len(compressed.leaf_page_ids)],
         ["columnar (v3)", columnar.num_pages,
          len(columnar.leaf_page_ids)],
         ["uncompressed", uncompressed.num_pages,
          len(uncompressed.leaf_page_ids)],
         ["saving", f"{saving:.0%}", ""],
         ["columnar ratio", f"{columnar_ratio:.1f}:1", ""]],
        verbose,
    )
    return {
        "compressed_pages": compressed.num_pages,
        "uncompressed_pages": uncompressed.num_pages,
        "columnar_pages": columnar.num_pages,
        "columnar_ratio": columnar_ratio,
        "saving": saving,
    }


# ----------------------------------------------------------------------
def run_mapping_policy(
    config: Optional[ExperimentConfig] = None, verbose: bool = True
) -> Dict:
    """SelectMapping's minimal forest vs one Cubetree per view."""
    config = config or ExperimentConfig()
    _gen, data = build_warehouse(config)
    views = paper_views()

    def build(allocation: CubetreeAllocation):
        disk, pool = _pool(config.buffer_pages)
        engine_data = CubetreeEngine(
            data.schema, buffer_pages=config.buffer_pages
        )
        # Reuse the engine only for computation; build the forest directly.
        computed = engine_data.computation.execute(data.facts, views)
        forest = CubetreeForest(pool, allocation)
        forest.build(computed)
        pool.flush_all()
        return disk, pool, forest

    minimal = select_mapping(views)
    per_view = CubetreeAllocation(
        trees=[TreeAssignment(max(v.arity, 1), (v,)) for v in views]
    )

    results = {}
    qgen_master = RandomQueryGenerator(data.schema, seed=config.query_seed)
    workloads = {
        node: qgen_master.generate_for_node(node, 30) for node in FIG12_NODES
    }
    for name, allocation in (("SelectMapping", minimal),
                             ("one-per-view", per_view)):
        disk, pool, forest = build(allocation)
        pool.stats.hits = pool.stats.misses = 0
        before = disk.cost_model.snapshot()
        from repro.core.answer import finalize_matches, split_bindings
        from repro.query.router import QueryRouter

        engine = CubetreeEngine(data.schema, buffer_pages=config.buffer_pages)
        router = engine.router
        for node, queries in workloads.items():
            for q in queries:
                decision = router.route(q, forest.access_paths())
                view = decision.path.view
                direct, residual = split_bindings(view, q, {})
                blocks = forest.query_view(view.name, direct)
                finalize_matches(blocks, view, q, {}, residual)
        io = disk.cost_model.stats - before
        results[name] = {
            "trees": forest.num_trees,
            "pages": forest.num_pages,
            "query_ms": io.total_ms,
            "hit_ratio": pool.stats.hit_ratio,
        }

    print_table(
        "Ablation: mapping policy",
        ["policy", "trees", "pages", "query time", "buffer hit ratio"],
        [[name, r["trees"], r["pages"], fmt_duration(r["query_ms"]),
          f"{r['hit_ratio']:.0%}"] for name, r in results.items()],
        verbose,
    )
    return results


# ----------------------------------------------------------------------
def run_packing(verbose: bool = True) -> Dict:
    """Packed bulk load vs dynamic Guttman insertion."""
    points = [((x, y), (1.0,)) for x in range(1, 101) for y in range(1, 101)]

    disk_p, pool_p = _pool()
    before = disk_p.cost_model.snapshot()
    packed = pack_rtree(pool_p, 2, [
        PackedRun.from_entries(0, 2, 1, sorted(points, key=lambda e: sort_key(e[0], 2)))
    ])
    pool_p.flush_all()
    packed_io = disk_p.cost_model.stats - before

    disk_d, pool_d = _pool()
    before = disk_d.cost_model.snapshot()
    dynamic = RTree(pool_d, 2)
    import random as _random

    shuffled = list(points)
    _random.Random(13).shuffle(shuffled)
    for point, values in shuffled:
        dynamic.insert(point, values)
    pool_d.flush_all()
    dynamic_io = disk_d.cost_model.stats - before

    print_table(
        "Ablation: packed bulk load vs dynamic inserts",
        ["variant", "pages", "leaf fill", "build time",
         "seq writes", "rnd writes"],
        [["packed (paper)", packed.num_pages,
          f"{packed.leaf_utilization():.0%}",
          fmt_duration(packed_io.total_ms),
          packed_io.sequential_writes, packed_io.random_writes],
         ["dynamic (Guttman)", dynamic.num_pages,
          f"{dynamic.leaf_utilization():.0%}",
          fmt_duration(dynamic_io.total_ms),
          dynamic_io.sequential_writes, dynamic_io.random_writes]],
        verbose,
    )
    return {
        "packed_pages": packed.num_pages,
        "dynamic_pages": dynamic.num_pages,
        "packed_fill": packed.leaf_utilization(),
        "dynamic_fill": dynamic.leaf_utilization(),
        "packed_ms": packed_io.total_ms,
        "dynamic_ms": dynamic_io.total_ms,
    }


# ----------------------------------------------------------------------
def run_replication(
    config: Optional[ExperimentConfig] = None, verbose: bool = True
) -> Dict:
    """Apex-view replication on/off."""
    config = config or ExperimentConfig()
    _gen, data = build_warehouse(config)
    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)
    workloads = {
        node: qgen.generate_for_node(node, 30) for node in FIG12_NODES
    }

    results = {}
    for name, replicate in (("with replicas", paper_replicas()),
                            ("no replicas", None)):
        engine = CubetreeEngine(data.schema, buffer_pages=config.buffer_pages)
        report = engine.materialize(paper_views(), data.facts,
                                    replicate=replicate)
        query_ms = sum(
            engine.query(q).io.total_ms
            for queries in workloads.values()
            for q in queries
        )
        results[name] = {
            "pages": report.pages,
            "query_ms": query_ms,
        }

    print_table(
        "Ablation: multi-sort-order replication of the apex view",
        ["variant", "pages", "query time"],
        [[name, r["pages"], fmt_duration(r["query_ms"])]
         for name, r in results.items()],
        verbose,
    )
    return results


def run(config: Optional[ExperimentConfig] = None, verbose: bool = True) -> Dict:
    """Run every ablation."""
    return {
        "sort_order": run_sort_order(verbose),
        "compression": run_compression(verbose),
        "mapping_policy": run_mapping_policy(config, verbose),
        "packing": run_packing(verbose),
        "replication": run_replication(config, verbose),
        "buffer_sensitivity": run_buffer_sensitivity(config, verbose),
    }


if __name__ == "__main__":
    run()


# ----------------------------------------------------------------------
def run_buffer_sensitivity(
    config: Optional[ExperimentConfig] = None, verbose: bool = True
) -> Dict:
    """Buffer-pool size vs Cubetree query cost (Sec. 2.4's hit-ratio
    argument: the forest's few shared top levels cache well, so query
    cost falls steeply once they fit)."""
    from dataclasses import replace

    config = config or ExperimentConfig()
    _gen, data = build_warehouse(config)
    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)
    workload = [
        q
        for node in FIG12_NODES
        for q in qgen.generate_for_node(node, 20)
    ]

    results = {}
    for pages in (32, 128, 512):
        engine = CubetreeEngine(data.schema, buffer_pages=pages)
        engine.materialize(paper_views(), data.facts,
                           replicate=paper_replicas())
        engine.pool.stats.hits = engine.pool.stats.misses = 0
        query_ms = sum(engine.query(q).io.total_ms for q in workload)
        results[pages] = {
            "query_ms": query_ms,
            "hit_ratio": engine.pool.stats.hit_ratio,
        }

    print_table(
        "Ablation: buffer-pool size (Cubetree forest)",
        ["buffer pages", "query time", "hit ratio"],
        [[pages, fmt_duration(r["query_ms"]), f"{r['hit_ratio']:.0%}"]
         for pages, r in results.items()],
        verbose,
    )
    return results
