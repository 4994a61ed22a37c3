"""The layer table: which calls are wrapped, and how spans become metrics.

Layers are the repo's module names.  Span names are ``<layer>.<function>``,
so a metric can gather a layer's spans by prefix.  The README's table says
which end-to-end metric each layer metric should move, and on which
workload; this file is where each one is computed from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from bench_e2e.tracer import Target


def _count_run_plans(counters: Dict[str, float], decision: Any) -> None:
    counters["router.decisions"] = counters.get("router.decisions", 0) + 1
    if getattr(decision, "use_run", False):
        counters["router.run_plans"] = counters.get("router.run_plans", 0) + 1


def _count_group_matches(counters: Dict[str, float], match_lists: Any) -> None:
    # A shared pass hands back one match list per slice; a folded slice
    # (aggregate pushdown) never materialises its matches and counts 0.
    counters["rows_examined"] = counters.get("rows_examined", 0) + sum(
        len(m) for m in match_lists if isinstance(m, list)
    )


#: Wrapped while the traced process bootstraps its database.
SETUP_TARGETS: List[Target] = [
    Target("warehouse.tpcd.generate", "repro.warehouse.tpcd:TPCDGenerator.generate"),
    Target("cube.computation.execute", "repro.cube.parallel:ParallelCubeComputation.execute"),
    Target("rtree.packing.pack_rtree", "repro.rtree.packing:pack_rtree"),
    Target("rtree.packing.pack_rtree_stream", "repro.rtree.packing:pack_rtree_stream"),
    Target("core.persistence.save_database", "repro.core.persistence:save_database"),
    Target("core.persistence.load_any_engine", "repro.core.persistence:load_any_engine"),
]

#: Wrapped for the traced pass, besides the HTTP handler's ``do_GET`` /
#: ``do_POST`` (span ``server.http.handle``), which only exist on the
#: live server object and are wrapped there.
SERVING_TARGETS: List[Target] = [
    Target("server.http.parse_query_body", "repro.server.http:parse_query_body"),
    Target("server.service.query", "repro.server.service:CubetreeServer.query"),
    Target("server.service.query_batch", "repro.server.service:CubetreeServer.query_batch"),
    Target("server.service.submit_delta", "repro.server.service:CubetreeServer.submit_delta"),
    Target("server.service.refresh_now", "repro.server.service:CubetreeServer.refresh_now"),
    Target("server.admission.submit", "repro.server.admission:AdmissionQueue.submit"),
    Target(
        "server.admission.submit_nowait",
        "repro.server.admission:AdmissionQueue.submit_nowait",
        link="register", link_arg=2,
    ),
    Target("server.admission.wait", "repro.server.admission:AdmissionQueue.wait"),
    Target("server.generations.acquire", "repro.server.generations:GenerationManager.acquire"),
    Target("server.generations.install", "repro.server.generations:GenerationManager.install"),
    Target(
        "query.router.route", "repro.query.router:QueryRouter.route",
        after=_count_run_plans,
    ),
    Target("query.batch.execute_batch", "repro.query.batch:execute_batch"),
    Target("core.engine.query", "repro.core.engine:CubetreeEngine.query", link="adopt"),
    Target(
        "core.engine.query_batch", "repro.core.engine:CubetreeEngine.query_batch",
        link="adopt",
    ),
    Target("core.engine.update", "repro.core.engine:CubetreeEngine.update"),
    Target("core.engine.checkpoint", "repro.core.engine:CubetreeEngine.checkpoint"),
    Target("core.answer.split_bindings", "repro.core.answer:split_bindings"),
    Target("core.answer.finalize_matches", "repro.core.answer:finalize_matches"),
    Target("core.answer.finalize_fold", "repro.core.answer:finalize_fold"),
    Target("core.forest.query_view", "repro.core.forest:CubetreeForest.query_view"),
    Target(
        "core.forest.query_view_aggregate",
        "repro.core.forest:CubetreeForest.query_view_aggregate",
    ),
    Target(
        "core.forest.query_view_group",
        "repro.core.forest:CubetreeForest.query_view_group",
        after=_count_group_matches,
    ),
    Target("core.forest.update", "repro.core.forest:CubetreeForest.update"),
    Target("rtree.tree.search", "repro.rtree.tree:RTree.search"),
    Target("rtree.tree.search_run", "repro.rtree.tree:RTree.search_run"),
    Target("rtree.tree.scan_run", "repro.rtree.tree:RTree.scan_run"),
    Target("rtree.tree.search_run_group", "repro.rtree.tree:RTree.search_run_group"),
    Target("rtree.tree.search_run_fold", "repro.rtree.tree:RTree.search_run_fold"),
    Target("rtree.node.leaf_from_bytes", "repro.rtree.node:RLeafNode.from_bytes"),
    Target("rtree.node.interior_from_bytes", "repro.rtree.node:RInteriorNode.from_bytes"),
    Target("rtree.kernels.select_rows", "repro.rtree.kernels:select_rows"),
    Target("rtree.kernels.add_block", "repro.rtree.kernels:FoldAccumulator.add_block"),
    Target("storage.buffer.fetch_page", "repro.storage.buffer:BufferPool.fetch_page"),
    Target("storage.buffer.prefetch_run", "repro.storage.buffer:BufferPool.prefetch_run"),
    Target("core.persistence.load_any_engine", "repro.core.persistence:load_any_engine"),
    Target("core.persistence.save_database", "repro.core.persistence:save_database"),
    Target("cube.computation.execute", "repro.cube.parallel:ParallelCubeComputation.execute"),
    Target("rtree.merge.merge_pack", "repro.rtree.merge:merge_pack"),
]

HANDLER_TARGET = Target("server.http.handle", "", request_header=True)

#: metric -> span-name prefixes whose *self* time it sums, in ms per slice
#: query.  ``server.http.self_ms`` also takes the part of client latency
#: that lies outside the handler's span (see ``traced.layer_metrics``).
SELF_MS: Dict[str, Tuple[str, ...]] = {
    "server.http.self_ms": ("server.http.",),
    "server.http.parse_ms": ("server.http.parse_query_body",),
    "server.service.self_ms": ("server.service.",),
    "server.generations.pin_ms": ("server.generations.acquire",),
    "server.admission.wait_ms": ("server.admission.",),
    "query.router.self_ms": ("query.router.",),
    "query.batch.self_ms": ("query.batch.",),
    "core.engine.self_ms": ("core.engine.", "core.forest."),
    "core.answer.finalize_ms": ("core.answer.",),
    "rtree.tree.search_ms": ("rtree.tree.",),
    "rtree.node.decode_ms": ("rtree.node.",),
    "rtree.kernels.select_ms": ("rtree.kernels.",),
    "storage.buffer.fetch_ms": ("storage.buffer.",),
}

#: Everything below the service: the "engine side" the workloads are
#: meant to separate from the HTTP edge.
ENGINE_SIDE = ("core.", "query.", "rtree.", "storage.")

#: metric -> registry counter whose delta over the pass it reports, per
#: slice query.
PER_QUERY_COUNTS: Dict[str, str] = {
    "server.admission.rounds": "server.admission_rounds",
    "rtree.tree.descents": "rtree.searches",
    "rtree.tree.run_scans": "rtree.run_scans",
    "rtree.tree.run_searches": "rtree.run_searches",
    "rtree.kernels.pushdowns": "query.cubetree.pushdowns",
    "storage.buffer.evictions": "buffer.evictions",
    "storage.buffer.readahead_pages": "buffer.readahead_pages",
    "storage.disk.sim_ms": "io.simulated_ms",
    "storage.disk.random_reads": "io.reads.random",
    "storage.disk.sequential_reads": "io.reads.sequential",
}

#: metric -> span whose *duration* it reports, in ms per refresh cycle.
PER_CYCLE_MS: Dict[str, str] = {
    "server.service.refresh_ms": "server.service.refresh_now",
    "core.persistence.load_ms": "core.persistence.load_any_engine",
    "cube.computation.delta_ms": "cube.computation.execute",
    "rtree.merge.merge_pack_ms": "rtree.merge.merge_pack",
    "core.persistence.save_ms": "core.persistence.save_database",
    "server.generations.install_ms": "server.generations.install",
}

#: metric -> span prefix whose duration it reports, in seconds of set-up.
SETUP_S: Dict[str, str] = {
    "warehouse.tpcd.generate_s": "warehouse.tpcd.generate",
    "cube.computation.compute_s": "cube.computation.execute",
    "rtree.packing.pack_s": "rtree.packing.",
    "core.persistence.save_s": "core.persistence.save_database",
    "core.persistence.open_s": "core.persistence.load_any_engine",
}
