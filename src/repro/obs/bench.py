"""The ``repro bench`` harness: named suites with machine-readable output.

Each suite runs a small, deterministic slice of the paper's workload
(loading, querying, merge-pack refresh, scalability) and emits one
schema-versioned JSON document: an environment fingerprint, per-phase
simulated-I/O and buffer-pool deltas, wall-clock timings, and a full
snapshot of the process-wide metrics registry.  Two documents from the
same suite can be diffed with :func:`compare`, which flags phases whose
*simulated* milliseconds regressed past a threshold — wall-clock noise
never fails a comparison; only the deterministic cost model does.

Used by CI (smoke suite per push, artifact uploaded) and by hand when
touching storage-layer code::

    python -m repro bench --suite smoke --out BENCH_smoke.json
    ... hack hack hack ...
    python -m repro bench --suite smoke --compare BENCH_smoke.json
"""

from __future__ import annotations

import json
import platform
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import __version__
from repro.constants import (
    PAGE_SIZE,
    RANDOM_IO_MS,
    ROW_OP_OVERHEAD_MS,
    SEQUENTIAL_IO_MS,
)
from repro.obs import get_registry
from repro.settings import override

#: Bumped whenever the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Suites in the order ``--suite`` lists them.
SUITES = (
    "smoke", "loading", "queries", "updates", "scalability", "serving",
    "sharding", "columnar",
)

#: Default scale factor per suite (kept tiny: the bench guards against
#: regressions, it does not reproduce the paper's figures).
_DEFAULT_SCALES = {  # repro: read-only
    "smoke": 0.001,
    "loading": 0.002,
    "queries": 0.002,
    "updates": 0.002,
    "scalability": 0.0005,
    "serving": 0.001,
    "sharding": 0.002,
    "columnar": 0.002,
}

#: Default queries per lattice node.  The queries suite is a throughput
#: workload (Fig. 13's shape): batches must be large enough to amortize
#: a shared run pass, or the cost gate correctly refuses to share and
#: the suite measures nothing but the fallback.
_DEFAULT_QUERIES = {  # repro: read-only
    "smoke": 5,
    "loading": 5,
    "queries": 50,
    "updates": 5,
    "scalability": 5,
    "serving": 5,
    "sharding": 5,
    "columnar": 5,
}


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class BenchRun:
    """Accumulates the phases of one suite run."""

    def __init__(self, suite: str, config: Dict[str, object]) -> None:
        self.suite = suite
        self.config = config
        self.phases: List[Dict[str, object]] = []

    @contextmanager
    def phase(self, name: str, pool) -> Iterator[None]:
        """Record one phase: I/O, buffer, and wall-clock deltas around
        the body, taken from the pool's disk cost model and stats."""
        io_before = pool.disk.cost_model.snapshot()
        buf_before = pool.stats.copy()
        wall_start = time.perf_counter()
        yield
        wall_ms = (time.perf_counter() - wall_start) * 1000.0
        io = pool.disk.cost_model.stats - io_before
        buf = pool.stats - buf_before
        self.phases.append(
            {
                "name": name,
                "simulated_ms": io.simulated_ms,
                "overhead_ms": io.overhead_ms,
                "wall_ms": wall_ms,
                "io": {
                    "sequential_reads": io.sequential_reads,
                    "random_reads": io.random_reads,
                    "sequential_writes": io.sequential_writes,
                    "random_writes": io.random_writes,
                },
                "buffer": _buffer_record(buf),
            }
        )

    def result(self) -> Dict[str, object]:
        """The finished JSON document (metrics snapshot taken here)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "env": environment_fingerprint(),
            "phases": self.phases,
            "totals": {
                "simulated_ms": sum(
                    p["simulated_ms"] for p in self.phases  # type: ignore[misc]
                ),
                "wall_ms": sum(
                    p["wall_ms"] for p in self.phases  # type: ignore[misc]
                ),
            },
            "metrics": get_registry().snapshot(),
        }


def environment_fingerprint() -> Dict[str, object]:
    """What produced this document (for apples-to-apples comparisons)."""
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "page_size": PAGE_SIZE,
        "random_io_ms": RANDOM_IO_MS,
        "sequential_io_ms": SEQUENTIAL_IO_MS,
        "row_op_overhead_ms": ROW_OP_OVERHEAD_MS,
    }


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
def run_suite(
    suite: str,
    scale: Optional[float] = None,
    seed: int = 42,
    queries_per_node: Optional[int] = None,
) -> Dict[str, object]:
    """Run one named suite and return its JSON-ready result dict.

    The metrics registry is reset at the start so the embedded snapshot
    covers exactly this run; tracing is forced on for the duration (the
    spans land in the snapshot) and restored afterwards.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    if scale is None:
        scale = _DEFAULT_SCALES[suite]
    if queries_per_node is None:
        queries_per_node = _DEFAULT_QUERIES[suite]

    registry = get_registry()
    registry.reset()
    runner = globals()[f"_suite_{suite}"]
    # The committed baselines price row pages, whatever the shipped
    # default is (``columnar`` sets both formats itself, inside).
    with override(trace=True, leaf_format="row"):
        return runner(scale, seed, queries_per_node)


def _make_config(suite: str, scale: float, seed: int, queries: int):
    from repro.experiments.common import ExperimentConfig

    config = ExperimentConfig(
        scale_factor=scale, seed=seed, queries_per_node=queries
    )
    run = BenchRun(
        suite,
        {
            "scale_factor": scale,
            "seed": seed,
            "queries_per_node": queries,
            "buffer_pages": config.buffer_pages,
        },
    )
    return config, run


def _compute_phase(run: BenchRun, name: str, config, data, rows) -> None:
    """Record a pure-CPU cube-computation phase (simulated I/O ~ 0).

    Exercises the batched-codec / fused-aggregation pipeline in
    isolation so its wall-ms win is visible outside the load totals.
    """
    from repro.core.sorting import make_substrate_sorter
    from repro.cube.computation import CubeComputation
    from repro.experiments.common import paper_views
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager

    pool = BufferPool(DiskManager(), capacity=config.buffer_pages)
    computation = CubeComputation(
        data.schema, sorter=make_substrate_sorter(pool, config.sort_chunk_rows)
    )
    with run.phase(name, pool):
        computation.execute(rows, paper_views())


def _suite_smoke(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Load → query → refresh, one engine: the CI tripwire."""
    from repro.experiments.common import (
        FIG12_NODES,
        build_cubetree_engine,
        build_warehouse,
    )
    from repro.query.generator import RandomQueryGenerator

    config, run = _make_config("smoke", scale, seed, queries)
    generator, data = build_warehouse(config)

    wall_start = time.perf_counter()
    engine, _ = build_cubetree_engine(config, data)
    # The engine's pool did the loading I/O before we could wrap it, so
    # record the load phase from absolute counters instead.
    run.phases.append(
        _absolute_phase(
            "load", engine.pool,
            (time.perf_counter() - wall_start) * 1000.0,
        )
    )

    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)
    with run.phase("queries", engine.pool):
        for node in FIG12_NODES[:3]:
            for query in qgen.generate_for_node(node, queries):
                engine.query(query)

    delta = generator.generate_increment(config.increment_fraction)
    with run.phase("update", engine.pool):
        engine.update(delta)

    return run.result()


def _absolute_phase(name: str, pool, wall_ms: float = 0.0) -> Dict[str, object]:
    """A phase record built from a pool's lifetime counters (used when
    the work happened inside a constructor we could not wrap)."""
    return _stats_phase(name, pool.disk.cost_model.stats, pool.stats, wall_ms)


def _stats_phase(name: str, io, buf, wall_ms: float = 0.0) -> Dict[str, object]:
    """A phase record from explicit IOStats/BufferStats (absolute or
    delta) — an engine with several shards reports critical-path
    combined stats rather than a single pool's counters."""
    return {
        "name": name,
        "simulated_ms": io.simulated_ms,
        "overhead_ms": io.overhead_ms,
        "wall_ms": wall_ms,
        "io": {
            "sequential_reads": io.sequential_reads,
            "random_reads": io.random_reads,
            "sequential_writes": io.sequential_writes,
            "random_writes": io.random_writes,
        },
        "buffer": _buffer_record(buf),
    }


def _buffer_record(buf) -> Dict[str, object]:
    """The per-phase buffer-stats dict (shared by both phase builders)."""
    return {
        "hits": buf.hits,
        "misses": buf.misses,
        "evictions": buf.evictions,
        "new_pages": buf.new_pages,
        "unpins": buf.unpins,
        "scan_admissions": buf.scan_admissions,
        "promotions": buf.promotions,
        "readahead_pages": buf.readahead_pages,
        "accesses": buf.accesses,
        # null (not 0.0) when the phase made no lookups.
        "hit_ratio": buf.hit_ratio if buf.accesses > 0 else None,
    }


def _suite_loading(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Cubetree bulk load vs. conventional load+index (Table 6's shape)."""
    from repro.experiments.common import (
        build_conventional_engine,
        build_cubetree_engine,
        build_warehouse,
    )

    config, run = _make_config("loading", scale, seed, queries)
    _generator, data = build_warehouse(config)

    _compute_phase(run, "cube_compute", config, data, data.facts)

    wall_start = time.perf_counter()
    cube, _ = build_cubetree_engine(config, data)
    run.phases.append(
        _absolute_phase(
            "cubetree_load", cube.pool,
            (time.perf_counter() - wall_start) * 1000.0,
        )
    )

    wall_start = time.perf_counter()
    conv, _ = build_conventional_engine(config, data)
    run.phases.append(
        _absolute_phase(
            "conventional_load", conv.pool,
            (time.perf_counter() - wall_start) * 1000.0,
        )
    )
    return run.result()


def _suite_queries(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Query cost over every Fig. 12 lattice node, three execution modes.

    Per node the same query set runs three ways from a cold cache:
    ``serial:<node>`` through the classic interior descent (the guarded
    baseline, :meth:`CubetreeEngine.query`), ``fast:<node>`` one query
    at a time with the run-aware plans (a one-query batch each), and
    ``batch:<node>`` through one shared run pass.  The mode phases answer
    identical queries with identical rows, so their simulated-ms ratio
    *is* the run-plan/batching win.
    """
    from repro.experiments.common import (
        FIG12_NODES,
        build_cubetree_engine,
        build_warehouse,
    )
    from repro.query.generator import RandomQueryGenerator

    config, run = _make_config("queries", scale, seed, queries)
    _generator, data = build_warehouse(config)
    engine, _ = build_cubetree_engine(config, data)
    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)

    for node in FIG12_NODES:
        label = ",".join(node) or "none"
        node_queries = list(qgen.generate_for_node(node, queries))

        # Fast/batch modes protect index pages; drop the shelter before
        # the serial phase so it measures the untouched classic engine.
        for page_id in engine.pool.protected_page_ids:
            engine.pool.unprotect_page(page_id)
        engine.pool.clear()
        with run.phase(f"serial:{label}", engine.pool):
            for query in node_queries:
                engine.query(query)

        engine.pool.clear()
        with run.phase(f"fast:{label}", engine.pool):
            for query in node_queries:
                engine.query_batch([query])

        engine.pool.clear()
        with run.phase(f"batch:{label}", engine.pool):
            engine.query_batch(node_queries)
    return run.result()


def _suite_updates(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Merge-pack refresh vs. conventional incremental refresh."""
    from repro.experiments.common import (
        build_conventional_engine,
        build_cubetree_engine,
        build_warehouse,
    )

    config, run = _make_config("updates", scale, seed, queries)
    generator, data = build_warehouse(config)
    delta = generator.generate_increment(config.increment_fraction)

    _compute_phase(run, "delta_compute", config, data, delta)

    cube, _ = build_cubetree_engine(config, data)
    with run.phase("cubetree_merge_pack", cube.pool):
        cube.update(delta)

    conv, _ = build_conventional_engine(config, data)
    with run.phase("conventional_incremental", conv.pool):
        conv.update_incremental(delta)
    return run.result()


def _suite_scalability(
    scale: float, seed: int, queries: int
) -> Dict[str, object]:
    """Load cost as the warehouse doubles (Fig. 14's shape)."""
    from repro.experiments.common import (
        ExperimentConfig,
        build_cubetree_engine,
        build_warehouse,
    )

    _config, run = _make_config("scalability", scale, seed, queries)
    for multiple in (1, 2, 4):
        step = ExperimentConfig(
            scale_factor=scale * multiple, seed=seed,
            queries_per_node=queries,
        )
        wall_start = time.perf_counter()
        _generator, data = build_warehouse(step)
        engine, _ = build_cubetree_engine(step, data)
        run.phases.append(
            _absolute_phase(
                f"load_x{multiple}", engine.pool,
                (time.perf_counter() - wall_start) * 1000.0,
            )
        )
    return run.result()


def _empty_io() -> Dict[str, int]:
    return {
        "sequential_reads": 0,
        "random_reads": 0,
        "sequential_writes": 0,
        "random_writes": 0,
    }


def _wall_only_phase(
    name: str, wall_ms: float, serving: Dict[str, Any]
) -> Dict[str, object]:
    """A concurrency phase: wall-clock + serving stats, no cost model.

    Concurrent schedules are timing-dependent, so these phases carry
    ``wall_only: True`` and :func:`compare` never gates on them — the
    deterministic phases of the same suite still guard the cost model.
    """
    return {
        "name": name,
        "wall_only": True,
        "simulated_ms": 0.0,
        "overhead_ms": 0.0,
        "wall_ms": wall_ms,
        "io": _empty_io(),
        "buffer": {
            "hits": 0, "misses": 0, "evictions": 0, "new_pages": 0,
            "unpins": 0, "scan_admissions": 0, "promotions": 0,
            "readahead_pages": 0, "accesses": 0, "hit_ratio": None,
        },
        "serving": serving,
    }


def _percentile(ordered: List[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def _concurrent_load(
    server, workload, threads: int, rounds: int, refresher=None
) -> Dict[str, Any]:
    """Hammer the server from ``threads`` client threads; summarize.

    Each thread replays the workload ``rounds`` times, staggered by
    thread index so concurrent arrivals hit different queries (that is
    what exercises per-round coalescing across clients).  ``refresher``,
    when given, runs on its own thread between a start barrier and the
    clients draining — the "qps under refresh" configuration.
    """
    import threading as _threading

    latencies: List[float] = []
    generations: List[int] = []
    errors: List[str] = []
    lock = _threading.Lock()
    barrier = _threading.Barrier(threads + 1 + (1 if refresher else 0))

    def client(offset: int) -> None:
        local_lat: List[float] = []
        local_gen: List[int] = []
        local_err: List[str] = []
        barrier.wait()
        for round_index in range(rounds):
            for index in range(len(workload)):
                query = workload[(offset + index) % len(workload)]
                start = time.perf_counter()
                try:
                    served = server.query(query)
                except Exception as exc:  # noqa: BLE001 - tallied, not raised
                    local_err.append(str(exc))
                    continue
                local_lat.append((time.perf_counter() - start) * 1000.0)
                local_gen.append(served.generation)
        with lock:
            latencies.extend(local_lat)
            generations.extend(local_gen)
            errors.extend(local_err)

    workers = [
        _threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(threads)
    ]
    refresh_outcomes: List[Dict[str, object]] = []
    stop_refresh = _threading.Event()
    if refresher is not None:
        def run_refresher() -> None:
            barrier.wait()
            refresh_outcomes.extend(refresher(stop_refresh))

        refresh_thread = _threading.Thread(target=run_refresher, daemon=True)
        refresh_thread.start()
    for worker in workers:
        worker.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for worker in workers:
        worker.join()
    wall_s = time.perf_counter() - wall_start
    if refresher is not None:
        stop_refresh.set()
        refresh_thread.join()
    ordered = sorted(latencies)
    total = len(latencies)
    return {
        "threads": threads,
        "rounds": rounds,
        "queries": total,
        "errors": len(errors),
        "error_samples": errors[:3],
        "qps": total / wall_s if wall_s > 0 else 0.0,
        "p50_ms": _percentile(ordered, 0.50),
        "p95_ms": _percentile(ordered, 0.95),
        "generations_observed": sorted(set(generations)),
        "refreshes": refresh_outcomes,
        "wall_s": wall_s,
    }


def _suite_serving(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Concurrent serving under refresh (the PR 7 server, Sec. 5's claim).

    Two deterministic phases guard the cost model — ``serve_queries``
    (the admission path answers the workload serially) and ``refresh``
    (builder load + merge-pack + publish, measured on the builder's own
    pool) — then two ``wall_only`` phases measure concurrency itself:
    ``concurrent_baseline`` (client threads, no refresh) and
    ``concurrent_refresh`` (same load with refresh cycles publishing new
    generations mid-flight).  The headline number is the qps ratio
    between those two: zero-downtime refresh means it stays near 1.
    """
    import shutil
    import tempfile

    from repro.experiments.common import FIG12_NODES, build_warehouse
    from repro.query.generator import RandomQueryGenerator
    from repro.server import CubetreeServer, ServerConfig, bootstrap_database

    config, run = _make_config("serving", scale, seed, queries)
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-serving-")
    try:
        bootstrap_database(tmpdir, scale=scale, seed=seed)
        generator, _data = build_warehouse(config)
        server = CubetreeServer(tmpdir, ServerConfig(retain=2)).start()
        try:
            qgen = RandomQueryGenerator(
                server.schema, seed=config.query_seed
            )
            workload = [
                query
                for node in FIG12_NODES[:4]
                for query in qgen.generate_for_node(node, queries)
            ]

            handle = server.manager.acquire()
            try:
                with run.phase("serve_queries", handle.engine.pool):
                    for query in workload:
                        server.query(query)
            finally:
                server.manager.release(handle)

            delta = generator.generate_increment(
                config.increment_fraction, stream="bench-refresh-0"
            )
            wall_start = time.perf_counter()
            server.submit_delta(delta)
            outcome = server.refresh_now()
            if outcome.status != "published":
                raise RuntimeError(
                    f"serving bench refresh failed: {outcome.error}"
                )
            handle = server.manager.acquire()
            try:
                # The published engine IS the refresh builder, so its
                # pool's lifetime counters are exactly the refresh cost:
                # reload + merge-pack + checkpoint.
                run.phases.append(
                    _absolute_phase(
                        "refresh", handle.engine.pool,
                        (time.perf_counter() - wall_start) * 1000.0,
                    )
                )
            finally:
                server.manager.release(handle)

            threads, rounds = 4, 4
            wall_start = time.perf_counter()
            baseline = _concurrent_load(server, workload, threads, rounds)
            run.phases.append(
                _wall_only_phase(
                    "concurrent_baseline",
                    (time.perf_counter() - wall_start) * 1000.0,
                    baseline,
                )
            )

            def refresher(stop) -> List[Dict[str, object]]:
                # Two refresh cycles spaced across the client run: long
                # enough to overlap real query traffic, short enough
                # that merge-pack (pure Python, GIL-bound) does not
                # dominate the measured window.
                outcomes: List[Dict[str, object]] = []
                stream = 1
                while not stop.is_set() and stream <= 2:
                    if stop.wait(0.05):
                        break
                    rows = generator.generate_increment(
                        config.increment_fraction / 5,
                        stream=f"bench-refresh-{stream}",
                    )
                    server.submit_delta(rows)
                    outcomes.append(server.refresh_now().as_dict())
                    stream += 1
                return outcomes

            wall_start = time.perf_counter()
            under_refresh = _concurrent_load(
                server, workload, threads, rounds, refresher=refresher
            )
            run.phases.append(
                _wall_only_phase(
                    "concurrent_refresh",
                    (time.perf_counter() - wall_start) * 1000.0,
                    under_refresh,
                )
            )

            baseline_qps = float(baseline["qps"])
            refresh_qps = float(under_refresh["qps"])
            result = run.result()
            result["serving_summary"] = {
                "baseline_qps": baseline_qps,
                "refresh_qps": refresh_qps,
                "qps_ratio": (
                    refresh_qps / baseline_qps if baseline_qps else 0.0
                ),
                "errors": int(baseline["errors"])
                + int(under_refresh["errors"]),
                "generations_observed": under_refresh[
                    "generations_observed"
                ],
            }
            return result
        finally:
            server.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _suite_sharding(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Four shards vs. one: load, merge-pack, point queries.

    The same warehouse is loaded at N=1 and N=4 shards.  Sharded phases
    charge the *critical-path* shard (max over per-shard deltas), so the
    n4/n1 simulated-ms ratio is the modeled parallel speedup — the
    acceptance bar is <= 0.5x for both bulk load and merge-pack.  Point
    queries restrict the leading group coordinate of the view they route
    to (``V_c``, ``V_s``, ``V_ps``), so the scatter-gather router must
    touch exactly one shard each; the summary records the worst case.
    All phases are deterministic simulated I/O and gate comparisons;
    wall-clock rides along report-only as everywhere else.
    """
    from repro.experiments.common import (
        build_cubetree_engine,
        build_warehouse,
    )
    from repro.query.slice import SliceQuery

    config, run = _make_config("sharding", scale, seed, queries)
    generator, data = build_warehouse(config)
    delta = generator.generate_increment(config.increment_fraction)

    #: (view routed to, bound attribute) — each binds the leading group
    #: coordinate of its target view, the single-shard case.
    point_shapes = (
        ((), "custkey"),           # -> V_c
        ((), "suppkey"),           # -> V_s
        (("suppkey",), "partkey"),  # -> V_ps
    )
    sim_ms: Dict[str, float] = {}
    max_touched = 0

    for num_shards in (1, 4):
        tag = f"n{num_shards}"
        wall_start = time.perf_counter()
        engine, _ = build_cubetree_engine(config, data, shards=num_shards)
        load_io = engine.io_totals()
        run.phases.append(
            _stats_phase(
                f"load_{tag}", load_io, engine.buffer_totals(),
                (time.perf_counter() - wall_start) * 1000.0,
            )
        )
        sim_ms[f"load_{tag}"] = load_io.simulated_ms

        point_queries = [
            SliceQuery(
                group_by=tuple(group_by),
                bindings=((attr, 1 + (repeat * len(point_shapes) + i) % 7),),
            )
            for repeat in range(max(1, queries))
            for i, (group_by, attr) in enumerate(point_shapes)
        ]
        snapshots = engine.io_snapshot()
        buf_before = engine.buffer_totals()
        wall_start = time.perf_counter()
        for query in point_queries:
            routed_before = [s.routed_queries for s in engine.shards]
            engine.query_batch([query])
            touched = sum(
                1
                for before, shard in zip(routed_before, engine.shards)
                if shard.routed_queries > before
            )
            max_touched = max(max_touched, touched)
        query_io = engine.io_delta(snapshots)
        run.phases.append(
            _stats_phase(
                f"point_queries_{tag}", query_io,
                engine.buffer_totals() - buf_before,
                (time.perf_counter() - wall_start) * 1000.0,
            )
        )
        sim_ms[f"point_queries_{tag}"] = query_io.simulated_ms

        snapshots = engine.io_snapshot()
        buf_before = engine.buffer_totals()
        wall_start = time.perf_counter()
        engine.update(delta)
        merge_io = engine.io_delta(snapshots)
        run.phases.append(
            _stats_phase(
                f"merge_pack_{tag}", merge_io,
                engine.buffer_totals() - buf_before,
                (time.perf_counter() - wall_start) * 1000.0,
            )
        )
        sim_ms[f"merge_pack_{tag}"] = merge_io.simulated_ms

    result = run.result()
    result["sharding_summary"] = {
        "load_ratio_n4_vs_n1": (
            sim_ms["load_n4"] / sim_ms["load_n1"]
            if sim_ms["load_n1"] else 0.0
        ),
        "merge_pack_ratio_n4_vs_n1": (
            sim_ms["merge_pack_n4"] / sim_ms["merge_pack_n1"]
            if sim_ms["merge_pack_n1"] else 0.0
        ),
        "point_query_max_shards_touched": max_touched,
    }
    return result


def _suite_columnar(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Row vs. columnar (v3) leaf format and the column kernels.

    ``load_row`` / ``queries_row`` run with the classic row-major
    leaves, ``load_columnar`` / ``queries_columnar`` with delta+varint
    columnar leaves.  Both formats are queried through the column kernels.
    The row/columnar query phases answer the identical workload (row
    equality is asserted), so their page counts and simulated-ms ratio
    *are* the columnar win.

    ``queries_columnar_vector`` then reruns the workload several
    cold-start passes over the columnar engine, and
    ``batch_columnar_vector`` answers it through the shared-pass
    executor.  Finally ``load_columnar_small`` / ``queries_small_vector``
    rerun the workload several passes under a buffer pool too small to
    hold the leaf run, where scan churn makes every pass re-fetch and
    re-decode its leaves.
    """
    from dataclasses import replace

    from repro.experiments.common import (
        FIG12_NODES,
        build_cubetree_engine,
        build_warehouse,
    )
    from repro.query.generator import RandomQueryGenerator

    #: Small-pool pages — far below the columnar leaf-run size, so every
    #: pass re-fetches evicted pages.
    small_pool_pages = 24
    #: Workload passes in the small-pool phase.
    small_pool_passes = 3
    #: Workload passes in the repeated columnar phase.
    kernel_passes = 5

    config, run = _make_config("columnar", scale, seed, queries)
    _generator, data = build_warehouse(config)
    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)
    workload = [
        query
        for node in FIG12_NODES[:4]
        for query in qgen.generate_for_node(node, queries)
    ]

    def answer(engine) -> List[Tuple[object, ...]]:
        """The workload's sorted rows, each query run on its own with
        the run-aware plans (a one-query batch)."""
        return [
            tuple(sorted(engine.query_batch([query]).results[0].rows))
            for query in workload
        ]

    # Builds pack columnar unless a phase pins its own format.
    with override(leaf_format="columnar"):
        results: Dict[str, object] = {}
        pages: Dict[str, int] = {}
        engine = None
        for mode in ("row", "columnar"):
            wall_start = time.perf_counter()
            with override(leaf_format=mode):
                engine, _ = build_cubetree_engine(config, data)
            run.phases.append(
                _absolute_phase(
                    f"load_{mode}", engine.pool,
                    (time.perf_counter() - wall_start) * 1000.0,
                )
            )
            pages[mode] = engine.forest.num_pages
            engine.pool.clear()
            with run.phase(f"queries_{mode}", engine.pool):
                results[mode] = answer(engine)
        columnar_engine = engine

        if results["row"] != results["columnar"]:
            raise RuntimeError(
                "columnar bench: row and columnar formats answered the "
                "same workload differently"
            )

        # -- repeated passes, single-query path ------------------------
        columnar_engine.pool.clear()
        with run.phase("queries_columnar_vector", columnar_engine.pool):
            for _ in range(kernel_passes):
                repeated = answer(columnar_engine)
        if repeated != results["columnar"]:
            raise RuntimeError(
                "columnar bench: repeated passes answered the workload "
                "differently"
            )

        # -- batch executor --------------------------------------------
        columnar_engine.pool.clear()
        with run.phase("batch_columnar_vector", columnar_engine.pool):
            batch = columnar_engine.query_batch(workload)
        if [
            tuple(sorted(result.rows)) for result in batch.results
        ] != results["columnar"]:
            raise RuntimeError(
                "columnar bench: batched execution disagreed with the "
                "serial answers"
            )

        # -- small pool under scan churn -------------------------------
        small_config = replace(config, buffer_pages=small_pool_pages)
        wall_start = time.perf_counter()
        small_engine, _ = build_cubetree_engine(small_config, data)
        run.phases.append(
            _absolute_phase(
                "load_columnar_small", small_engine.pool,
                (time.perf_counter() - wall_start) * 1000.0,
            )
        )
        small_engine.pool.clear()
        with run.phase("queries_small_vector", small_engine.pool):
            for _ in range(small_pool_passes):
                small_answers = answer(small_engine)
        if small_answers != results["columnar"]:
            raise RuntimeError(
                "columnar bench: small-pool runs disagreed with the "
                "full-pool answers"
            )

        metrics = get_registry().snapshot()
        counters = metrics.get("counters", {})
        result = run.result()
        result["columnar_summary"] = {
            "row_pages": pages["row"],
            "columnar_pages": pages["columnar"],
            "storage_ratio_row_vs_columnar": (
                pages["row"] / pages["columnar"]
                if pages["columnar"] else 0.0
            ),
            "queries_match": True,
            "kernel_passes": kernel_passes,
            "small_pool_passes": small_pool_passes,
            "aggregate_pushdowns": counters.get(
                "query.cubetree.pushdowns", 0
            ),
        }
        return result


# ----------------------------------------------------------------------
# comparison + reporting
# ----------------------------------------------------------------------
def compare(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = 0.2,
) -> List[Dict[str, object]]:
    """Flag phases whose simulated I/O changed or regressed.

    Phases are matched by name; phases present on only one side are
    ignored (renames should not fail CI), and so are ``wall_only``
    phases.  A matched phase is flagged when its integer I/O counters
    differ in either direction (the simulated figures are deterministic,
    so any moved page is reported), or when its simulated time rose
    past ``threshold`` over a baseline of at least 1 ms (a 0.1 ms phase
    tripling is noise, not a regression).  Returns one record per
    flagged phase; empty list means "no change, no worse".
    """
    if old.get("suite") != new.get("suite"):
        raise ValueError(
            f"cannot compare suite {new.get('suite')!r} against a "
            f"{old.get('suite')!r} baseline"
        )
    old_phases = {p["name"]: p for p in old.get("phases", [])}  # type: ignore[index]
    regressions: List[Dict[str, object]] = []
    for phase in new.get("phases", []):  # type: ignore[union-attr]
        name = phase["name"]  # type: ignore[index]
        base = old_phases.get(name)
        if base is None:
            continue
        # Concurrency phases measure wall-clock schedules, not the
        # deterministic cost model; they never gate a comparison.
        if phase.get("wall_only") or base.get("wall_only"):  # type: ignore[union-attr]
            continue
        old_ms = float(base["simulated_ms"])  # type: ignore[index, arg-type]
        new_ms = float(phase["simulated_ms"])  # type: ignore[index, arg-type]
        old_io = base.get("io")  # type: ignore[union-attr]
        new_io = phase.get("io")  # type: ignore[union-attr]
        slower = old_ms >= 1.0 and new_ms > old_ms * (1.0 + threshold)
        if slower or old_io != new_io:
            regressions.append(
                {
                    "phase": name,
                    "old_simulated_ms": old_ms,
                    "new_simulated_ms": new_ms,
                    "ratio": new_ms / old_ms if old_ms else None,
                    "old_io": old_io,
                    "new_io": new_io,
                }
            )
    return regressions


def format_report(result: Dict[str, object]) -> str:
    """Aligned text table of a result's phases (the ``--report`` view)."""
    headers = (
        "phase", "sim ms", "wall ms", "reads", "writes", "hit ratio",
    )
    rows: List[List[str]] = []
    for phase in result.get("phases", []):  # type: ignore[union-attr]
        io = phase["io"]  # type: ignore[index]
        buf = phase["buffer"]  # type: ignore[index]
        reads = io["sequential_reads"] + io["random_reads"]  # type: ignore[index]
        writes = io["sequential_writes"] + io["random_writes"]  # type: ignore[index]
        ratio = buf["hit_ratio"]  # type: ignore[index]
        rows.append(
            [
                str(phase["name"]),  # type: ignore[index]
                f"{phase['simulated_ms']:.1f}",  # type: ignore[index]
                f"{phase['wall_ms']:.1f}",  # type: ignore[index]
                str(reads),
                str(writes),
                "-" if ratio is None else f"{ratio:.3f}",
            ]
        )
    totals = result.get("totals", {})
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        f"suite: {result.get('suite')}  "
        f"(schema v{result.get('schema_version')})",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
    ]
    lines.append("-" * len(lines[-1]))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(
        f"total: {totals.get('simulated_ms', 0.0):.1f} ms simulated, "
        f"{totals.get('wall_ms', 0.0):.1f} ms wall"
    )
    return "\n".join(lines)


def load_result(path: str) -> Dict[str, object]:
    """Read a bench JSON document, checking its schema version."""
    with open(path) as handle:
        result = json.load(handle)
    version = result.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} is not {SCHEMA_VERSION}"
        )
    return result
