"""The ``repro bench`` harness: the simulated-I/O gate.

Each suite runs a small, deterministic slice of the paper's workload
(loading, querying, merge-pack refresh, serving, sharding, leaf format)
and emits one schema-versioned JSON document: an environment
fingerprint, per-phase simulated-I/O and buffer-pool deltas, and the
process-wide metric counters.  Everything outside ``env`` reproduces
run to run, so a fresh document equals the committed baseline there.
:func:`compare` flags phases whose I/O counters moved or whose
simulated milliseconds regressed past a threshold.  Wall-clock is not
measured here: ``bench_e2e`` times the system end to end.

Used by CI (every suite against ``bench/BENCH_<suite>.json``) and by
hand when touching storage-layer code::

    python -m repro bench --suite smoke --out BENCH_smoke.json
    ... hack hack hack ...
    python -m repro bench --suite smoke --compare BENCH_smoke.json
"""

from __future__ import annotations

import json
import platform
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
    "smoke", "loading", "queries", "updates", "serving", "sharding",
    "columnar",
)

#: Default scale factor per suite (kept tiny: the bench guards against
#: regressions, it does not reproduce the paper's figures).
_DEFAULT_SCALES = {  # repro: read-only
    "smoke": 0.001,
    "loading": 0.002,
    "queries": 0.002,
    "updates": 0.002,
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
    "serving": 5,
    "sharding": 5,
    "columnar": 5,
}

#: Buffer-pool counters copied into every phase record.
_BUFFER_FIELDS = (
    "hits", "misses", "evictions", "new_pages", "unpins",
    "scan_admissions", "promotions", "readahead_pages",
)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def _pools(target) -> list:
    """The buffer pools of an engine (one per shard) or a bare pool."""
    shards = getattr(target, "shards", None)
    if shards is not None:
        return [shard.pool for shard in shards]
    return [getattr(target, "pool", target)]


def _counters(target) -> List[Tuple[object, object]]:
    """Per-pool ``(IOStats, BufferStats)`` copies of ``target``."""
    return [
        (pool.disk.cost_model.snapshot(), pool.stats.copy())
        for pool in _pools(target)
    ]


class BenchRun:
    """Accumulates the phases of one suite run.

    A phase is the simulated I/O and buffer traffic of some work on an
    engine or a pool: :meth:`phase` around work the suite runs,
    :meth:`load` for a build that happened inside a constructor.  An
    engine's shards are priced on the critical path (summed counters,
    the slowest shard's milliseconds) and their buffer counters summed.
    """

    def __init__(self, suite: str, config: Dict[str, object]) -> None:
        self.suite = suite
        self.config = config
        self.phases: List[Dict[str, object]] = []

    @contextmanager
    def phase(self, name: str, target) -> Iterator[None]:
        """Record the body's traffic on ``target``."""
        before = _counters(target)
        yield
        self._record(name, target, before)

    def load(self, name: str, target) -> None:
        """Record all of ``target``'s traffic since it was made."""
        self._record(name, target, None)

    def _record(
        self,
        name: str,
        target,
        before: Optional[Sequence[Tuple[object, object]]],
    ) -> None:
        from repro.core.sharded import combine_io

        after = _counters(target)
        if before is not None:
            after = [
                (io - io0, buf - buf0)
                for (io, buf), (io0, buf0) in zip(after, before)
            ]
        io = combine_io([io for io, _buf in after])
        buffer = {
            field: sum(getattr(buf, field) for _io, buf in after)
            for field in _BUFFER_FIELDS
        }
        accesses = buffer["hits"] + buffer["misses"]
        buffer["accesses"] = accesses
        # null (not 0.0) when the phase made no lookups.
        buffer["hit_ratio"] = buffer["hits"] / accesses if accesses else None
        self.phases.append(
            {
                "name": name,
                "simulated_ms": io.simulated_ms,
                "overhead_ms": io.overhead_ms,
                "io": {
                    "sequential_reads": io.sequential_reads,
                    "random_reads": io.random_reads,
                    "sequential_writes": io.sequential_writes,
                    "random_writes": io.random_writes,
                },
                "buffer": buffer,
            }
        )

    def result(self, **summary: object) -> Dict[str, object]:
        """The finished JSON document (metric counters taken here);
        ``summary`` adds suite-specific top-level blocks."""
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
            },
            "metrics": {"counters": get_registry().snapshot()["counters"]},
            **summary,
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

    The metrics registry is reset at the start so the embedded counters
    cover exactly this run.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    if scale is None:
        scale = _DEFAULT_SCALES[suite]
    if queries_per_node is None:
        queries_per_node = _DEFAULT_QUERIES[suite]

    get_registry().reset()
    return globals()[f"_suite_{suite}"](scale, seed, queries_per_node)


def _start(suite: str, scale: float, seed: int, queries: int):
    """A suite's experiment config, recorder, and generated warehouse."""
    from repro.experiments.common import ExperimentConfig, build_warehouse

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
    generator, data = build_warehouse(config)
    return config, run, generator, data


def _workload(data, config, nodes: int) -> list:
    """``config.queries_per_node`` queries on each of the first
    ``nodes`` Fig. 12 lattice nodes."""
    from repro.experiments.common import FIG12_NODES
    from repro.query.generator import RandomQueryGenerator

    qgen = RandomQueryGenerator(data.schema, seed=config.query_seed)
    return [
        query
        for node in FIG12_NODES[:nodes]
        for query in qgen.generate_for_node(node, config.queries_per_node)
    ]


def _compute_phase(run: BenchRun, name: str, config, data, rows) -> None:
    """Record a pure-CPU cube-computation phase (simulated I/O ~ 0)."""
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
    from repro.experiments.common import build_cubetree_engine

    config, run, generator, data = _start("smoke", scale, seed, queries)
    engine, _ = build_cubetree_engine(config, data)
    run.load("load", engine)

    with run.phase("queries", engine):
        for query in _workload(data, config, 3):
            engine.query(query)

    delta = generator.generate_increment(config.increment_fraction)
    with run.phase("update", engine):
        engine.update(delta)
    return run.result()


def _suite_loading(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Cubetree bulk load vs. conventional load+index (Table 6's shape)."""
    from repro.experiments.common import (
        build_conventional_engine,
        build_cubetree_engine,
    )

    config, run, _generator, data = _start("loading", scale, seed, queries)
    _compute_phase(run, "cube_compute", config, data, data.facts)
    cube, _ = build_cubetree_engine(config, data)
    run.load("cubetree_load", cube)
    conv, _ = build_conventional_engine(config, data)
    run.load("conventional_load", conv)
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
    from repro.experiments.common import FIG12_NODES, build_cubetree_engine
    from repro.query.generator import RandomQueryGenerator

    config, run, _generator, data = _start("queries", scale, seed, queries)
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
        with run.phase(f"serial:{label}", engine):
            for query in node_queries:
                engine.query(query)

        engine.pool.clear()
        with run.phase(f"fast:{label}", engine):
            for query in node_queries:
                engine.query_batch([query])

        engine.pool.clear()
        with run.phase(f"batch:{label}", engine):
            engine.query_batch(node_queries)
    return run.result()


def _suite_updates(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """Merge-pack refresh vs. conventional incremental refresh."""
    from repro.experiments.common import (
        build_conventional_engine,
        build_cubetree_engine,
    )

    config, run, generator, data = _start("updates", scale, seed, queries)
    delta = generator.generate_increment(config.increment_fraction)

    _compute_phase(run, "delta_compute", config, data, delta)

    cube, _ = build_cubetree_engine(config, data)
    with run.phase("cubetree_merge_pack", cube):
        cube.update(delta)

    conv, _ = build_conventional_engine(config, data)
    with run.phase("conventional_incremental", conv):
        conv.update_incremental(delta)
    return run.result()


def _suite_serving(scale: float, seed: int, queries: int) -> Dict[str, object]:
    """The serving path (the PR 7 server, Sec. 5's claim), serially.

    ``serve_queries`` answers the workload through the admission path on
    the bootstrapped generation; ``refresh`` is the builder's load +
    merge-pack + checkpoint of one increment, measured on the builder's
    own pool (the published engine is the builder).  Throughput under
    concurrent refresh is a wall-clock question: ``bench_e2e``'s
    ``refresh_mixed`` workload measures it over HTTP.
    """
    import shutil
    import tempfile

    from repro.server import CubetreeServer, ServerConfig, bootstrap_database

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-serving-")
    try:
        bootstrap_database(tmpdir, scale=scale, seed=seed)
        config, run, generator, data = _start("serving", scale, seed, queries)
        server = CubetreeServer(tmpdir, ServerConfig(retain=2)).start()
        try:
            workload = _workload(data, config, 4)
            handle = server.manager.acquire()
            try:
                with run.phase("serve_queries", handle.engine):
                    for query in workload:
                        server.query(query)
            finally:
                server.manager.release(handle)

            server.submit_delta(
                generator.generate_increment(
                    config.increment_fraction, stream="bench-refresh-0"
                )
            )
            outcome = server.refresh_now()
            if outcome.status != "published":
                raise RuntimeError(
                    f"serving bench refresh failed: {outcome.error}"
                )
            handle = server.manager.acquire()
            try:
                run.load("refresh", handle.engine)
            finally:
                server.manager.release(handle)
            return run.result()
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
    """
    from repro.experiments.common import build_cubetree_engine
    from repro.query.slice import SliceQuery

    config, run, generator, data = _start("sharding", scale, seed, queries)
    delta = generator.generate_increment(config.increment_fraction)

    #: (view routed to, bound attribute) — each binds the leading group
    #: coordinate of its target view, the single-shard case.
    point_shapes = (
        ((), "custkey"),           # -> V_c
        ((), "suppkey"),           # -> V_s
        (("suppkey",), "partkey"),  # -> V_ps
    )
    point_queries = [
        SliceQuery(
            group_by=tuple(group_by),
            bindings=((attr, 1 + (repeat * len(point_shapes) + i) % 7),),
        )
        for repeat in range(max(1, queries))
        for i, (group_by, attr) in enumerate(point_shapes)
    ]
    max_touched = 0
    for num_shards in (1, 4):
        tag = f"n{num_shards}"
        engine, _ = build_cubetree_engine(config, data, shards=num_shards)
        run.load(f"load_{tag}", engine)

        with run.phase(f"point_queries_{tag}", engine):
            for query in point_queries:
                routed_before = [s.routed_queries for s in engine.shards]
                engine.query_batch([query])
                touched = sum(
                    1
                    for before, shard in zip(routed_before, engine.shards)
                    if shard.routed_queries > before
                )
                max_touched = max(max_touched, touched)

        with run.phase(f"merge_pack_{tag}", engine):
            engine.update(delta)

    sim_ms = {p["name"]: p["simulated_ms"] for p in run.phases}

    def ratio(phase: str) -> float:
        base = sim_ms[f"{phase}_n1"]
        return sim_ms[f"{phase}_n4"] / base if base else 0.0  # type: ignore[operator]

    return run.result(
        sharding_summary={
            "load_ratio_n4_vs_n1": ratio("load"),
            "merge_pack_ratio_n4_vs_n1": ratio("merge_pack"),
            "point_query_max_shards_touched": max_touched,
        }
    )


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

    from repro.experiments.common import build_cubetree_engine

    #: Small-pool pages — far below the columnar leaf-run size, so every
    #: pass re-fetches evicted pages.
    small_pool_pages = 24
    #: Workload passes in the small-pool phase.
    small_pool_passes = 3
    #: Workload passes in the repeated columnar phase.
    kernel_passes = 5

    config, run, _generator, data = _start("columnar", scale, seed, queries)
    workload = _workload(data, config, 4)

    def answer(engine) -> List[Tuple[object, ...]]:
        """The workload's sorted rows, each query run on its own with
        the run-aware plans (a one-query batch)."""
        return [
            tuple(sorted(engine.query_batch([query]).results[0].rows))
            for query in workload
        ]

    def check(answers, what: str) -> None:
        if answers != results["columnar"]:
            raise RuntimeError(f"columnar bench: {what} answered differently")

    results: Dict[str, object] = {}
    pages: Dict[str, int] = {}
    engine = None
    for mode in ("row", "columnar"):
        with override(leaf_format=mode):
            engine, _ = build_cubetree_engine(config, data)
        run.load(f"load_{mode}", engine)
        pages[mode] = engine.forest.num_pages
        engine.pool.clear()
        with run.phase(f"queries_{mode}", engine):
            results[mode] = answer(engine)
    check(results["row"], "the row format")

    # -- repeated passes, single-query path ----------------------------
    engine.pool.clear()
    with run.phase("queries_columnar_vector", engine):
        for _ in range(kernel_passes):
            repeated = answer(engine)
    check(repeated, "repeated passes")

    # -- batch executor ------------------------------------------------
    engine.pool.clear()
    with run.phase("batch_columnar_vector", engine):
        batch = engine.query_batch(workload)
    check([tuple(sorted(r.rows)) for r in batch.results], "the batch")

    # -- small pool under scan churn -----------------------------------
    with override(leaf_format="columnar"):
        small_engine, _ = build_cubetree_engine(
            replace(config, buffer_pages=small_pool_pages), data
        )
    run.load("load_columnar_small", small_engine)
    small_engine.pool.clear()
    with run.phase("queries_small_vector", small_engine):
        for _ in range(small_pool_passes):
            small_answers = answer(small_engine)
    check(small_answers, "the small pool")

    counters = get_registry().snapshot()["counters"]
    return run.result(
        columnar_summary={
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
    )


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
    ignored (renames should not fail CI).  A matched phase is flagged
    when its integer I/O counters differ in either direction (the
    simulated figures are deterministic, so any moved page is
    reported), or when its simulated time rose past ``threshold`` over
    a baseline of at least 1 ms (a 0.1 ms phase tripling is noise, not
    a regression).  Returns one record per flagged phase; empty list
    means "no change, no worse".
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
    headers = ("phase", "sim ms", "reads", "writes", "hit ratio")
    rows: List[List[str]] = []
    for phase in result.get("phases", []):  # type: ignore[union-attr]
        io = phase["io"]  # type: ignore[index]
        ratio = phase["buffer"]["hit_ratio"]  # type: ignore[index]
        rows.append(
            [
                str(phase["name"]),  # type: ignore[index]
                f"{phase['simulated_ms']:.1f}",  # type: ignore[index]
                str(io["sequential_reads"] + io["random_reads"]),  # type: ignore[index]
                str(io["sequential_writes"] + io["random_writes"]),  # type: ignore[index]
                "-" if ratio is None else f"{ratio:.3f}",
            ]
        )
    totals = result.get("totals", {})
    widths = [
        max([len(headers[i])] + [len(r[i]) for r in rows])
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
        f"total: {totals.get('simulated_ms', 0.0):.1f} ms simulated"  # type: ignore[union-attr]
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
