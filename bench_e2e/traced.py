"""The traced run: where a request's time goes, layer by layer.

The server is hosted *in this process* so that span recorders can be
hung on its entry points (see :mod:`bench_e2e.tracer`).  The workload's
first requests are replayed over a loopback socket twice — once plain,
once recorded — and the ratio of the two medians is the tracing overhead.
Client and server share one interpreter lock here, so the absolute times
are this run's own; the timed run is the one that measures latency.

Every response of both passes is checked by the oracle.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.obs import get_registry
from repro.server import CubetreeServer, bootstrap_database, make_http_server

from bench_e2e import layers, measure
from bench_e2e.oracle import Oracle
from bench_e2e.serving import HOST, work_directory
from bench_e2e.timed import (
    Cycle,
    Sample,
    count_wrong,
    payloads_of,
    read_loop,
    refresh_cycles,
    result,
)
from bench_e2e.tracer import Span, Tracer
from bench_e2e.workloads import (
    INCREMENT_FRACTION,
    Request,
    Workload,
    build_requests,
    delta_request,
    increments,
)

#: Refresh cycles per pass of a traced writer workload.
TRACED_CYCLES = 3
#: Bytes of one fact row as the warehouse ships it: four int64 fields.
FACT_ROW_BYTES = 32


class Pass(NamedTuple):
    """One replay of the workload's requests."""

    reads: List[Sample]
    cycles: List[Cycle]


def replay(
    port: int,
    workload: Workload,
    requests: Sequence[Request],
    deltas: Iterator[Request],
    limit: int,
    seconds: float,
    tagged: bool,
) -> Pass:
    """Send up to ``limit`` requests with one client, stopping at ``seconds``.

    A writer workload instead runs ``TRACED_CYCLES`` refresh cycles with a
    reader looping beside them, because the stall a refresh causes can
    only be seen by a reader that is running while it happens.
    """
    reads: List[Sample] = []
    deadline = time.perf_counter() + seconds
    if not workload.writer:
        read_loop(
            port, requests, 0, 1,
            lambda: len(reads) < limit and time.perf_counter() < deadline,
            reads, check_every=1, tag="read" if tagged else None,
        )
        return Pass(reads, [])
    writer_done = threading.Event()
    reader = threading.Thread(
        target=read_loop,
        args=(port, requests, 0, 1, lambda: not writer_done.is_set(), reads),
        kwargs={"check_every": 1, "tag": "read" if tagged else None},
    )
    reader.start()
    try:
        cycles = refresh_cycles(
            port, deltas,
            lambda done: done < limit
            and (done == 0 or time.perf_counter() < deadline),
            tag="write-" if tagged else None,
        )
    finally:
        writer_done.set()
        reader.join()
    return Pass(reads, cycles)


def _counters() -> Dict[str, float]:
    return dict(get_registry().snapshot()["counters"])


def _sum(spans: Sequence[Span], prefixes: Tuple[str, ...], field: str) -> float:
    return sum(
        getattr(s, field) for s in spans if s.name.startswith(prefixes)
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Sequence[Span],
    handler_wrapped: bool,
    plain: Pass,
    traced: Pass,
    counts: Dict[str, float],
    hooks: Dict[str, float],
) -> Dict[str, float]:
    """Turn one traced pass into the per-layer numbers (setup aside)."""
    answered = [s for s in traced.reads if s.status == 200]
    queries = sum(len(s.request.queries) for s in answered) or 1
    read_ids = {f"read{n}" for n in range(len(traced.reads))}
    # Without the handler's span no request id reaches the server, so the
    # reader's spans cannot be told from the writer's: take them all.
    read_spans = (
        [s for s in spans if s.request in read_ids] if handler_wrapped
        else list(spans)
    )
    per_query_ms = 1000.0 / queries

    out: Dict[str, float] = {
        name: _sum(read_spans, prefixes, "self_time") * per_query_ms
        for name, prefixes in layers.SELF_MS.items()
    }
    client_s = sum(s.end - s.start for s in traced.reads)
    roots_s = sum(
        s.duration for s in read_spans if s.parent is None and not s.remote
    )
    # Socket, kernel, HTTP framing and the server's accept/parse loop:
    # the part of client latency before and after any recorded span.
    edge_s = client_s - roots_s
    out["server.http.self_ms"] += edge_s * per_query_ms
    out["client.latency_ms"] = client_s * per_query_ms
    out["engine_side.self_ms"] = (
        _sum(read_spans, layers.ENGINE_SIDE, "self_time") * per_query_ms
    )
    out["server.http.response_kb"] = _share(
        sum(len(s.body or b"") for s in answered) / 1024.0, len(answered)
    )
    attributed_s = edge_s + sum(s.self_time for s in read_spans)
    out["trace.unattributed_share"] = _share(
        abs(client_s - attributed_s), client_s
    )
    plain_ms = [(s.end - s.start) * 1000.0 for s in plain.reads]
    traced_ms = [(s.end - s.start) * 1000.0 for s in traced.reads]
    out["trace.overhead_ratio"] = (
        _share(statistics.median(traced_ms), statistics.median(plain_ms))
        if plain_ms and traced_ms else 0.0
    )

    for name, counter in layers.PER_QUERY_COUNTS.items():
        out[name] = counts.get(counter, 0) / queries
    out["server.admission.coalesced_share"] = (
        counts.get("server.queries_coalesced", 0) / queries
    )
    out["server.admission.rejected"] = counts.get("server.admission_rejected", 0)
    out["query.batch.batched_share"] = (
        counts.get("query.cubetree.batched_queries", 0) / queries
    )
    out["query.router.run_plan_share"] = _share(
        hooks.get("router.run_plans", 0), hooks.get("router.decisions", 0)
    )
    hits, misses = counts.get("buffer.hits", 0), counts.get("buffer.misses", 0)
    out["storage.buffer.hit_ratio"] = _share(hits, hits + misses)
    col_hits = counts.get("buffer.column_cache.hits", 0)
    col_misses = counts.get("buffer.column_cache.misses", 0)
    out["storage.buffer.column_cache_hit_ratio"] = _share(
        col_hits, col_hits + col_misses
    )
    out["rtree.tree.pages"] = (
        sum(s.name == "storage.buffer.fetch_page" for s in read_spans) / queries
    )
    out["rtree.node.decodes"] = (
        sum(s.name.startswith("rtree.node.") for s in read_spans) / queries
    )
    examined = hooks.get("rows_examined", 0) + sum(
        s.items for s in read_spans if s.name == "core.forest.query_view"
    )
    returned = sum(
        answer["row_count"] for s in answered for answer in payloads_of(s)
    )
    out["core.answer.rows_examined_per_row_returned"] = _share(
        examined, returned
    )

    cycles = sum(c.ok for c in traced.cycles)
    for name, span_name in layers.PER_CYCLE_MS.items():
        out[name] = _share(
            _sum(spans, (span_name,), "duration") * 1000.0, cycles
        )
    out["rtree.merge.entries"] = _share(
        counts.get("rtree.merge_pack.entries", 0), cycles
    )
    out["storage.disk.pages_written"] = _share(
        counts.get("io.writes.random", 0)
        + counts.get("io.writes.sequential", 0),
        cycles,
    )
    out["client.read_max_ms_during_refresh"] = max(
        (
            (s.end - s.start) * 1000.0
            for s in traced.reads
            for c in traced.cycles
            if s.start < c.refresh_start + c.refresh_s and s.end > c.refresh_start
        ),
        default=0.0,
    )
    return out


def _compact(spans: Sequence[Span], origin: float) -> List[list]:
    """Spans as rows for ``--out``: id, parent id, request, name, start ms
    since the pass began, duration ms, self ms."""
    return [
        [
            s.id, s.parent.id if s.parent else None, s.request, s.name,
            round((s.start - origin) * 1000.0, 4),
            round(s.duration * 1000.0, 4), round(s.self_time * 1000.0, 4),
        ]
        for s in spans
    ]


@contextlib.contextmanager
def hosted(database: str) -> Iterator[Tuple[CubetreeServer, Any]]:
    """Serve ``database`` over a loopback socket from this process."""
    server = CubetreeServer(database).start()
    try:
        httpd = make_http_server(server, host=HOST, port=0)
        serving = threading.Thread(target=httpd.serve_forever)
        serving.start()
        try:
            yield server, httpd
        finally:
            httpd.shutdown()
            httpd.server_close()
            serving.join()
    finally:
        server.close()


def run_traced(
    workload: Workload, seed: int, seconds: float, scale: float
) -> Dict[str, Any]:
    """One traced run of one workload: every per-layer metric, checked."""
    calibration_before = measure.calibration_ms()
    requests = build_requests(workload, seed, scale)
    deltas = (delta_request(rows) for rows in increments(seed, scale))
    limit = TRACED_CYCLES if workload.writer else workload.traced_requests
    tracer = Tracer()

    with contextlib.ExitStack() as stack:
        directory = stack.enter_context(work_directory("traced-"))
        database = os.path.join(directory, "db")
        with tracer.recording(layers.SETUP_TARGETS):
            bootstrap_database(database, scale=scale, seed=seed)
            server, httpd = stack.enter_context(hosted(database))
        setup_spans = tracer.drain()
        port = httpd.server_address[1]

        plain = replay(port, workload, requests, deltas, limit, seconds, False)
        done = len(plain.cycles) if workload.writer else len(plain.reads)
        before = _counters()
        origin = time.perf_counter()
        with tracer.recording(layers.SERVING_TARGETS):
            handler = httpd.RequestHandlerClass
            handler_wrapped = all(
                hasattr(handler, verb) for verb in ("do_GET", "do_POST")
            )
            if handler_wrapped:
                tracer.wrap(handler, "do_GET", layers.HANDLER_TARGET)
                tracer.wrap(handler, "do_POST", layers.HANDLER_TARGET)
            else:
                tracer.missing.append("http handler do_GET/do_POST")
            traced = replay(
                port, workload, requests, deltas, done, 10 * seconds, True
            )
            tracer.quiesce()
        counts = {
            name: value - before.get(name, 0)
            for name, value in _counters().items()
        }
        spans = tracer.drain()
        pool_coverage, generation_bytes = server.manager.run_pinned(
            lambda handle: (
                handle.engine.pool.capacity / handle.engine.storage_pages(),
                measure.tree_bytes(handle.path),
            )
        )
    calibration_after = measure.calibration_ms()

    oracle = Oracle(scale, seed)
    values = layer_metrics(
        spans, handler_wrapped, plain, traced, counts, tracer.counters
    )
    for name, prefix in layers.SETUP_S.items():
        values[name] = _sum(setup_spans, (prefix,), "duration")
    values["storage.buffer.pool_coverage"] = pool_coverage
    delta_bytes = round(len(oracle.base) * INCREMENT_FRACTION) * FACT_ROW_BYTES
    values["core.persistence.bytes_written_per_delta_byte"] = (
        generation_bytes / delta_bytes if traced.cycles else 0.0
    )
    values["host.calibration_ms"] = calibration_after
    missing_targets = sorted(set(tracer.missing))
    values["trace.missing"] = len(missing_targets)

    reads = plain.reads + traced.reads
    return result(
        workload, "traced", seed, values, reads, plain.cycles + traced.cycles,
        count_wrong(oracle, reads),
        (calibration_before, calibration_after),
        {
            "requests_per_pass": len(traced.reads),
            "refresh_cycles_per_pass": len(traced.cycles),
            "trace.missing": missing_targets,
            "spans_recorded": len(spans),
            "spans": _compact(spans, origin),
        },
    )
