"""The timed run: a closed-loop client against a ``repro serve`` subprocess.

Nothing is traced here.  The client is this process: stdlib
``http.client``, keep-alive, default socket options, one thread per
connection and at most two connections, because the sandbox has two
cores and the server needs one of them.  The loop is closed — a BI
caller waits for its reply before asking again — so a slow server is
offered less load, and ``qps`` and latency move together.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from bench_e2e import load_spec, measure
from bench_e2e.oracle import Oracle
from bench_e2e.serving import (
    JSON_HEADERS,
    Server,
    connect,
    exchange,
    get_json,
    serve,
)
from bench_e2e.workloads import (
    REFRESH_REQUEST,
    Request,
    Workload,
    build_requests,
    delta_request,
    increments,
)

#: Share of ``--seconds`` run before the window opens and thrown away:
#: it fills the buffer pool and finishes lazy imports.
WARMUP_SHARE = 0.2
#: Every n-th response per connection is kept and checked by the oracle
#: once the window has closed (checking inside it would steal the
#: client's core).
CHECK_EVERY = 20
#: ``refresh_p50_s`` and ``delta_ack_p50_ms`` are medians over this many
#: cycles, so the number means the same at every window length.
GATED_CYCLES = 5
#: Refresh cycles a read-only workload runs after its window, with no
#: reader beside them, so that it too reports the two refresh metrics.
TAIL_CYCLES = 3
#: Servers set up per run; ``setup_s`` is the median of their set-up times.
SETUP_SAMPLES = 2


class Sample(NamedTuple):
    """One request as the client saw it."""

    request: Request
    start: float
    end: float
    status: int  # 0 when the connection failed
    body: Optional[bytes]  # kept only on every CHECK_EVERY-th sample


class Cycle(NamedTuple):
    """One ``POST /delta`` then ``POST /refresh``."""

    delta_ms: float
    refresh_start: float
    refresh_s: float
    ok: bool
    generation: int


def _headers(tag: Optional[str], serial: object) -> Dict[str, str]:
    """Request headers; a traced pass tags each request with its id."""
    if tag is None:
        return JSON_HEADERS
    return {**JSON_HEADERS, "X-Request-Id": f"{tag}{serial}"}


def read_loop(
    port: int,
    requests: Sequence[Request],
    first: int,
    stride: int,
    keep_going: Callable[[], bool],
    samples: List[Sample],
    check_every: int = CHECK_EVERY,
    tag: Optional[str] = None,
) -> None:
    """One connection's closed loop: send, wait for the whole reply, repeat.

    With a ``tag``, sample ``n`` of this loop travels as request id
    ``<tag><n>``.
    """
    conn = connect(port)
    index = first
    try:
        while keep_going():
            request = requests[index % len(requests)]
            keep = len(samples) % check_every == 0
            headers = _headers(tag, len(samples))
            start = time.perf_counter()
            try:
                status, body = exchange(
                    conn, "POST", request.path, request.body, headers
                )
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                conn.close()
                time.sleep(0.05)  # a dead server must not spin the loop
            end = time.perf_counter()
            samples.append(
                Sample(request, start, end, status, body if keep else None)
            )
            index += stride
    finally:
        conn.close()


def refresh_cycles(
    port: int,
    deltas: Iterator[Request],
    keep_going: Callable[[int], bool],
    tag: Optional[str] = None,
) -> List[Cycle]:
    """Run delta+refresh cycles on one connection while ``keep_going(done)``."""
    cycles: List[Cycle] = []
    conn = connect(port)
    try:
        while keep_going(len(cycles)):
            delta = next(deltas)
            serial = len(cycles)
            start = time.perf_counter()
            try:
                delta_status, _ = exchange(
                    conn, "POST", delta.path, delta.body,
                    _headers(tag, f"delta{serial}"),
                )
                acked = time.perf_counter()
                status, body = exchange(
                    conn, "POST", REFRESH_REQUEST.path,
                    headers=_headers(tag, f"refresh{serial}"),
                )
                done = time.perf_counter()
                outcome = json.loads(body) if status == 200 else {}
            except (OSError, http.client.HTTPException, ValueError):
                cycles.append(Cycle(0.0, start, 0.0, False, 0))
                break
            cycles.append(
                Cycle(
                    (acked - start) * 1000.0,
                    acked,
                    done - acked,
                    delta_status == 202
                    and outcome.get("status") == "published",
                    outcome.get("generation") or 0,
                )
            )
    finally:
        conn.close()
    return cycles


class Window(NamedTuple):
    """Everything one measured window produced."""

    opened: float
    per_connection: List[List[Sample]]
    cycles: List[Cycle]
    cpu_s: float
    peak_rss_mib: float


def drive(
    server: Server,
    workload: Workload,
    requests: Sequence[Request],
    deltas: Iterator[Request],
    seconds: float,
) -> Window:
    """Warm up, then measure for ``seconds`` (a writer finishes its cycle)."""
    opens = time.perf_counter() + WARMUP_SHARE * seconds
    closes = opens + seconds
    writer_done = threading.Event()
    abort = threading.Event()  # set on Ctrl-C so the loops stop at once
    if workload.writer:
        def reading() -> bool:
            return not (writer_done.is_set() or abort.is_set())
    else:
        def reading() -> bool:
            return time.perf_counter() < closes and not abort.is_set()

    per_connection: List[List[Sample]] = [
        [] for _ in range(workload.connections)
    ]
    readers = [
        threading.Thread(
            target=read_loop,
            args=(
                server.port, requests, i, workload.connections, reading,
                per_connection[i],
            ),
        )
        for i in range(workload.connections)
    ]
    cycles: List[Cycle] = []

    def writing() -> None:
        try:
            time.sleep(max(0.0, opens - time.perf_counter()))
            cycles.extend(
                refresh_cycles(
                    server.port,
                    deltas,
                    lambda done: not abort.is_set()
                    and (done < GATED_CYCLES or time.perf_counter() < closes),
                )
            )
        finally:
            writer_done.set()

    threads = list(readers)
    if workload.writer:
        threads.append(threading.Thread(target=writing))
    for thread in threads:
        thread.start()
    try:
        time.sleep(max(0.0, opens - time.perf_counter()))
        cpu_before = measure.cpu_seconds(server.pid)
        for thread in threads:
            thread.join()
    except BaseException:
        abort.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    return Window(
        opened=opens,
        per_connection=[
            [s for s in samples if s.start >= opens]
            for samples in per_connection
        ],
        cycles=cycles,
        cpu_s=measure.cpu_seconds(server.pid) - cpu_before,
        peak_rss_mib=measure.peak_rss_mib(server.pid),
    )


def payloads_of(sample: Sample) -> List[dict]:
    """The per-query answers inside one kept response body."""
    payload = json.loads(sample.body or b"null")
    if sample.request.path == "/query/batch":
        return payload["results"]
    return [payload]


def count_wrong(oracle: Oracle, samples: Sequence[Sample]) -> int:
    """Kept 200 responses that are malformed or disagree with the oracle."""
    wrong = 0
    for sample in samples:
        if sample.status != 200 or sample.body is None:
            continue
        try:
            answers = payloads_of(sample)
            bad = len(answers) != len(sample.request.queries) or (
                oracle.mismatches(sample.request.queries, answers)
            )
        except (ValueError, KeyError, TypeError):
            bad = True
        wrong += bool(bad)
    return wrong


def result(
    workload: Workload,
    mode: str,
    seed: int,
    values: Dict[str, float],
    reads: Sequence[Sample],
    cycles: Sequence[Cycle],
    wrong: int,
    calibration_ms: Tuple[float, float],
    info: Dict[str, object],
) -> Dict[str, object]:
    """One run's record: the listed metrics, the failure count, the flags.

    A delta and a refresh are one attempt each; a response that is not a
    200, a connection that failed and a wrong answer are one failure each.
    """
    listed = load_spec()["end_to_end" if mode == "timed" else "per_layer"]
    metrics, missing = measure.listed(values, listed)
    attempted = len(reads) + 2 * len(cycles)
    failed = (
        sum(s.status != 200 for s in reads) + wrong
        + 2 * sum(not cycle.ok for cycle in cycles)
    )
    return {
        "workload": workload.name,
        "mode": mode,
        "seed": seed,
        "correct": wrong == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "noisy": measure.noisy(*calibration_ms),
        "info": {
            "error_rate": failed / attempted if attempted else 1.0,
            "wrong_answers": wrong,
            "metrics_missing": missing,
            "host.calibration_ms": list(calibration_ms),
            **info,
        },
    }


def run_timed(
    workload: Workload, seed: int, seconds: float, scale: float
) -> Dict[str, object]:
    """One timed run of one workload: every end-to-end metric, checked."""
    calibration_before = measure.calibration_ms()
    requests = build_requests(workload, seed, scale)
    deltas = (delta_request(rows) for rows in increments(seed, scale))

    with serve(scale, seed) as server:
        setups = [server.setup_s]
        window = drive(server, workload, requests, deltas, seconds)
        cycles = list(window.cycles)
        if not workload.writer:
            cycles += refresh_cycles(
                server.port, deltas, lambda done: done < TAIL_CYCLES
            )
        generation = get_json(server.port, "/health")["generation"]
        stored_bytes = measure.tree_bytes(server.generation_path(generation))
    for _ in range(SETUP_SAMPLES - 1):
        with serve(scale, seed) as again:
            setups.append(again.setup_s)
    calibration_after = measure.calibration_ms()

    oracle = Oracle(scale, seed)
    samples = [s for conn in window.per_connection for s in conn]
    answered = [s for s in samples if s.status == 200]
    latencies = [(s.end - s.start) * 1000.0 for s in answered]
    queries = sum(len(s.request.queries) for s in answered)

    values: Dict[str, float] = {
        "setup_s": statistics.median(setups),
        "server_peak_rss_mb": window.peak_rss_mib,
        "storage_bytes_per_fact_row": stored_bytes / oracle.fact_rows(generation),
    }
    if answered:
        values["qps"] = sum(
            sum(len(s.request.queries) for s in conn if s.status == 200)
            / (conn[-1].end - window.opened)
            for conn in window.per_connection
            if conn
        )
        values["latency_p50_ms"] = statistics.median(latencies)
        values["latency_p95_ms"] = measure.percentile(latencies, 0.95)
        values["server_cpu_ms_per_query"] = window.cpu_s * 1000.0 / queries
    gated = [cycle for cycle in cycles if cycle.ok][:GATED_CYCLES]
    if gated:
        values["refresh_p50_s"] = statistics.median(c.refresh_s for c in gated)
        values["delta_ack_p50_ms"] = statistics.median(c.delta_ms for c in gated)

    return result(
        workload, "timed", seed, values, samples, cycles,
        count_wrong(oracle, samples),
        (calibration_before, calibration_after),
        {
            "responses_checked": sum(s.body is not None for s in samples),
            "requests": len(samples),
            "slice_queries": queries,
            "refresh_s": [cycle.refresh_s for cycle in cycles],
            "delta_ack_ms": [cycle.delta_ms for cycle in cycles],
            "setup_samples_s": setups,
            # Informational; needs 1 000 samples to mean anything.
            "latency_p99_ms": (
                measure.percentile(latencies, 0.99)
                if len(latencies) >= 1000 else None
            ),
        },
    )
