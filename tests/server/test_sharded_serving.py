"""Serving a two-shard database: coalesced rounds over the scatter-gather
forest.

``AdmissionQueue._execute_group`` turns any two concurrent ``/query``
requests into one ``engine.query_batch`` call, so the batch path is the
serving path under load.  This test parks the admission executor (the
way ``test_rejects_past_max_depth`` does), lets several HTTP requests for
slices of one lattice node pile up behind it, and requires every one of
them to come back 200 with the on-the-fly oracle's rows — before and
after a published refresh.
"""

import json
import threading
import time
import urllib.error
import urllib.request

from repro.core.onthefly import OnTheFlyEngine
from repro.obs import get_registry
from repro.query.slice import SliceQuery
from repro.server import (
    CubetreeServer,
    ServerConfig,
    bootstrap_database,
    make_http_server,
)
from repro.warehouse.tpcd import TPCDGenerator

SCALE, SEED = 0.0005, 61


def _post(base, path, body):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _slices(facts):
    """Slices of the {partkey, suppkey} node, three shapes of them."""
    parts = sorted({row[0] for row in facts})[:4]
    supps = sorted({row[1] for row in facts})[:4]
    return (
        # Leading coordinate (partkey) unbound: spans both shards, merged.
        [SliceQuery(("partkey",), (("suppkey", v),)) for v in supps]
        # Leading coordinate bound: exactly one shard answers.
        + [SliceQuery(("suppkey",), (("partkey", v),)) for v in parts]
        # Totals on V_s's leading coordinate: fold pushed into one shard.
        + [SliceQuery((), (("suppkey", v),)) for v in supps]
    )


def _coalesced_round(base, server, queries):
    """Answer ``queries`` over HTTP in ONE executor round; returns the
    ``(status, payload)`` list in query order."""
    pinned = server.manager.acquire()
    entered, release = threading.Event(), threading.Event()

    class BlockingHandle:
        number = pinned.number

        class engine:  # noqa: N801 - stub namespace
            @staticmethod
            def query(query):
                entered.set()
                release.wait(60.0)
                return pinned.engine.query(query)

    responses = [None] * len(queries)

    def client(index):
        query = queries[index]
        responses[index] = _post(base, "/query", {
            "group_by": list(query.group_by),
            "bindings": [list(b) for b in query.bindings],
        })

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(queries))
    ]
    try:
        # Park the executor inside a first query: everything submitted
        # until ``release`` stays queued and is drained as one round.
        blocker = server.admission.submit_nowait(BlockingHandle(), queries[0])
        assert entered.wait(60.0)
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60.0
        while server.admission.depth < len(queries):
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.005)
        release.set()
        server.admission.wait(blocker, timeout=60.0)
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        release.set()
        server.manager.release(pinned)
    return responses


def _check(responses, queries, oracle, generation):
    for query, (status, payload) in zip(queries, responses):
        assert status == 200, payload
        assert payload["generation"] == generation
        expected = [list(row) for row in oracle.query(query).rows]
        assert payload["rows"] == expected, query.describe()


def test_two_shard_server_answers_coalesced_slices(tmp_path):
    directory = str(tmp_path / "db")
    report = bootstrap_database(directory, scale=SCALE, seed=SEED, shards=2)
    assert report.created
    generator = TPCDGenerator(scale_factor=SCALE, seed=SEED)
    data = generator.generate()
    oracle = OnTheFlyEngine(data.schema, buffer_pages=64)
    oracle.load_fact(data.facts)
    queries = _slices(data.facts)
    coalesced = get_registry().counter("server.queries_coalesced")

    server = CubetreeServer(directory, ServerConfig(retain=2)).start()
    httpd = make_http_server(server)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        status, _payload = _post(
            base, "/query", {"sql": "select sum(quantity) from F"}
        )
        assert status == 200
        assert len(server.shard_stats()) == 2

        before = coalesced.value
        responses = _coalesced_round(base, server, queries)
        assert coalesced.value - before == len(queries), "round never coalesced"
        _check(responses, queries, oracle, generation=1)

        # Publish one refresh; the new generation keeps both shards and
        # its coalesced rounds answer from the refreshed data.
        delta = generator.generate_increment(0.2, stream="coalesce")
        status, _payload = _post(
            base, "/delta", {"rows": [list(row) for row in delta]}
        )
        assert status == 202
        status, payload = _post(base, "/refresh", {})
        assert status == 200 and payload["status"] == "published"
        assert len(server.shard_stats()) == 2
        oracle.append(delta)

        responses = _coalesced_round(base, server, queries)
        _check(responses, queries, oracle, generation=payload["generation"])
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.close()
