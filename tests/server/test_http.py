"""The HTTP/JSON API end to end over a real socket.

Routes, status codes, and — the part that matters — the generation tag:
an HTTP client must be able to key snapshot checks off ``generation``
in every query response, exactly like the in-process harness does.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.server import make_http_server


@pytest.fixture()
def endpoint(server):
    httpd = make_http_server(server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", server
    httpd.shutdown()
    httpd.server_close()


def _call(base, path, body=None):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutes:
    def test_health(self, endpoint):
        base, server = endpoint
        status, payload = _call(base, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == server.manager.current_number

    def test_structured_query_matches_in_process(self, endpoint, workload):
        base, server = endpoint
        query = workload[0]
        body = {
            "group_by": list(query.group_by),
            "bindings": [list(b) for b in query.bindings],
            "ranges": [list(r) for r in query.ranges],
        }
        status, payload = _call(base, "/query", body)
        assert status == 200
        served = server.query(query)
        assert payload["generation"] == served.generation
        assert payload["rows"] == [list(row) for row in served.rows]
        assert payload["row_count"] == len(served.rows)

    def test_sql_query(self, endpoint):
        base, server = endpoint
        status, payload = _call(
            base,
            "/query",
            {"sql": "select partkey, sum(quantity) from F group by partkey"},
        )
        assert status == 200
        assert payload["row_count"] > 0

    def test_batch_shares_one_generation(self, endpoint, workload):
        base, _server = endpoint
        body = {
            "queries": [
                {"group_by": list(q.group_by),
                 "bindings": [list(b) for b in q.bindings],
                 "ranges": [list(r) for r in q.ranges]}
                for q in workload[:3]
            ]
        }
        status, payload = _call(base, "/query/batch", body)
        assert status == 200
        generations = {r["generation"] for r in payload["results"]}
        assert generations == {payload["generation"]}

    def test_delta_then_refresh_publishes(self, endpoint, database):
        base, server = endpoint
        _directory, generator, _data = database
        rows = generator.generate_increment(0.1, stream="http")
        before = server.manager.current_number
        status, payload = _call(base, "/delta", {"rows": [list(r) for r in rows]})
        assert status == 202
        assert payload["pending_rows"] >= len(rows)
        status, payload = _call(base, "/refresh", {})
        assert status == 200
        assert payload["status"] == "published"
        assert payload["generation"] > before
        status, payload = _call(base, "/health")
        assert payload["generation"] > before

    def test_generations_and_stats(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/generations")
        assert status == 200
        assert any(entry["current"] for entry in payload["generations"])
        status, payload = _call(base, "/stats")
        assert status == 200
        assert "admission" in payload and "metrics" in payload


class TestErrors:
    def test_unknown_route_404(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/nope")
        assert status == 404
        assert "error" in payload

    def test_malformed_query_400(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/query", {"group_by": "notalist"})
        assert status == 400
        status, payload = _call(
            base, "/query", {"bindings": [["partkey"]]}
        )
        assert status == 400
        status, payload = _call(base, "/query", {"sql": 42})
        assert status == 400

    def test_bad_sql_400(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/query", {"sql": "select wat"})
        assert status == 400
        assert "error" in payload

    def test_bad_delta_400(self, endpoint):
        base, _server = endpoint
        status, _ = _call(base, "/delta", {"rows": "nope"})
        assert status == 400
        status, _ = _call(base, "/delta", {"rows": [["x", "y"]]})
        assert status == 400

    def test_unanswerable_query_400(self, endpoint):
        """An unknown attribute, or a schema attribute no served view
        carries (no hierarchy is configured), is the client's error."""
        base, _server = endpoint
        for group_by in (["nope"], ["nation"]):
            status, payload = _call(base, "/query", {"group_by": group_by})
            assert status == 400, payload
            assert "no materialized view answers" in payload["error"]
        status, payload = _call(
            base, "/query/batch", {"queries": [{"group_by": ["nope"]}]}
        )
        assert status == 400, payload

    def test_admission_full_503(self, endpoint, workload):
        base, server = endpoint
        # Choke the queue so the next HTTP query is rejected.
        server.admission.close()
        try:
            query = workload[0]
            status, payload = _call(
                base, "/query", {"group_by": list(query.group_by)}
            )
            assert status == 503
            assert "error" in payload
        finally:
            server.admission.start()


class TestBoundsOutsideTheDomain:
    """View coordinates start at 1: a bound at or below 0 matches no
    group (or is clamped, for a range), whichever route answers it."""

    def test_binding_at_zero_returns_no_rows(self, endpoint):
        base, _server = endpoint
        for body in (
            {"group_by": ["partkey"], "bindings": [["suppkey", 0]]},
            {"group_by": ["partkey"], "ranges": [["suppkey", -5, -1]]},
            {
                "sql": "select partkey, sum(quantity) from F "
                "where suppkey = 0 group by partkey"
            },
        ):
            status, payload = _call(base, "/query", body)
            assert status == 200, payload
            assert payload["row_count"] == 0

    def test_range_reaching_below_one_is_clamped(self, endpoint):
        base, _server = endpoint
        status, clamped = _call(
            base,
            "/query",
            {"group_by": ["partkey"], "ranges": [["suppkey", -5, 2]]},
        )
        assert status == 200, clamped
        status, inside = _call(
            base,
            "/query",
            {"group_by": ["partkey"], "ranges": [["suppkey", 1, 2]]},
        )
        assert status == 200, inside
        assert inside["row_count"] > 0
        assert clamped["rows"] == inside["rows"]
