"""Malformed input at the HTTP edge gets a 400 and changes nothing.

Two failure classes are pinned here, over a real socket:

* a ``/delta`` row that cannot be merge-packed (wrong width, a key of 0
  or past int64, a non-finite measure) must be refused before it is
  queued — queued, it would fail every later refresh, good deltas
  included;
* a JSON number that is not an integer (``1.9``, ``true``, ``"7"``) in a
  binding, range or delta row, or a ``Content-Length`` that is not a
  non-negative decimal, must be rejected instead of being rewritten
  into a different request or dropping the connection.
"""

import http.client
import json
import math
import threading
from urllib.parse import urlsplit

import pytest

from repro.errors import InvalidDeltaError
from repro.server import make_http_server

GOOD_ROW = [1, 1, 1, 5]


@pytest.fixture()
def endpoint(server):
    httpd = make_http_server(server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield host, port, server
    httpd.shutdown()
    httpd.server_close()


def _post(host, port, path, body, content_length=None):
    """POST raw bytes; returns ``(status, parsed JSON body)``."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader(
            "Content-Length",
            str(len(data)) if content_length is None else content_length,
        )
        conn.endheaders()
        conn.send(data)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.parametrize(
    "row",
    [
        [1, 2],                # too few values
        [0, 1, 1, 5],          # non-positive key
        [2**63, 1, 1, 5],      # key past int64
        [1, 1, 1, 5, 9],       # one value too many
    ],
)
def test_bad_delta_row_is_refused_and_later_refreshes_publish(endpoint, row):
    host, port, server = endpoint
    before = server.manager.current_number
    status, payload = _post(host, port, "/delta", {"rows": [GOOD_ROW, row]})
    assert status == 400, payload
    assert server.pending_delta_rows == 0  # nothing of the batch queued
    status, _ = _post(host, port, "/delta", {"rows": [GOOD_ROW]})
    assert status == 202
    status, payload = _post(host, port, "/refresh", {})
    assert status == 200, payload
    assert payload["status"] == "published"
    assert payload["generation"] > before


@pytest.mark.parametrize("measure", [2**63, -(2**63) - 1])
def test_measure_past_int64_publishes(endpoint, measure):
    """A finite integer measure outside int64 is folded as a float, as
    any measure is, so it neither fails the refresh nor stays queued."""
    host, port, server = endpoint
    before = server.manager.current_number
    status, payload = _post(host, port, "/delta", {"rows": [[1, 1, 1, measure]]})
    assert status == 202, payload
    status, payload = _post(host, port, "/refresh", {})
    assert status == 200, payload
    assert payload["status"] == "published"
    assert payload["generation"] > before
    assert server.pending_delta_rows == 0


@pytest.mark.parametrize(
    "row",
    [(1, 1, 1, math.nan), (1, 1, 1, math.inf), (1, 1, 1, 10**400),
     (True, 1, 1, 5), (1.0, 1, 1, 5), (1, 1, 1, "5"), 7],
)
def test_submit_delta_raises_typed_error_and_queues_nothing(server, row):
    with pytest.raises(InvalidDeltaError):
        server.submit_delta([tuple(GOOD_ROW), row])
    assert server.pending_delta_rows == 0


@pytest.mark.parametrize(
    "path,body,content_length",
    [
        ("/query", {"bindings": [["partkey", 1.9]]}, None),
        ("/query", {"bindings": [["partkey", True]]}, None),
        ("/query", {"bindings": [["partkey", "7"]]}, None),
        ("/query", {"ranges": [["partkey", 1, 2.5]]}, None),
        ("/query", {"ranges": [["partkey", False, 2]]}, None),
        ("/query", {"group_by": [7]}, None),
        ("/delta", {"rows": [[1, 1, 1, 5.0]]}, None),
        ("/delta", {"rows": [[True, 1, 1, 5]]}, None),
        ("/delta", {"rows": [[1, "1", 1, 5]]}, None),
        ("/query", {}, "abc"),
        ("/query", {}, "-5"),
        ("/query", {}, "1e3"),
    ],
)
def test_json_edge_rejects_what_it_would_rewrite(
    endpoint, path, body, content_length
):
    host, port, server = endpoint
    status, payload = _post(host, port, path, body, content_length)
    assert status == 400, payload
    assert "error" in payload
    assert server.pending_delta_rows == 0
