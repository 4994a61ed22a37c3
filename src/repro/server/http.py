"""The stdlib HTTP/JSON front end for :class:`~repro.server.service.CubetreeServer`.

``ThreadingHTTPServer`` gives one thread per connection with no new
dependencies; every worker thread funnels into the admission queue, so
the engine still sees serialized, coalesced execution no matter how many
sockets are open.

Endpoints
---------
``GET  /health``        liveness + current generation
``GET  /stats``         full serving statistics (JSON)
``GET  /generations``   per-generation listing with live pin counts
``POST /query``         one slice query; body is either
                        ``{"sql": "select ..."}`` or the structured form
                        ``{"group_by": [...], "bindings": [[attr, v], ...],
                        "ranges": [[attr, lo, hi], ...]}``
``POST /query/batch``   ``{"queries": [<query body>, ...]}`` — all
                        answered from one pinned snapshot
``POST /delta``         ``{"rows": [[...], ...]}`` — queue a warehouse
                        increment for the next refresh
``POST /refresh``       run one refresh cycle now, return its outcome

Every query response carries the ``generation`` it was answered from —
that tag is what the concurrency harness's snapshot checker keys on.
Admission rejections map to HTTP 503; malformed requests and queries no
served view can answer map to 400.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import chain
from typing import Any, Dict, List, Tuple

from repro.errors import (
    InvalidDeltaError,
    ReproError,
    UnanswerableQueryError,
)
from repro.query.result import QueryResult
from repro.query.slice import SliceQuery
from repro.server.admission import AdmissionError
from repro.server.service import CubetreeServer, ServedResult

#: Request bodies past this size are rejected outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class BadRequest(ReproError):
    """The client sent something unparseable (HTTP 400)."""


def _json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer; :class:`BadRequest` otherwise.

    ``int()`` would silently answer a different request: it truncates
    ``1.9`` to 1, reads ``true`` as 1 and ``"7"`` as 7.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise BadRequest(f"{what} must be a JSON integer, got {value!r}")


def _json_str(value: Any, what: str) -> str:
    if isinstance(value, str):
        return value
    raise BadRequest(f"{what} must be a JSON string, got {value!r}")


def _content_length(raw: "str | None") -> int:
    """The request's declared body size: absent is 0; anything but a
    non-negative decimal integer is a :class:`BadRequest`."""
    text = (raw or "0").strip()
    if not (text.isascii() and text.isdigit()):
        raise BadRequest(f"malformed Content-Length {raw!r}")
    return int(text)


def parse_query_body(
    body: Dict[str, Any], server: CubetreeServer
) -> SliceQuery:
    """Build a :class:`SliceQuery` from one JSON query object."""
    if not isinstance(body, dict):
        raise BadRequest("query must be a JSON object")
    if "sql" in body:
        from repro.sql import parse_query

        sql = body["sql"]
        if not isinstance(sql, str):
            raise BadRequest('"sql" must be a string')
        try:
            return parse_query(sql, server.schema)
        except ReproError as exc:
            raise BadRequest(f"bad SQL query: {exc}") from exc
    for key in ("group_by", "bindings", "ranges"):
        if key in body and not isinstance(body[key], (list, tuple)):
            raise BadRequest(f'"{key}" must be a JSON array')
    try:
        group_by = tuple(
            _json_str(a, "a group_by attribute")
            for a in body.get("group_by", ())
        )
        bindings = tuple(
            (_json_str(attr, "a binding attribute"),
             _json_int(value, f"the value bound to {attr!r}"))
            for attr, value in body.get("bindings", ())
        )
        ranges = tuple(
            (_json_str(attr, "a range attribute"),
             _json_int(low, f"the low end of {attr!r}"),
             _json_int(high, f"the high end of {attr!r}"))
            for attr, low, high in body.get("ranges", ())
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"malformed query body: {exc}") from exc
    try:
        return SliceQuery(group_by=group_by, bindings=bindings, ranges=ranges)
    except ReproError as exc:
        raise BadRequest(f"invalid slice query: {exc}") from exc


def _result_payload(served: ServedResult) -> Dict[str, Any]:
    result: QueryResult = served.result
    return {
        "generation": served.generation,
        "row_count": len(result.rows),
        "rows": [list(row) for row in result.rows],
    }


class _Handler(BaseHTTPRequestHandler):
    """Dispatches the JSON API; the server object rides on the HTTP server."""

    protocol_version = "HTTP/1.1"
    #: Quieten the default stderr access log (tests and benches hammer it).
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    @property
    def cubetree(self) -> CubetreeServer:
        return self.server.cubetree  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = _content_length(self.headers.get("Content-Length"))
            if length > MAX_BODY_BYTES:
                raise BadRequest(
                    f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
        except BadRequest:
            # The body stays unread, so the stream cannot be reused.
            self.close_connection = True
            raise
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    def _dispatch(self, routes: Dict[str, Any]) -> None:
        handler = routes.get(self.path.rstrip("/") or "/")
        if handler is None:
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        try:
            status, payload = handler()
        except (BadRequest, InvalidDeltaError, UnanswerableQueryError) as exc:
            self._send_json(400, {"error": str(exc)})
        except AdmissionError as exc:
            self._send_json(503, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})
        else:
            self._send_json(status, payload)

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        self._dispatch(
            {
                "/health": self._route_health,
                "/stats": self._route_stats,
                "/generations": self._route_generations,
            }
        )

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        self._dispatch(
            {
                "/query": self._route_query,
                "/query/batch": self._route_query_batch,
                "/delta": self._route_delta,
                "/refresh": self._route_refresh,
            }
        )

    def _route_health(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "generation": self.cubetree.manager.current_number,
        }

    def _route_stats(self) -> Tuple[int, Dict[str, Any]]:
        return 200, self.cubetree.stats()

    def _route_generations(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"generations": self.cubetree.manager.describe()}

    def _route_query(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_body()
        query = parse_query_body(body, self.cubetree)
        served = self.cubetree.query(query)
        return 200, _result_payload(served)

    def _route_query_batch(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_body()
        raw_queries = body.get("queries")
        if not isinstance(raw_queries, list):
            raise BadRequest('"queries" must be a JSON array')
        queries = [
            parse_query_body(item, self.cubetree) for item in raw_queries
        ]
        served = self.cubetree.query_batch(queries)
        generation = served[0].generation if served else None
        return 200, {
            "generation": generation,
            "results": [_result_payload(item) for item in served],
        }

    def _route_delta(self) -> Tuple[int, Dict[str, Any]]:
        body = self._read_body()
        raw_rows = body.get("rows")
        if not isinstance(raw_rows, list):
            raise BadRequest('"rows" must be a JSON array of arrays')
        for number, raw in enumerate(raw_rows):
            if not isinstance(raw, list):
                raise BadRequest(f"delta row {number} must be a JSON array")
        if set(map(type, chain.from_iterable(raw_rows))) - {int}:
            for number, raw in enumerate(raw_rows):
                for value in raw:
                    _json_int(value, f"a value of delta row {number}")
        rows: List[Tuple[int, ...]] = list(map(tuple, raw_rows))
        pending = self.cubetree.submit_delta(rows)
        return 202, {"accepted_rows": len(rows), "pending_rows": pending}

    def _route_refresh(self) -> Tuple[int, Dict[str, Any]]:
        outcome = self.cubetree.refresh_now()
        status = 200 if outcome.status != "failed" else 500
        return status, outcome.as_dict()


class CubetreeHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` carrying its :class:`CubetreeServer`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        cubetree: CubetreeServer,
    ) -> None:
        super().__init__(address, _Handler)
        self.cubetree = cubetree


def make_http_server(
    cubetree: CubetreeServer,
    host: str = "127.0.0.1",
    port: int = 0,
) -> CubetreeHTTPServer:
    """Bind the JSON API for a started :class:`CubetreeServer`.

    ``port=0`` picks a free ephemeral port (tests); the bound address is
    ``server.server_address``.  The caller drives ``serve_forever()`` —
    typically on a dedicated thread — and owns shutdown ordering: HTTP
    first, then the Cubetree server.
    """
    return CubetreeHTTPServer((host, port), cubetree)


__all__ = [
    "BadRequest",
    "CubetreeHTTPServer",
    "MAX_BODY_BYTES",
    "make_http_server",
    "parse_query_body",
]
