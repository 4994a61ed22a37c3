"""The five workloads: seeded request lists, built before any clock starts.

A workload is a traffic mix.  Each is built from ``--seed`` alone, as a
list of ready-to-send HTTP bodies; the server sees only those bodies.
Query *classes* repeat in a fixed cycle and only the bound values are
random, so two seeds give the same mix of work and differ only in which
keys are asked for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.warehouse.tpcd import TPCDGenerator

#: Each refresh cycle ships a 2% increment (2 400 rows at scale 0.02).
INCREMENT_FRACTION = 0.02

Query = Dict[str, list]


class Request(NamedTuple):
    """One HTTP request, encoded up front."""

    path: str
    body: bytes
    #: The slice queries the body carries, for the oracle to re-answer.
    queries: Tuple[Query, ...]


class Domains(NamedTuple):
    """Key domains of the corpus (keys run from 1 to the count)."""

    partkey: int
    suppkey: int
    custkey: int

    @classmethod
    def at_scale(cls, scale: float) -> "Domains":
        gen = TPCDGenerator(scale_factor=scale)
        return cls(gen.num_parts, gen.num_suppliers, gen.num_customers)


def _slice(
    group_by: Sequence[str],
    bindings: Sequence[Tuple[str, int]] = (),
    ranges: Sequence[Tuple[str, int, int]] = (),
) -> Query:
    return {
        "group_by": list(group_by),
        "bindings": [list(b) for b in bindings],
        "ranges": [list(r) for r in ranges],
    }


def _encode(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def query_request(query: Query) -> Request:
    return Request("/query", _encode(query), (query,))


def batch_request(queries: Sequence[Query]) -> Request:
    return Request(
        "/query/batch", _encode({"queries": list(queries)}), tuple(queries)
    )


def _key(rng: random.Random, dom: Domains, attr: str) -> int:
    return rng.randint(1, getattr(dom, attr))


def _range(
    rng: random.Random, dom: Domains, attr: str, share: float
) -> Tuple[str, int, int]:
    size = getattr(dom, attr)
    width = max(1, round(size * share))
    low = rng.randint(1, size - width + 1)
    return (attr, low, low + width - 1)


# ----------------------------------------------------------------------
# query classes
# ----------------------------------------------------------------------
def _point_classes(rng: random.Random, dom: Domains) -> List[Query]:
    """One query of each small class: V_p, V_s, V_c, V_ps (both ways), V_none."""
    return [
        _slice((), [("partkey", _key(rng, dom, "partkey"))]),
        _slice((), [("suppkey", _key(rng, dom, "suppkey"))]),
        _slice((), [("custkey", _key(rng, dom, "custkey"))]),
        _slice(("suppkey",), [("partkey", _key(rng, dom, "partkey"))]),
        _slice(("partkey",), [("suppkey", _key(rng, dom, "suppkey"))]),
        _slice(()),
    ]


def _large_classes(rng: random.Random, dom: Domains) -> List[Query]:
    """One query of each class that only V_psc or a replica can answer."""
    return [
        _slice(("partkey", "custkey"), [("suppkey", _key(rng, dom, "suppkey"))]),
        _slice(("suppkey", "custkey"), ranges=[_range(rng, dom, "partkey", 0.02)]),
        _slice(("partkey", "suppkey"), ranges=[_range(rng, dom, "custkey", 0.02)]),
        _slice(("suppkey",), ranges=[_range(rng, dom, "custkey", 0.05)]),
        _slice(("custkey",), ranges=[_range(rng, dom, "partkey", 0.05)]),
    ]


def _point_small(rng: random.Random, dom: Domains, count: int) -> List[Request]:
    out: List[Request] = []
    while len(out) < count:
        out.extend(query_request(q) for q in _point_classes(rng, dom))
    return out[:count]


def _slice_large(rng: random.Random, dom: Domains, count: int) -> List[Request]:
    out: List[Request] = []
    while len(out) < count:
        out.extend(query_request(q) for q in _large_classes(rng, dom))
    return out[:count]


def _rollup_wide(rng: random.Random, dom: Domains, count: int) -> List[Request]:
    # Unbound group-bys carry no key, so the seed has nothing to vary.
    # The 16 000-row rollup is one request in seven: often enough to set
    # the tail, rare enough that the median request is not one that
    # queued behind it (at one in three the median sat on that edge and
    # moved 14% between identical runs).  Seven is odd, so each of the
    # two connections, taking every other request, meets every class.
    small = [
        query_request(_slice(("partkey",))),
        query_request(_slice(("custkey",))),
    ]
    cycle = small * 3 + [query_request(_slice(("partkey", "suppkey")))]
    return [cycle[i % len(cycle)] for i in range(count)]


#: Slices per ``/query/batch`` request.
BATCH_SIZE = 24


def _batch_slices(rng: random.Random, dom: Domains, count: int) -> List[Request]:
    # Every request puts all its slices on one lattice node, and on a
    # shape the batch executor prices as one shared pass over that
    # node's run: slices of V_ps bound on its non-leading key, and
    # equality totals on V_p and V_c.  (Slices whose key leads a sort
    # order are cheaper one by one, and the executor runs them so.)
    shapes = [
        (("partkey",), "suppkey"),
        ((), "partkey"),
        (("partkey",), "suppkey"),
        ((), "custkey"),
    ]
    out = []
    for i in range(count):
        group_by, bound = shapes[i % len(shapes)]
        out.append(
            batch_request(
                [
                    _slice(group_by, [(bound, _key(rng, dom, bound))])
                    for _ in range(BATCH_SIZE)
                ]
            )
        )
    return out


def _refresh_reads(rng: random.Random, dom: Domains, count: int) -> List[Request]:
    out: List[Request] = []
    while len(out) < count:
        large = _large_classes(rng, dom)
        small = _point_classes(rng, dom)
        for pair in zip(large, small):
            out.extend(query_request(q) for q in pair)
    return out[:count]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` is repeated in BENCHMARK.json and the README."""

    name: str
    why: str
    #: Closed-loop reader connections (each waits for its reply).
    connections: int
    build: Callable[[random.Random, Domains, int], List[Request]]
    #: Requests generated; a loop that outruns the list wraps around.
    length: int
    #: Requests replayed in each pass of the traced run.
    traced_requests: int
    #: True when a second connection runs delta+refresh cycles beside
    #: the readers for the whole window.
    writer: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "point_small",
        "one-to-80-row equality slices on the small views: the engine does "
        "under a millisecond of work, so the HTTP edge, admission and "
        "routing are nearly all of the latency",
        connections=2, build=_point_small, length=3000, traced_requests=96,
    ),
    Workload(
        "slice_large",
        "equality and 2%/5% range slices only V_psc and its replicas "
        "answer, over a working set 11.7x the pool: descent, node decode, "
        "buffer misses and finalisation do the server's work",
        connections=2, build=_slice_large, length=3000, traced_requests=60,
    ),
    Workload(
        "rollup_wide",
        "unbound group-bys returning 3 000 to 16 000 rows: whole-run "
        "scans, grouped finalisation and JSON serialisation of 45-300 KB "
        "bodies dominate",
        connections=2, build=_rollup_wide, length=7, traced_requests=35,
    ),
    Workload(
        "batch_slices",
        "POST /query/batch with 24 slices on one lattice node, one "
        "connection: the only path through the shared run pass and "
        "admission coalescing",
        connections=1, build=_batch_slices, length=600, traced_requests=32,
    ),
    Workload(
        "refresh_mixed",
        "delta+refresh cycles on one connection beside a closed-loop "
        "reader on the other: delta computation, merge-pack, checkpoint "
        "and generation install run against live reads",
        connections=1, build=_refresh_reads, length=3000, traced_requests=0,
        writer=True,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def build_requests(workload: Workload, seed: int, scale: float) -> List[Request]:
    """The workload's request list for ``seed`` (same seed, same list)."""
    rng = random.Random(f"{seed}/{workload.name}")
    return workload.build(rng, Domains.at_scale(scale), workload.length)


def increments(seed: int, scale: float) -> Iterator[List[tuple]]:
    """The endless stream of refresh increments ``bench-0``, ``bench-1``, ...

    The oracle regenerates the same streams to know what each published
    generation must contain.
    """
    gen = TPCDGenerator(scale_factor=scale, seed=seed)
    index = 0
    while True:
        yield gen.generate_increment(
            INCREMENT_FRACTION, stream=f"bench-{index}"
        )
        index += 1


def delta_request(rows: Sequence[tuple]) -> Request:
    return Request("/delta", _encode({"rows": [list(r) for r in rows]}), ())


REFRESH_REQUEST = Request("/refresh", b"", ())
