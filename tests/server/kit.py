"""Reusable concurrency-test kit for the serving layer.

Three pieces every server test composes:

* :class:`ReferenceOracle` — a differential oracle: a private
  single-threaded engine replays the same initial load and the same
  increments the server publishes, capturing the exact expected answers
  *per generation*.  Because the server's refresh builder runs the same
  ``update`` + checkpoint code path, a served answer is correct iff it
  equals the oracle's answer for the generation it was served from.
* :class:`ClientPool` — N client threads hammering ``server.query``
  from a barrier start, each recording ``(query_index, generation,
  rows)`` observations and errors.
* :class:`RefreshInjector` — a barrier-controlled refresh driver, so a
  test can hold refresh until clients are provably mid-flight.
* :func:`check_snapshots` — the snapshot checker: every observation must
  equal the oracle's answer for *some single published generation* —
  i.e. exactly the pre- or post-refresh snapshot, never a mix of rows
  from two generations.

The kit builds tiny databases (a few hundred facts) so whole matrices of
interleavings stay fast.
"""

import threading
import time

from repro.core.engine import CubetreeEngine
from repro.core.persistence import save_database
from repro.query.generator import RandomQueryGenerator
from repro.relational.view import ViewDefinition
from repro.warehouse.tpcd import TPCDGenerator

#: A small view set with one replica — enough to route every node the
#: reference workload touches.
KIT_VIEWS = [
    ViewDefinition("V_psc", ("partkey", "suppkey", "custkey")),
    ViewDefinition("V_ps", ("partkey", "suppkey")),
    ViewDefinition("V_p", ("partkey",)),
    ViewDefinition("V_s", ("suppkey",)),
    ViewDefinition("V_none", ()),
]
KIT_REPLICATE = {"V_psc": [("custkey", "partkey", "suppkey")]}
KIT_NODES = (
    ("partkey", "suppkey"),
    ("partkey",),
    ("suppkey",),
    (),
)


def build_database(directory, scale=0.0004, seed=31, retain=2, shards=1):
    """Materialize the kit warehouse and commit it as generation 1.

    Returns ``(generator, data)`` so tests can draw increments from the
    same deterministic stream the database was built from.
    """
    generator = TPCDGenerator(scale_factor=scale, seed=seed)
    data = generator.generate()
    engine = CubetreeEngine(data.schema, buffer_pages=128, shards=shards)
    engine.materialize(KIT_VIEWS, data.facts, replicate=KIT_REPLICATE)
    save_database(engine, str(directory), retain=retain)
    return generator, data


def reference_queries(schema, per_node=2, seed=7):
    """The deterministic slice-query workload every kit test reuses."""
    qgen = RandomQueryGenerator(schema, seed=seed)
    return [
        query
        for node in KIT_NODES
        for query in qgen.generate_for_node(
            node, per_node, include_unbound=True
        )
    ]


class ReferenceOracle:
    """Expected answers per generation, from an independent replay engine.

    ``advance(generation, delta)`` merge-packs ``delta`` into the replay
    engine and snapshots the answers that generation must serve;
    ``expect(generation, query_index)`` returns them.  The oracle engine
    is private to the test thread — never the server's.
    """

    def __init__(self, data, queries, first_generation=1):
        self.queries = list(queries)
        self._engine = CubetreeEngine(data.schema, buffer_pages=128)
        self._engine.materialize(
            KIT_VIEWS, data.facts, replicate=KIT_REPLICATE
        )
        self._lock = threading.Lock()
        self._answers = {first_generation: self._snapshot()}

    def _snapshot(self):
        return [self._engine.query(q).rows for q in self.queries]

    def advance(self, generation, delta):
        """Apply one published increment; record that generation's truth."""
        with self._lock:
            if generation in self._answers:
                raise AssertionError(
                    f"generation {generation} advanced twice"
                )
            if delta:
                self._engine.update(list(delta))
            self._answers[generation] = self._snapshot()

    def known_generations(self):
        with self._lock:
            return sorted(self._answers)

    def expect(self, generation, query_index):
        """The rows generation ``generation`` must return for a query."""
        with self._lock:
            return self._answers[generation][query_index]


class Observation:
    """One served answer, as seen by a client thread."""

    __slots__ = ("query_index", "generation", "rows", "client")

    def __init__(self, query_index, generation, rows, client):
        self.query_index = query_index
        self.generation = generation
        self.rows = rows
        self.client = client


class ClientPool:
    """N threads replaying a query workload against a server.

    ``run(rounds)`` starts every client on a shared barrier, waits for
    all of them, and returns ``(observations, errors)``.  Clients cycle
    through the workload at different offsets so concurrent arrivals mix
    query shapes (exercising per-round coalescing).
    """

    def __init__(self, server, queries, threads=4, extra_parties=0):
        self.server = server
        self.queries = list(queries)
        self.threads = threads
        self.observations = []
        self.errors = []
        self._lock = threading.Lock()
        #: ``extra_parties`` counts additional actors (e.g. a
        #: RefreshInjector) that join the same start line.
        self.barrier = threading.Barrier(threads + 1 + extra_parties)

    #: Hard cap on workload passes when running until an event (a stuck
    #: refresher must not spin clients forever).
    MAX_ROUNDS = 200

    def _client(self, barrier, client_index, rounds, until):
        local_obs, local_err = [], []
        barrier.wait()
        completed = 0
        while True:
            for step in range(len(self.queries)):
                index = (client_index + step) % len(self.queries)
                try:
                    served = self.server.query(self.queries[index])
                except Exception as exc:  # noqa: BLE001 - tallied
                    local_err.append(exc)
                    continue
                local_obs.append(
                    Observation(
                        index, served.generation, served.rows, client_index
                    )
                )
            completed += 1
            if completed >= rounds and (until is None or until.is_set()):
                break
            if completed >= self.MAX_ROUNDS:
                break
        with self._lock:
            self.observations.extend(local_obs)
            self.errors.extend(local_err)

    def run(self, rounds=1, until=None):
        """Run all clients to completion; returns (observations, errors).

        With ``until`` (an Event), clients keep replaying the workload
        past ``rounds`` until the event is set — how tests guarantee the
        load genuinely overlaps a slower concurrent actor.
        """
        workers = [
            threading.Thread(
                target=self._client,
                args=(self.barrier, i, rounds, until),
                daemon=True,
            )
            for i in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        self.barrier.wait()
        for worker in workers:
            worker.join(timeout=120.0)
        alive = [w for w in workers if w.is_alive()]
        assert not alive, f"{len(alive)} client thread(s) hung"
        return self.observations, self.errors


class RefreshInjector:
    """Drives refresh cycles from its own thread, barrier-aligned.

    ``inject(pool, deltas, oracle)`` registers with the pool's start
    barrier, then runs one submit+refresh cycle per delta while the
    clients are mid-flight, advancing the oracle on every publish.
    Outcomes land in ``self.outcomes``.
    """

    def __init__(self, server, pause=0.01):
        self.server = server
        self.pause = pause
        self.outcomes = []
        self.thread = None
        #: Set once every refresh cycle has run (pass as ``until=`` to
        #: :meth:`ClientPool.run` to guarantee overlap).
        self.done = threading.Event()

    def attach(self, pool, deltas, oracle):
        """Join ``pool``'s start barrier; the pool must have been built
        with ``extra_parties`` counting this injector."""

        def runner():
            pool.barrier.wait()
            try:
                for delta in deltas:
                    time.sleep(self.pause)
                    self.server.submit_delta(delta)
                    outcome = self.server.refresh_now()
                    self.outcomes.append(outcome)
                    if outcome.status == "published":
                        oracle.advance(outcome.generation, delta)
            finally:
                self.done.set()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        return self

    def join(self):
        self.thread.join(timeout=120.0)
        assert not self.thread.is_alive(), "refresh injector hung"
        return self.outcomes


def check_snapshots(observations, oracle):
    """The snapshot checker.

    Every observation must carry a generation the oracle knows and match
    that generation's answer *exactly* — equal to the pre-refresh or the
    post-refresh snapshot, never a blend.  Returns the set of
    generations actually observed (tests usually also assert > 1 of
    them showed up under refresh load).
    """
    known = set(oracle.known_generations())
    seen = set()
    for obs in observations:
        assert obs.generation in known, (
            f"client {obs.client} saw unpublished generation "
            f"{obs.generation}"
        )
        expected = oracle.expect(obs.generation, obs.query_index)
        assert obs.rows == expected, (
            f"client {obs.client} query {obs.query_index}: rows do not "
            f"match generation {obs.generation}'s snapshot (a torn read "
            f"across a refresh?)"
        )
        seen.add(obs.generation)
    return seen
