"""Query admission: coalesce concurrent requests into shared batch passes.

HTTP worker threads do not touch an engine directly.  Each request pins a
generation snapshot, enqueues ``(handle, query)`` here, and waits; a
single executor thread drains the queue, groups the pending queries by
generation, and answers each group through the engine —
:meth:`~repro.core.engine.CubetreeEngine.query` for a lone query,
:meth:`~repro.core.engine.CubetreeEngine.query_batch` (one shared
leaf-run pass per routed view) once concurrency has piled two or more
queries onto the same snapshot.  That gives three properties at once:

* **coalescing** — concurrent load turns into the batched execution path
  the cost model already favours (PR 5), so throughput under many
  clients exceeds one-at-a-time serial service;
* **serialized engine access** — exactly one thread executes against any
  engine, so the buffer pool, cost model, and router see the
  single-threaded schedules they were built for (the
  :class:`~repro.storage.buffer.BufferPool` lock stays a
  defence-in-depth backstop, not the consistency mechanism);
* **bounded admission** — past ``max_depth`` waiting queries, new
  arrivals are rejected with :class:`AdmissionError` (HTTP 503) instead
  of growing the queue without limit.

Batched answers are bit-identical to serial ones (PR 5's invariant), so
coalescing never weakens the snapshot checker's guarantee.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import get_registry
from repro.query.result import QueryResult
from repro.query.slice import SliceQuery
from repro.server.generations import GenerationHandle

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_DEPTH = _REG.gauge("server.admission_depth")
_OBS_DEPTH_PEAK = _REG.gauge("server.admission_depth_peak")
_OBS_COALESCED = _REG.counter("server.queries_coalesced")
_OBS_REJECTED = _REG.counter("server.admission_rejected")
_OBS_ROUNDS = _REG.counter("server.admission_rounds")


class AdmissionError(ReproError):
    """The admission queue is full or shut down."""


class _Pending:
    """One enqueued query: inputs, completion event, outcome."""

    __slots__ = ("handle", "query", "done", "result", "error", "coalesced")

    def __init__(self, handle: GenerationHandle, query: SliceQuery) -> None:
        self.handle = handle
        self.query = query
        self.done = threading.Event()
        self.result: Optional[QueryResult] = None
        self.error: Optional[BaseException] = None
        self.coalesced = False

    def finish(
        self,
        result: Optional[QueryResult],
        error: Optional[BaseException] = None,
    ) -> None:
        self.result = result
        self.error = error
        self.done.set()


class AdmissionQueue:
    """Coalescing executor over pinned generation snapshots.

    ``start()`` launches the executor thread; ``submit()`` blocks the
    calling thread until its query is answered (or the queue rejects or
    shuts down).  The caller owns the generation pin around ``submit`` —
    the queue never pins or releases, so pin balance stays provable at
    the call site.
    """

    def __init__(self, max_depth: int = 1024) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: List[_Pending] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        #: Peak queue depth since start (monotonic; tests assert bounds).
        self._peak_depth = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the executor thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._closed = False
            self._thread = threading.Thread(
                target=self._run, name="repro-admission", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop accepting work, fail waiters, and join the executor."""
        with self._lock:
            self._closed = True
            thread = self._thread
            self._thread = None
            pending = self._pending
            self._pending = []
            self._wakeup.notify_all()
        for item in pending:
            item.finish(None, AdmissionError("server shutting down"))
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    @property
    def depth(self) -> int:
        """Queries currently waiting for the executor."""
        with self._lock:
            return len(self._pending)

    @property
    def peak_depth(self) -> int:
        """Largest queue depth observed since construction."""
        with self._lock:
            return self._peak_depth

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        handle: GenerationHandle,
        query: SliceQuery,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Enqueue one query against a pinned snapshot and await its answer.

        Raises :class:`AdmissionError` when the queue is full or closed,
        and re-raises whatever the engine raised otherwise.  ``timeout``
        bounds the wait (None = wait forever); on expiry the query may
        still execute, but its result is dropped.
        """
        return self.wait(self.submit_nowait(handle, query), timeout=timeout)

    def submit_nowait(
        self, handle: GenerationHandle, query: SliceQuery
    ) -> _Pending:
        """Enqueue one query and return immediately with its ticket.

        Used for multi-query requests: enqueue every query of the batch,
        then :meth:`wait` on each ticket — the executor naturally answers
        them in one coalesced round.
        """
        item = _Pending(handle, query)
        with self._lock:
            if self._closed or self._thread is None:
                raise AdmissionError("admission queue is not running")
            if len(self._pending) >= self.max_depth:
                _OBS_REJECTED.inc()
                raise AdmissionError(
                    f"admission queue full ({self.max_depth} waiting)"
                )
            self._pending.append(item)
            depth = len(self._pending)
            if depth > self._peak_depth:
                self._peak_depth = depth
                _OBS_DEPTH_PEAK.set(depth)
            _OBS_DEPTH.set(depth)
            self._wakeup.notify()
        return item

    @staticmethod
    def wait(item: _Pending, timeout: Optional[float] = None) -> QueryResult:
        """Block until a ticket completes; re-raise its error if any."""
        if not item.done.wait(timeout):
            raise AdmissionError("query timed out in admission")
        if item.error is not None:
            raise item.error
        if item.result is None:  # pragma: no cover - defensive
            raise AdmissionError("query finished without a result")
        return item.result

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._pending:
                    return
                batch = self._pending
                self._pending = []
                _OBS_DEPTH.set(0)
            _OBS_ROUNDS.inc()
            self._execute_round(batch)

    def _execute_round(self, batch: Sequence[_Pending]) -> None:
        """Answer one drained round, grouped by generation snapshot."""
        groups: Dict[int, List[_Pending]] = {}
        order: List[int] = []
        for item in batch:
            key = item.handle.number
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(item)
        for key in order:
            self._execute_group(groups[key])

    def _execute_group(self, group: List[_Pending]) -> None:
        engine = group[0].handle.engine
        if len(group) == 1:
            item = group[0]
            self._finish_one(item, lambda: engine.query(item.query))
            return
        queries = [item.query for item in group]
        try:
            batch_result = engine.query_batch(queries)
        except BaseException:  # noqa: BLE001 - retried one by one below
            # The batch routes every query before running any, so one
            # unanswerable query fails the lot: answer each alone, and
            # only the waiter whose query is at fault sees an error.
            for item in group:
                self._finish_one(item, lambda: engine.query(item.query))
            return
        _OBS_COALESCED.inc(len(group))
        for item, result in zip(group, batch_result.results):
            item.coalesced = True
            item.finish(result)

    @staticmethod
    def _finish_one(
        item: _Pending, run: Callable[[], QueryResult]
    ) -> None:
        try:
            result = run()
        except BaseException as exc:  # noqa: BLE001 - relayed to waiters
            item.finish(None, exc)
        else:
            item.finish(result)
