"""The long-lived Cubetree serving object: snapshot queries + live refresh.

:class:`CubetreeServer` ties the pieces together over one database
directory (the generational checkpoint layout of
:mod:`repro.core.persistence`):

* **queries** pin the current :class:`~repro.server.generations.GenerationHandle`
  and go through the :class:`~repro.server.admission.AdmissionQueue`, so
  every answer comes from exactly one committed generation and
  concurrent requests coalesce into shared batch passes;
* **refresh** applies queued warehouse increments on a *private builder
  engine* loaded from the newest committed generation, merge-packs, and
  publishes the result as the next generation via the checkpoint
  manifest's atomic rename — readers never block and never observe a
  half-applied increment;
* **recovery** keys off the manifest commit point: if a crash kills the
  publish *before* the manifest rename, the builder is discarded, the
  deltas stay queued, and the old generation keeps serving; if the crash
  lands *after* the rename (e.g. during prune), the new generation is
  already the database and the server adopts it instead of re-applying
  the increment (exactly-once refresh).

The refresh thread is optional — tests and the bench drive
:meth:`CubetreeServer.refresh_now` directly for deterministic schedules.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.btree.keys import INT64_MAX
from repro.constants import EXPERIMENT_BUFFER_PAGES
from repro.core.engine import CubetreeEngine
from repro.core.persistence import (
    DEFAULT_RETAIN,
    load_any_engine,
    newest_committed_number,
    save_database,
)
from repro.errors import InvalidDeltaError, ReproError
from repro.obs import get_registry
from repro.query.result import QueryResult
from repro.query.slice import SliceQuery
from repro.server.admission import AdmissionQueue
from repro.server.generations import GenerationManager
from repro.storage.wal import CrashPoint

Row = Tuple[object, ...]

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_REQUESTS = _REG.counter("server.requests")
_OBS_ERRORS = _REG.counter("server.request_errors")
_OBS_INFLIGHT = _REG.gauge("server.inflight_queries")
_OBS_LATENCY = _REG.histogram("server.query_wall_ms")
_OBS_REFRESHES = _REG.counter("server.refreshes")
_OBS_REFRESH_FAILURES = _REG.counter("server.refresh_failures")
_OBS_REFRESH_ROWS = _REG.counter("server.refresh_rows_applied")
_OBS_DELTA_PENDING = _REG.gauge("server.delta_rows_pending")

_GEN_DIR_RE = re.compile(r"gen-(\d+)$")


class ServerError(ReproError):
    """The serving layer was asked something it cannot do."""


@dataclass
class ServedResult:
    """A query answer plus the generation snapshot that produced it."""

    result: QueryResult
    generation: int

    @property
    def rows(self) -> List[Row]:
        return self.result.rows


@dataclass
class RefreshOutcome:
    """What one refresh cycle did.

    ``status`` is one of ``"idle"`` (nothing queued), ``"published"``
    (new generation committed and installed), or ``"failed"`` (publish
    died before the commit point; deltas remain queued).
    """

    status: str
    generation: Optional[int] = None
    rows_applied: int = 0
    error: Optional[str] = None
    #: True when the commit landed but the crash hit after the manifest
    #: rename (prune); the server adopted the on-disk generation.
    recovered_post_commit: bool = False
    wall_ms: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "generation": self.generation,
            "rows_applied": self.rows_applied,
            "error": self.error,
            "recovered_post_commit": self.recovered_post_commit,
            "wall_ms": self.wall_ms,
        }


@dataclass
class ServerConfig:
    """Construction knobs for :class:`CubetreeServer`."""

    retain: int = DEFAULT_RETAIN
    max_admission_depth: int = 1024
    #: Seconds between refresh-thread wakeups (None = no thread; drive
    #: :meth:`CubetreeServer.refresh_now` manually).
    refresh_interval: Optional[float] = None
    query_timeout: Optional[float] = 60.0


def validate_delta_rows(
    rows: Sequence[Row], columns: Sequence[str], keys: int
) -> List[Row]:
    """The rows as tuples, or :class:`InvalidDeltaError` for the first
    row that is not ``len(columns)`` values: ``keys`` integer fact keys
    in ``[1, INT64_MAX]``, then finite numeric measures.

    The checks run a column at a time at C speed (an increment holds
    thousands of rows); only a failing column is walked value by value,
    to name the offending row.
    """
    try:
        batch = [tuple(row) for row in rows]
    except TypeError:
        raise InvalidDeltaError("every delta row must be a sequence") from None
    width = len(columns)
    if set(map(len, batch)) - {width}:
        number = next(i for i, row in enumerate(batch) if len(row) != width)
        raise InvalidDeltaError(
            f"delta row {number} has {len(batch[number])} values, expected "
            f"{width} ({', '.join(columns)})"
        )
    for index, column in enumerate(zip(*batch)):
        is_key = index < keys
        valid = _key_column if is_key else _measure_column
        if not valid(column):
            number = next(
                i for i, value in enumerate(column) if not valid((value,))
            )
            rule = (
                f"an integer in [1, {INT64_MAX}]" if is_key
                else "a finite number"
            )
            raise InvalidDeltaError(
                f"delta row {number}: {columns[index]} must be {rule}, "
                f"got {column[number]!r}"
            )
    return batch


def _key_column(values: Sequence[object]) -> bool:
    return (
        set(map(type, values)) <= {int}
        and 1 <= min(values)  # type: ignore[type-var]
        and max(values) <= INT64_MAX  # type: ignore[type-var,operator]
    )


def _measure_column(values: Sequence[object]) -> bool:
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, values))  # type: ignore[arg-type]
    except OverflowError:  # an int past the float range
        return False


class CubetreeServer:
    """Thread-safe OLAP serving over one generational database directory."""

    def __init__(
        self, directory: str, config: Optional[ServerConfig] = None
    ) -> None:
        self.directory = directory
        self.config = config or ServerConfig()
        self.manager = GenerationManager(
            directory, retain=self.config.retain
        )
        self.admission = AdmissionQueue(
            max_depth=self.config.max_admission_depth
        )
        #: Armed by crash tests; forwarded to every publish.  A real
        #: deployment leaves it None.
        self.crash_point: Optional[CrashPoint] = None
        self._delta_lock = threading.Lock()
        self._pending_deltas: List[List[Row]] = []
        self._pending_rows = 0
        #: Serializes refresh cycles (thread + manual refresh_now calls).
        self._refresh_lock = threading.Lock()
        self._refresh_wakeup = threading.Condition(self._delta_lock)
        self._refresh_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        #: The serving StarSchema, set on :meth:`start`.
        self.schema: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CubetreeServer":
        """Open the newest committed generation and begin serving."""
        if self._started:
            return self
        handle = self.manager.open()
        self.schema = handle.engine.schema
        self.admission.start()
        self._stop.clear()
        if self.config.refresh_interval is not None:
            self._refresh_thread = threading.Thread(
                target=self._refresh_loop,
                name="repro-refresh",
                daemon=True,
            )
            self._refresh_thread.start()
        self._started = True
        return self

    def close(self) -> None:
        """Stop the refresh thread and the admission executor."""
        self._stop.set()
        with self._delta_lock:
            self._refresh_wakeup.notify_all()
        thread = self._refresh_thread
        self._refresh_thread = None
        if thread is not None:
            thread.join(timeout=10.0)
        self.admission.close()
        self.manager.close()
        self._started = False

    def __enter__(self) -> "CubetreeServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self, query: SliceQuery, timeout: Optional[float] = None
    ) -> ServedResult:
        """Answer one slice query against a pinned snapshot."""
        self._require_started()
        if timeout is None:
            timeout = self.config.query_timeout
        wall_start = time.perf_counter()
        _OBS_REQUESTS.inc()
        _OBS_INFLIGHT.add(1)
        handle = self.manager.acquire()
        try:
            result = self.admission.submit(handle, query, timeout=timeout)
            generation = handle.number
        except BaseException:
            _OBS_ERRORS.inc()
            raise
        finally:
            self.manager.release(handle)
            _OBS_INFLIGHT.add(-1)
        _OBS_LATENCY.observe((time.perf_counter() - wall_start) * 1000.0)
        return ServedResult(result=result, generation=generation)

    def query_batch(
        self,
        queries: Sequence[SliceQuery],
        timeout: Optional[float] = None,
    ) -> List[ServedResult]:
        """Answer several queries against one pinned snapshot.

        All queries of the request see the *same* generation (one pin
        covers them all), and the executor coalesces them into shared
        passes exactly as it does unrelated concurrent queries.
        """
        self._require_started()
        if not queries:
            return []
        if timeout is None:
            timeout = self.config.query_timeout
        wall_start = time.perf_counter()
        _OBS_REQUESTS.inc()
        _OBS_INFLIGHT.add(1)
        handle = self.manager.acquire()
        try:
            tickets = [
                self.admission.submit_nowait(handle, query)
                for query in queries
            ]
            results = [
                ServedResult(
                    result=self.admission.wait(ticket, timeout=timeout),
                    generation=handle.number,
                )
                for ticket in tickets
            ]
        except BaseException:
            _OBS_ERRORS.inc()
            raise
        finally:
            self.manager.release(handle)
            _OBS_INFLIGHT.add(-1)
        _OBS_LATENCY.observe((time.perf_counter() - wall_start) * 1000.0)
        return results

    def query_sql(self, sql: str) -> ServedResult:
        """Parse one SQL slice query against the serving schema and run it."""
        from repro.sql import parse_query

        self._require_started()
        return self.query(parse_query(sql, self.schema))

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def submit_delta(self, rows: Sequence[Row]) -> int:
        """Queue a warehouse increment for the next refresh cycle.

        Returns the total fact rows now pending.  The rows become
        visible only when a refresh publishes the generation containing
        them — queries meanwhile keep answering from the current one.

        Every row is checked first (see :func:`validate_delta_rows`): a
        row that could not be merge-packed would fail every later
        refresh, good deltas included, so one bad row raises
        :class:`~repro.errors.InvalidDeltaError` and nothing is queued.
        """
        schema = self.schema
        batch = validate_delta_rows(
            rows, schema.fact_columns, len(schema.fact_keys)
        )
        with self._delta_lock:
            if batch:
                self._pending_deltas.append(batch)
                self._pending_rows += len(batch)
                self._refresh_wakeup.notify()
            pending = self._pending_rows
        _OBS_DELTA_PENDING.set(pending)
        return pending

    @property
    def pending_delta_rows(self) -> int:
        """Fact rows queued but not yet published."""
        with self._delta_lock:
            return self._pending_rows

    def refresh_now(self) -> RefreshOutcome:
        """Run one refresh cycle synchronously (merge-pack + publish).

        Safe to call concurrently with queries and with the refresh
        thread (cycles are serialized by an internal lock).
        """
        with self._refresh_lock:
            return self._refresh_cycle()

    def _refresh_cycle(self) -> RefreshOutcome:
        wall_start = time.perf_counter()
        with self._delta_lock:
            drained = len(self._pending_deltas)
            batches = list(self._pending_deltas[:drained])
        if not batches:
            return RefreshOutcome(
                status="idle", generation=self.manager.current_number
            )
        rows: List[Row] = [row for batch in batches for row in batch]
        before = newest_committed_number(self.directory)
        try:
            builder = load_any_engine(self.directory)
            builder.update(rows)
            gen_path = save_database(
                builder,
                self.directory,
                crash_point=self.crash_point,
                retain=self.config.retain,
                protect=self.manager.protected_numbers(),
            )
        except BaseException as exc:  # noqa: BLE001 - crash/IO recovery
            outcome = self._recover_publish(before, drained, len(rows), exc)
            outcome.wall_ms = (time.perf_counter() - wall_start) * 1000.0
            return outcome
        number = self._generation_number(gen_path)
        self.manager.install(number, engine=builder)
        self._drop_applied(drained)
        _OBS_REFRESHES.inc()
        _OBS_REFRESH_ROWS.inc(len(rows))
        return RefreshOutcome(
            status="published",
            generation=number,
            rows_applied=len(rows),
            wall_ms=(time.perf_counter() - wall_start) * 1000.0,
        )

    def _recover_publish(
        self,
        before: Optional[int],
        drained: int,
        row_count: int,
        exc: BaseException,
    ) -> RefreshOutcome:
        """Classify a failed publish against the manifest commit point.

        The manifest rename *is* the commit: if the newest committed
        generation moved past ``before``, the increment is durably in
        the database and must not be re-applied — adopt the on-disk
        generation.  Otherwise the partial generation is crash debris,
        the deltas stay queued, and the old snapshot keeps serving.
        """
        after = newest_committed_number(self.directory)
        if after is not None and (before is None or after > before):
            self.manager.install(after)
            self._drop_applied(drained)
            _OBS_REFRESHES.inc()
            _OBS_REFRESH_ROWS.inc(row_count)
            return RefreshOutcome(
                status="published",
                generation=after,
                rows_applied=row_count,
                error=str(exc),
                recovered_post_commit=True,
            )
        _OBS_REFRESH_FAILURES.inc()
        return RefreshOutcome(
            status="failed",
            generation=before,
            rows_applied=0,
            error=str(exc),
        )

    def _drop_applied(self, drained: int) -> None:
        with self._delta_lock:
            del self._pending_deltas[:drained]
            self._pending_rows = sum(
                len(batch) for batch in self._pending_deltas
            )
            pending = self._pending_rows
        _OBS_DELTA_PENDING.set(pending)

    @staticmethod
    def _generation_number(gen_path: str) -> int:
        match = _GEN_DIR_RE.search(os.path.basename(gen_path))
        if match is None:  # pragma: no cover - save_database names these
            raise ServerError(f"unrecognized generation path {gen_path!r}")
        return int(match.group(1))

    def _refresh_loop(self) -> None:
        interval = self.config.refresh_interval or 1.0
        while not self._stop.is_set():
            with self._delta_lock:
                if not self._pending_deltas and not self._stop.is_set():
                    self._refresh_wakeup.wait(timeout=interval)
                pending = bool(self._pending_deltas)
            if self._stop.is_set():
                return
            if pending:
                self.refresh_now()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard statistics of the serving generation's engine.

        One entry per shard (one for the default one-shard database, none
        when not serving): pages, rows, simulated I/O, buffer hit rates,
        and routed-query counts, so scatter-gather skew is observable at
        ``GET /stats``.
        """
        try:
            stats = self.manager.run_pinned(
                lambda handle: handle.engine.shard_stats()
            )
        except ReproError:
            return []
        return stats  # type: ignore[return-value]

    def stats(self) -> Dict[str, object]:
        """JSON-ready serving statistics (generation, admission, metrics)."""
        reg = get_registry()
        return {
            "directory": self.directory,
            "shards": self.shard_stats(),
            "generation": self.manager.current_number,
            "generations": self.manager.describe(),
            "admission": {
                "depth": self.admission.depth,
                "peak_depth": self.admission.peak_depth,
                "max_depth": self.admission.max_depth,
            },
            "pending_delta_rows": self.pending_delta_rows,
            "metrics": {
                "requests": _OBS_REQUESTS.snapshot(),
                "request_errors": _OBS_ERRORS.snapshot(),
                "inflight_queries": _OBS_INFLIGHT.snapshot(),
                "refreshes": _OBS_REFRESHES.snapshot(),
                "refresh_failures": _OBS_REFRESH_FAILURES.snapshot(),
                "query_wall_ms": reg.histogram(
                    "server.query_wall_ms"
                ).snapshot(),
            },
        }

    def _require_started(self) -> None:
        if not self._started:
            raise ServerError("server is not started")


@dataclass
class BootstrapReport:
    """What :func:`bootstrap_database` did."""

    generation: int
    created: bool
    fact_rows: int = 0
    view_rows: int = 0


def bootstrap_database(
    directory: str,
    scale: float = 0.002,
    seed: int = 42,
    retain: int = DEFAULT_RETAIN,
    replicate: bool = True,
    shards: int = 1,
) -> BootstrapReport:
    """Ensure ``directory`` holds a committed generation to serve.

    When the directory already has one, it is left untouched.  Otherwise
    the paper's configuration (views + replicas) is built at ``scale``
    from the deterministic TPC-D generator and checkpointed as
    generation 1, partitioned into ``shards`` residue shards (mod N on
    the leading group coordinate); refresh cycles keep the shard count
    they find on disk.
    """
    existing = newest_committed_number(directory)
    if existing is not None:
        return BootstrapReport(generation=existing, created=False)
    from repro.warehouse.tpcd import TPCDGenerator
    from repro.warehouse.views import paper_replicas, paper_views

    generator = TPCDGenerator(scale_factor=scale, seed=seed)
    engine = CubetreeEngine(
        generator.schema(),
        buffer_pages=EXPERIMENT_BUFFER_PAGES,
        shards=shards,
    )
    # The facts are never bound to a name here: the engine holds their
    # only reference and frees them once the cube is computed.
    report = engine.materialize(
        paper_views(),
        generator.generate().facts,
        replicate=paper_replicas() if replicate else None,
    )
    gen_path = save_database(engine, directory, retain=retain)
    number = CubetreeServer._generation_number(gen_path)
    return BootstrapReport(
        generation=number,
        created=True,
        fact_rows=generator.num_facts,
        view_rows=report.view_rows,
    )
