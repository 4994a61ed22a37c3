"""Refcounted generation snapshots over the checkpoint manifests.

The MVCC heart of the server.  A :class:`GenerationHandle` wraps one
*committed* checkpoint generation — its number, its ``gen-<n>/``
directory, and a :class:`~repro.core.engine.CubetreeEngine` (with as
many shards as the generation has ``shard-XX/`` directories) reopened
from it that is never mutated again — plus a pin count.  Readers pin
the current handle for the duration of a query; a publish installs a new
handle without touching pinned ones; a generation's files are pruned
only once its pin count has dropped to zero *and* it has been
superseded.  The result is snapshot isolation by construction: every
answer a reader computes comes from exactly one committed generation's
engine, so it is bit-identical to that generation's serial answer.

All pin/publish/prune bookkeeping happens under one manager lock; query
execution itself never holds it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from repro.core.persistence import (
    DEFAULT_RETAIN,
    list_generations,
    load_any_engine,
    newest_committed_number,
    prune_generations,
)
from repro.errors import ReproError
from repro.obs import get_registry

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_PINNED = _REG.gauge("server.pinned_generations")
_OBS_PUBLISHES = _REG.counter("server.generations_published")
_OBS_PRUNED = _REG.counter("server.generations_pruned")


class GenerationError(ReproError):
    """Pin bookkeeping violated (double release, pin after close, ...)."""


class GenerationHandle:
    """One committed generation: engine snapshot + refcount.

    The engine is read-only by contract — queries may touch its buffer
    pool, but its data never changes after the handle is published —
    so any number of queries answered through it equal that generation's
    serial answers.  ``pins`` is owned by the manager's lock; use
    :meth:`GenerationManager.acquire` / :meth:`GenerationManager.release`
    rather than mutating it.
    """

    __slots__ = ("number", "path", "engine", "pins", "retired")

    def __init__(self, number: int, path: str, engine: Any) -> None:
        self.number = number
        self.path = path
        self.engine = engine
        self.pins = 0
        #: Superseded by a newer publish (still readable while pinned).
        self.retired = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GenerationHandle(number={self.number}, pins={self.pins}, "
            f"retired={self.retired})"
        )


class GenerationManager:
    """Owns the live generations of one serving database directory.

    ``retain`` mirrors :func:`repro.core.persistence.save_database`'s
    retention: that many newest committed generations keep their files
    even when unpinned (fast restarts, corruption headroom).  Pinned
    generations additionally always keep their files, however old.
    """

    def __init__(
        self,
        directory: str,
        retain: int = DEFAULT_RETAIN,
    ) -> None:
        self.directory = directory
        self.retain = retain
        self._lock = threading.Lock()
        self._current: Optional[GenerationHandle] = None
        self._handles: Dict[int, GenerationHandle] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open(self) -> GenerationHandle:
        """Load the newest committed generation and make it current."""
        number = newest_committed_number(self.directory)
        if number is None:
            raise GenerationError(
                f"no committed generation to serve in {self.directory!r}"
            )
        return self._install(number)

    def _load_handle(self, number: int) -> GenerationHandle:
        paths = {
            gen_number: path
            for gen_number, path, committed in list_generations(self.directory)
            if committed
        }
        if number not in paths:
            raise GenerationError(
                f"generation {number} is not committed in {self.directory!r}"
            )
        engine = load_any_engine(self.directory)
        newest = newest_committed_number(self.directory)
        if newest != number:
            raise GenerationError(
                f"generation {number} is no longer the newest committed "
                f"generation (found {newest})"
            )
        return GenerationHandle(number, paths[number], engine)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def acquire(self) -> GenerationHandle:
        """Pin and return the current generation snapshot."""
        with self._lock:
            if self._closed or self._current is None:
                raise GenerationError("generation manager is not serving")
            handle = self._current
            handle.pins += 1
            self._update_pin_gauge_locked()
            return handle

    def release(self, handle: GenerationHandle) -> None:
        """Drop one pin; prune retired generations that hit zero pins."""
        with self._lock:
            if handle.pins <= 0:
                raise GenerationError(
                    f"generation {handle.number} is not pinned"
                )
            handle.pins -= 1
            drop = (
                handle.retired
                and handle.pins == 0
                and handle.number in self._handles
            )
            if drop:
                del self._handles[handle.number]
            self._update_pin_gauge_locked()
            protect = self._protected_numbers_locked()
        if drop:
            handle.engine = None  # type: ignore[assignment]
            self._prune(protect)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def install(
        self, number: int, engine: Optional[Any] = None
    ) -> GenerationHandle:
        """Make committed generation ``number`` the current snapshot.

        ``engine`` short-circuits the reload when the caller already
        holds the engine whose state *is* that generation (the refresh
        builder right after its checkpoint committed).  The previous
        current handle is retired; its files survive while pinned.
        """
        return self._install(number, engine)

    def _install(
        self, number: int, engine: Optional[Any] = None
    ) -> GenerationHandle:
        if engine is None:
            handle = self._load_handle(number)
        else:
            paths = {
                gen_number: path
                for gen_number, path, committed in list_generations(
                    self.directory
                )
                if committed
            }
            if number not in paths:
                raise GenerationError(
                    f"cannot install uncommitted generation {number}"
                )
            handle = GenerationHandle(number, paths[number], engine)
        with self._lock:
            if self._closed:
                raise GenerationError("generation manager is closed")
            previous = self._current
            if previous is not None:
                if handle.number <= previous.number:
                    raise GenerationError(
                        f"generation {handle.number} does not supersede "
                        f"current generation {previous.number}"
                    )
                previous.retired = True
                if previous.pins == 0:
                    self._handles.pop(previous.number, None)
                    previous.engine = None  # type: ignore[assignment]
            self._current = handle
            self._handles[handle.number] = handle
            self._update_pin_gauge_locked()
            protect = self._protected_numbers_locked()
        _OBS_PUBLISHES.inc()
        self._prune(protect)
        return handle

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def _protected_numbers_locked(self) -> List[int]:
        """Generation numbers whose files must survive a prune."""
        protect = {
            number
            for number, handle in self._handles.items()
            if handle.pins > 0 or handle is self._current
        }
        return sorted(protect)

    def protected_numbers(self) -> List[int]:
        """Public snapshot of the currently unprunable generations."""
        with self._lock:
            return self._protected_numbers_locked()

    def _prune(self, protect: List[int]) -> None:
        before = {number for number, _p, _c in list_generations(self.directory)}
        prune_generations(
            self.directory, retain=self.retain, protect=protect
        )
        after = {number for number, _p, _c in list_generations(self.directory)}
        removed = len(before - after)
        if removed:
            _OBS_PRUNED.inc(removed)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def current_number(self) -> Optional[int]:
        """Number of the generation new readers would pin (None = closed)."""
        with self._lock:
            return self._current.number if self._current is not None else None

    def describe(self) -> List[Dict[str, object]]:
        """JSON-ready listing: every on-disk generation + live pin state."""
        with self._lock:
            live = {
                number: handle for number, handle in self._handles.items()
            }
            current = self._current
        out: List[Dict[str, object]] = []
        for number, _path, committed in list_generations(self.directory):
            handle = live.get(number)
            out.append(
                {
                    "generation": number,
                    "committed": committed,
                    "pins": handle.pins if handle is not None else 0,
                    "current": current is not None
                    and current.number == number,
                }
            )
        return out

    def pin_counts(self) -> Dict[int, int]:
        """Live pin count per generation (test/diagnostic hook)."""
        with self._lock:
            return {
                number: handle.pins
                for number, handle in self._handles.items()
            }

    def run_pinned(
        self, work: Callable[[GenerationHandle], object]
    ) -> object:
        """Run ``work`` with the current generation pinned (helper)."""
        handle = self.acquire()
        try:
            return work(handle)
        finally:
            self.release(handle)

    def close(self) -> None:
        """Stop serving; outstanding pins stay valid until released."""
        with self._lock:
            self._closed = True
            if self._current is not None:
                self._current.retired = True
            self._current = None

    def _update_pin_gauge_locked(self) -> None:
        pinned = sum(
            1 for handle in self._handles.values() if handle.pins > 0
        )
        _OBS_PINNED.set(pinned)
