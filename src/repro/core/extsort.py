"""Bounded-memory external merge sort for streaming bulk loads.

The classic pack (:func:`repro.rtree.packing.pack_rtree`) materializes
and sorts every view's rows in memory before a single leaf is written,
so peak memory grows with the scale factor.  This module provides the
out-of-core alternative the streaming build path uses:

* :class:`ExternalRunSorter` buffers at most ``max_buffered`` entries;
  a full buffer is sorted and *spilled* to an anonymous temp file as a
  sequence of pickled chunks (host scratch space — deliberately outside
  the simulated I/O cost model, which prices only the database pages).
* :meth:`ExternalRunSorter.stream` merges the spilled runs with the
  final buffer via :func:`heapq.merge`, yielding the entries in sort
  order while holding one chunk per run in memory.

The budget is expressed in *entries* (a ``(point, values)`` pair each)
and comes from the ``build_memory`` setting (``REPRO_BUILD_MEMORY``,
optionally with a ``k``/``m`` suffix).  When no budget is configured it
is None and bulk loads take the classic in-memory path, byte-for-byte
identical to before.
"""

from __future__ import annotations

import heapq
import pickle
import tempfile
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Callable,
    Iterator,
    List,
    Tuple,
)

from repro.obs import get_registry

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_SPILL_RUNS = _REG.counter("extsort.spilled_runs")
_OBS_SPILL_ENTRIES = _REG.counter("extsort.spilled_entries")
_OBS_PEAK_BUFFERED = _REG.counter("extsort.peak_buffered")

Point = Tuple[int, ...]
Values = Tuple[float, ...]
Entry = Tuple[Point, Values]
SortKey = Callable[[Entry], Tuple[int, ...]]

#: Entries per pickled spill chunk: readers hold at most one chunk per
#: spill run, keeping merge-side memory bounded too.
_SPILL_CHUNK = 512

@dataclass
class StreamBuildReport:
    """Accounting of one streaming bulk load (for the memory-cap check)."""

    budget: int
    entries: int = 0
    peak_buffered: int = 0
    spill_runs: int = 0
    spilled_entries: int = 0

    def within_budget(self) -> bool:
        """True when the sorter never buffered more than the budget."""
        return self.peak_buffered <= self.budget


class ExternalRunSorter:
    """Sorts an unbounded entry stream with a bounded in-memory buffer.

    ``add`` entries, then consume :meth:`stream` exactly once; the
    temp-file spill runs are released when the stream is exhausted (or
    explicitly via :meth:`close`).
    """

    def __init__(self, key: SortKey, max_buffered: int) -> None:
        if max_buffered < 1:
            raise ValueError(
                f"max_buffered must be >= 1, got {max_buffered}"
            )
        self._key = key
        self._max = max_buffered
        self._buffer: List[Entry] = []
        self._spills: List[BinaryIO] = []
        #: Monotone stats — they survive :meth:`close`.
        self.peak_buffered = 0
        self.spill_runs = 0
        self.spilled_entries = 0
        self.entries = 0

    def add(self, entry: Entry) -> None:
        """Buffer one entry, spilling a sorted run when the buffer fills."""
        self._buffer.append(entry)
        self.entries += 1
        if len(self._buffer) > self.peak_buffered:
            self.peak_buffered = len(self._buffer)
        if len(self._buffer) >= self._max:
            self._spill()

    def _spill(self) -> None:
        self._buffer.sort(key=self._key)
        handle = tempfile.TemporaryFile()
        chunk = max(1, min(_SPILL_CHUNK, self._max))
        for i in range(0, len(self._buffer), chunk):
            pickle.dump(
                self._buffer[i : i + chunk],
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        handle.flush()
        self._spills.append(handle)
        self.spill_runs += 1
        self.spilled_entries += len(self._buffer)
        _OBS_SPILL_RUNS.value += 1
        _OBS_SPILL_ENTRIES.value += len(self._buffer)
        self._buffer = []

    def stream(self) -> Iterator[Entry]:
        """Yield every added entry in sort order, then free the spills."""
        self._buffer.sort(key=self._key)
        _OBS_PEAK_BUFFERED.value = max(
            _OBS_PEAK_BUFFERED.value, self.peak_buffered
        )
        try:
            if not self._spills:
                yield from self._buffer
                return
            runs: List[Iterator[Entry]] = [
                self._read_spill(handle) for handle in self._spills
            ]
            runs.append(iter(self._buffer))
            yield from heapq.merge(*runs, key=self._key)
        finally:
            self.close()

    @staticmethod
    def _read_spill(handle: BinaryIO) -> Iterator[Entry]:
        handle.seek(0)
        while True:
            try:
                chunk = pickle.load(handle)
            except EOFError:
                return
            yield from chunk

    def close(self) -> None:
        """Release the spill files and the buffer."""
        for handle in self._spills:
            try:
                handle.close()
            except OSError:  # pragma: no cover - temp-file teardown
                pass
        self._spills = []
        self._buffer = []
