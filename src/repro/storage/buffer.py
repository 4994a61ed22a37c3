"""Scan-resistant (2Q-style) buffer pool with hit-ratio statistics.

The paper argues that minimizing the number of Cubetrees "increases the
buffer hit ratio, i.e. the probability of having the top-level pages of the
trees in memory" (Sec. 2.4).  The pool therefore tracks hits and misses so
experiments and ablations can report that ratio directly.

Plain LRU undermines that argument: one sequential run scan touches every
leaf of a view exactly once and, page by page, pushes the hot top-level
index pages out of the pool.  The pool is therefore split into two
segments, in the spirit of the 2Q replacement policy:

* the **protected** segment (``_frames``) — an LRU over pages admitted by
  ordinary (point-access) fetches and re-referenced scan pages; and
* the **probationary** segment (``_probation``) — a FIFO over pages
  admitted by ``fetch_page(..., scan=True)`` and :meth:`prefetch_run`.
  Single-touch scan pages live and die here without ever displacing a
  protected page; a later *point* access promotes a page into the
  protected LRU (the demand fetch behind a read-ahead does not — it is
  the same logical access that triggered the prefetch).

Eviction always drains the probationary FIFO before touching the
protected LRU, and pages registered via :meth:`protect_page` (interior
and root index pages during fast scans) are passed over until no other
victim exists.  A workload that never issues a scan fetch and never
protects a page sees byte-for-byte the old LRU behaviour — existing
simulated-I/O baselines cannot drift.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Set

from repro.constants import DEFAULT_BUFFER_PAGES
from repro.errors import StorageError
from repro.obs import get_registry
from repro.storage.disk import DiskManager
from repro.storage.page import Page

# Process-wide observability counters (all pools in one snapshot).
_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_HITS = _REG.counter("buffer.hits")
_OBS_MISSES = _REG.counter("buffer.misses")
_OBS_EVICTIONS = _REG.counter("buffer.evictions")
_OBS_NEW_PAGES = _REG.counter("buffer.new_pages")
_OBS_UNPINS = _REG.counter("buffer.unpins")
_OBS_SCAN_ADMITS = _REG.counter("buffer.scan_admissions")
_OBS_PROMOTIONS = _REG.counter("buffer.promotions")
_OBS_READAHEAD = _REG.counter("buffer.readahead_pages")


@dataclass
class BufferStats:
    """Hit/miss counters for one buffer pool.

    ``new_pages`` (freshly allocated pages admitted without a disk read)
    is tracked separately from hits/misses: a cold pool that has only
    allocated pages has performed *zero* cache lookups, and its hit ratio
    must read as "no data" (0 of 0), not as 0% — the bench harness
    special-cases ``accesses == 0`` instead of dividing.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    new_pages: int = 0
    #: Pins released via :meth:`BufferPool.unpin_page` — iterator paths
    #: must balance every fetch with a release even when abandoned early,
    #: and tests assert on this counter to prove they do.
    unpins: int = 0
    #: Pages admitted to the probationary FIFO by scan fetches/read-ahead.
    scan_admissions: int = 0
    #: Probationary pages re-referenced and moved to the protected LRU.
    promotions: int = 0
    #: Pages read ahead of demand by :meth:`BufferPool.prefetch_run`.
    readahead_pages: int = 0

    @property
    def accesses(self) -> int:
        """Total cache lookups (hits + misses; allocations excluded)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory.

        A pool with no lookups yet (cold, or only ``new_page``
        allocations) has no meaningful ratio; 0.0 is returned rather
        than dividing by zero.  Callers that must distinguish "cold"
        from "0% hits" should test :attr:`accesses` first.
        """
        accesses = self.accesses
        if accesses == 0:
            return 0.0
        return self.hits / accesses

    def copy(self) -> "BufferStats":
        """Independent snapshot (for before/after phase deltas)."""
        return BufferStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            new_pages=self.new_pages,
            unpins=self.unpins,
            scan_admissions=self.scan_admissions,
            promotions=self.promotions,
            readahead_pages=self.readahead_pages,
        )

    def __sub__(self, other: "BufferStats") -> "BufferStats":
        return BufferStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            new_pages=self.new_pages - other.new_pages,
            unpins=self.unpins - other.unpins,
            scan_admissions=self.scan_admissions - other.scan_admissions,
            promotions=self.promotions - other.promotions,
            readahead_pages=self.readahead_pages - other.readahead_pages,
        )


class BufferPool:
    """Caches :class:`Page` objects over a :class:`DiskManager` with a
    two-segment (protected LRU + probationary FIFO) replacement policy.

    Pinned pages (``pin_count > 0``) are never evicted; callers must balance
    :meth:`fetch_page`/:meth:`new_page` with :meth:`unpin_page`.

    Every public method takes the pool's one re-entrant lock.  The serving
    layer (:mod:`repro.server`) keeps several engines alive at once — one
    per pinned generation plus the refresh builder — and while admission
    serializes query execution per engine, the pool stays structurally
    sound if two threads ever reach it together (a stats probe racing the
    executor).  Under any serial schedule the locked operations are the
    single-threaded ones, so simulated I/O is unchanged; an uncontended
    acquire costs well under a microsecond.
    """

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_BUFFER_PAGES,
        eviction_batch: int = 64,
    ) -> None:
        """``eviction_batch`` pages are evicted together when the pool
        fills, with dirty victims written back in page-id order — the
        batched background-writer discipline that keeps bulk-load and
        merge output I/O sequential even while reads interleave."""
        if capacity < 1:
            raise ValueError("buffer pool needs capacity >= 1")
        if eviction_batch < 1:
            raise ValueError("eviction_batch must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self.eviction_batch = eviction_batch
        self.stats = BufferStats()
        #: Protected segment: LRU over point-access and re-referenced pages.
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        #: Probationary segment: FIFO over single-touch scan pages.
        self._probation: "OrderedDict[int, Page]" = OrderedDict()
        #: Page ids sheltered from eviction while unprotected victims exist
        #: (interior/root index pages during fast run scans).
        self._sticky: Set[int] = set()
        # Guards every structure above across server threads; re-entrant
        # because flush and clear call sibling public methods.
        self._lock = threading.RLock()  # repro: guarded-by(self._lock)

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: int, scan: bool = False) -> Page:
        """Return the page, reading it from disk on a miss.  Pins the page.

        ``scan=True`` marks the access as part of a sequential run scan:
        a miss is admitted to the probationary FIFO instead of the
        protected LRU, so a long scan cannot wipe out the hot set.  A
        *point* (``scan=False``) hit on a probationary page promotes it
        to the protected LRU — genuine re-reference is the 2Q signal
        that a page is worth keeping; a scan hit leaves it probationary,
        because the demand fetch behind a read-ahead is one logical
        access, not evidence of reuse.
        """
        with self._lock:
            page = self._frames.get(page_id)
            if page is not None:
                self.stats.hits += 1
                _OBS_HITS.value += 1
                self._frames.move_to_end(page_id)
            elif (page := self._probation.get(page_id)) is not None:
                self.stats.hits += 1
                _OBS_HITS.value += 1
                if not scan:
                    del self._probation[page_id]
                    self._frames[page_id] = page
                    self.stats.promotions += 1
                    _OBS_PROMOTIONS.value += 1
            else:
                self.stats.misses += 1
                _OBS_MISSES.value += 1
                data = self.disk.read_page(page_id)
                page = Page(page_id, data)
                self._admit(page, scan=scan)
            page.pin_count += 1
            return page

    def new_page(self) -> Page:
        """Allocate a fresh page on disk and return it pinned.

        The new page is *not* read from disk (it has no contents yet).
        """
        with self._lock:
            page_id = self.disk.allocate_page()
            page = Page(page_id)
            self._admit(page)
            page.pin_count += 1
            self.stats.new_pages += 1
            _OBS_NEW_PAGES.value += 1
            return page

    def unpin_page(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin; optionally mark the page dirty."""
        with self._lock:
            page = self._frames.get(page_id)
            if page is None:
                page = self._probation.get(page_id)
            if page is None:
                raise StorageError(f"unpin of page {page_id} not in pool")
            if page.pin_count <= 0:
                raise StorageError(f"page {page_id} is not pinned")
            page.pin_count -= 1
            if dirty:
                page.dirty = True
            self.stats.unpins += 1
            _OBS_UNPINS.value += 1

    # ------------------------------------------------------------------
    # scan support
    # ------------------------------------------------------------------
    def prefetch_run(self, page_ids: Sequence[int]) -> int:
        """Read ahead a window of a sequential leaf run.

        Pages not already cached are read from disk in the given order
        (callers pass ascending page ids, so the simulated device prices
        them sequentially — the same cost the demand fetches would have
        paid) and admitted *unpinned* to the probationary FIFO.  The
        demand :meth:`fetch_page` that follows then hits in memory.
        Returns the number of pages actually read.
        """
        with self._lock:
            read = 0
            for page_id in page_ids:
                if page_id in self._frames or page_id in self._probation:
                    continue
                data = self.disk.read_page(page_id)
                self._admit(Page(page_id, data), scan=True)
                read += 1
            self.stats.readahead_pages += read
            _OBS_READAHEAD.value += read
            return read

    def protect_page(self, page_id: int) -> None:
        """Shelter a page id from eviction while other victims exist.

        Used for interior/root index pages during fast run scans: they
        are re-read on every descent, so letting a scan's probationary
        churn force them out would turn their next access into a random
        read.  Protection is advisory — when every other page is pinned
        or protected, protected pages become evictable again rather than
        failing the admission."""
        with self._lock:
            self._sticky.add(page_id)

    def unprotect_page(self, page_id: int) -> None:
        """Remove eviction shelter from a page id (missing ids are fine)."""
        with self._lock:
            self._sticky.discard(page_id)

    @property
    def protected_page_ids(self) -> FrozenSet[int]:
        """Snapshot of the sheltered page ids (for tests/diagnostics)."""
        return frozenset(self._sticky)

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------
    def flush_page(self, page_id: int) -> None:
        """Write one dirty page back to disk."""
        with self._lock:
            page = self._frames.get(page_id)
            if page is None:
                page = self._probation.get(page_id)
            if page is None:
                return
            if page.dirty:
                self.disk.write_page(page.page_id, bytes(page.data))
                page.dirty = False

    def flush_all(self) -> None:
        """Write every dirty page back to disk in page-id order (pages
        stay cached; ordering keeps the flush burst sequential)."""
        with self._lock:
            for page_id in sorted(self._all_page_ids()):
                self.flush_page(page_id)

    def clear(self) -> None:
        """Flush everything and empty the pool (simulates a cold cache)."""
        with self._lock:
            self.flush_all()
            for page in self._all_pages():
                if page.pin_count > 0:
                    raise StorageError(
                        f"cannot clear pool: page {page.page_id} is pinned"
                    )
            self._frames.clear()
            self._probation.clear()

    def discard_page(self, page_id: int) -> None:
        """Drop a page from the pool *without* writing it back.

        Used when the page is being freed on disk (e.g. retiring an old
        Cubetree after a merge-pack), so flushing would be wasted work.
        """
        with self._lock:
            page = self._frames.pop(page_id, None)
            if page is None:
                page = self._probation.pop(page_id, None)
                segment = self._probation
            else:
                segment = self._frames
            if page is not None and page.pin_count > 0:
                segment[page_id] = page
                raise StorageError(f"cannot discard pinned page {page_id}")
            self._sticky.discard(page_id)

    # ------------------------------------------------------------------
    @property
    def num_cached(self) -> int:
        """Pages currently held in the pool (both segments)."""
        return len(self._frames) + len(self._probation)

    @property
    def free_frames(self) -> int:
        """Frames not held by a pinned page: how many more pages could
        be pinned at once before the pool is exhausted."""
        with self._lock:
            pinned = sum(1 for page in self._all_pages() if page.pin_count)
            return self.capacity - pinned

    def _all_page_ids(self) -> Iterable[int]:
        yield from self._frames
        yield from self._probation

    def _all_pages(self) -> Iterable[Page]:
        yield from self._frames.values()
        yield from self._probation.values()

    def _admit(self, page: Page, scan: bool = False) -> None:
        if self.num_cached >= self.capacity:
            self._evict_batch()
        if scan:
            self._probation[page.page_id] = page
            self.stats.scan_admissions += 1
            _OBS_SCAN_ADMITS.value += 1
        else:
            self._frames[page.page_id] = page

    def _evict_batch(self) -> None:
        """Evict up to ``eviction_batch`` pages, writing dirty ones in
        page-id order so the write burst is (mostly) sequential.

        Victim preference: probationary FIFO first (single-touch scan
        pages), then the protected LRU; protected-list (sticky) pages in
        either segment are skipped on the first pass and reconsidered
        only when nothing else is evictable."""
        # Always clear a full batch of headroom: evicting one page at a
        # time would interleave every read with a write and destroy the
        # sequentiality of bulk operations.
        want = max(1, min(self.eviction_batch, self.num_cached))
        victims: list[Page] = []
        for allow_sticky in (False, True):
            for segment in (self._probation, self._frames):
                for page_id, page in segment.items():  # FIFO / LRU order
                    if page.pin_count > 0:
                        continue
                    if not allow_sticky and page_id in self._sticky:
                        continue
                    victims.append(page)
                    if len(victims) >= want:
                        break
                if len(victims) >= want:
                    break
            if victims:
                break
        if not victims:
            raise StorageError("buffer pool exhausted: every page is pinned")
        for victim in victims:
            self._frames.pop(victim.page_id, None)
            self._probation.pop(victim.page_id, None)
            self.stats.evictions += 1
            _OBS_EVICTIONS.value += 1
            victim.cached_obj = None
        for victim in sorted(
            (v for v in victims if v.dirty), key=lambda p: p.page_id
        ):
            self.disk.write_page(victim.page_id, bytes(victim.data))
