"""Tests for the LRU buffer pool."""

import random
import sys
import threading

import pytest

from repro.constants import PAGE_SIZE
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool(capacity=3):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def test_new_page_is_pinned():
    _disk, pool = make_pool()
    page = pool.new_page()
    assert page.pin_count == 1
    pool.unpin_page(page.page_id)
    assert page.pin_count == 0


def test_fetch_hit_and_miss_accounting():
    disk, pool = make_pool()
    page = pool.new_page()
    page.data[0] = 42
    pool.unpin_page(page.page_id, dirty=True)
    pool.flush_all()
    pool.clear()

    fetched = pool.fetch_page(page.page_id)   # miss
    pool.unpin_page(fetched.page_id)
    again = pool.fetch_page(page.page_id)     # hit
    pool.unpin_page(again.page_id)
    assert pool.stats.misses == 1
    assert pool.stats.hits == 1
    assert again.data[0] == 42


def test_eviction_writes_back_dirty_pages():
    disk, pool = make_pool(capacity=2)
    first = pool.new_page()
    first.data[0] = 7
    pool.unpin_page(first.page_id, dirty=True)
    # Fill the pool past capacity to evict `first`.
    for _ in range(2):
        p = pool.new_page()
        pool.unpin_page(p.page_id, dirty=True)
    assert pool.stats.evictions >= 1
    assert disk.read_page(first.page_id)[0] == 7


def test_pinned_pages_survive_eviction():
    _disk, pool = make_pool(capacity=2)
    pinned = pool.new_page()
    other = pool.new_page()
    pool.unpin_page(other.page_id)
    extra = pool.new_page()  # must evict `other`, not `pinned`
    pool.unpin_page(extra.page_id)
    assert pool.fetch_page(pinned.page_id).pin_count == 2
    pool.unpin_page(pinned.page_id)
    pool.unpin_page(pinned.page_id)


def test_all_pinned_raises():
    _disk, pool = make_pool(capacity=1)
    pool.new_page()
    with pytest.raises(StorageError):
        pool.new_page()


def test_unpin_unknown_page_raises():
    _disk, pool = make_pool()
    with pytest.raises(StorageError):
        pool.unpin_page(99)


def test_double_unpin_raises():
    _disk, pool = make_pool()
    page = pool.new_page()
    pool.unpin_page(page.page_id)
    with pytest.raises(StorageError):
        pool.unpin_page(page.page_id)


def test_clear_with_pinned_page_raises():
    _disk, pool = make_pool()
    pool.new_page()
    with pytest.raises(StorageError):
        pool.clear()


def test_hit_ratio():
    _disk, pool = make_pool()
    assert pool.stats.hit_ratio == 0.0
    page = pool.new_page()
    pool.unpin_page(page.page_id)
    pool.fetch_page(page.page_id)
    pool.unpin_page(page.page_id)
    assert pool.stats.hit_ratio == 1.0


def test_eviction_drops_cached_obj():
    _disk, pool = make_pool(capacity=1)
    page = pool.new_page()
    page.cached_obj = object()
    pool.unpin_page(page.page_id)
    other = pool.new_page()
    pool.unpin_page(other.page_id)
    refetched = pool.fetch_page(page.page_id)
    assert refetched.cached_obj is None
    pool.unpin_page(page.page_id)


# ----------------------------------------------------------------------
# 2Q scan resistance: probation, promotion, protection, read-ahead
# ----------------------------------------------------------------------
def _flushed_pages(pool, n):
    """Allocate n pages, write them out, and cold-start the pool."""
    ids = []
    for i in range(n):
        page = pool.new_page()
        page.data[0] = i + 1
        pool.unpin_page(page.page_id, dirty=True)
        ids.append(page.page_id)
    pool.flush_all()
    pool.clear()
    return ids


def test_scan_fetch_admits_to_probation():
    _disk, pool = make_pool(capacity=8)
    (page_id,) = _flushed_pages(pool, 1)
    pool.fetch_page(page_id, scan=True)
    pool.unpin_page(page_id)
    assert page_id in pool._probation
    assert page_id not in pool._frames
    assert pool.stats.scan_admissions == 1


def test_point_hit_promotes_probationary_page():
    _disk, pool = make_pool(capacity=8)
    (page_id,) = _flushed_pages(pool, 1)
    pool.fetch_page(page_id, scan=True)
    pool.unpin_page(page_id)
    pool.fetch_page(page_id)  # genuine re-reference
    pool.unpin_page(page_id)
    assert page_id in pool._frames
    assert page_id not in pool._probation
    assert pool.stats.promotions == 1


def test_scan_hit_does_not_promote():
    """The demand fetch behind a read-ahead is one logical access, not
    evidence of reuse — the page must stay probationary."""
    _disk, pool = make_pool(capacity=8)
    (page_id,) = _flushed_pages(pool, 1)
    pool.fetch_page(page_id, scan=True)
    pool.unpin_page(page_id)
    pool.fetch_page(page_id, scan=True)
    pool.unpin_page(page_id)
    assert page_id in pool._probation
    assert pool.stats.promotions == 0


def test_scan_cannot_evict_protected_hot_set():
    """A long scan churns through probation while the point-access pages
    (the 'hot top-level pages') stay resident."""
    disk = DiskManager()
    pool = BufferPool(disk, capacity=4, eviction_batch=1)
    ids = _flushed_pages(pool, 12)
    hot = ids[:2]
    for page_id in hot:
        pool.fetch_page(page_id)  # protected-LRU residents
        pool.unpin_page(page_id)
    for page_id in ids[2:]:      # scan longer than the pool
        pool.fetch_page(page_id, scan=True)
        pool.unpin_page(page_id)
    assert all(page_id in pool._frames for page_id in hot)


def test_eviction_prefers_probation_over_lru():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=3, eviction_batch=1)
    ids = _flushed_pages(pool, 4)
    pool.fetch_page(ids[0])
    pool.unpin_page(ids[0])
    pool.fetch_page(ids[1], scan=True)
    pool.unpin_page(ids[1])
    pool.fetch_page(ids[2])
    pool.unpin_page(ids[2])
    pool.fetch_page(ids[3])  # pool full: must evict the scan page
    pool.unpin_page(ids[3])
    assert ids[1] not in pool._probation
    assert ids[0] in pool._frames


def test_protected_page_is_evicted_only_as_last_resort():
    disk = DiskManager()
    pool = BufferPool(disk, capacity=3, eviction_batch=1)
    ids = _flushed_pages(pool, 5)
    pool.fetch_page(ids[0])
    pool.unpin_page(ids[0])
    pool.protect_page(ids[0])
    pool.fetch_page(ids[1])
    pool.unpin_page(ids[1])
    pool.fetch_page(ids[2])
    pool.unpin_page(ids[2])
    # ids[0] is the LRU victim but sticky: ids[1] must go instead.
    pool.fetch_page(ids[3])
    pool.unpin_page(ids[3])
    assert ids[0] in pool._frames
    assert ids[1] not in pool._frames
    # With everything else pinned, protection yields rather than failing.
    pool.fetch_page(ids[2])
    pool.fetch_page(ids[3])
    pool.fetch_page(ids[4])
    assert ids[0] not in pool._frames
    assert pool.protected_page_ids == frozenset({ids[0]})
    for page_id in (ids[2], ids[3], ids[4]):
        pool.unpin_page(page_id)


def test_unprotect_page_restores_evictability():
    _disk, pool = make_pool(capacity=8)
    pool.protect_page(3)
    assert pool.protected_page_ids == frozenset({3})
    pool.unprotect_page(3)
    pool.unprotect_page(99)  # unknown ids are fine
    assert pool.protected_page_ids == frozenset()


def test_prefetch_run_reads_ahead_unpinned():
    _disk, pool = make_pool(capacity=16)
    ids = _flushed_pages(pool, 6)
    read = pool.prefetch_run(ids)
    assert read == 6
    assert pool.stats.readahead_pages == 6
    assert all(page.pin_count == 0 for page in pool._probation.values())
    before = pool.stats.copy()
    for page_id in ids:  # demand fetches now hit in memory
        pool.fetch_page(page_id, scan=True)
        pool.unpin_page(page_id)
    delta = pool.stats - before
    assert delta.misses == 0 and delta.hits == 6
    # Re-prefetching cached pages reads nothing.
    assert pool.prefetch_run(ids) == 0


def test_unpins_are_counted():
    _disk, pool = make_pool()
    page = pool.new_page()
    pool.unpin_page(page.page_id)
    pool.fetch_page(page.page_id)
    pool.unpin_page(page.page_id)
    assert pool.stats.unpins == 2


def test_stats_copy_and_subtract_cover_all_fields():
    import dataclasses

    from repro.storage.buffer import BufferStats

    a = BufferStats(**{
        field.name: i + 1
        for i, field in enumerate(dataclasses.fields(BufferStats))
    })
    zero = a - a
    assert all(
        getattr(zero, field.name) == 0
        for field in dataclasses.fields(BufferStats)
    )
    assert a.copy() == a


def test_discard_page_from_probation():
    _disk, pool = make_pool(capacity=8)
    (page_id,) = _flushed_pages(pool, 1)
    pool.fetch_page(page_id, scan=True)
    pool.unpin_page(page_id)
    pool.discard_page(page_id)
    assert pool.num_cached == 0


def test_point_workload_is_plain_lru():
    """No scan fetches, no protection: the probation segment stays empty
    and eviction order is exactly the old LRU behaviour."""
    disk = DiskManager()
    pool = BufferPool(disk, capacity=2, eviction_batch=1)
    ids = _flushed_pages(pool, 3)
    for page_id in ids[:2]:
        pool.fetch_page(page_id)
        pool.unpin_page(page_id)
    pool.fetch_page(ids[0])  # refresh: ids[1] becomes the LRU victim
    pool.unpin_page(ids[0])
    pool.fetch_page(ids[2])
    pool.unpin_page(ids[2])
    assert not pool._probation
    assert ids[1] not in pool._frames
    assert ids[0] in pool._frames


def test_concurrent_threads_keep_the_pool_consistent():
    """Eight threads hammer one pool smaller than the page set: every
    public call takes the pool's lock, so pins balance, every fetch is
    counted exactly once, and no eviction trips over a concurrent
    mutation."""
    threads, rounds, pages = 8, 1500, 96
    disk = DiskManager()
    pool = BufferPool(disk, capacity=24, eviction_batch=4)
    ids = _flushed_pages(pool, pages)
    setup_unpins = pool.stats.unpins
    errors = []
    fetches = [0] * threads
    start = threading.Barrier(threads)

    def worker(index):
        rng = random.Random(index)
        start.wait()
        try:
            for _ in range(rounds):
                page_id = rng.choice(ids)
                if rng.random() < 0.2:
                    first = ids.index(page_id)
                    pool.prefetch_run(ids[first:first + 4])
                page = pool.fetch_page(page_id, scan=rng.random() < 0.5)
                fetches[index] += 1
                if page.data[0] != ids.index(page_id) + 1:
                    raise AssertionError(f"page {page_id} has wrong bytes")
                pool.unpin_page(page_id)
        except Exception as exc:  # surfaced by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        workers = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in workers)
    assert errors == []
    total = sum(fetches)
    assert total == threads * rounds
    assert pool.stats.hits + pool.stats.misses == total
    assert pool.stats.unpins - setup_unpins == total
    assert all(page.pin_count == 0 for page in pool._all_pages())
    assert pool.num_cached <= pool.capacity
