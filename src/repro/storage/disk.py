"""Simulated disk: page allocation, reads and writes with I/O accounting.

The disk can be purely in-memory (fast; default for tests) or backed by a
real file (used by storage-size experiments so "bytes on disk" is literal).
Either way, every access is priced by the shared :class:`IOCostModel`.
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional

from repro.constants import PAGE_SIZE
from repro.errors import StorageError
from repro.obs import get_registry
from repro.storage.iomodel import IOCostModel

_REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
_OBS_ALLOCATED = _REG.counter("disk.pages_allocated")
_OBS_FREED = _REG.counter("disk.pages_freed")


class DiskManager:
    """Allocates pages and serves page-granular reads/writes.

    Parameters
    ----------
    cost_model:
        Shared I/O pricer.  A fresh one is created when omitted.
    path:
        When given, pages live in this file; otherwise in memory.

    The ``crash_point`` attribute may be set to a
    :class:`~repro.storage.wal.CrashPoint`; when armed, it kills the
    simulated process on a page write *before* anything is priced or
    stored, so recovery tests observe exactly the state a real crash
    would leave.
    """

    def __init__(
        self,
        cost_model: Optional[IOCostModel] = None,
        path: Optional[str] = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else IOCostModel()
        self.crash_point = None  # Optional[repro.storage.wal.CrashPoint]
        self._path = path
        self._next_page_id = 0
        self._freed: list[int] = []
        self._pages: Dict[int, bytes] = {}
        self._file = open(path, "w+b") if path is not None else None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Reserve a page id (reusing freed pages first) and return it.

        Freed pages are reused lowest-id first, so a bulk writer that just
        retired a contiguous extent (e.g. merge-pack freeing the old tree)
        gets that extent back in ascending order and its writes stay
        sequential.
        """
        _OBS_ALLOCATED.value += 1
        if self._freed:
            return heapq.heappop(self._freed)
        page_id = self._next_page_id
        self._next_page_id += 1
        return page_id

    def allocate_run(self, count: int) -> list[int]:
        """Reserve ``count`` *contiguous* page ids.

        Bulk loaders use this so their writes are physically sequential,
        which is exactly the property the Cubetree packing algorithm
        exploits.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        _OBS_ALLOCATED.value += count
        start = self._next_page_id
        self._next_page_id += count
        return list(range(start, start + count))

    def free_page(self, page_id: int) -> None:
        """Return a page to the free list (its contents become undefined)."""
        self._check_allocated(page_id)
        _OBS_FREED.value += 1
        self._pages.pop(page_id, None)
        heapq.heappush(self._freed, page_id)

    @property
    def num_allocated(self) -> int:
        """Number of pages currently allocated (excludes freed pages)."""
        return self._next_page_id - len(self._freed)

    @property
    def bytes_allocated(self) -> int:
        """Bytes occupied by currently-allocated pages."""
        return self.num_allocated * PAGE_SIZE

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> bytearray:
        """Read a page's bytes, pricing the access."""
        self._check_allocated(page_id)
        self.cost_model.record_read(page_id)
        if self._file is not None:
            self._file.seek(page_id * PAGE_SIZE)
            raw = self._file.read(PAGE_SIZE)
            if len(raw) < PAGE_SIZE:
                raw = raw.ljust(PAGE_SIZE, b"\x00")
            return bytearray(raw)
        raw = self._pages.get(page_id)
        if raw is None:
            return bytearray(PAGE_SIZE)
        return bytearray(raw)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write a full page of bytes, pricing the access."""
        if self.crash_point is not None:
            self.crash_point.hit(f"write of page {page_id}")
        self._check_allocated(page_id)
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"write_page needs exactly {PAGE_SIZE} bytes, got {len(data)}"
            )
        self.cost_model.record_write(page_id)
        if self._file is not None:
            self._file.seek(page_id * PAGE_SIZE)
            self._file.write(data)
        else:
            self._pages[page_id] = bytes(data)

    def close(self) -> None:
        """Release the backing file, if any."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def delete_backing_file(self) -> None:
        """Close and remove the backing file (no-op for in-memory disks)."""
        self.close()
        if self._path is not None and os.path.exists(self._path):
            os.remove(self._path)

    # ------------------------------------------------------------------
    # offline snapshots (checkpoint / restore; not priced by the cost
    # model — these model an out-of-band backup, not query-path I/O)
    # ------------------------------------------------------------------
    def dump_pages(self, path: str, crash_point=None) -> int:
        """Write every allocated page to ``path``; returns pages written.

        The dump is compact: the allocated pages in page-id order, freed
        ids skipped, so page *p* sits at offset
        ``(p - freed ids below p) * PAGE_SIZE`` and the file is exactly
        ``num_allocated * PAGE_SIZE`` bytes.  ``crash_point`` (a
        :class:`~repro.storage.wal.CrashPoint`) is hit once per stored
        page *before* it reaches the file, so recovery tests can kill the
        checkpoint at any point of the dump and observe exactly the
        prefix a real crash would leave.  The dump is fsynced before
        returning.
        """
        written = 0
        with open(path, "wb") as handle:
            for page_id in self.stored_page_ids(self.allocation_state()):
                if crash_point is not None:
                    crash_point.hit(f"checkpoint dump of page {page_id}")
                if self._file is not None:
                    self._file.seek(page_id * PAGE_SIZE)
                    raw = self._file.read(PAGE_SIZE)
                    raw = raw.ljust(PAGE_SIZE, b"\x00")
                else:
                    raw = self._pages.get(page_id, bytes(PAGE_SIZE))
                handle.write(raw)
                written += 1
            handle.flush()
            os.fsync(handle.fileno())
        return written

    def allocation_state(self) -> dict:
        """JSON-serializable allocator state (for snapshots)."""
        return {
            "next_page_id": self._next_page_id,
            "freed": sorted(self._freed),
        }

    @staticmethod
    def stored_page_ids(state: dict, with_freed: bool = False) -> List[int]:
        """The page ids a dump of allocator ``state`` stores, in file
        order: the allocated ids (the compact layout of
        :meth:`dump_pages`), or with ``with_freed`` every id below
        ``next_page_id`` (the layout of checkpoint formats before v4)."""
        freed = set() if with_freed else {int(p) for p in state["freed"]}
        return [
            page_id
            for page_id in range(int(state["next_page_id"]))
            if page_id not in freed
        ]

    @classmethod
    def restore(
        cls,
        path: str,
        state: dict,
        cost_model: Optional[IOCostModel] = None,
        with_freed: bool = False,
    ) -> "DiskManager":
        """Rebuild an in-memory disk from a page dump + allocator state.

        The dump is the compact one :meth:`dump_pages` writes.
        ``with_freed`` reads the full layout instead, which holds a block
        for every id below ``next_page_id`` (checkpoint formats before
        v4); the freed ids' blocks are skipped.  Either way the dump must
        hold exactly its stored pages: a short file means a torn
        checkpoint, and restoring it would silently zero-fill whatever
        the crash cut off, so it raises, as does a file that is too long.
        """
        disk = cls(cost_model=cost_model)
        disk._next_page_id = int(state["next_page_id"])
        # A sorted list is already a valid heap.
        disk._freed = sorted(int(p) for p in state["freed"])
        freed = set(disk._freed)
        stored = cls.stored_page_ids(state, with_freed)
        with open(path, "rb") as handle:
            for page_id in stored:
                raw = handle.read(PAGE_SIZE)
                if len(raw) < PAGE_SIZE:
                    raise StorageError(
                        f"page dump {path!r} is truncated: page {page_id} "
                        f"of {len(stored)} stored pages is incomplete "
                        f"({len(raw)} bytes)"
                    )
                if page_id not in freed:
                    disk._pages[page_id] = raw
            if handle.read(1):
                raise StorageError(
                    f"page dump {path!r} holds more than its "
                    f"{len(stored)} stored pages"
                )
        return disk

    # ------------------------------------------------------------------
    def _check_allocated(self, page_id: int) -> None:
        if not 0 <= page_id < self._next_page_id:
            raise StorageError(f"page {page_id} was never allocated")

    def __enter__(self) -> "DiskManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
