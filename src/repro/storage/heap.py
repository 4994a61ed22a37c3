"""Heap files: collections of fixed-width records on slotted pages.

A heap file is the conventional engine's table storage.  Records are
addressed by :class:`RID` (page id, slot) — the value B+-tree indexes point
at — and can be fetched, updated in place, deleted, or scanned in page
order.

Page layout (little-endian)::

    offset 0   uint16   number of slots in use (live records)
    offset 2   uint16   slot count on this page (constant per codec)
    offset 4   bitmap   ceil(slots/8) bytes of slot-occupancy bits
    ...        records  slot i at record_base + i * record_size

The list of pages belonging to the file is kept in the Python object; a
production system would persist it in a file-extent map, which adds nothing
to the experiments here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.constants import PAGE_SIZE, ROW_HEADER_BYTES
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.codec import RecordCodec
from repro.storage.page import Page

_HEADER_BYTES = 4


@dataclass(frozen=True, order=True)
class RID:
    """Record identifier: physical page id plus slot number."""

    page_id: int
    slot: int


def _slots_per_page(slot_size: int) -> int:
    """Max slots such that header + bitmap + slots*slot_size <= PAGE_SIZE."""
    usable = PAGE_SIZE - _HEADER_BYTES
    slots = (usable * 8) // (slot_size * 8 + 1)
    if slots < 1:
        raise StorageError(
            f"record of {slot_size} bytes does not fit in a {PAGE_SIZE}B page"
        )
    return slots


class HeapFile:
    """A bag of records over a buffer pool.

    Parameters
    ----------
    pool:
        Shared buffer pool.
    codec:
        Fixed-width record layout for this file.
    """

    def __init__(self, pool: BufferPool, codec: RecordCodec) -> None:
        self.pool = pool
        self.codec = codec
        # Each slot holds the encoded record plus the per-row header a
        # transactional server maintains (see constants.ROW_HEADER_BYTES).
        self.slot_size = codec.record_size + ROW_HEADER_BYTES
        self.slots_per_page = _slots_per_page(self.slot_size)
        self._bitmap_bytes = (self.slots_per_page + 7) // 8
        self._record_base = _HEADER_BYTES + self._bitmap_bytes
        self.page_ids: List[int] = []
        self._free: List[RID] = []
        self._count = 0

    # ------------------------------------------------------------------
    # basic operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live records."""
        return self._count

    @property
    def num_pages(self) -> int:
        """Pages belonging to this heap file."""
        return len(self.page_ids)

    def insert(self, values: Sequence[object]) -> RID:
        """Append a record, reusing a freed slot when one exists."""
        raw = self.codec.encode(values)
        rid = self._free.pop() if self._free else self._append_slot()
        page = self.pool.fetch_page(rid.page_id)
        try:
            self._write_slot(page, rid.slot, raw)
            self._set_bit(page, rid.slot, True)
            self._bump_used(page, +1)
        finally:
            self.pool.unpin_page(rid.page_id, dirty=True)
        self._count += 1
        return rid

    def fetch(self, rid: RID) -> Tuple[object, ...]:
        """Read one record by RID."""
        page = self.pool.fetch_page(rid.page_id)
        try:
            if not self._get_bit(page, rid.slot):
                raise StorageError(f"no live record at {rid}")
            raw = self._read_slot(page, rid.slot)
        finally:
            self.pool.unpin_page(rid.page_id)
        return self.codec.decode(raw)

    def update(self, rid: RID, values: Sequence[object]) -> None:
        """Overwrite one record in place."""
        raw = self.codec.encode(values)
        page = self.pool.fetch_page(rid.page_id)
        try:
            if not self._get_bit(page, rid.slot):
                raise StorageError(f"no live record at {rid}")
            self._write_slot(page, rid.slot, raw)
        finally:
            self.pool.unpin_page(rid.page_id, dirty=True)

    def delete(self, rid: RID) -> None:
        """Remove one record; its slot becomes reusable."""
        page = self.pool.fetch_page(rid.page_id)
        try:
            if not self._get_bit(page, rid.slot):
                raise StorageError(f"no live record at {rid}")
            self._set_bit(page, rid.slot, False)
            self._bump_used(page, -1)
        finally:
            self.pool.unpin_page(rid.page_id, dirty=True)
        self._free.append(rid)
        self._count -= 1

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[RID, Tuple[object, ...]]]:
        """Yield (rid, record) for every live record in page order."""
        for page_id, slots, records in self._scan_pages():
            for slot in slots:
                yield RID(page_id, slot), records[slot]

    def scan_records(self) -> Iterator[Tuple[object, ...]]:
        """Yield records only (no RIDs)."""
        for _page_id, slots, records in self._scan_pages():
            if len(slots) == len(records):
                yield from records
            else:
                yield from map(records.__getitem__, slots)

    def _scan_pages(
        self,
    ) -> Iterator[Tuple[int, Sequence[int], List[Tuple[object, ...]]]]:
        """Yield ``(page id, live slots, decoded slot records)`` per page.

        Each page is decoded with one strided batch call while pinned,
        and the pin is held until the consumer moves to the next page,
        so buffer-pool traffic (and the simulated I/O it charges) is
        that of a record-at-a-time scan.
        """
        slots = self.slots_per_page
        for page_id in self.page_ids:
            page = self.pool.fetch_page(page_id)
            try:
                used = int.from_bytes(page.data[0:2], "little")
                if not used:
                    continue
                records = self.codec.decode_strided(
                    page.data, slots, ROW_HEADER_BYTES,
                    offset=self._record_base,
                )
                if used == slots:  # full page: every slot is live
                    yield page_id, range(slots), records
                else:
                    bitmap = bytes(
                        page.data[_HEADER_BYTES:_HEADER_BYTES
                                  + self._bitmap_bytes]
                    )
                    live = [
                        slot for slot in range(slots)
                        if bitmap[slot >> 3] & (1 << (slot & 7))
                    ]
                    yield page_id, live, records
            finally:
                self.pool.unpin_page(page_id)

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------
    def bulk_append(self, rows: Sequence[Sequence[object]]) -> List[RID]:
        """Append many records with page-at-a-time (sequential) writes.

        Unlike :meth:`insert`, which touches pages one record at a time,
        this packs full pages and writes each exactly once — the access
        pattern a bulk loader gets from sorting its input first.
        Returns the new records' RIDs.
        """
        first = len(self.page_ids)
        self.append_records(rows)
        per_page = self.slots_per_page
        last = len(self.page_ids) - 1
        tail = len(rows) - (last - first) * per_page
        return [
            RID(page_id, slot)
            for i, page_id in enumerate(self.page_ids[first:], first)
            for slot in range(tail if i == last else per_page)
        ]

    def append_records(self, rows: Sequence[Sequence[object]]) -> None:
        """:meth:`bulk_append` without building the RIDs."""
        i = 0
        while i < len(rows):
            take = min(self.slots_per_page, len(rows) - i)
            # One strided pack covers the slot region (row headers are
            # the zero pad bytes), and the occupancy bitmap is set in
            # whole bytes — byte-identical to the per-slot path.  A row
            # that does not encode raises before its page is allocated.
            packed = self.codec.encode_strided(
                rows[i : i + take], ROW_HEADER_BYTES
            )
            page = self.pool.new_page()
            try:
                self._init_page(page)
                base = self._record_base
                page.data[base : base + len(packed)] = packed
                full_bytes, rem = divmod(take, 8)
                bits = b"\xff" * full_bytes
                if rem:
                    bits += bytes(((1 << rem) - 1,))
                page.data[_HEADER_BYTES : _HEADER_BYTES + len(bits)] = bits
                self._bump_used(page, take)
            finally:
                self.pool.unpin_page(page.page_id, dirty=True)
            self.page_ids.append(page.page_id)
            self._count += take
            i += take

    # ------------------------------------------------------------------
    # page plumbing
    # ------------------------------------------------------------------
    def _append_slot(self) -> RID:
        if self.page_ids:
            last_id = self.page_ids[-1]
            page = self.pool.fetch_page(last_id)
            try:
                for slot in range(self.slots_per_page):
                    if not self._get_bit(page, slot):
                        return RID(last_id, slot)
            finally:
                self.pool.unpin_page(last_id)
        page = self.pool.new_page()
        try:
            self._init_page(page)
        finally:
            self.pool.unpin_page(page.page_id, dirty=True)
        self.page_ids.append(page.page_id)
        return RID(page.page_id, 0)

    def _init_page(self, page: Page) -> None:
        page.data[0:2] = (0).to_bytes(2, "little")
        page.data[2:4] = self.slots_per_page.to_bytes(2, "little")
        start = _HEADER_BYTES
        page.data[start : start + self._bitmap_bytes] = bytes(self._bitmap_bytes)
        page.mark_dirty()

    def _bump_used(self, page: Page, delta: int) -> None:
        used = int.from_bytes(page.data[0:2], "little") + delta
        page.data[0:2] = used.to_bytes(2, "little")
        page.mark_dirty()

    def _slot_offset(self, slot: int) -> int:
        return self._record_base + slot * self.slot_size + ROW_HEADER_BYTES

    def _read_slot(self, page: Page, slot: int) -> bytes:
        off = self._slot_offset(slot)
        return bytes(page.data[off : off + self.codec.record_size])

    def _write_slot(self, page: Page, slot: int, raw: bytes) -> None:
        off = self._slot_offset(slot)
        page.data[off : off + self.codec.record_size] = raw
        page.mark_dirty()

    def _get_bit(self, page: Page, slot: int) -> bool:
        byte = page.data[_HEADER_BYTES + slot // 8]
        return bool(byte & (1 << (slot % 8)))

    def _set_bit(self, page: Page, slot: int, value: bool) -> None:
        idx = _HEADER_BYTES + slot // 8
        mask = 1 << (slot % 8)
        if value:
            page.data[idx] |= mask
        else:
            page.data[idx] &= ~mask & 0xFF
        page.mark_dirty()
