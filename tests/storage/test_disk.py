"""Tests for the simulated disk manager."""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constants import PAGE_SIZE
from repro.errors import StorageError
from repro.storage.disk import DiskManager


def test_allocate_is_monotonic():
    disk = DiskManager()
    ids = [disk.allocate_page() for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_allocate_run_is_contiguous():
    disk = DiskManager()
    disk.allocate_page()
    run = disk.allocate_run(4)
    assert run == [1, 2, 3, 4]


def test_roundtrip_write_read():
    disk = DiskManager()
    pid = disk.allocate_page()
    payload = bytes(range(256)) * (PAGE_SIZE // 256)
    disk.write_page(pid, payload)
    assert bytes(disk.read_page(pid)) == payload


def test_read_unwritten_page_is_zeroed():
    disk = DiskManager()
    pid = disk.allocate_page()
    assert bytes(disk.read_page(pid)) == bytes(PAGE_SIZE)


def test_read_unallocated_page_raises():
    disk = DiskManager()
    with pytest.raises(StorageError):
        disk.read_page(0)


def test_short_write_raises():
    disk = DiskManager()
    pid = disk.allocate_page()
    with pytest.raises(StorageError):
        disk.write_page(pid, b"short")


def test_free_page_is_reused():
    disk = DiskManager()
    a = disk.allocate_page()
    disk.allocate_page()
    disk.free_page(a)
    assert disk.num_allocated == 1
    assert disk.allocate_page() == a
    assert disk.num_allocated == 2


def test_bytes_allocated():
    disk = DiskManager()
    disk.allocate_run(3)
    assert disk.bytes_allocated == 3 * PAGE_SIZE


def test_io_accounting_flows_to_cost_model():
    disk = DiskManager()
    pid = disk.allocate_page()
    disk.write_page(pid, bytes(PAGE_SIZE))
    disk.read_page(pid)
    assert disk.cost_model.stats.total_ios == 2


def test_file_backed_roundtrip(tmp_path):
    path = str(tmp_path / "disk.bin")
    with DiskManager(path=path) as disk:
        pid = disk.allocate_page()
        payload = b"\xab" * PAGE_SIZE
        disk.write_page(pid, payload)
        assert bytes(disk.read_page(pid)) == payload


def test_file_backed_delete(tmp_path):
    path = str(tmp_path / "disk.bin")
    disk = DiskManager(path=path)
    pid = disk.allocate_page()
    disk.write_page(pid, bytes(PAGE_SIZE))
    disk.delete_backing_file()
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# checkpoint dump / restore
# ----------------------------------------------------------------------
def _filled_disk(pages=5):
    disk = DiskManager()
    for i in range(pages):
        pid = disk.allocate_page()
        disk.write_page(pid, bytes([i + 1]) * PAGE_SIZE)
    return disk


def test_dump_and_restore_roundtrip(tmp_path):
    disk = _filled_disk()
    path = str(tmp_path / "pages.bin")
    assert disk.dump_pages(path) == 5
    restored = DiskManager.restore(path, disk.allocation_state())
    for pid in range(5):
        assert restored.read_page(pid) == disk.read_page(pid)


def test_restore_rejects_truncated_dump(tmp_path):
    """A short page file is a torn checkpoint, not zero-fill material."""
    disk = _filled_disk()
    path = str(tmp_path / "pages.bin")
    disk.dump_pages(path)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 100)
    with pytest.raises(StorageError, match="truncated"):
        DiskManager.restore(path, disk.allocation_state())


def test_dump_pages_hits_crash_point_per_page(tmp_path):
    from repro.storage.wal import CrashError, CrashPoint

    disk = _filled_disk()
    point = CrashPoint()
    point.arm(after=2)
    with pytest.raises(CrashError, match="page 2"):
        disk.dump_pages(str(tmp_path / "pages.bin"), crash_point=point)
    assert point.fired


#: One step of an allocator history: allocate a page, write one, or free one.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.just(0)),
        st.tuples(st.just("write"), st.integers(0, 1 << 16)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    ),
    max_size=40,
)


def _run_history(steps):
    """Replay allocate/write/free steps; returns the disk and the bytes
    each allocated page id must hold."""
    disk = DiskManager()
    expected = {}
    for op, arg in steps:
        if op == "allocate" or not expected:
            pid = disk.allocate_page()
            expected[pid] = bytes(PAGE_SIZE)
            continue
        pid = sorted(expected)[arg % len(expected)]
        if op == "write":
            payload = arg.to_bytes(4, "little") * (PAGE_SIZE // 4)
            disk.write_page(pid, payload)
            expected[pid] = payload
        else:
            disk.free_page(pid)
            del expected[pid]
    return disk, expected


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=_STEPS)
def test_compact_dump_restores_every_allocated_page(tmp_path, steps):
    from repro.storage.wal import CrashPoint

    class CountingCrashPoint(CrashPoint):
        def __init__(self):
            super().__init__()
            self.hits = 0

        def hit(self, context=""):
            self.hits += 1
            super().hit(context)

    disk, expected = _run_history(steps)
    path = str(tmp_path / "pages.bin")
    point = CountingCrashPoint()
    assert disk.dump_pages(path, crash_point=point) == disk.num_allocated
    # Only the allocated pages are stored, one crash site each.
    assert len(expected) == disk.num_allocated
    assert point.hits == disk.num_allocated
    assert os.path.getsize(path) == disk.num_allocated * PAGE_SIZE

    state = disk.allocation_state()
    restored = DiskManager.restore(path, state)
    assert restored.allocation_state() == state
    assert restored.num_allocated == disk.num_allocated
    for pid, payload in expected.items():
        assert bytes(restored.read_page(pid)) == payload
    # The allocator resumes where it left off: freed ids first.
    if state["freed"]:
        assert restored.allocate_page() == state["freed"][0]

    if disk.num_allocated:
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        with pytest.raises(StorageError, match="truncated"):
            DiskManager.restore(path, state)


def test_dump_skips_freed_pages(tmp_path):
    disk = _filled_disk()
    disk.free_page(1)
    disk.free_page(3)
    path = str(tmp_path / "pages.bin")
    assert disk.dump_pages(path) == 3
    with open(path, "rb") as handle:
        raw = handle.read()
    # Page p sits at (p - freed ids below p) * PAGE_SIZE.
    assert raw == b"".join(bytes([i + 1]) * PAGE_SIZE for i in (0, 2, 4))


def test_restore_reads_the_full_layout_with_freed_blocks(tmp_path):
    """Checkpoints before format v4 stored a block for every page id."""
    disk = _filled_disk()
    disk.free_page(2)
    path = str(tmp_path / "pages.bin")
    with open(path, "wb") as handle:
        for pid in range(5):
            handle.write(
                bytes(PAGE_SIZE) if pid == 2 else bytes(disk.read_page(pid))
            )
    state = disk.allocation_state()
    restored = DiskManager.restore(path, state, with_freed=True)
    for pid in (0, 1, 3, 4):
        assert restored.read_page(pid) == disk.read_page(pid)
    assert restored.num_allocated == 4
    # The same file is too long to be a compact dump of that state.
    with pytest.raises(StorageError, match="more than"):
        DiskManager.restore(path, state)
