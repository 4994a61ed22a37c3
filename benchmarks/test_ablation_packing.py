"""Ablation bench: packed bulk load vs dynamic (Guttman) insertion.

Paper shape asserted: packing fills leaves to ~100% (dynamic trees hover
near the classic ~70%), uses fewer pages, builds faster, and writes
sequentially.
"""

from repro.experiments import ablations


def test_packed_vs_dynamic(benchmark):
    result = benchmark.pedantic(
        lambda: ablations.run_packing(verbose=True),
        rounds=1, iterations=1,
    )
    assert result["packed_fill"] > 0.95
    assert result["dynamic_fill"] < 0.85
    assert result["packed_pages"] < result["dynamic_pages"]
    assert result["packed_ms"] < result["dynamic_ms"]


def test_pack_rate_microbench(benchmark):
    """Microbench: points/second through the packer."""
    from repro.rtree.packing import PackedRun, pack_rtree, sort_key
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager

    entries = sorted(
        [((i,), (1.0,)) for i in range(1, 20_001)],
        key=lambda e: sort_key(e[0], 1),
    )

    def pack():
        pool = BufferPool(DiskManager(), capacity=128)
        return pack_rtree(pool, 1, [PackedRun.from_entries(0, 1, 1, entries)])

    tree = benchmark(pack)
    assert len(tree) == 20_000
