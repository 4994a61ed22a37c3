"""The bounded-memory streaming build path (extsort + pack_rtree_stream).

The contract: a streaming build is *observably identical* to the
classic in-memory build — same pages, same extents, same simulated
I/O — while the sort buffer never exceeds the configured budget and
overflow actually spills to temp heap files.
"""

import random

import pytest

from repro.core.cubetree import Cubetree
from repro.core.extsort import ExternalRunSorter
from repro.errors import ConfigError
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.settings import Settings, current, override
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool(capacity=256):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


def make_views():
    return [
        ViewDefinition("V_p", ("partkey",)),
        ViewDefinition("V_ps", ("partkey", "suppkey")),
    ]


def make_data(seed=11, n_1d=2500, n_2d=3000):
    rng = random.Random(seed)
    one_d = {rng.randint(1, 10_000): None for _ in range(n_1d)}
    two_d = {
        (rng.randint(1, 90), rng.randint(1, 90)): None for _ in range(n_2d)
    }
    return {
        "V_p": [(key, float(key)) for key in one_d],
        "V_ps": [(a, b, float(a + b)) for a, b in two_d],
    }


def tree_fingerprint(cubetree):
    return (
        cubetree.num_pages,
        dict(cubetree.tree.view_extents),
        [
            (leaf.view_id, tuple(leaf.points), tuple(leaf.values))
            for leaf in cubetree.tree.scan_leaf_chain()
        ],
    )


# ----------------------------------------------------------------------
# the sorter itself
# ----------------------------------------------------------------------
def test_sorter_orders_and_spills():
    rng = random.Random(3)
    values = [rng.randint(-(10**12), 10**12) for _ in range(5000)]
    sorter = ExternalRunSorter(key=lambda v: v, max_buffered=256)
    for value in values:
        sorter.add(value)
    assert list(sorter.stream()) == sorted(values)
    assert sorter.peak_buffered <= 256
    assert sorter.spill_runs == 5000 // 256
    assert sorter.spilled_entries == sorter.spill_runs * 256


def test_sorter_without_spill():
    sorter = ExternalRunSorter(key=lambda v: v, max_buffered=100)
    for value in (3, 1, 2):
        sorter.add(value)
    assert list(sorter.stream()) == [1, 2, 3]
    assert sorter.spill_runs == 0


def test_sorter_duplicate_keys_survive():
    sorter = ExternalRunSorter(key=lambda v: v[0], max_buffered=2)
    entries = [(1, "a"), (1, "b"), (0, "c"), (1, "d"), (0, "e")]
    for entry in entries:
        sorter.add(entry)
    streamed = list(sorter.stream())
    assert sorted(streamed) == sorted(entries)
    assert [key for key, _ in streamed] == [0, 0, 1, 1, 1]


def test_sorter_rejects_bad_budget():
    with pytest.raises(ValueError):
        ExternalRunSorter(key=lambda v: v, max_buffered=0)


# ----------------------------------------------------------------------
# budget configuration
# ----------------------------------------------------------------------
def budget_from(raw):
    return Settings.from_env({"REPRO_BUILD_MEMORY": raw}).build_memory


def test_budget_env_parsing():
    assert Settings.from_env({}).build_memory is None
    assert budget_from("4096") == 4096
    assert budget_from("8k") == 8000
    assert budget_from("2m") == 2_000_000
    assert budget_from("off") is None
    for bad in ("lots", "-5"):
        with pytest.raises(ConfigError, match="REPRO_BUILD_MEMORY"):
            budget_from(bad)


def test_budget_override_beats_env():
    with override(build_memory=4096):
        with override(build_memory=32):
            assert current().build_memory == 32
        assert current().build_memory == 4096
    with pytest.raises(ConfigError):
        with override(build_memory=0):
            pass


# ----------------------------------------------------------------------
# streaming Cubetree build
# ----------------------------------------------------------------------
def test_streaming_build_matches_classic():
    data = make_data()
    _d1, pool1 = make_pool()
    classic = Cubetree(pool1, 3, make_views())
    classic.build(data)

    _d2, pool2 = make_pool()
    streamed = Cubetree(pool2, 3, make_views())
    report = streamed.build_streaming(data, max_buffered=400)

    assert tree_fingerprint(classic) == tree_fingerprint(streamed)
    assert report.within_budget()
    assert report.peak_buffered <= 400
    assert report.spill_runs > 0
    assert report.entries == sum(len(rows) for rows in data.values())


def test_streaming_build_charges_identical_io():
    data = make_data()
    disk1, pool1 = make_pool()
    classic = Cubetree(pool1, 3, make_views())
    classic.build(data)

    disk2, pool2 = make_pool()
    streamed = Cubetree(pool2, 3, make_views())
    streamed.build_streaming(data, max_buffered=400)
    assert (
        disk1.cost_model.stats.simulated_ms
        == disk2.cost_model.stats.simulated_ms
    )


def test_build_gates_on_budget():
    data = make_data(n_1d=400, n_2d=500)
    _d, pool = make_pool()
    gated = Cubetree(pool, 3, make_views())
    with override(build_memory=64):
        gated.build(data)  # takes the streaming path

    _d2, pool2 = make_pool()
    classic = Cubetree(pool2, 3, make_views())
    classic.build(data)
    assert tree_fingerprint(gated) == tree_fingerprint(classic)


def test_streaming_build_requires_budget():
    _d, pool = make_pool()
    cubetree = Cubetree(pool, 3, make_views())
    with pytest.raises(ValueError):
        cubetree.build_streaming({"V_p": [], "V_ps": []})


def test_streaming_build_empty_and_absent_views():
    from repro.rtree.tree import EMPTY_EXTENT

    _d, pool = make_pool()
    cubetree = Cubetree(pool, 3, make_views())
    report = cubetree.build_streaming(
        {"V_p": [], "V_ps": [(1, 2, 3.0)]}, max_buffered=16
    )
    assert report.entries == 1
    assert cubetree.tree.view_extents[1] == EMPTY_EXTENT
    assert cubetree.has_run("V_ps")
    assert list(block_rows(cubetree.query("V_p", {}, fast=True))) == []
    assert list(block_rows(cubetree.query("V_ps", {}, fast=True))) == [((1, 2), (3.0,))]


def test_streaming_build_queries_identically():
    data = make_data(n_1d=600, n_2d=800)
    _d, pool = make_pool()
    streamed = Cubetree(pool, 3, make_views())
    streamed.build_streaming(data, max_buffered=128)
    _d2, pool2 = make_pool()
    classic = Cubetree(pool2, 3, make_views())
    classic.build(data)
    for fast in (False, True):
        assert list(
            block_rows(streamed.query("V_ps", {"partkey": (1, 40)}, fast=fast))
        ) == list(block_rows(classic.query("V_ps", {"partkey": (1, 40)}, fast=fast)))
