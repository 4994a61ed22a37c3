"""Unit tests for the engine at several shards (the scatter-gather forest).

Covers the partitioning rule and router pruning helpers, the
critical-path I/O combination, single-shard routing of leading-coordinate
point queries, the sharded checkpoint round-trip (atomic multi-shard
manifest), the sharded fsck (including residue-disjointness detection),
and crash injection proving a mid-publish crash leaves *all* shards on
the old generation together.
"""

import glob
import os

import pytest

from repro.analysis.fsck import (
    SHARD_RESIDUE,
    FsckReport,
    _check_shard_residues,
    check_checkpoint,
    check_database,
)
from repro.core.engine import CubetreeEngine
from repro.core.persistence import (
    load_any_engine,
    save_database,
    verify_checkpoint,
)
from repro.core.sharded import (
    combine_io,
    partition_state_rows,
    shard_of,
    shard_targets,
)
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.storage.iomodel import IOStats
from repro.storage.wal import CrashError, CrashPoint
from repro.warehouse.tpcd import TPCDGenerator

VIEWS = [
    ViewDefinition("V_ps", ("partkey", "suppkey")),
    ViewDefinition("V_s", ("suppkey",)),
    ViewDefinition("V_none", ()),
]


@pytest.fixture(scope="module")
def warehouse():
    gen = TPCDGenerator(scale_factor=0.0005, seed=31)
    data = gen.generate()
    delta = gen.generate_increment(0.25)
    return data, delta


def _build(data, shards, **kwargs):
    engine = CubetreeEngine(
        data.schema, buffer_pages=64, shards=shards, **kwargs
    )
    engine.materialize(
        VIEWS, data.facts,
        replicate={"V_ps": [("suppkey", "partkey")]},
    )
    return engine


# ----------------------------------------------------------------------
# partitioning rule + pruning helpers
# ----------------------------------------------------------------------
def test_shard_of_is_residue_mod_n():
    assert [shard_of(v, 3) for v in (1, 2, 3, 4, 5, 6)] == [1, 2, 0, 1, 2, 0]


def test_partition_keeps_groups_whole_and_preserves_order():
    view = ViewDefinition("v_ab", ("ka", "kb"))
    rows = [(5, 1, 2.0), (3, 1, 1.0), (5, 2, 4.0), (4, 9, 8.0)]
    parts = partition_state_rows(view, rows, 3)
    assert parts[0] == [(3, 1, 1.0)]
    assert parts[1] == [(4, 9, 8.0)]
    assert parts[2] == [(5, 1, 2.0), (5, 2, 4.0)]
    # N=1 passes through unchanged.
    assert partition_state_rows(view, rows, 1) == [rows]


def test_partition_apex_lives_in_shard_zero():
    apex = ViewDefinition("v_none", ())
    parts = partition_state_rows(apex, [(42.0,)], 4)
    assert parts[0] == [(42.0,)]
    assert all(not p for p in parts[1:])


def test_shard_targets_point_range_and_unbound():
    assert shard_targets(4, None) == [0, 1, 2, 3]
    assert shard_targets(4, 7) == [3]
    assert shard_targets(4, (5, 6)) == [1, 2]
    assert shard_targets(4, (6, 5)) == []          # empty range
    assert shard_targets(4, (1, 9)) == [0, 1, 2, 3]  # wider than N
    assert shard_targets(1, None) == [0]


def test_combine_io_sums_counters_takes_max_time():
    a = IOStats(sequential_reads=10, random_reads=2, simulated_ms=50.0)
    b = IOStats(sequential_writes=4, random_writes=1, simulated_ms=80.0)
    combined = combine_io([a, b])
    assert combined.sequential_reads == 10
    assert combined.random_reads == 2
    assert combined.sequential_writes == 4
    assert combined.random_writes == 1
    assert combined.simulated_ms == 80.0
    # Single delta passes through exactly.
    one = combine_io([a])
    assert one.simulated_ms == a.simulated_ms
    assert one.sequential_reads == a.sequential_reads


# ----------------------------------------------------------------------
# scatter-gather routing
# ----------------------------------------------------------------------
def test_point_query_on_leading_coordinate_touches_one_shard(warehouse):
    data, _delta = warehouse
    engine = _build(data, shards=4)
    before = [shard.routed_queries for shard in engine.shards]
    # Routes to V_s, whose leading (only) group coordinate is bound.
    result = engine.query(SliceQuery((), (("suppkey", 3),)))
    touched = [
        i
        for i, shard in enumerate(engine.shards)
        if shard.routed_queries > before[i]
    ]
    assert touched == [3]
    assert len(result.rows) == 1


def test_unbound_query_scatters_to_all_shards_and_merges(warehouse):
    data, _delta = warehouse
    engine = _build(data, shards=4)
    single = _build(data, shards=1)
    for query in (
        SliceQuery(("partkey", "suppkey"), ()),
        SliceQuery(("suppkey",), ()),
        SliceQuery((), ()),
        SliceQuery(("partkey",), (("suppkey", 2),)),
    ):
        assert engine.query(query).rows == single.query(query).rows


def test_view_sizes_and_pages_aggregate_across_shards(warehouse):
    data, _delta = warehouse
    sharded = _build(data, shards=3)
    single = _build(data, shards=1)
    assert sharded.view_sizes() == single.view_sizes()
    assert sharded.storage_pages() >= single.storage_pages()
    stats = sharded.shard_stats()
    assert [entry["shard"] for entry in stats] == [0, 1, 2]
    assert sum(entry["rows"] for entry in stats) == sum(
        single.view_sizes().values()
    )


# ----------------------------------------------------------------------
# persistence: one manifest commits all shards
# ----------------------------------------------------------------------
def test_sharded_checkpoint_roundtrip(tmp_path, warehouse):
    data, delta = warehouse
    engine = _build(data, shards=3)
    directory = str(tmp_path / "db")
    save_database(engine, directory)

    assert verify_checkpoint(directory).ok
    recovered = load_any_engine(directory)
    assert isinstance(recovered, CubetreeEngine)
    assert recovered.num_shards == 3
    assert recovered.view_sizes() == engine.view_sizes()
    query = SliceQuery(("suppkey",), ())
    assert recovered.query(query).rows == engine.query(query).rows

    # Update + second generation round-trips too.
    recovered.update(delta)
    recovered.checkpoint(directory)
    reopened = load_any_engine(directory)
    assert reopened.query(query).rows == recovered.query(query).rows


def test_sharded_checkpoint_detects_per_shard_corruption(
    tmp_path, warehouse
):
    data, _delta = warehouse
    engine = _build(data, shards=3)
    directory = str(tmp_path / "db")
    save_database(engine, directory)

    pages = glob.glob(
        os.path.join(directory, "gen-*", "shard-01", "pages.bin")
    )[0]
    with open(pages, "r+b") as handle:
        handle.seek(64)
        byte = handle.read(1)
        handle.seek(64)
        handle.write(bytes([byte[0] ^ 0xFF]))

    report = verify_checkpoint(directory)
    assert not report.ok
    assert any("shard-01" in problem for problem in report.problems)
    fsck = check_checkpoint(directory)
    assert not fsck.ok
    assert "checkpoint-corrupt" in fsck.codes()


def test_checkpoint_fsck_flags_a_drifted_view_size(tmp_path, warehouse):
    # A catalog whose checksums are consistent but whose size for one
    # view disagrees with the entries its leaves hold: reopen trusts the
    # catalog, so fsck is what must notice.
    import json
    import zlib

    data, _delta = warehouse
    engine = _build(data, shards=2)
    directory = str(tmp_path / "db")
    generation = save_database(engine, directory)
    path = os.path.join(generation, "shard-00", "shard.json")
    with open(path) as handle:
        catalog = json.load(handle)
    view = sorted(catalog["sizes"])[0]
    catalog["sizes"][view] += 1
    payload = json.dumps(catalog, sort_keys=True).encode()
    with open(path, "wb") as handle:
        handle.write(payload)
    manifest_path = os.path.join(generation, "MANIFEST.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["files"]["shard-00/shard.json"] = {
        "bytes": len(payload), "crc32": zlib.crc32(payload),
    }
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, sort_keys=True)

    assert verify_checkpoint(directory).ok
    report = check_checkpoint(directory)
    assert "view-size-mismatch" in report.codes(), report.format()
    assert all(v.tree_label.startswith("shard0/") for v in report.violations)


# ----------------------------------------------------------------------
# fsck: residue disjointness
# ----------------------------------------------------------------------
def test_sharded_fsck_clean_engine_passes(warehouse):
    data, _delta = warehouse
    engine = _build(data, shards=3)
    report = check_database(engine)
    assert report.ok, report.format()
    assert report.trees_checked == len(engine.shards) * 2


def test_fsck_flags_entry_on_wrong_shard(warehouse):
    data, _delta = warehouse
    engine = _build(data, shards=3)
    # Shard 1's tree audited as if it were shard 2: every entry's
    # residue is now wrong, which is exactly the misplaced-entry shape.
    tree = engine.shards[1].forest.cubetrees[0]
    report = FsckReport()
    _check_shard_residues(tree, 2, 3, "shard2/R1", report)
    assert not report.ok
    assert SHARD_RESIDUE in report.codes()


def test_fsck_checkpoint_covers_sharded_layout(tmp_path, warehouse):
    data, _delta = warehouse
    engine = _build(data, shards=2)
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    report = check_checkpoint(directory)
    assert report.ok, report.format()
    assert report.trees_checked == 4  # 2 shards x 2 cubetrees


# ----------------------------------------------------------------------
# crash injection: the manifest commit is all-or-nothing across shards
# ----------------------------------------------------------------------
def _all_shard_answers(engine, queries):
    return [engine.query(q).rows for q in queries]


def test_mid_publish_crash_leaves_all_shards_on_old_generation(
    tmp_path, warehouse
):
    """Crash the publish at every site before the manifest rename: the
    reopened database must answer from the *old* generation for every
    query on every shard — no shard may advance alone."""
    data, delta = warehouse
    directory = str(tmp_path / "db")
    engine = _build(data, shards=3)
    save_database(engine, directory)

    queries = [
        SliceQuery((), (("suppkey", s),)) for s in (1, 2, 3)
    ] + [SliceQuery(("suppkey",), ()), SliceQuery((), ())]
    live = load_any_engine(directory)
    pre = _all_shard_answers(live, queries)
    live.update(delta)
    post = _all_shard_answers(live, queries)
    assert post != pre

    # Count the crashable sites of a full sharded checkpoint.
    counter_sites = []

    class Counting(CrashPoint):
        def hit(self, context=""):
            counter_sites.append(context)
            super().hit(context)

    save_database(live, str(tmp_path / "probe"), crash_point=Counting())
    sites = len(counter_sites)
    assert any(ctx.startswith("shard 2 ") for ctx in counter_sites)
    prune_sites = 1  # only the post-commit prune runs after the rename

    for k in range(sites - prune_sites):
        point = CrashPoint()
        point.arm(after=k)
        with pytest.raises(CrashError):
            save_database(live, directory, crash_point=point)
        assert point.fired
        recovered = load_any_engine(directory)
        assert recovered.num_shards == 3
        assert _all_shard_answers(recovered, queries) == pre, f"site {k}"
        assert verify_checkpoint(directory).ok, f"site {k}"

    # Crash after the rename (prune): every shard is on the NEW
    # generation together.
    point = CrashPoint()
    point.arm(after=sites - 1)
    with pytest.raises(CrashError):
        save_database(live, directory, crash_point=point)
    recovered = load_any_engine(directory)
    assert _all_shard_answers(recovered, queries) == post

    # The directory is not wedged.
    save_database(live, directory)
    assert verify_checkpoint(directory).ok
