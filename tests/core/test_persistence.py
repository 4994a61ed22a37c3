"""Tests for saving and reopening a Cubetree database (one generation
layout: ``gen-N/{meta.json, MANIFEST.json, shard-XX/...}``)."""

import json
import os
import shutil
import zlib

import pytest

from repro.constants import PAGE_SIZE
from repro.core.engine import CubetreeEngine
from repro.core.persistence import (
    CHECKSUMS_NAME,
    CorruptCheckpointError,
    MANIFEST_NAME,
    META_NAME,
    PAGES_NAME,
    SHARD_META_NAME,
    PersistenceError,
    load_any_engine,
    save_database,
    verify_checkpoint,
)
from repro.query.generator import RandomQueryGenerator
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.warehouse.tpcd import TPCDGenerator

VIEWS = [
    ViewDefinition("V_ps", ("partkey", "suppkey")),
    ViewDefinition("V_s", ("suppkey",)),
    ViewDefinition("V_none", ()),
]


def _newest_gen(directory):
    gens = sorted(
        entry for entry in os.listdir(directory) if entry.startswith("gen-")
    )
    assert gens, f"no generations in {directory}"
    return os.path.join(directory, gens[-1])


#: Shard 0's directory and catalog, relative to the generation.
SHARD0 = "shard-00"
SHARD0_META = f"{SHARD0}/{SHARD_META_NAME}"


def _rewrite_meta(gen_path, mutate, name=META_NAME):
    """Edit a committed generation's catalog, keeping the manifest honest.

    ``name`` is the catalog's path relative to the generation (the global
    ``meta.json`` or a shard's ``shard-XX/shard.json``).  Lets tests
    exercise *semantic* catalog validation (the strict loader) without
    tripping the checksum layer first.
    """
    meta_path = os.path.join(gen_path, name)
    with open(meta_path) as handle:
        meta = json.load(handle)
    mutate(meta)
    payload = (
        json.dumps(meta, indent=1, sort_keys=True, ensure_ascii=True) + "\n"
    ).encode("ascii")
    with open(meta_path, "wb") as handle:
        handle.write(payload)
    manifest_path = os.path.join(gen_path, MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["files"][name] = {
        "bytes": len(payload),
        "crc32": zlib.crc32(payload),
    }
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)


@pytest.fixture()
def saved(tmp_path):
    gen = TPCDGenerator(scale_factor=0.0005, seed=23)
    data = gen.generate()
    engine = CubetreeEngine(data.schema, buffer_pages=128)
    engine.materialize(
        VIEWS, data.facts,
        replicate={"V_ps": [("suppkey", "partkey")]},
    )
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    return gen, data, engine, directory


def test_save_creates_committed_generation(saved):
    _gen, _data, _engine, directory = saved
    gen_path = _newest_gen(directory)
    shard_path = os.path.join(gen_path, SHARD0)
    for name in (META_NAME, MANIFEST_NAME):
        assert os.path.exists(os.path.join(gen_path, name)), name
    for name in (PAGES_NAME, CHECKSUMS_NAME, SHARD_META_NAME):
        assert os.path.exists(os.path.join(shard_path, name)), name
    # One shard, so shard-00/ is the only shard directory.
    assert sorted(os.listdir(gen_path)) == sorted(
        [META_NAME, MANIFEST_NAME, SHARD0]
    )
    assert os.path.getsize(os.path.join(shard_path, PAGES_NAME)) > 0
    # One uint32 CRC per page of the dump.
    pages = os.path.getsize(os.path.join(shard_path, PAGES_NAME)) // PAGE_SIZE
    assert os.path.getsize(os.path.join(shard_path, CHECKSUMS_NAME)) == 4 * pages
    report = verify_checkpoint(directory)
    assert report.ok, report.format()
    assert report.generation == 1
    assert report.pages_checked == pages


def test_reopened_engine_answers_identically(saved):
    _gen, data, original, directory = saved
    reopened = load_any_engine(directory)
    qgen = RandomQueryGenerator(data.schema, seed=3)
    for node in (("partkey", "suppkey"), ("suppkey",), ("partkey",)):
        for query in qgen.generate_for_node(node, 8, include_unbound=True):
            assert reopened.query(query).rows == original.query(query).rows


def test_reopened_engine_accepts_updates(saved):
    gen, data, original, directory = saved
    reopened = load_any_engine(directory)
    increment = gen.generate_increment(0.2)
    reopened.update(increment)
    expected = float(
        sum(r[-1] for r in data.facts) + sum(r[-1] for r in increment)
    )
    assert reopened.query(SliceQuery((), ())).scalar() == expected


def test_reopened_view_sizes_and_replicas(saved):
    _gen, _data, original, directory = saved
    reopened = load_any_engine(directory)
    assert reopened.view_sizes() == original.view_sizes()
    assert reopened.replicas == original.replicas
    assert reopened.forest.num_trees == original.forest.num_trees


def test_hierarchies_survive_roundtrip(tmp_path):
    data = TPCDGenerator(scale_factor=0.0005, seed=8).generate()
    hierarchies = {"brand": data.hierarchy("partkey", "brand")}
    engine = CubetreeEngine(data.schema, hierarchies=hierarchies)
    engine.materialize([ViewDefinition("V_p", ("partkey",)),
                        ViewDefinition("V_none", ())], data.facts)
    directory = str(tmp_path / "db")
    save_database(engine, directory)
    reopened = load_any_engine(directory)
    query = SliceQuery(("brand",), ())
    assert reopened.query(query).rows == engine.query(query).rows


def test_save_unloaded_engine_raises(tmp_path):
    data = TPCDGenerator(scale_factor=0.0005, seed=2).generate()
    engine = CubetreeEngine(data.schema)
    with pytest.raises(PersistenceError):
        save_database(engine, str(tmp_path / "db"))


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(PersistenceError):
        load_any_engine(str(tmp_path / "nope"))


# ----------------------------------------------------------------------
# generations, retention, and the engine convenience wrapper
# ----------------------------------------------------------------------
def test_each_save_is_a_new_generation(saved):
    _gen, _data, engine, directory = saved
    first = _newest_gen(directory)
    second = save_database(engine, directory)
    assert second != first
    assert os.path.exists(first)  # previous generation survives
    assert verify_checkpoint(directory).generation == 2


def test_retention_prunes_oldest_committed_generations(saved):
    _gen, _data, engine, directory = saved
    for _ in range(3):
        save_database(engine, directory, retain=2)
    gens = sorted(
        entry for entry in os.listdir(directory) if entry.startswith("gen-")
    )
    assert gens == ["gen-000003", "gen-000004"]


def test_engine_checkpoint_method(saved):
    _gen, _data, engine, directory = saved
    gen_path = engine.checkpoint(directory)
    assert os.path.exists(os.path.join(gen_path, MANIFEST_NAME))
    assert load_any_engine(directory).view_sizes() == engine.view_sizes()


def test_partial_generation_is_discarded_on_load(saved):
    _gen, _data, engine, directory = saved
    expected = engine.query(SliceQuery((), ())).scalar()
    # Simulate crash debris: a newer generation that never committed.
    partial = os.path.join(directory, "gen-000009")
    os.makedirs(partial)
    with open(os.path.join(partial, PAGES_NAME), "wb") as handle:
        handle.write(b"\x00" * 100)
    reopened = load_any_engine(directory)
    assert reopened.query(SliceQuery((), ())).scalar() == expected
    report = verify_checkpoint(directory)
    assert report.ok
    assert report.partial_generations == ["gen-000009"]


# ----------------------------------------------------------------------
# corruption and torn checkpoints are detected, not opened
# ----------------------------------------------------------------------
def test_bitflip_in_pages_is_detected(saved):
    _gen, _data, _engine, directory = saved
    pages_path = os.path.join(_newest_gen(directory), SHARD0, PAGES_NAME)
    with open(pages_path, "r+b") as handle:
        handle.seek(PAGE_SIZE + 17)
        byte = handle.read(1)
        handle.seek(PAGE_SIZE + 17)
        handle.write(bytes([byte[0] ^ 0xFF]))
    report = verify_checkpoint(directory)
    assert not report.ok
    assert any("page 1" in problem for problem in report.problems)
    with pytest.raises(CorruptCheckpointError):
        load_any_engine(directory)


def test_bitflip_in_an_older_generation_is_detected(saved):
    """Every committed generation is checked, not only the newest: a
    retained older one is what a pinned reader or a fallback opens."""
    _gen, _data, engine, directory = saved
    save_database(engine, directory)  # gen-000002; gen-000001 is retained
    pages_path = os.path.join(directory, "gen-000001", SHARD0, PAGES_NAME)
    with open(pages_path, "r+b") as handle:
        handle.seek(PAGE_SIZE + 17)
        byte = handle.read(1)
        handle.seek(PAGE_SIZE + 17)
        handle.write(bytes([byte[0] ^ 0xFF]))
    report = verify_checkpoint(directory)
    assert not report.ok
    assert report.generation == 2
    assert report.problems == [
        f"gen-000001/{SHARD0}/{PAGES_NAME}: CRC32 mismatch against the "
        f"manifest",
        f"gen-000001/{SHARD0}/{PAGES_NAME}: page 1 fails its CRC32",
    ], report.format()
    # The newest generation is intact, so the database still opens.
    assert load_any_engine(directory).view_sizes() == engine.view_sizes()


def test_truncated_pages_is_detected(saved):
    _gen, _data, _engine, directory = saved
    pages_path = os.path.join(_newest_gen(directory), SHARD0, PAGES_NAME)
    with open(pages_path, "r+b") as handle:
        handle.truncate(os.path.getsize(pages_path) - PAGE_SIZE - 7)
    assert not verify_checkpoint(directory).ok
    with pytest.raises(CorruptCheckpointError):
        load_any_engine(directory)


def test_tampered_meta_is_detected(saved):
    _gen, _data, _engine, directory = saved
    meta_path = os.path.join(_newest_gen(directory), META_NAME)
    with open(meta_path, "a") as handle:
        handle.write(" ")
    assert not verify_checkpoint(directory).ok
    with pytest.raises(CorruptCheckpointError):
        load_any_engine(directory)


def test_load_bad_manifest_version_raises(saved):
    _gen, _data, _engine, directory = saved
    manifest_path = os.path.join(_newest_gen(directory), MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["format_version"] = 999
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(PersistenceError):
        load_any_engine(directory)


# ----------------------------------------------------------------------
# strict catalog validation (no silent zip-truncation)
# ----------------------------------------------------------------------
def test_tree_state_count_mismatch_rejected(saved):
    _gen, _data, _engine, directory = saved
    _rewrite_meta(
        _newest_gen(directory), lambda meta: meta["trees"].pop(), SHARD0_META
    )
    with pytest.raises(PersistenceError, match="tree state"):
        load_any_engine(directory)


def test_allocation_count_mismatch_rejected(saved):
    _gen, _data, _engine, directory = saved
    _rewrite_meta(
        _newest_gen(directory), lambda meta: meta["allocation"].pop()
    )
    with pytest.raises(PersistenceError, match="allocation"):
        load_any_engine(directory)


def test_unknown_size_key_rejected(saved):
    _gen, _data, _engine, directory = saved

    def rename_size(meta):
        meta["sizes"]["V_ghost"] = meta["sizes"].pop("V_s")

    _rewrite_meta(_newest_gen(directory), rename_size, SHARD0_META)
    with pytest.raises(PersistenceError, match="V_ghost"):
        load_any_engine(directory)


def test_missing_size_key_rejected(saved):
    _gen, _data, _engine, directory = saved
    _rewrite_meta(
        _newest_gen(directory),
        lambda meta: meta["sizes"].pop("V_none"),
        SHARD0_META,
    )
    with pytest.raises(PersistenceError, match="V_none"):
        load_any_engine(directory)


# ----------------------------------------------------------------------
# canonical metadata: save -> load -> save is byte-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [23, 8, 51])
def test_meta_roundtrip_is_byte_identical(tmp_path, seed):
    gen = TPCDGenerator(scale_factor=0.0005, seed=seed)
    data = gen.generate()
    hierarchies = {"brand": data.hierarchy("partkey", "brand")}
    engine = CubetreeEngine(data.schema, hierarchies=hierarchies)
    engine.materialize(
        VIEWS, data.facts,
        replicate={"V_ps": [("suppkey", "partkey")]},
    )
    directory = str(tmp_path / "db")
    first = save_database(engine, directory)
    second = save_database(load_any_engine(directory), directory)
    for name in (META_NAME, SHARD0_META, f"{SHARD0}/{PAGES_NAME}"):
        with open(os.path.join(first, name), "rb") as handle:
            bytes_a = handle.read()
        with open(os.path.join(second, name), "rb") as handle:
            bytes_b = handle.read()
        assert bytes_a == bytes_b, name


def test_indented_catalogs_load_and_resave_compact(saved):
    """Catalogs are written compact; the indented ones older releases
    wrote still load, and the next save writes them compact again."""
    _gen, _data, _engine, directory = saved

    def read(gen_path, name):
        with open(os.path.join(gen_path, name), "rb") as handle:
            return handle.read()

    first = _newest_gen(directory)
    compact = {name: read(first, name) for name in (META_NAME, SHARD0_META)}
    for name, payload in compact.items():
        assert payload.count(b"\n") == 1 and b", " not in payload, name
        _rewrite_meta(first, lambda meta: None, name=name)  # re-indents
        assert read(first, name) != payload
    second = save_database(load_any_engine(directory), directory)
    for name, payload in compact.items():
        assert read(second, name) == payload, name


# ----------------------------------------------------------------------
# older layouts: v1 is refused by name, pre-PR-23 generations still load
# ----------------------------------------------------------------------
def _downgrade_to_v1(directory):
    """Rewrite a database as the flat v1 layout generations replaced."""
    gen_path = _newest_gen(directory)
    with open(os.path.join(gen_path, META_NAME)) as handle:
        meta = json.load(handle)
    meta["format_version"] = 1
    shutil.copy(
        os.path.join(gen_path, SHARD0, PAGES_NAME),
        os.path.join(directory, PAGES_NAME),
    )
    with open(os.path.join(directory, META_NAME), "w") as handle:
        json.dump(meta, handle, indent=1)
    for entry in list(os.listdir(directory)):
        if entry.startswith("gen-"):
            shutil.rmtree(os.path.join(directory, entry))


def test_v1_layout_raises_typed_error(saved):
    _gen, _data, _engine, directory = saved
    _downgrade_to_v1(directory)
    with pytest.raises(PersistenceError, match="v1 flat layout") as info:
        load_any_engine(directory)
    assert "PR 21" in str(info.value)  # says how to migrate
    assert not isinstance(info.value, CorruptCheckpointError)
    report = verify_checkpoint(directory)
    assert not report.ok
    assert any("v1 flat layout" in problem for problem in report.problems)


def _downgrade_to_single_layout(directory):
    """Rewrite a fresh one-shard checkpoint as the single-tree generation
    releases before PR 23 wrote: the page dump and its checksums directly
    in ``gen-N/``, one ``meta.json`` holding the shard catalog's keys
    too, and a manifest without ``layout``/``shards``."""
    gen_path = _newest_gen(directory)
    shard_path = os.path.join(gen_path, SHARD0)
    with open(os.path.join(gen_path, META_NAME)) as handle:
        meta = json.load(handle)
    with open(os.path.join(shard_path, SHARD_META_NAME)) as handle:
        shard_meta = json.load(handle)
    with open(os.path.join(gen_path, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    del meta["layout"], meta["num_shards"]
    for key in ("trees", "sizes", "disk"):
        meta[key] = shard_meta[key]
    meta_payload = (
        json.dumps(meta, indent=1, sort_keys=True, ensure_ascii=True) + "\n"
    ).encode("ascii")
    with open(os.path.join(gen_path, META_NAME), "wb") as handle:
        handle.write(meta_payload)
    files = {
        META_NAME: {
            "bytes": len(meta_payload), "crc32": zlib.crc32(meta_payload),
        },
    }
    for name in (PAGES_NAME, CHECKSUMS_NAME):
        shutil.move(
            os.path.join(shard_path, name), os.path.join(gen_path, name)
        )
        files[name] = manifest["files"][f"{SHARD0}/{name}"]
    shutil.rmtree(shard_path)
    old_manifest = {
        "format_version": manifest["format_version"],
        "generation": manifest["generation"],
        "page_count": manifest["page_count"],
        "files": files,
    }
    with open(os.path.join(gen_path, MANIFEST_NAME), "w") as handle:
        json.dump(old_manifest, handle, indent=1, sort_keys=True)


def _expand_to_full_layout(gen_path, version=3):
    """Rewrite a committed generation's page dumps in the layout formats
    before v4 wrote: a block for every page id below ``next_page_id``,
    freed ids zero-filled, one CRC per block, and the manifest and
    catalogs stamped ``version``.  Works on both generation layouts."""
    manifest_path = os.path.join(gen_path, MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("layout") == "sharded":
        parts = [
            (entry, f"{entry['dir']}/", f"{entry['dir']}/{SHARD_META_NAME}")
            for entry in manifest["shards"]
        ]
    else:
        parts = [(None, "", META_NAME)]
    total = 0
    for entry, prefix, catalog in parts:
        with open(os.path.join(gen_path, catalog)) as handle:
            state = json.load(handle)["disk"]
        freed = set(state["freed"])
        with open(os.path.join(gen_path, prefix + PAGES_NAME), "rb") as handle:
            stored = iter(
                handle.read(PAGE_SIZE)
                for _ in range(state["next_page_id"] - len(freed))
            )
            blocks = [
                bytes(PAGE_SIZE) if pid in freed else next(stored)
                for pid in range(state["next_page_id"])
            ]
        payloads = {
            PAGES_NAME: b"".join(blocks),
            CHECKSUMS_NAME: b"".join(
                zlib.crc32(block).to_bytes(4, "little") for block in blocks
            ),
        }
        for name, payload in payloads.items():
            with open(os.path.join(gen_path, prefix + name), "wb") as handle:
                handle.write(payload)
            manifest["files"][prefix + name] = {
                "bytes": len(payload), "crc32": zlib.crc32(payload),
            }
        if entry is not None:
            entry["page_count"] = len(blocks)
        total += len(blocks)
    manifest["page_count"] = total
    manifest["format_version"] = version
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    stamp = lambda meta: meta.__setitem__("format_version", version)  # noqa: E731
    for _entry, _prefix, catalog in parts:
        _rewrite_meta(gen_path, stamp, catalog)
    if parts[0][0] is not None:
        _rewrite_meta(gen_path, stamp, META_NAME)


def test_single_tree_generation_loads_and_migrates_on_resave(saved):
    from repro.cli import main

    _gen, data, original, directory = saved
    _downgrade_to_single_layout(directory)
    old_gen = _newest_gen(directory)
    assert not os.path.exists(os.path.join(old_gen, SHARD0))

    assert verify_checkpoint(directory).ok
    reopened = load_any_engine(directory)
    assert reopened.num_shards == 1
    assert reopened.view_sizes() == original.view_sizes()
    qgen = RandomQueryGenerator(data.schema, seed=3)
    for node in (("partkey", "suppkey"), ("suppkey",), ("partkey",)):
        for query in qgen.generate_for_node(node, 6, include_unbound=True):
            assert reopened.query(query).rows == original.query(query).rows
    assert main(["check", "--checkpoint", directory]) == 0

    # Read-only: opening it rewrote nothing; a re-save writes the one
    # layout beside it.
    assert sorted(os.listdir(old_gen)) == sorted(
        [META_NAME, MANIFEST_NAME, PAGES_NAME, CHECKSUMS_NAME]
    )
    new_gen = save_database(reopened, directory)
    assert new_gen != old_gen
    assert os.path.exists(os.path.join(new_gen, SHARD0_META))
    with open(os.path.join(new_gen, MANIFEST_NAME)) as handle:
        assert json.load(handle)["layout"] == "sharded"
    assert verify_checkpoint(directory).generation == 2
    migrated = load_any_engine(directory)
    assert migrated.view_sizes() == original.view_sizes()
    assert main(["check", "--checkpoint", directory]) == 0


# ----------------------------------------------------------------------
# leaf-run extents: round-trip + pre-extent checkpoint compatibility
# ----------------------------------------------------------------------
def test_view_extents_survive_roundtrip(saved):
    _gen, data, original, directory = saved
    reopened = load_any_engine(directory)
    originals = [
        t.tree.view_extents for t in original.shards[0].forest.cubetrees
    ]
    restored = [
        t.tree.view_extents for t in reopened.shards[0].forest.cubetrees
    ]
    assert restored == originals
    assert any(extents for extents in restored)  # not vacuously equal
    # The restored extents drive the run plans to serial-identical rows.
    qgen = RandomQueryGenerator(data.schema, seed=11)
    queries = list(
        qgen.generate_for_node(("suppkey",), 6, include_unbound=True)
    )
    batch = reopened.query_batch(queries)
    for query, batched in zip(queries, batch.results):
        serial = original.query(query).rows
        assert reopened.query(query).rows == serial
        assert reopened.query_batch([query]).results[0].rows == serial
        assert batched.rows == serial


def test_checkpoint_without_extents_still_loads(saved):
    """Checkpoints written before the field existed lack the key; the
    loader restores empty extents and run plans fall back."""
    _gen, data, original, directory = saved

    def drop_extents(meta):
        for state in meta["trees"]:
            state.pop("view_extents", None)

    _rewrite_meta(_newest_gen(directory), drop_extents, SHARD0_META)
    reopened = load_any_engine(directory)
    assert all(
        t.tree.view_extents == {}
        for t in reopened.shards[0].forest.cubetrees
    )
    qgen = RandomQueryGenerator(data.schema, seed=11)
    queries = list(qgen.generate_for_node(("partkey",), 6))
    batch = reopened.query_batch(queries)
    for query, batched in zip(queries, batch.results):
        serial = original.query(query).rows
        assert reopened.query(query).rows == serial
        assert reopened.query_batch([query]).results[0].rows == serial
        assert batched.rows == serial


# ----------------------------------------------------------------------
# format v4: page dumps hold only the allocated pages
# ----------------------------------------------------------------------
@pytest.fixture()
def refreshed(saved):
    """A reopened database after one merge-pack refresh, checkpointed:
    the retired trees' pages are on the shard's free list."""
    gen, data, _original, directory = saved
    engine = load_any_engine(directory)
    engine.update(gen.generate_increment(0.2))
    save_database(engine, directory)
    state = engine.shards[0].disk.allocation_state()
    assert state["freed"], "the refresh freed no pages"
    return data, engine, directory, state


def _allocated_ids(state):
    freed = set(state["freed"])
    return [pid for pid in range(state["next_page_id"]) if pid not in freed]


def test_v4_dump_stores_only_allocated_pages(refreshed):
    _data, engine, directory, state = refreshed
    gen_path = _newest_gen(directory)
    shard_path = os.path.join(gen_path, SHARD0)
    allocated = len(_allocated_ids(state))
    assert allocated == engine.shards[0].disk.num_allocated
    assert os.path.getsize(os.path.join(shard_path, PAGES_NAME)) == (
        allocated * PAGE_SIZE
    )
    assert os.path.getsize(os.path.join(shard_path, CHECKSUMS_NAME)) == (
        4 * allocated
    )
    with open(os.path.join(gen_path, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    assert manifest["format_version"] == 4
    assert manifest["page_count"] == allocated
    assert manifest["shards"][0]["page_count"] == allocated
    report = verify_checkpoint(directory)
    assert report.ok, report.format()
    # Both retained generations are checked, each over its stored pages.
    with open(os.path.join(directory, "gen-000001", SHARD0_META)) as handle:
        older = len(_allocated_ids(json.load(handle)["disk"]))
    assert report.pages_checked == older + allocated
    # Every allocated id reads back the bytes the live disk holds.
    reopened = load_any_engine(directory)
    for pid in _allocated_ids(state):
        assert reopened.shards[0].disk.read_page(pid) == (
            engine.shards[0].disk.read_page(pid)
        )


def test_v4_bitflip_names_the_page_id(refreshed):
    """A flipped byte in stored block k is reported under the page id
    that block holds, which is past k once freed ids precede it."""
    _data, _engine, directory, state = refreshed
    ids = _allocated_ids(state)
    index = next(k for k, pid in enumerate(ids) if pid != k)
    pages_path = os.path.join(_newest_gen(directory), SHARD0, PAGES_NAME)
    with open(pages_path, "r+b") as handle:
        handle.seek(index * PAGE_SIZE + 9)
        byte = handle.read(1)
        handle.seek(index * PAGE_SIZE + 9)
        handle.write(bytes([byte[0] ^ 0xFF]))
    report = verify_checkpoint(directory)
    newest = os.path.basename(_newest_gen(directory))
    assert (
        f"{newest}/{SHARD0}/{PAGES_NAME}: page {ids[index]} fails its CRC32"
        in report.problems
    )
    with pytest.raises(CorruptCheckpointError):
        load_any_engine(directory)


def test_v4_generation_with_full_layout_dump_is_rejected(refreshed):
    """A v4 generation must store exactly num_allocated pages: a dump in
    the old full layout, even with honest checksums, is flagged."""
    _data, _engine, directory, _state = refreshed
    gen_path = _newest_gen(directory)
    _expand_to_full_layout(gen_path, version=4)
    report = verify_checkpoint(directory)
    assert any(
        f"{SHARD0}/{PAGES_NAME}: holds" in problem
        for problem in report.problems
    ), report.format()
    assert any(CHECKSUMS_NAME in problem for problem in report.problems)
    with pytest.raises(CorruptCheckpointError):
        load_any_engine(directory)


def test_v3_full_layout_generation_reopens_and_resaves_as_v4(refreshed):
    """The layout the previous release wrote — a block per page id, the
    freed ones zero-filled — still opens, answers the same, and the next
    save writes it compact as v4."""
    data, engine, directory, state = refreshed
    old_gen = _newest_gen(directory)
    _expand_to_full_layout(old_gen, version=3)
    assert os.path.getsize(os.path.join(old_gen, SHARD0, PAGES_NAME)) == (
        state["next_page_id"] * PAGE_SIZE
    )
    assert verify_checkpoint(directory).ok

    reopened = load_any_engine(directory)
    assert reopened.view_sizes() == engine.view_sizes()
    qgen = RandomQueryGenerator(data.schema, seed=5)
    for node in (("partkey", "suppkey"), ("suppkey",), ()):
        for query in qgen.generate_for_node(node, 6, include_unbound=True):
            assert reopened.query(query).rows == engine.query(query).rows
    for pid in _allocated_ids(state):
        assert reopened.shards[0].disk.read_page(pid) == (
            engine.shards[0].disk.read_page(pid)
        )

    new_gen = save_database(reopened, directory)
    with open(os.path.join(new_gen, MANIFEST_NAME)) as handle:
        assert json.load(handle)["format_version"] == 4
    assert os.path.getsize(os.path.join(new_gen, SHARD0, PAGES_NAME)) == (
        len(_allocated_ids(state)) * PAGE_SIZE
    )
    assert verify_checkpoint(directory).ok
    migrated = load_any_engine(directory)
    for pid in _allocated_ids(state):
        assert migrated.shards[0].disk.read_page(pid) == (
            engine.shards[0].disk.read_page(pid)
        )
