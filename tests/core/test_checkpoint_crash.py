"""Crash-recovery matrix for the generational checkpoint subsystem.

`save_database` passes every file operation — per shard each page of the
dump, the checksum sidecar and the shard catalog, then the global
catalog, the manifest temp write, the atomic commit rename, and the
post-commit prune — through a :class:`~repro.storage.wal.CrashPoint`.
These tests arm the point at *every* write site in turn, on a one-shard
and a two-shard engine, and assert the create-new-then-swap discipline:
after any single-site crash the database reopens to either the full
pre-crash or the full post-crash generation, never a torn mix (and never
one shard ahead of another).
"""

import os

import pytest

from repro.analysis.fsck import check_checkpoint
from repro.core.engine import CubetreeEngine
from repro.core.persistence import (
    load_any_engine,
    save_database,
    verify_checkpoint,
)
from repro.query.generator import RandomQueryGenerator
from repro.relational.view import ViewDefinition
from repro.storage.wal import CrashError, CrashPoint
from repro.warehouse.tpcd import TPCDGenerator

VIEWS = [
    ViewDefinition("V_ps", ("partkey", "suppkey")),
    ViewDefinition("V_s", ("suppkey",)),
    ViewDefinition("V_none", ()),
]

#: Named non-page write sites -> the context the save path reports at
#: them.  The tail of every checkpoint is: (last shard's) checksums,
#: (last shard's) catalog, global catalog, manifest write, commit, prune.
TAIL_SITES = {
    "checksums": "checkpoint page checksums",
    "shard-catalog": "checkpoint catalog",
    "catalog": "checkpoint catalog",
    "manifest-write": "checkpoint manifest write",
    "manifest-commit": "checkpoint manifest commit",
    "prune": "checkpoint prune",
}


class RecordingCrashPoint(CrashPoint):
    """A CrashPoint that also records every site it passed through."""

    def __init__(self):
        super().__init__()
        self.contexts = []

    def hit(self, context=""):
        self.contexts.append(context)
        super().hit(context)


def _site_index(contexts, site, num_shards):
    """Position of a named tail site in one checkpoint's site list."""
    wanted = TAIL_SITES[site]
    if site in ("checksums", "shard-catalog"):
        wanted = f"shard {num_shards - 1} {wanted}"
    matches = [i for i, context in enumerate(contexts) if context == wanted]
    assert len(matches) == 1, (site, contexts[-8:])
    return matches[0]


#: Every test below runs its scenario at each of these shard counts.
SHARD_COUNTS = (1, 2)


@pytest.fixture(scope="module")
def workloads():
    """Per shard count: a loaded engine, an increment, a query set."""
    gen = TPCDGenerator(scale_factor=0.0005, seed=31)
    data = gen.generate()
    delta = gen.generate_increment(0.25)
    qgen = RandomQueryGenerator(data.schema, seed=7)
    queries = [
        query
        for node in (("partkey", "suppkey"), ("suppkey",), ())
        for query in qgen.generate_for_node(node, 3, include_unbound=True)
    ]
    loaded = []
    for num_shards in SHARD_COUNTS:
        engine = CubetreeEngine(
            data.schema, buffer_pages=64, shards=num_shards
        )
        engine.materialize(
            VIEWS, data.facts,
            replicate={"V_ps": [("suppkey", "partkey")]},
        )
        loaded.append((engine, delta, queries))
    return loaded


def _answers(engine, queries):
    return [engine.query(q).rows for q in queries]


def _sites(engine, tmp_path, name):
    """The crashable write sites one full checkpoint passes, in order."""
    recorder = RecordingCrashPoint()
    directory = tmp_path / f"{name}_n{engine.num_shards}"
    save_database(engine, str(directory), crash_point=recorder)
    return recorder.contexts


def _db(tmp_path, name, engine):
    return str(tmp_path / f"{name}_n{engine.num_shards}")


def test_site_list_ends_with_the_commit_protocol(tmp_path, workloads):
    """Page dumps first, then the six named sites, in protocol order."""
    for engine, _delta, _queries in workloads:
        contexts = _sites(engine, tmp_path, "probe")
        last = engine.num_shards - 1
        assert contexts[-6:] == [
            f"shard {last} checkpoint page checksums",
            f"shard {last} checkpoint catalog",
            "checkpoint catalog",
            "checkpoint manifest write",
            "checkpoint manifest commit",
            "checkpoint prune",
        ]
        for index in range(engine.num_shards):
            own = [c for c in contexts if c.startswith(f"shard {index} ")]
            assert own[-2:] == [
                f"shard {index} checkpoint page checksums",
                f"shard {index} checkpoint catalog",
            ]
            assert all("checkpoint dump of page" in c for c in own[:-2])
            assert len(own) > 2, "expected page sites too"


def test_every_site_is_crashable_and_recoverable(tmp_path, workloads):
    """The exhaustive matrix: kill the checkpoint at site k, for every k.

    The database must reopen checksum-clean and answer every query from
    the last *committed* generation; a follow-up checkpoint must then
    succeed (recovery did not wedge the directory).
    """
    for engine, _delta, queries in workloads:
        sites = len(_sites(engine, tmp_path, "probe"))
        directory = _db(tmp_path, "db", engine)
        save_database(engine, directory)  # gen-000001, committed baseline
        baseline = _answers(engine, queries)

        for k in range(sites):
            point = CrashPoint()
            point.arm(after=k)
            with pytest.raises(CrashError):
                save_database(engine, directory, crash_point=point)
            assert point.fired

            recovered = load_any_engine(directory)
            assert _answers(recovered, queries) == baseline, f"site {k}"
            assert verify_checkpoint(directory).ok, f"site {k}"

        # Not wedged: the next checkpoint commits normally.
        save_database(engine, directory)
        assert verify_checkpoint(directory).ok
        assert _answers(load_any_engine(directory), queries) == baseline


def test_every_site_of_a_compact_dump_is_recoverable(tmp_path, workloads):
    """The exhaustive matrix over a checkpoint taken after a merge-pack,
    whose shard disks hold freed pages: the dump skips them (one site
    per *stored* page), and a crash at any site reopens to the full
    pre-update generation — or the post-update one once the manifest
    rename has committed it."""
    for engine, delta, queries in workloads:
        directory = _db(tmp_path, "db_compact", engine)
        save_database(engine, directory)
        live = load_any_engine(directory)
        pre = _answers(live, queries)
        live.update(delta)
        post = _answers(live, queries)

        contexts = _sites(live, tmp_path, "probe_compact")
        dumped = [c for c in contexts if "checkpoint dump of page" in c]
        assert len(dumped) == sum(s.disk.num_allocated for s in live.shards)
        freed = {
            f"shard {s.index} checkpoint dump of page {pid}"
            for s in live.shards
            for pid in s.disk.allocation_state()["freed"]
        }
        assert freed and not freed.intersection(dumped)

        commit = contexts.index("checkpoint manifest commit")
        for k in range(len(contexts)):
            point = CrashPoint()
            point.arm(after=k)
            with pytest.raises(CrashError):
                save_database(live, directory, crash_point=point)
            recovered = load_any_engine(directory)
            expected = post if k > commit else pre
            assert _answers(recovered, queries) == expected, f"site {k}"
            assert verify_checkpoint(directory).ok, f"site {k}"
            if k > commit:  # committed: start the next crash from pre
                save_database(engine, directory)
                live = load_any_engine(directory)
                live.update(delta)


@pytest.mark.parametrize("site", sorted(set(TAIL_SITES) - {"shard-catalog"}))
def test_update_then_crashed_checkpoint_is_all_or_nothing(
    tmp_path, workloads, site
):
    """Merge-pack an increment, then crash the checkpoint at a named
    site: reopening must yield the full pre-update generation (crash
    before the manifest commit) or the full post-update one (crash in
    the post-commit prune) — never a mix of the two.  ``catalog`` covers
    both catalog sites (the last shard's, then the global one)."""
    for engine, delta, queries in workloads:
        for named in ("shard-catalog", site) if site == "catalog" else (site,):
            directory = _db(tmp_path, f"db_{named}", engine)
            save_database(engine, directory)

            live = load_any_engine(directory)
            pre = _answers(live, queries)
            live.update(delta)
            post = _answers(live, queries)
            assert post != pre

            contexts = _sites(live, tmp_path, f"probe_{named}")
            point = CrashPoint()
            point.arm(after=_site_index(contexts, named, live.num_shards))
            with pytest.raises(CrashError, match=TAIL_SITES[named]):
                save_database(live, directory, crash_point=point)
            assert point.fired

            recovered = load_any_engine(directory)
            answers = _answers(recovered, queries)
            if named == "prune":
                # The manifest renamed before the crash: update committed.
                assert answers == post
            else:
                assert answers == pre
            assert verify_checkpoint(directory).ok
            report = check_checkpoint(directory)
            assert report.ok, report.format()


def test_crash_during_page_dump_mid_update_checkpoint(tmp_path, workloads):
    """Same all-or-nothing property with the crash inside the page dump."""
    for engine, delta, queries in workloads:
        directory = _db(tmp_path, "db_dump", engine)
        save_database(engine, directory)

        live = load_any_engine(directory)
        pre = _answers(live, queries)
        live.update(delta)

        point = CrashPoint()
        point.arm(after=3)  # fourth page of the dump
        with pytest.raises(CrashError, match="checkpoint dump"):
            save_database(live, directory, crash_point=point)

        recovered = load_any_engine(directory)
        assert _answers(recovered, queries) == pre
        # Retrying from the recovered engine reaches the post-update state.
        recovered.update(delta)
        save_database(recovered, directory)
        reopened = load_any_engine(directory)
        assert _answers(reopened, queries) == _answers(live, queries)


def test_engine_disk_crash_point_is_threaded_through(tmp_path, workloads):
    """Arming a shard disk's own hook (the merge-pack hook) also kills
    the checkpoint: the CrashPoint plumbing is shared, whichever shard
    carries it."""
    for engine, _delta, _queries in workloads:
        directory = _db(tmp_path, "db_hook", engine)
        save_database(engine, directory)

        live = load_any_engine(directory)
        disk = live.shards[-1].disk
        point = CrashPoint()
        disk.crash_point = point
        point.arm(after=1)
        with pytest.raises(CrashError):
            save_database(live, directory)
        disk.crash_point = None
        assert verify_checkpoint(directory).ok


def test_crash_leaves_partial_without_manifest(tmp_path, workloads):
    """A killed checkpoint's debris is a manifest-less directory that
    verify reports as partial and the next save prunes."""
    for engine, _delta, _queries in workloads:
        directory = _db(tmp_path, "db_partial", engine)
        save_database(engine, directory)

        point = CrashPoint()
        point.arm(after=2)
        with pytest.raises(CrashError):
            save_database(engine, directory, crash_point=point)

        report = verify_checkpoint(directory)
        assert report.ok
        assert report.partial_generations == ["gen-000002"]

        save_database(engine, directory)
        assert not os.path.exists(os.path.join(directory, "gen-000002"))
        assert verify_checkpoint(directory).partial_generations == []
