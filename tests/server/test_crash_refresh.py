"""Crash injection through the server's publish path.

The refresh cycle inherits `save_database`'s crash discipline: the
manifest rename is the commit point.  These tests arm the server's
:class:`CrashPoint` at representative write sites — first page, middle,
checksums, shard catalog, global catalog, manifest write, the commit
rename itself, and the post-commit prune — on a one-shard and a
two-shard database, and assert the serving-layer contract on top of the
storage one:

* readers pinned to the old generation never notice a mid-publish crash
  (zero errors, answers bit-equal to the old snapshot);
* a pre-commit crash keeps the deltas queued; the next refresh applies
  them exactly once;
* a post-commit crash (prune) reports the publish as recovered — the
  increment is NOT re-applied (no double counting).
"""

import os
import shutil

import pytest

from repro.core.persistence import load_any_engine, save_database
from repro.server import CubetreeServer, ServerConfig
from repro.storage.wal import CrashPoint

from tests.server.kit import (
    ClientPool,
    ReferenceOracle,
    build_database,
    check_snapshots,
    reference_queries,
)

#: Every scenario runs against a database of each of these shard counts.
SHARD_COUNTS = (1, 2)


class RecordingCrashPoint(CrashPoint):
    def __init__(self):
        super().__init__()
        self.contexts = []

    def hit(self, context=""):
        self.contexts.append(context)
        super().hit(context)


@pytest.fixture(scope="module")
def crash_dbs(tmp_path_factory):
    """Per shard count: template DB, its data and delta, and the write
    sites one full publish passes through (in order)."""
    root = tmp_path_factory.mktemp("crash-db")
    databases = []
    for num_shards in SHARD_COUNTS:
        directory = str(root / f"db-n{num_shards}")
        generator, data = build_database(
            directory, scale=0.0003, seed=47, shards=num_shards
        )
        delta = generator.generate_increment(0.2, stream="crash")

        # Record the sites on a throwaway copy (the builder path = load
        # + update + save).
        probe_dir = str(root / f"probe-n{num_shards}")
        shutil.copytree(directory, probe_dir)
        builder = load_any_engine(probe_dir)
        assert builder.num_shards == num_shards
        builder.update(list(delta))
        recorder = RecordingCrashPoint()
        save_database(builder, probe_dir, crash_point=recorder)
        shutil.rmtree(probe_dir, ignore_errors=True)
        databases.append((directory, data, delta, recorder.contexts))
    return databases


def _named_sites(contexts):
    """Representative sites: head, middle, and the named tail ones,
    located in the recorded site list by what they report."""
    first_tail = len(contexts) - 6
    offsets = {"first-page": 0, "mid-pages": max(1, first_tail // 2)}
    for offset, name in enumerate(TAIL_SITE_NAMES, start=first_tail):
        offsets[name] = offset
    assert "page checksums" in contexts[offsets["checksums"]]
    assert contexts[offsets["shard-catalog"]].startswith("shard ")
    assert contexts[offsets["catalog"]] == "checkpoint catalog"
    assert contexts[offsets["manifest-commit"]].endswith("manifest commit")
    assert contexts[offsets["prune"]] == "checkpoint prune"
    return offsets


def _fresh_server(directory, tmp_path, name):
    copy_dir = str(tmp_path / name)
    shutil.copytree(directory, copy_dir)
    return CubetreeServer(copy_dir, ServerConfig(retain=2)).start()


# The site list must be static for parametrize; _named_sites asserts
# the recorded contexts match these names at runtime.
TAIL_SITE_NAMES = (
    "checksums", "shard-catalog", "catalog",
    "manifest-write", "manifest-commit", "prune",
)
SITE_NAMES = ("first-page", "mid-pages") + TAIL_SITE_NAMES


@pytest.mark.parametrize("site", SITE_NAMES)
def test_publish_crash_matrix(crash_dbs, tmp_path, site):
    for crash_db in crash_dbs:
        _publish_crash_at(crash_db, tmp_path, site)


def _publish_crash_at(crash_db, tmp_path, site):
    directory, data, delta, contexts = crash_db
    offsets = _named_sites(contexts)
    assert set(offsets) == set(SITE_NAMES)
    queries = reference_queries(data.schema, per_node=1)
    oracle = ReferenceOracle(data, queries)

    server = _fresh_server(
        directory, tmp_path, f"{os.path.basename(directory)}-{site}"
    )
    try:
        old_gen = server.manager.current_number
        before = [server.query(q) for q in queries]
        assert all(s.generation == old_gen for s in before)

        server.submit_delta(delta)
        point = CrashPoint()
        point.arm(after=offsets[site])
        server.crash_point = point
        outcome = server.refresh_now()
        assert point.fired, f"site {site} never reached"
        server.crash_point = None

        if site == "prune":
            # Crash AFTER the manifest rename: the commit landed; the
            # server must adopt it and must not keep the deltas.
            assert outcome.status == "published"
            assert outcome.recovered_post_commit
            assert outcome.generation > old_gen
            assert server.pending_delta_rows == 0
        else:
            # Crash BEFORE the commit: old generation keeps serving,
            # deltas stay queued for the retry.
            assert outcome.status == "failed"
            assert server.manager.current_number == old_gen
            assert server.pending_delta_rows == len(delta)
            after_crash = [server.query(q) for q in queries]
            for observed, baseline in zip(after_crash, before):
                assert observed.generation == old_gen
                assert observed.rows == baseline.rows
            # Retry with the injector disarmed: publish succeeds.
            outcome = server.refresh_now()
            assert outcome.status == "published"
            assert not outcome.recovered_post_commit

        # Exactly-once: the published answers equal the oracle's replay
        # of initial + delta applied ONE time.
        oracle.advance(outcome.generation, delta)
        final = [server.query(q) for q in queries]
        for index, observed in enumerate(final):
            assert observed.generation == outcome.generation
            assert observed.rows == oracle.expect(
                outcome.generation, index
            ), f"site {site}: increment not applied exactly once"

        # The directory is not wedged: one more publish commits clean.
        server.submit_delta(delta[: max(1, len(delta) // 4)])
        assert server.refresh_now().status == "published"
    finally:
        server.close()


def test_readers_survive_mid_publish_crash_under_load(crash_dbs, tmp_path):
    """Concurrent clients ride through a crashed publish + its retry.

    A refresher thread arms a crash mid-pages, watches the publish fail,
    disarms, retries, and succeeds — while client threads query the
    whole time.  Zero client errors; every observation matches the
    oracle snapshot of its tagged generation.
    """
    import threading

    directory, data, delta, contexts = crash_dbs[-1]  # two shards
    mid_pages = _named_sites(contexts)["mid-pages"]
    queries = reference_queries(data.schema, per_node=1)
    oracle = ReferenceOracle(data, queries)
    server = _fresh_server(directory, tmp_path, "db-load")
    try:
        pool = ClientPool(server, queries, threads=3, extra_parties=1)
        done = threading.Event()
        report = {}

        def refresher():
            pool.barrier.wait()
            try:
                server.submit_delta(delta)
                point = CrashPoint()
                point.arm(after=mid_pages)
                server.crash_point = point
                report["crashed"] = server.refresh_now()
                server.crash_point = None
                report["retried"] = server.refresh_now()
                if report["retried"].status == "published":
                    oracle.advance(report["retried"].generation, delta)
            finally:
                done.set()

        threading.Thread(target=refresher, daemon=True).start()
        observations, errors = pool.run(rounds=2, until=done)

        assert errors == []
        assert report["crashed"].status == "failed"
        assert report["retried"].status == "published"
        seen = check_snapshots(observations, oracle)
        assert seen, "no observations recorded"
    finally:
        server.close()
