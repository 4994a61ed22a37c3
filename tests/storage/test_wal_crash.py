"""Crash-recovery tests: kill the simulated process mid-merge-pack and
verify the create-new-then-swap discipline leaves a consistent database.

The scenario (paper Sec. 2.5's bulk-incremental story): a loaded Cubetree
engine is checkpointed, an increment starts merge-packing, and the process
dies on a data-page write part-way through.  Because merge-pack builds the
new tree in freshly allocated pages and only retires the old tree after
the build completes, the checkpointed database must reopen cleanly, pass
fsck, and answer the pre-merge queries with the pre-merge answers — and a
retry of the increment must then succeed.
"""

import pytest

from repro.analysis.fsck import check_database
from repro.core.persistence import load_any_engine, save_database
from repro.experiments.common import (
    ExperimentConfig,
    FIG12_NODES,
    build_cubetree_engine,
    build_warehouse,
)
from repro.query.generator import RandomQueryGenerator
from repro.storage.wal import CrashError, CrashPoint, WriteAheadLog
from repro.storage.iomodel import IOCostModel


# ----------------------------------------------------------------------
# the CrashPoint hook itself
# ----------------------------------------------------------------------
class TestCrashPoint:
    def test_disarmed_is_free(self):
        point = CrashPoint()
        assert not point.armed
        for _ in range(100):
            point.hit("noop")
        assert not point.fired

    def test_arm_zero_crashes_immediately(self):
        point = CrashPoint()
        point.arm()
        with pytest.raises(CrashError, match="during page write"):
            point.hit("page write")
        assert point.fired

    def test_countdown_lets_n_operations_pass(self):
        point = CrashPoint()
        point.arm(after=3)
        for _ in range(3):
            point.hit()
        with pytest.raises(CrashError):
            point.hit()
        assert point.fired

    def test_disarm_stops_injection(self):
        point = CrashPoint()
        point.arm()
        point.disarm()
        point.hit()
        assert not point.fired

    def test_negative_countdown_rejected(self):
        with pytest.raises(ValueError):
            CrashPoint().arm(after=-1)

    def test_wal_write_path_is_hooked(self):
        point = CrashPoint()
        wal = WriteAheadLog(IOCostModel(), crash_point=point)
        wal.log_row_operation(10)  # well under one page: no write yet
        point.arm()
        with pytest.raises(CrashError, match="wal page write"):
            wal.commit()
        assert point.fired


# ----------------------------------------------------------------------
# end-to-end: crash mid-merge-pack, reopen, verify
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def loaded_engine_setup():
    """A loaded engine, its warehouse, and a query workload."""
    # A small buffer pool forces evictions (and hence disk writes) while
    # the merge is still running, so an armed crash point genuinely
    # fires mid-merge-pack, not at the final flush.
    config = ExperimentConfig(
        scale_factor=0.001, seed=11, queries_per_node=3, buffer_pages=32
    )
    generator, data = build_warehouse(config)
    engine, _ = build_cubetree_engine(config, data, replicate=False)
    delta = generator.generate_increment(0.2)
    qgen = RandomQueryGenerator(data.schema, seed=5)
    queries = [
        query
        for node in FIG12_NODES
        for query in qgen.generate_for_node(node, config.queries_per_node)
    ]
    return engine, delta, queries


def _answers(engine, queries):
    return [engine.query(q).rows for q in queries]


@pytest.mark.parametrize("crash_after", [0, 5, "late"])
def test_crash_mid_merge_pack_recovers_from_checkpoint(
    tmp_path, loaded_engine_setup, crash_after
):
    engine, delta, queries = loaded_engine_setup
    checkpoint = str(tmp_path / f"db_{crash_after}")
    save_database(engine, checkpoint)
    before = _answers(engine, queries)
    if crash_after == "late":
        # Three quarters through the merge's data-page writes, however
        # many the shipped leaf format makes of them.
        dry_run = load_any_engine(checkpoint)
        written = dry_run.disk.cost_model.stats.writes
        dry_run.update(delta)
        written = dry_run.disk.cost_model.stats.writes - written
        assert written > 8
        crash_after = written * 3 // 4

    # Reopen the checkpoint and kill it on the Nth data-page write of
    # the merge.  (The module-scoped engine stays pristine.)
    victim = load_any_engine(checkpoint)
    assert _answers(victim, queries) == before
    point = CrashPoint()
    victim.disk.crash_point = point
    point.arm(after=crash_after)
    with pytest.raises(CrashError):
        victim.update(delta)
    assert point.fired

    # The "machine reboots": reopen from the on-disk checkpoint.
    recovered = load_any_engine(checkpoint)
    report = check_database(recovered)
    assert report.ok, report.format()
    assert _answers(recovered, queries) == before

    # Retrying the increment on the recovered engine succeeds and the
    # refreshed forest is structurally sound.
    recovered.update(delta)
    refreshed = check_database(recovered)
    assert refreshed.ok, refreshed.format()

    # And the refreshed answers match a crash-free refresh of the same
    # checkpoint (recovery lost nothing and invented nothing).
    oracle = load_any_engine(checkpoint)
    oracle.update(delta)
    assert _answers(recovered, queries) == _answers(oracle, queries)


def test_crashed_engine_old_forest_is_untouched_in_memory(
    tmp_path, loaded_engine_setup
):
    """Even without reopening, a crash during the *pack* of the new tree
    leaves every referenced (old) tree intact: the swap happens only
    after the new tree is complete."""
    engine, delta, queries = loaded_engine_setup
    checkpoint = str(tmp_path / "db_inplace")
    save_database(engine, checkpoint)

    victim = load_any_engine(checkpoint)
    point = CrashPoint()
    victim.disk.crash_point = point
    point.arm(after=10)
    with pytest.raises(CrashError):
        victim.update(delta)

    victim.disk.crash_point = None  # "reboot" without reopening
    report = check_database(victim)
    assert report.ok, report.format()
    # Every query still answers without error.
    for query in queries:
        victim.query(query)
