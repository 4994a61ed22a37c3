"""Tests for the worker-count (REPRO_WORKERS) parallel helpers and their gating.

The load-bearing properties are the *fallbacks*: every configuration —
any worker count, any input size — must produce results identical to the
serial pipeline, and small inputs must never reach a process pool at all
(a worker round-trip costs more than the work).  The differential sweep
in ``tests/test_differential.py`` covers output identity on the pool
path; this module covers the plumbing and the gates.
"""

import pytest

from repro.cube.computation import CubeComputation
from repro.cube.parallel import ParallelCubeComputation, _compute_step
from repro.errors import ConfigError
from repro.parallel import MIN_PARALLEL_ROWS, run_tasks
from repro.relational.view import ViewDefinition
from repro.settings import Settings, override
from repro.warehouse.star import Dimension, StarSchema


def _square(x):
    return x * x


def small_schema():
    part = Dimension("part", "partkey", ("partkey",),
                     rows=[(i,) for i in range(1, 9)])
    supp = Dimension("supplier", "suppkey", ("suppkey",),
                     rows=[(i,) for i in range(1, 5)])
    return StarSchema(("partkey", "suppkey"), "quantity",
                      {"partkey": part, "suppkey": supp})


def facts(n=64):
    return [(i % 8 + 1, i % 4 + 1, float(i % 10)) for i in range(n)]


def views():
    return [
        ViewDefinition("V_ps", ("partkey", "suppkey")),
        ViewDefinition("V_p", ("partkey",)),
        ViewDefinition("V_none", ()),
    ]


# ----------------------------------------------------------------------
# worker count / run_tasks
# ----------------------------------------------------------------------
def test_worker_count_reads_env():
    assert Settings.from_env({}).workers == 1
    assert Settings.from_env({"REPRO_WORKERS": "4"}).workers == 4
    for bad in ("0", "not-a-number"):
        with pytest.raises(ConfigError, match="REPRO_WORKERS"):
            Settings.from_env({"REPRO_WORKERS": bad})
    with override(workers=3):
        assert ParallelCubeComputation(small_schema()).workers == 3
    assert ParallelCubeComputation(small_schema(), workers=0).workers == 1


def test_run_tasks_serial_inline():
    assert run_tasks(_square, [1, 2, 3], workers=1) == [1, 4, 9]
    assert run_tasks(_square, [5], workers=8) == [25]
    assert run_tasks(_square, [], workers=8) == []


def test_run_tasks_pool_preserves_order():
    assert run_tasks(_square, list(range(10)), workers=2) == [
        x * x for x in range(10)
    ]


# ----------------------------------------------------------------------
# ParallelCubeComputation gating
# ----------------------------------------------------------------------
def test_worker_payload_matches_inline_compute():
    schema = small_schema()
    serial = CubeComputation(schema)
    view = views()[0]
    payload = (schema, {}, view, None, facts())
    assert _compute_step(payload) == serial.compute_from_fact_rows(
        facts(), view
    )


def test_single_worker_uses_serial_pipeline():
    schema = small_schema()
    serial = CubeComputation(schema).execute(facts(), views())
    parallel = ParallelCubeComputation(schema, workers=1).execute(
        facts(), views()
    )
    assert parallel == serial


def test_small_inputs_never_reach_the_pool(monkeypatch):
    comp = ParallelCubeComputation(small_schema(), workers=4)
    assert len(facts()) < comp.min_parallel_rows

    def boom(*_args, **_kwargs):  # the pool must not be created
        raise AssertionError("pool engaged for a sub-threshold input")

    monkeypatch.setattr("repro.cube.parallel.shared_pool", boom)
    serial = CubeComputation(small_schema()).execute(facts(), views())
    assert comp.execute(facts(), views()) == serial


def test_oversized_inputs_fall_back_for_spill_identity(monkeypatch):
    comp = ParallelCubeComputation(
        small_schema(), workers=4, serial_row_threshold=32,
        min_parallel_rows=1,
    )
    monkeypatch.setattr(
        "repro.cube.parallel.shared_pool",
        lambda *_: pytest.fail("pool engaged above the spill threshold"),
    )
    rows = facts(64)  # above serial_row_threshold
    serial = CubeComputation(small_schema()).execute(rows, views())
    assert comp.execute(rows, views()) == serial


def test_pool_path_matches_serial_when_forced():
    schema = small_schema()
    comp = ParallelCubeComputation(schema, workers=2, min_parallel_rows=1)
    serial = CubeComputation(schema).execute(facts(), views())
    got = comp.execute(facts(), views())
    assert list(got) == list(serial)  # plan-step ordering preserved
    assert got == serial


def test_partition_keeps_groups_whole():
    schema = small_schema()
    comp = ParallelCubeComputation(schema, workers=3, min_parallel_rows=1)
    view = views()[0]
    buckets = comp._split(view, None, facts())
    assert buckets is not None and len(buckets) > 1
    assert sorted(
        row for bucket in buckets for row in bucket
    ) == sorted(facts())
    # No first-coordinate value appears in two buckets.
    firsts = [{row[0] for row in bucket} for bucket in buckets]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert not (a & b)


def test_split_declines_hierarchy_and_tiny_inputs():
    schema = small_schema()
    comp = ParallelCubeComputation(schema, workers=2, min_parallel_rows=1)
    # Arity-0 views have nothing to partition on.
    assert comp._split(ViewDefinition("V_none", ()), None, facts()) is None
    # Below min_parallel_rows the step runs inline.
    tall = ParallelCubeComputation(schema, workers=2)
    assert tall.min_parallel_rows == MIN_PARALLEL_ROWS
    assert tall._split(views()[0], None, facts()) is None
