"""Differential sweep: the engine at N shards vs. the on-the-fly oracle.

Property: for ANY star schema, fact data, materialized lattice subset,
and slice-query set, a :class:`~repro.core.engine.CubetreeEngine` at
N ∈ {1, 2, 3, 5} shards answers bit-for-bit what
:class:`~repro.core.onthefly.OnTheFlyEngine` recomputes from the raw
facts, across the full load → query → update → query → checkpoint →
recover lifecycle; N ∈ {2, 3, 5} additionally agree with N = 1 on every
row trace.  At every N the whole query set also runs through
``query_batch``, and each batched result must equal ``query(q)`` (the
descent) and ``query_batch([q])`` (the query alone on its run-aware plan)
for the same query.

Until PR 23 this sweep compared a second, sharded engine class against
the single-tree one (rows at every N, simulated I/O at N = 1); that
proof licensed deleting the single-tree engine.  The reference roles it
played now belong to two independent ones: the oracle here for answers,
and the committed ``bench/BENCH_*.json`` baselines (written by the
single-tree engine) for simulated I/O.  What is left to check here on
the I/O side is the accounting convention: at N = 1 the engine's
critical-path reports are exactly shard 0's cost-model deltas.

Example count scales with ``REPRO_DIFF_EXAMPLES`` (default 200 locally;
CI sets a smaller smoke profile).
"""

import os
from itertools import combinations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.engine import CubetreeEngine
from repro.core.onthefly import OnTheFlyEngine
from repro.core.persistence import load_any_engine, save_database
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.warehouse.star import Dimension, StarSchema

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))

SHARD_COUNTS = (1, 2, 3, 5)

#: Candidate fact-key names (2-3 are drawn per schema).
KEY_NAMES = ("ka", "kb", "kc")


def _make_schema(domain_sizes):
    dimensions = {}
    for name, size in domain_sizes.items():
        dimensions[name] = Dimension(
            name=f"dim_{name}",
            key=name,
            attributes=(name,),
            rows=[(value,) for value in range(1, size + 1)],
        )
    return StarSchema(
        fact_keys=tuple(domain_sizes),
        measure="quantity",
        dimensions=dimensions,
    )


@st.composite
def warehouses(draw):
    """A random star schema plus fact rows (integer-valued measures)."""
    n_keys = draw(st.integers(min_value=2, max_value=3))
    keys = KEY_NAMES[:n_keys]
    domain_sizes = {
        key: draw(st.integers(min_value=2, max_value=6)) for key in keys
    }
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.integers(min_value=1, max_value=domain_sizes[key])
                    for key in keys
                ],
                st.integers(min_value=0, max_value=20),
            ),
            min_size=2,
            max_size=50,
        )
    )
    # Integer-valued float quantities: float sums stay exact, so the
    # engines' answers can be compared with ==.
    facts = [tuple(row[:-1]) + (float(row[-1]),) for row in rows]
    return domain_sizes, facts


@st.composite
def view_subsets(draw, keys):
    """The apex + V_none + a random subset of the proper lattice nodes."""
    nodes = [("apex", tuple(keys)), ("none", ())]
    middles = [
        node
        for size in range(1, len(keys))
        for node in combinations(keys, size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(middles), unique=True, max_size=len(middles))
        if middles
        else st.just([])
    )
    nodes.extend((f"v_{'_'.join(node)}", node) for node in chosen)
    return [ViewDefinition(name, group_by) for name, group_by in nodes]


@st.composite
def slice_queries(draw, domain_sizes):
    """A random slice query over the schema's fact keys."""
    keys = list(domain_sizes)
    node = draw(
        st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
    )
    bound = draw(
        st.lists(st.sampled_from(node), unique=True, max_size=len(node))
        if node
        else st.just([])
    )
    bindings = []
    ranges = []
    for attr in bound:
        # Bounds reach past the populated domain [1, size] on both sides:
        # 0 and negatives (never a view coordinate) and values above it.
        size = domain_sizes[attr]
        if draw(st.booleans()):
            bindings.append(
                (attr, draw(st.integers(min_value=-2, max_value=size + 2)))
            )
        else:
            low = draw(st.integers(min_value=-2, max_value=size + 2))
            high = draw(st.integers(min_value=low, max_value=size + 2))
            ranges.append((attr, low, high))
    group_by = tuple(a for a in node if a not in set(bound))
    return SliceQuery(group_by, tuple(bindings), tuple(ranges))


@st.composite
def differential_cases(draw):
    domain_sizes, facts = draw(warehouses())
    views = draw(view_subsets(tuple(domain_sizes)))
    queries = draw(
        st.lists(slice_queries(domain_sizes), min_size=1, max_size=4)
    )
    return domain_sizes, facts, views, queries


def _io_record(io):
    return (
        io.sequential_reads,
        io.random_reads,
        io.sequential_writes,
        io.random_writes,
        io.simulated_ms,
        io.overhead_ms,
    )


def _lifecycle(engine, views, initial, delta, queries):
    """One lifecycle; returns (rows trace, io trace, shard-0 io trace).

    Every query phase answers the set three ways — ``query`` (descent),
    a one-query batch (run-aware plan), and one batch of the whole set —
    and requires them to agree before recording the rows.
    """
    rows_trace = []
    io_trace = []
    disk_trace = []

    def record(io, before):
        io_trace.append(_io_record(io))
        disk_trace.append(
            _io_record(engine.disk.cost_model.stats - before)
        )

    def query_phase():
        for query in queries:
            before = engine.disk.cost_model.snapshot()
            result = engine.query(query)
            record(result.io, before)
            rows_trace.append(result.rows)
            alone = engine.query_batch([query]).results[0]
            assert alone.rows == result.rows
        batch = engine.query_batch(queries)
        assert [r.rows for r in batch.results] == rows_trace[-len(queries):]

    before = engine.disk.cost_model.snapshot()
    load = engine.materialize(views, initial)
    record(load.phases["views"].io, before)
    query_phase()
    before = engine.disk.cost_model.snapshot()
    update = engine.update(delta)
    record(update.io, before)
    rows_trace.append(update.rows_applied)
    query_phase()
    return rows_trace, io_trace, disk_trace


def _oracle_traces(schema, initial, delta, queries):
    """The oracle's answers before and after the increment."""
    oracle = OnTheFlyEngine(schema, buffer_pages=64)
    oracle.load_fact(initial)
    before = [oracle.query(q).rows for q in queries]
    oracle.append(delta)
    after = [oracle.query(q).rows for q in queries]
    return before, after


@given(differential_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_sharded_lifecycle_matches_single_engine(case):
    """Rows equal the oracle's at every N (hence N > 1 equals the
    single-shard engine); at N = 1 the reported I/O is shard 0's."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    split = len(facts) // 2
    initial, delta = facts[:split] or facts, facts[split:] or facts
    before, after = _oracle_traces(schema, initial, delta, queries)

    single_rows = None
    for num_shards in SHARD_COUNTS:
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        rows, io, disk_io = _lifecycle(engine, views, initial, delta, queries)
        applied = rows[len(queries)]
        assert rows == before + [applied] + after, f"N={num_shards}"
        if num_shards == 1:
            single_rows = rows
            assert io == disk_io, "N=1 reports exactly shard 0's I/O"
        else:
            assert rows == single_rows, f"N={num_shards} vs N=1"


@given(differential_cases())
@settings(max_examples=max(10, EXAMPLES // 10), deadline=None)
def test_sharded_checkpoint_recover_matches(tmp_path_factory, case):
    """Checkpoint → recover preserves every shard count's answers."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    split = len(facts) // 2
    initial, delta = facts[:split] or facts, facts[split:] or facts
    _before, expected = _oracle_traces(schema, initial, delta, queries)

    sizes = None
    for num_shards in (1, 3):
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        engine.materialize(views, initial)
        engine.update(delta)
        directory = str(
            tmp_path_factory.mktemp(f"sharded-diff-n{num_shards}")
        )
        save_database(engine, directory)
        recovered = load_any_engine(directory)
        assert recovered.num_shards == num_shards
        sizes = sizes or engine.view_sizes()
        assert recovered.view_sizes() == sizes, f"N={num_shards}"
        got = [recovered.query(q).rows for q in queries]
        assert got == expected, f"N={num_shards}"
        batch = recovered.query_batch(queries)
        assert [r.rows for r in batch.results] == expected
