"""From a star schema to a saved, reopenable Cubetree database.

Run with::

    python examples/advisor_and_persistence.py

Uses the advisor to derive the paper-style configuration automatically
(GHRU 1-greedy selection translated into views + replicas), materializes
the Cubetree forest, checkpoints it to disk, reopens it in a fresh engine,
and keeps refreshing the reopened database.
"""

import tempfile

from repro.core.advisor import advise
from repro.core.engine import CubetreeEngine
from repro.core.persistence import load_any_engine, save_database
from repro.query.slice import SliceQuery
from repro.warehouse.tpcd import TPCDGenerator


def main() -> None:
    generator = TPCDGenerator(scale_factor=0.002, seed=13)
    warehouse = generator.generate()

    # 1. Ask the advisor for a configuration (it runs GHRU 1-greedy with
    #    the warehouse's own statistics, including PARTSUPP correlation).
    advice = advise(
        warehouse.schema,
        num_facts=warehouse.num_facts,
        max_structures=9,
        correlated_domains={
            frozenset({"partkey", "suppkey"}):
                4.0 * warehouse.schema.distinct_count("partkey"),
        },
    )
    print("advisor selected:")
    for view in advice.views:
        print(f"  view    {view.name}: {view.describe()}")
    for owner, orders in advice.replicas.items():
        for order in orders:
            print(f"  replica {owner} in order {order}")

    # 2. Materialize and checkpoint.
    engine = CubetreeEngine(warehouse.schema)
    report = engine.materialize(advice.views, warehouse.facts,
                                replicate=advice.replicas)
    print(f"\nmaterialized {report.view_rows} rows "
          f"({report.pages} pages)")

    with tempfile.TemporaryDirectory() as directory:
        save_database(engine, directory)
        print(f"checkpointed to {directory}")

        # 3. Reopen in a brand-new engine and verify.
        reopened = load_any_engine(directory)
        probe = SliceQuery((), ())
        assert reopened.query(probe).scalar() == engine.query(probe).scalar()
        print("reopened database answers identically")

        # 4. The reopened database keeps living: nightly refresh.
        increment = generator.generate_increment(0.1)
        update = reopened.update(increment)
        print(f"merged {len(increment)} increment rows into the reopened "
              f"database ({update.io.total_ms:.0f} ms simulated)")
        expected = float(
            sum(r[-1] for r in warehouse.facts)
            + sum(r[-1] for r in increment)
        )
        assert reopened.query(probe).scalar() == expected
        print(f"grand total verified: {expected:.0f}")


if __name__ == "__main__":
    main()
