"""The paper's Sec. 2.4 worked example, reproduced end to end.

Run with::

    python examples/worked_example.py

Views V8 = (partkey, sum) and V9 = (suppkey, custkey, sum) share Cubetree
R3{x,y}; this script prints the paper's Tables 1-4 (raw data and packed
sort order) and the Figure-8 leaf stream, then runs the slice queries of
Figure 4 against the packed tree.
"""

from repro.core.cubetree import Cubetree
from repro.relational.view import ViewDefinition
from repro.rtree.kernels import block_rows
from repro.rtree.packing import sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

# Table 1 / Table 3: the paper's raw data.
V8_DATA = [(4, 15), (2, 84), (3, 67), (1, 102), (6, 42), (5, 24)]
V9_DATA = [(3, 1, 2), (1, 1, 24), (1, 3, 11), (3, 3, 17), (2, 1, 6)]


def show(title, rows):
    print(f"\n{title}")
    for row in rows:
        print("  ", row)


def main() -> None:
    show("Table 1 — data for view V8 (partkey, sum(quantity)):", V8_DATA)
    v8_sorted = sorted(V8_DATA, key=lambda r: sort_key((r[0],), 2))
    show("Table 2 — V8 points in packing order:",
         [(f"({p},0)", q) for p, q in v8_sorted])

    show("Table 3 — data for view V9 (suppkey, custkey, sum):", V9_DATA)
    v9_sorted = sorted(V9_DATA, key=lambda r: sort_key((r[0], r[1]), 2))
    show("Table 4 — V9 points sorted (y, x):",
         [(f"({s},{c})", q) for s, c, q in v9_sorted])

    # Build R3{x,y} exactly as SelectMapping would assign it.
    pool = BufferPool(DiskManager(), capacity=64)
    v8 = ViewDefinition("V8", ("partkey",))
    v9 = ViewDefinition("V9", ("suppkey", "custkey"))
    tree = Cubetree(pool, 2, [v8, v9])
    tree.build({
        "V8": [(p, float(q)) for p, q in V8_DATA],
        "V9": [(s, c, float(q)) for s, c, q in V9_DATA],
    })

    print("\nFigure 8 — the packed leaf stream of R3 "
          "(V8's run first, then V9's, no interleaving):")
    for view_id, point, values in tree.tree.scan_points():
        name = "V8" if view_id == 1 else "V9"
        print(f"   {name}: point {point} -> {values[0]:.0f}")

    print("\nFigure 4 — slice queries against the packed tree:")
    q1 = dict(block_rows(tree.query("V8", {"partkey": 4})))
    print(f"   sales of part 4 (V8 slice):            {q1[(4,)][0]:.0f}")
    q2 = dict(block_rows(tree.query("V9", {"custkey": 3})))
    print("   per-supplier sales to customer 3 (V9):",
          {s: v[0] for (s, _c), v in q2.items()})

    assert q1[(4,)] == (15.0,)
    assert q2 == {(1, 3): (11.0,), (3, 3): (17.0,)}
    print("\nall values match the paper's tables")


if __name__ == "__main__":
    main()
