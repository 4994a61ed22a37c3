"""The paper's experiment end-to-end: Cubetrees vs conventional storage.

Run with::

    python examples/tpcd_comparison.py [scale_factor]

Reproduces the evaluation pipeline of Sec. 3 at a reduced scale:
GHRU 1-greedy selects the views and indexes, both storage organizations
materialize the same view set on identical simulated disks, and a random
slice-query workload compares them on load time, storage, query time, and
refresh speed.
"""

import sys

from repro.experiments.common import (
    ExperimentConfig,
    FIG12_NODES,
    build_conventional_engine,
    build_cubetree_engine,
    build_warehouse,
    fmt_bytes,
    fmt_duration,
    node_label,
)
from repro.query.generator import RandomQueryGenerator


def main() -> None:
    # Below ~SF 0.005 the whole database fits in the buffer pool and the
    # comparison degenerates (everything is cached for both engines); the
    # paper's regime needs data several times larger than the buffer.
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    config = ExperimentConfig(scale_factor=scale, queries_per_node=40)
    _gen, data = build_warehouse(config)
    print(f"TPC-D at SF {scale}: {data.num_facts} fact rows, "
          f"{data.schema.distinct_count('partkey')} parts / "
          f"{data.schema.distinct_count('suppkey')} suppliers / "
          f"{data.schema.distinct_count('custkey')} customers")

    print("\n-- loading both configurations --")
    cube, cube_report = build_cubetree_engine(config, data)
    conv, conv_report = build_conventional_engine(config, data)
    print(f"cubetrees:    {fmt_duration(cube_report.total_simulated_ms)} "
          f"simulated, {fmt_bytes(cube_report.bytes_on_disk)}")
    print(f"conventional: {fmt_duration(conv_report.total_simulated_ms)} "
          f"simulated, {fmt_bytes(conv_report.bytes_on_disk)}")

    print("\n-- querying (per lattice view) --")
    qgen = RandomQueryGenerator(data.schema, seed=1)
    total = {"cubetrees": 0.0, "conventional": 0.0}
    for node in FIG12_NODES:
        queries = qgen.generate_for_node(node, config.queries_per_node)
        cube_ms = sum(cube.query(q).io.total_ms for q in queries)
        conv_ms = sum(conv.query(q).io.total_ms for q in queries)
        total["cubetrees"] += cube_ms
        total["conventional"] += conv_ms
        print(f"  {node_label(node):<26} cubetrees "
              f"{fmt_duration(cube_ms):>10}   conventional "
              f"{fmt_duration(conv_ms):>10}")
    if total["cubetrees"]:
        ratio = total["conventional"] / total["cubetrees"]
        print(f"  overall: cubetrees {ratio:.1f}x faster")
    else:
        # Columnar leaves can put the whole forest inside the buffer
        # pool at small scales: no simulated I/O left to compare.
        print("  overall: the Cubetree forest fits the buffer pool "
              "(0 simulated ms); raise the scale to compare")

    print("\n-- answers agree --")
    probe = qgen.generate_for_node(("partkey", "custkey"), 3)
    for query in probe:
        a = cube.query(query).rows
        b = conv.query(query).rows
        assert a == b, query.describe()
        print(f"  {query.describe()}: {len(a)} rows from both engines")


if __name__ == "__main__":
    main()
