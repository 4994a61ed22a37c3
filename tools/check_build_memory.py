#!/usr/bin/env python3
"""CI gate: the bulk load and the bootstrap stay within their memory bounds.

Builds the paper configuration over one warehouse and requires:

* the build's traced allocation peak (cube computation plus pack) at or
  below ``BUILD_PEAK_MIB`` — it holds one copy of the view data (column
  runs, replicas as lazy views of the base rows), not four;
* the whole bootstrap's traced peak — ``generate()`` plus
  ``materialize`` of the served configuration, the facts handed over as
  the engine's only reference — at or below ``BOOTSTRAP_PEAK_MIB``:
  facts and view states travel as columns, not tuples.

Exits non-zero with a diagnostic when any bound is violated.
"""

from __future__ import annotations

import sys
import tracemalloc

SCALE = 0.002
SEED = 42
#: Bound on the build's ``tracemalloc`` peak at ``SCALE``: it reads
#: 3.73 MiB with column-native cube computation, read 5.26 MiB while
#: facts and view states were tuples, and 8.62 MiB while runs were entry
#: tuples and replicas were copied.  The reading is deterministic.
BUILD_PEAK_MIB = 4.5
#: Bound on the bootstrap's ``tracemalloc`` peak at ``SCALE`` (generate
#: plus materialize): it reads 3.98 MiB with facts generated into
#: columns and the cube computed column-wise, and read 5.55 MiB while
#: facts and view states were tuples.  The reading is deterministic.
BOOTSTRAP_PEAK_MIB = 4.5


def bootstrap_peak_mib() -> float:
    """Traced peak of generating the warehouse and materializing the
    served configuration, as ``bootstrap_database`` does."""
    from repro.constants import EXPERIMENT_BUFFER_PAGES
    from repro.core.engine import CubetreeEngine
    from repro.warehouse.tpcd import TPCDGenerator
    from repro.warehouse.views import paper_replicas, paper_views

    tracemalloc.start()
    generator = TPCDGenerator(scale_factor=SCALE, seed=SEED)
    engine = CubetreeEngine(
        generator.schema(), buffer_pages=EXPERIMENT_BUFFER_PAGES
    )
    engine.materialize(
        paper_views(), generator.generate().facts, replicate=paper_replicas()
    )
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return peak


def main() -> int:
    from repro.experiments.common import (
        ExperimentConfig,
        build_cubetree_engine,
        build_warehouse,
    )

    boot_peak_mib = bootstrap_peak_mib()

    config = ExperimentConfig(scale_factor=SCALE, seed=SEED)
    _generator, data = build_warehouse(config)

    tracemalloc.start()
    engine, _ = build_cubetree_engine(config, data)
    build_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    print(f"pages:           {engine.forest.num_pages}")
    print(f"simulated load:  "
          f"{engine.disk.cost_model.stats.simulated_ms:.1f}ms")
    print(f"build peak:      {build_peak_mib:.2f} MiB traced "
          f"(bound {BUILD_PEAK_MIB} MiB)")
    print(f"bootstrap peak:  {boot_peak_mib:.2f} MiB traced "
          f"(bound {BOOTSTRAP_PEAK_MIB} MiB)")

    problems = []
    if build_peak_mib > BUILD_PEAK_MIB:
        problems.append(
            f"build peaked at {build_peak_mib:.2f} MiB traced, "
            f"over the {BUILD_PEAK_MIB} MiB bound"
        )
    if boot_peak_mib > BOOTSTRAP_PEAK_MIB:
        problems.append(
            f"bootstrap peaked at {boot_peak_mib:.2f} MiB traced, over the "
            f"{BOOTSTRAP_PEAK_MIB} MiB bound"
        )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("OK: build and bootstrap peaks are within their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
