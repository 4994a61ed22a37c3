#!/usr/bin/env python3
"""CI gate: the streaming bulk load stays within its sort-buffer budget.

Builds the paper configuration twice over the same warehouse — once
through the classic in-memory pack, once through the bounded-memory
streaming path (a ``build_memory`` budget, forced via
``repro.settings.override``) — and requires:

* identical storage (page count) and simulated load cost,
* the external sorter's peak buffer at or below the budget,
* at least one spilled run (otherwise the cap was not exercised),
* the classic build's traced allocation peak at or below
  ``CLASSIC_PEAK_MIB`` — it holds one copy of the view data (column
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

#: Sort-buffer budget in entries — far below the scale-0.002 view rows,
#: so every non-trivial view spills.
BUDGET = 1024
SCALE = 0.002
SEED = 42
#: Bound on the classic build's ``tracemalloc`` peak at ``SCALE``: it
#: reads 3.75 MiB with column-native cube computation, read 5.26 MiB
#: while facts and view states were tuples, and 8.62 MiB while runs were
#: entry tuples and replicas were copied.  The reading is deterministic.
CLASSIC_PEAK_MIB = 4.5
#: Bound on the bootstrap's ``tracemalloc`` peak at ``SCALE`` (generate
#: plus materialize): it reads 3.99 MiB with facts generated into
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
    from repro.obs import get_registry
    from repro.settings import override

    with override(build_memory=None):
        boot_peak_mib = bootstrap_peak_mib()

    config = ExperimentConfig(scale_factor=SCALE, seed=SEED)
    _generator, data = build_warehouse(config)

    tracemalloc.start()
    with override(build_memory=None):
        classic, _ = build_cubetree_engine(config, data)
    classic_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    classic_pages = classic.forest.num_pages
    classic_ms = classic.disk.cost_model.stats.simulated_ms

    registry = get_registry()
    registry.reset()
    with override(build_memory=BUDGET):
        streamed, _ = build_cubetree_engine(config, data)
    streamed_pages = streamed.forest.num_pages
    streamed_ms = streamed.disk.cost_model.stats.simulated_ms

    counters = registry.snapshot()["counters"]
    peak = int(counters.get("extsort.peak_buffered", 0))
    spilled_runs = int(counters.get("extsort.spilled_runs", 0))
    spilled_entries = int(counters.get("extsort.spilled_entries", 0))

    print(f"budget:          {BUDGET} entries")
    print(f"peak buffered:   {peak} entries")
    print(f"spilled runs:    {spilled_runs} ({spilled_entries} entries)")
    print(f"pages:           classic={classic_pages} streamed={streamed_pages}")
    print(f"simulated load:  classic={classic_ms:.1f}ms "
          f"streamed={streamed_ms:.1f}ms")
    print(f"classic peak:    {classic_peak_mib:.2f} MiB traced "
          f"(bound {CLASSIC_PEAK_MIB} MiB)")
    print(f"bootstrap peak:  {boot_peak_mib:.2f} MiB traced "
          f"(bound {BOOTSTRAP_PEAK_MIB} MiB)")

    problems = []
    if peak > BUDGET:
        problems.append(
            f"sorter buffered {peak} entries, over the {BUDGET}-entry budget"
        )
    if peak == 0:
        problems.append("streaming path did not run (peak buffer is zero)")
    if spilled_runs == 0:
        problems.append("no spilled runs — the budget was never exercised")
    if streamed_pages != classic_pages:
        problems.append(
            f"streamed build wrote {streamed_pages} pages, classic wrote "
            f"{classic_pages}"
        )
    if streamed_ms != classic_ms:
        problems.append(
            f"streamed build cost {streamed_ms}ms simulated, classic "
            f"{classic_ms}ms — the paths must charge identical I/O"
        )
    if classic_peak_mib > CLASSIC_PEAK_MIB:
        problems.append(
            f"classic build peaked at {classic_peak_mib:.2f} MiB traced, "
            f"over the {CLASSIC_PEAK_MIB} MiB bound"
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
    print("OK: streaming load is byte- and cost-identical under the budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
