"""Table 7 — refreshing the warehouse with a 10% increment.

Paper (Table 7, SF 1, 598,964-row increment, 24-hour window)::

    Incremental updates of materialized views   > 24 hours   (timed out)
    Re-computation of materialized views        12h 59m 11s
    Incremental updates of Cubetrees            8m 24s       (~100x)

The conventional per-tuple path is run against a deadline set to the same
multiple of the recompute time as the paper's 24-hour window (24h /
12h59m ~ 1.85x), so the ">24 hours" outcome is reproduced whenever the
per-tuple path is proportionally as slow as it was on Informix.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.columns import concat_rows
from repro.errors import UpdateTimeoutError
from repro.experiments.common import (
    ExperimentConfig,
    build_conventional_engine,
    build_cubetree_engine,
    build_warehouse,
    fmt_duration,
    print_table,
)

#: The paper's down-time window, as a multiple of its recompute time.
WINDOW_OVER_RECOMPUTE = 24.0 / (12 + 59 / 60)

PAPER = {  # repro: read-only
    "incremental": "> 24 hours",
    "recompute": "12h 59m 11s",
    "merge_pack": "8m 24s",
}


def run(config: Optional[ExperimentConfig] = None, verbose: bool = True) -> Dict:
    """Regenerate Table 7."""
    config = config or ExperimentConfig()
    gen, data = build_warehouse(config)
    increment = gen.generate_increment(config.increment_fraction)
    all_facts = concat_rows([data.facts, increment])

    # Cubetree merge-pack.
    cube, _ = build_cubetree_engine(config, data)
    merge_report = cube.update(increment)
    merge_ms = merge_report.io.total_ms

    # Conventional recompute (fresh engine, same initial state).
    conv, _ = build_conventional_engine(config, data)
    recompute_report = conv.update_recompute(all_facts)
    recompute_ms = recompute_report.io.total_ms

    # Conventional per-tuple incremental, against the scaled 24h window.
    deadline_ms = WINDOW_OVER_RECOMPUTE * recompute_ms
    conv2, _ = build_conventional_engine(config, data)
    timed_out = False
    try:
        incr_report = conv2.update_incremental(
            increment, deadline_ms=deadline_ms
        )
        incremental_ms: Optional[float] = incr_report.io.total_ms
    except UpdateTimeoutError:
        timed_out = True
        incremental_ms = None

    incr_text = (
        f"> {fmt_duration(deadline_ms)} (timed out)"
        if timed_out
        else fmt_duration(incremental_ms or 0.0)
    )
    print_table(
        f"Table 7: updates on the TPC-D dataset "
        f"(10% increment = {len(increment)} rows; "
        "paper values at SF 1 in parentheses)",
        ["Method", "Total time"],
        [
            ["Incremental updates of materialized views",
             f"{incr_text} ({PAPER['incremental']})"],
            ["Re-computation of materialized views",
             f"{fmt_duration(recompute_ms)} ({PAPER['recompute']})"],
            ["Incremental updates of Cubetrees",
             f"{fmt_duration(merge_ms)} ({PAPER['merge_pack']})"],
        ],
        verbose,
    )
    return {
        "merge_pack_ms": merge_ms,
        "recompute_ms": recompute_ms,
        "incremental_ms": incremental_ms,
        "incremental_timed_out": timed_out,
        "deadline_ms": deadline_ms,
        "increment_rows": len(increment),
    }


if __name__ == "__main__":
    run()
