"""Run every experiment in sequence: ``python -m repro.experiments.runner``.

Accepts an optional scale-factor argument, e.g.::

    python -m repro.experiments.runner 0.005
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.experiments import (
    ablations,
    baseline_onthefly,
    fig12_queries,
    fig13_throughput,
    fig14_scalability,
    storage_breakdown,
    table5_mapping,
    table6_loading,
    table7_updates,
)
from repro.experiments.common import ExperimentConfig
from repro.settings import override


def main(argv: list[str] | None = None) -> None:
    """Run every experiment at the configured scale."""
    argv = sys.argv[1:] if argv is None else argv
    config = ExperimentConfig()
    if argv:
        config = replace(config, scale_factor=float(argv[0]))

    print(f"Running all experiments at scale factor {config.scale_factor} "
          f"({config.queries_per_node} queries/view)")
    # The paper's figures (and EXPERIMENTS.md) describe row leaves.
    with override(leaf_format="row"):
        table5_mapping.run(config)
        table6_loading.run(config)
        fig12_queries.run(config)
        fig13_throughput.run(config)
        fig14_scalability.run(config)
        table7_updates.run(config)
        storage_breakdown.run(config)
        baseline_onthefly.run(config)
        ablations.run(config)


if __name__ == "__main__":
    main()
