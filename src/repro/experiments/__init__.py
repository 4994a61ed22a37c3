"""Experiment harness: one module per table/figure of the paper.

Each module exposes ``run(config=None, verbose=True) -> dict`` that sets up
the workload, measures both storage organizations on the shared simulated
device, prints the same rows/series the paper reports (next to the paper's
own numbers), and returns the measurements for assertions.

Run everything from the command line::

    python -m repro experiment all                # all experiments
    python -m repro experiment table6             # just one
"""

from repro.experiments.common import ExperimentConfig

__all__ = ["ExperimentConfig"]
