"""Observability: a process-wide metrics registry, span tracing, and the
``repro bench`` reproducibility harness.

Every hot path in the storage substrate and both engines reports into one
:class:`~repro.obs.registry.MetricsRegistry` (counters, gauges, histograms
with p50/p95/max), so experiments, benches, and tests read page I/O, buffer
hit ratios, and per-operation timings from a single ``snapshot()`` instead
of stitching together ad-hoc accumulators.  Span tracing
(:func:`~repro.obs.trace.trace`) adds wall-clock timings for coarse
operations (pack, merge-pack, bulk load, materialize) and is free when
disabled.

Design constraints (see ``docs/OBSERVABILITY.md``):

* counters never touch the simulated I/O cost model — observability reads
  the system, it does not price it;
* with tracing disabled the overhead per page access is one attribute
  increment, so experiment runtimes are unaffected;
* ``registry().reset()`` zeroes metrics *in place*, so module-level metric
  handles stay valid.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "trace",
]
