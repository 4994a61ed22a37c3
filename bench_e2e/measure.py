"""Small measuring tools: percentiles, the host-noise sentinel, /proc readers."""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, List, Sequence, Tuple

def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * share
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host-noise sentinel.

    The median of five short runs, so neither a preemption nor a moment
    of borrowed clock speed moves it.  A workload whose before and after
    readings differ by more than 10% ran on a host whose speed was
    changing under it.
    """
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) * 1000.0


def noisy(before_ms: float, after_ms: float) -> bool:
    return abs(after_ms - before_ms) > 0.10 * min(before_ms, after_ms)


def cpu_seconds(pid: int) -> float:
    """CPU time a process has used, all threads, exited ones included.

    Read from the process's POSIX CPU-time clock (Linux derives the clock
    id from the pid), which counts scheduled nanoseconds.  The utime and
    stime of ``/proc/<pid>/stat`` are sampled at the 100 Hz tick, and on a
    server that wakes for one millisecond per request that sampling alone
    spreads the reading by 15%.
    """
    return time.clock_gettime((~pid << 3) | 2)


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of a process in MiB, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def listed(
    values: Dict[str, float], spec_metrics: Sequence[Dict[str, object]]
) -> Tuple[Dict[str, Dict[str, object]], List[str]]:
    """The measured values of the metrics BENCHMARK.json lists, with their
    units and in its order, and the names that could not be measured."""
    metrics = {
        str(m["name"]): {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
        if m["name"] in values
    }
    missing = sorted(str(m["name"]) for m in spec_metrics if m["name"] not in values)
    return metrics, missing
