"""``run.py --compare A.json B.json``: is B better, the same or worse than A?

Each file is an ``--out`` of timed runs (``--repeat N`` makes a set).  For
every pairing of end-to-end metric and workload the two sides' medians are
compared, using the direction and bound ``BENCHMARK.json`` fixes:

* ``worse`` / ``better``: B's median moved past the bound;
* ``same``: it did not;
* ``unresolved``: a side has no run left once runs on a noisy host are
  set aside, or a side's own spread (interquartile range over median) is
  wider than the bound, so a move of that size cannot be told from noise.

``error_rate`` is judged too: more than 0.001 above A's is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

#: Absolute rise in failed/attempted that counts as a regression.
ERROR_RATE_BOUND = 0.001

Values = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Values, Dict[str, float], List[str]]:
    """Metric samples, error rate and workload order of one ``--out`` file."""
    with open(path, encoding="utf-8") as handle:
        runs = [r for r in json.load(handle)["runs"] if r["mode"] == "timed"]
    values: Values = defaultdict(list)
    attempted: Dict[str, int] = defaultdict(int)
    failed: Dict[str, int] = defaultdict(int)
    order: List[str] = []
    for run in runs:
        workload = run["workload"]
        if workload not in order:
            order.append(workload)
        attempted[workload] += run["attempted"]
        failed[workload] += run["failed"]
        if run.get("noisy"):
            continue
        for name, entry in run["metrics"].items():
            values[workload, name].append(entry["value"])
    error_rate = {w: failed[w] / attempted[w] for w in order if attempted[w]}
    return values, error_rate, order


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a lone sample)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict on one pairing and B's relative change (positive = worse)."""
    if not a or not b:
        return "unresolved", 0.0
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base
    if better == "higher":
        change = -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare_files(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Print one line per pairing; return 1 when anything got worse."""
    values_a, errors_a, order = load(path_a)
    values_b, errors_b, _ = load(path_b)
    verdicts: Dict[str, int] = defaultdict(int)
    print(f"{'workload':<14} {'metric':<28} {'A':>12} {'B':>12} {'worse by':>9}  verdict")
    for workload in order:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = values_a.get(key, []), values_b.get(key, [])
            verdict, change = judge(a, b, metric["better"], metric["bound"])
            verdicts[verdict] += 1
            print(
                f"{workload:<14} {metric['name']:<28} "
                f"{statistics.median(a) if a else float('nan'):>12.4f} "
                f"{statistics.median(b) if b else float('nan'):>12.4f} "
                f"{change:>+9.1%}  {verdict}"
            )
        rate_a = errors_a.get(workload, 0.0)
        rate_b = errors_b.get(workload, 1.0)
        verdict = "worse" if rate_b - rate_a > ERROR_RATE_BOUND else "same"
        verdicts[verdict] += 1
        print(
            f"{workload:<14} {'error_rate':<28} {rate_a:>12.4f} "
            f"{rate_b:>12.4f} {rate_b - rate_a:>+9.4f}  {verdict}"
        )
    print(", ".join(f"{count} {name}" for name, count in sorted(verdicts.items())))
    return 1 if verdicts["worse"] else 0
