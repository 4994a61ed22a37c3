#!/usr/bin/env python3
"""Run the benchmark: ``python bench_e2e/run.py [--workload NAME] [--seed N]``.

With no ``--trace`` every chosen workload gets a timed run (end-to-end
metrics, tracing off) and then a traced run (per-layer metrics).  With
``--trace 0`` or ``--trace 1`` only that half runs; given one workload,
the last line printed is then the one-object JSON result the driver
reads.  ``--compare A.json B.json`` judges two ``--out`` files instead.

The exit code is non-zero when any answer disagrees with the oracle, any
metric could not be measured, or ``--compare`` finds a metric worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    import repro  # noqa: E402,F401 - the system under test
except ModuleNotFoundError:
    sys.exit(f"bench_e2e: no repro package under {ROOT / 'src'}: nothing to measure")

from bench_e2e import SCALE, load_spec  # noqa: E402
from bench_e2e.compare import compare_files  # noqa: E402
from bench_e2e.serving import scrubbed_environment  # noqa: E402
from bench_e2e.timed import WARMUP_SHARE, run_timed  # noqa: E402
from bench_e2e.traced import run_traced  # noqa: E402
from bench_e2e.workloads import BY_NAME, WORKLOADS  # noqa: E402


def build_parser(spec: Dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(BY_NAME), default=None,
        help="run one workload (default: all five)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured window per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: timed runs only; 1: traced runs only (default: both)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="timed runs per workload, on seeds SEED, SEED+1, ... "
        "(a set for --compare)",
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE,
        help=f"TPC-D scale of the corpus (default {SCALE}; smaller only "
        "for the self-test)",
    )
    parser.add_argument("--out", metavar="FILE", help="write results as JSON")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --out files instead of running",
    )
    return parser


def environment(args: argparse.Namespace, scrubbed: List[str]) -> Dict[str, Any]:
    """Where and how these numbers were taken."""
    commit = None
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "scale": args.scale,
        "seed": args.seed,
        "window_s": args.seconds,
        "warmup_s": WARMUP_SHARE * args.seconds,
        "scrubbed_env": scrubbed,
    }


def print_result(result: Dict[str, Any]) -> None:
    flags = "  NOISY HOST" if result.get("noisy") else ""
    print(
        f"\n== {result['workload']} ({result['mode']}, seed "
        f"{result['seed']}): {result['attempted']} attempted, "
        f"{result['failed']} failed, "
        f"{'answers correct' if result['correct'] else 'WRONG OR MISSING'}"
        f"{flags}"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>14.4f} {entry['unit']}")
    for name, value in result.get("info", {}).items():
        if name != "spans":
            print(f"  ({name}: {value})")


def _terminate(signum: int, _frame: object) -> None:
    # Turn SIGTERM into an exception so every ``with`` and ``finally``
    # still stops its server and deletes its directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    if args.compare:
        return compare_files(args.compare[0], args.compare[1], spec)

    signal.signal(signal.SIGTERM, _terminate)
    # The benchmark measures the shipped defaults: no REPRO_* knob may
    # reach the server subprocess or the in-process traced server.
    _env, scrubbed = scrubbed_environment()
    for name in scrubbed:
        del os.environ[name]

    env = environment(args, scrubbed)
    print("bench_e2e: " + " ".join(f"{k}={v}" for k, v in env.items()))
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    results: List[Dict[str, Any]] = []
    if args.trace in (None, 0):
        for workload in workloads:
            for repeat in range(args.repeat):
                results.append(
                    run_timed(
                        workload, args.seed + repeat, args.seconds, args.scale
                    )
                )
                print_result(results[-1])
    if args.trace in (None, 1):
        for workload in workloads:
            results.append(
                run_traced(workload, args.seed, args.seconds, args.scale)
            )
            print_result(results[-1])

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "runs": results}, handle)
    if args.trace is not None and len(results) == 1:
        only = results[0]
        print(
            json.dumps(
                {key: only[key] for key in
                 ("correct", "attempted", "failed", "metrics")}
            )
        )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
