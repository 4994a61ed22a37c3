#!/usr/bin/env python3
"""Run the repo-specific static checks (see repro.analysis).

Usage::

    python tools/lint.py                     # AST lint over src/ (CI gate)
    python tools/lint.py --flow              # + flow rules, with baseline
    python tools/lint.py --format json       # machine-readable findings
    python tools/lint.py --write-baseline tools/flow-baseline.json
    python tools/lint.py --write-lint-baseline tools/lint-baseline.json
    python tools/lint.py --list-rules

AST findings are baselined the same way flow findings are: the
committed ``tools/lint-baseline.json`` records the accepted sites
(e.g. the dynamic-insertion leaf split the ``leaf-entry-loop`` rule
polices) and only NEW findings fail the run.  Each entry accepts one
finding, and an entry that no finding in the linted files matches is
reported as stale.

Exits 1 when any non-baselined finding is reported, 2 on bad paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import List, Optional

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.analysis.flowrules import (  # noqa: E402 (needs the path insert)
    FLOW_RULES,
    analyze_paths,
    apply_baseline,
    canonical_path,
    findings_payload,
    format_inventory,
    load_baseline,
)
from repro.analysis.lint import (  # noqa: E402
    RULES,
    format_findings,
    iter_python_files,
    lint_paths,
)

_DEFAULT_BASELINE = os.path.join(_REPO_ROOT, "tools", "flow-baseline.json")
_DEFAULT_LINT_BASELINE = os.path.join(
    _REPO_ROOT, "tools", "lint-baseline.json"
)


def _scoped_baseline(path: str, paths: List[str]) -> Counter:
    """The baseline's entries for files under ``paths``: an entry for a
    file this run does not read can be neither matched nor stale."""
    files = {
        canonical_path(name) for root in paths
        for name in iter_python_files(root)
    }
    return Counter(
        {key: n for key, n in load_baseline(path).items() if key[1] in files}
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/lint.py",
        description="repo-specific static checks for the repro codebase",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--include-tests",
        action="store_true",
        help="also lint test files (asserts stay exempt there)",
    )
    parser.add_argument(
        "--flow",
        action="store_true",
        help="also run the flow-aware rules (pin-balance, "
        "crash-point-coverage, obs-isolation, shared-state)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (json: {rule, path, line, message})",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="accepted flow findings (default: tools/flow-baseline.json "
        "when present); only NEW findings fail the run",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the default baseline and report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="JSON",
        help="write current flow findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--lint-baseline",
        default=None,
        metavar="JSON",
        help="accepted AST findings (default: tools/lint-baseline.json "
        "when present); only NEW findings fail the run",
    )
    parser.add_argument(
        "--write-lint-baseline",
        default=None,
        metavar="JSON",
        help="write current AST findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the findings document (always JSON) to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (AST + flow rules) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}: {description}")
        for rule, description in sorted(FLOW_RULES.items()):
            print(f"{rule} (flow): {description}")
        return 0

    paths = args.paths or [os.path.join(_REPO_ROOT, "src")]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    findings = lint_paths(paths, include_tests=args.include_tests)
    if args.write_lint_baseline:
        with open(args.write_lint_baseline, "w", encoding="utf-8") as fh:
            json.dump(findings_payload(findings), fh, indent=2)
            fh.write("\n")
        print(
            f"wrote {len(findings)} finding(s) to "
            f"{args.write_lint_baseline}"
        )
        return 0
    lint_baseline_path = args.lint_baseline
    if lint_baseline_path is None and not args.no_baseline:
        if os.path.exists(_DEFAULT_LINT_BASELINE):
            lint_baseline_path = _DEFAULT_LINT_BASELINE
    lint_suppressed = 0
    if lint_baseline_path is not None:
        findings, lint_suppressed = apply_baseline(
            findings, _scoped_baseline(lint_baseline_path, paths)
        )
    inventory_text = None
    suppressed = 0
    if args.flow or args.write_baseline:
        flow_report = analyze_paths(
            paths, include_tests=args.include_tests
        )
        if args.write_baseline:
            with open(args.write_baseline, "w", encoding="utf-8") as fh:
                json.dump(
                    findings_payload(flow_report.findings), fh, indent=2
                )
                fh.write("\n")
            print(
                f"wrote {len(flow_report.findings)} finding(s) to "
                f"{args.write_baseline}"
            )
            return 0
        baseline_path = args.baseline
        if baseline_path is None and not args.no_baseline:
            if os.path.exists(_DEFAULT_BASELINE):
                baseline_path = _DEFAULT_BASELINE
        flow_findings = flow_report.findings
        if baseline_path is not None:
            flow_findings, suppressed = apply_baseline(
                flow_findings, _scoped_baseline(baseline_path, paths)
            )
        findings = sorted(
            findings + flow_findings,
            key=lambda f: (f.path, f.line, f.col, f.rule),
        )
        inventory_text = format_inventory(flow_report.inventory)

    payload = findings_payload(findings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(format_findings(findings))
        if lint_suppressed:
            print(f"lint baseline: {lint_suppressed} finding(s) accepted")
        if inventory_text is not None:
            print(inventory_text)
        if args.flow:
            print(
                f"flow check: {len(findings)} finding(s), "
                f"{suppressed} baselined"
            )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
