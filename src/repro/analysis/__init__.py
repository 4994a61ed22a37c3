"""Static and structural analysis for the Cubetree reproduction.

Two halves:

* :mod:`repro.analysis.fsck` — the structural verifier ("cubetree
  fsck") that walks packed R-trees / forests and machine-checks the
  paper's physical invariants (packed leaves, contiguous sorted view
  runs, compressed arity-k leaves, MBR containment).  Exposed on the
  command line as ``repro check`` and, behind ``REPRO_DEBUG_CHECKS``,
  as a post-condition of bulk load and merge-pack.
* :mod:`repro.analysis.lint` — repo-specific AST lint rules enforced
  over ``src/`` by ``tools/lint.py`` and CI.
* :mod:`repro.analysis.flowrules` — flow-aware rules (pin-balance,
  crash-point-coverage, obs-isolation, shared-state) built on the
  statement-level CFGs of :mod:`repro.analysis.cfg`, the worklist
  engine of :mod:`repro.analysis.dataflow`, and the heuristic call
  graph of :mod:`repro.analysis.callgraph`.  Exposed as
  ``repro check --flow`` and ``tools/lint.py --flow``.
"""

from repro.analysis.fsck import (
    FsckReport,
    Violation,
    check_cubetree,
    check_database,
    check_forest,
    check_tree,
    verify_tree,
)
from repro.analysis.flowrules import (
    FLOW_RULES,
    FlowReport,
    SharedStateEntry,
    analyze_paths,
    analyze_sources,
)
from repro.analysis.lint import (
    RULES,
    LintFinding,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "FsckReport",
    "Violation",
    "check_cubetree",
    "check_database",
    "check_forest",
    "check_tree",
    "verify_tree",
    "RULES",
    "LintFinding",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "FLOW_RULES",
    "FlowReport",
    "SharedStateEntry",
    "analyze_paths",
    "analyze_sources",
]
