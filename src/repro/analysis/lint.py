"""Repo-specific AST lint rules for the ``repro`` codebase.

These are conventions the storage engine depends on but no generic
linter knows about:

``runtime-assert``
    No ``assert`` for runtime validation in non-test code.  Asserts
    vanish under ``python -O``; raise a typed exception from
    :mod:`repro.errors` instead.
``direct-disk-read``
    No ``*.disk.read_page(...)`` outside the buffer pool.  Reads that
    bypass :class:`~repro.storage.buffer.BufferPool` are invisible to
    the LRU, the hit-ratio statistics, and the pin protocol.
``float-equality``
    No ``==`` / ``!=`` against float literals or ``float(...)`` calls.
    Measure values are accumulated float64 aggregates; compare with a
    tolerance (``math.isclose``) instead.
``mutable-default``
    No mutable default arguments (list/dict/set literals or
    constructors) — the default is shared across calls.
``magic-page-size``
    No literal ``4096`` outside ``constants.py``; use
    :data:`repro.constants.PAGE_SIZE` so page-geometry experiments can
    vary it in one place.
``struct-in-loop``
    No per-record ``pack``/``unpack``/``pack_into``/``unpack_from``
    calls inside a loop or comprehension.  One struct call per record
    is the hot-path pattern the batched codec APIs
    (:meth:`RecordCodec.encode_many`, :meth:`RecordCodec.decode_many`,
    ``EntryCodec``) replaced; whole-page batches are one call.
    ``iter_unpack`` is exempt — it *is* the batched form.
``leaf-entry-loop``
    No per-entry loops over ``leaf.points`` / ``leaf.values`` in the
    query path (``repro/query/`` and ``repro/rtree/tree.py``; see
    ``PATH_RESTRICTIONS``).  Leaf consumption belongs in the column
    kernels (:mod:`repro.rtree.kernels`), which every search runs
    through.  The one accepted site, the dynamic-insertion leaf split,
    is recorded in ``tools/lint-baseline.json``; new sites must justify
    themselves or go through the kernels.  Attribute loops only —
    ``dict.values()`` method calls never match.

Findings can be suppressed per line with ``# lint: ignore[rule-id]``.
The runner for CI and pre-commit use is ``tools/lint.py``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: rule id -> short description (the registry ``tools/lint.py`` prints).
RULES: Dict[str, str] = {  # repro: read-only
    "runtime-assert": (
        "assert used for runtime validation (vanishes under python -O); "
        "raise a repro.errors exception"
    ),
    "direct-disk-read": (
        "DiskManager.read_page called outside the BufferPool; go through "
        "the pool so the read is cached, priced, and pinned"
    ),
    "float-equality": (
        "== / != against a float value; use a tolerance (math.isclose) "
        "for measure comparisons"
    ),
    "mutable-default": (
        "mutable default argument is shared across calls; default to "
        "None and create inside the function"
    ),
    "magic-page-size": (
        "magic page-size literal; use repro.constants.PAGE_SIZE"
    ),
    "struct-in-loop": (
        "per-record struct pack/unpack inside a loop; batch the page "
        "with encode_many/decode_many/iter_unpack instead"
    ),
    "sequential-fetch-loop": (
        "BufferPool.fetch_page called in a loop over a page range; use "
        "the run-scan helpers (RTree._scan_leaves / pool.prefetch_run) "
        "so sequential reads go through scan admission and read-ahead"
    ),
    "leaf-entry-loop": (
        "per-entry loop over leaf.points/leaf.values in the query path; "
        "go through the column kernels (repro.rtree.kernels)"
    ),
}

#: Per-rule path suffixes (POSIX-style) that are exempt by design.
PATH_EXEMPTIONS: Dict[str, Tuple[str, ...]] = {  # repro: read-only
    # The pool *is* the one sanctioned DiskManager client; the manager's
    # own module exercises itself.
    "direct-disk-read": (
        "repro/storage/buffer.py",
        "repro/storage/disk.py",
    ),
    # The one place the literal is allowed to exist.
    "magic-page-size": ("repro/constants.py",),
    # The pool owns the sanctioned sequential-read helper (prefetch_run),
    # which necessarily iterates a page range itself.
    "sequential-fetch-loop": ("repro/storage/buffer.py",),
}

#: Per-rule path markers the rule is *restricted to*: a file matches the
#: rule only when its normalized path contains one of the markers.
#: (The inverse of PATH_EXEMPTIONS — opt-in rather than opt-out.)
PATH_RESTRICTIONS: Dict[str, Tuple[str, ...]] = {  # repro: read-only
    # Leaf consumption is only policed where queries read leaves: the
    # query layer and the tree's search machinery.  Packers, codecs,
    # mergers, and checkers legitimately walk entries row by row.
    "leaf-entry-loop": ("repro/query/", "repro/rtree/tree.py"),
}

_PAGE_SIZE_LITERAL = 4096  # lint: ignore[magic-page-size]
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([a-z\-,\s]+)\]")


@dataclass(frozen=True)
class LintFinding:
    """One lint rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: [rule] message`` (clickable in most UIs)."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] " \
               f"{self.message}"


def is_test_path(path: str) -> bool:
    """True for pytest files/dirs, where asserts are the idiom."""
    parts = _normalize(path).split("/")
    if any(part in ("tests", "test") for part in parts):
        return True
    base = parts[-1]
    return base.startswith("test_") or base == "conftest.py"


def lint_source(
    source: str, path: str = "<string>"
) -> List[LintFinding]:
    """Lint one module's source text; returns findings in line order.

    A file that does not parse yields a single ``syntax-error`` finding
    rather than raising, so one broken file cannot take down the whole
    lint run.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(
            "syntax-error", path, exc.lineno or 1, (exc.offset or 1) - 1,
            f"file does not parse: {exc.msg}",
        )]
    exempt = _exempt_rules(path)
    visitor = _LintVisitor(path, exempt)
    visitor.visit(tree)
    suppressed = _suppressions(source)
    findings = [
        finding
        for finding in visitor.findings
        if finding.rule not in suppressed.get(finding.line, set())
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(path: str) -> List[LintFinding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(root: str) -> Iterator[str]:
    """Yield every ``.py`` file under a directory (or the file itself)."""
    if os.path.isfile(root):
        if root.endswith(".py"):
            yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and d != "__pycache__"
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(
    paths: Iterable[str], include_tests: bool = False
) -> List[LintFinding]:
    """Lint every Python file under the given paths."""
    findings: List[LintFinding] = []
    for root in paths:
        for path in iter_python_files(root):
            if not include_tests and is_test_path(path):
                continue
            findings.extend(lint_file(path))
    return findings


# ----------------------------------------------------------------------
# implementation
# ----------------------------------------------------------------------
def _normalize(path: str) -> str:
    return path.replace(os.sep, "/")


def _exempt_rules(path: str) -> Set[str]:
    normalized = _normalize(path)
    exempt = {
        rule
        for rule, suffixes in PATH_EXEMPTIONS.items()
        if any(normalized.endswith(suffix) for suffix in suffixes)
    }
    for rule, markers in PATH_RESTRICTIONS.items():
        if not any(marker in normalized for marker in markers):
            exempt.add(rule)
    if is_test_path(path):
        exempt.add("runtime-assert")
    return exempt


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """``# lint: ignore[rule]`` markers, keyed by line number."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            out[lineno] = {rule for rule in rules if rule}
    return out


def _is_floaty(node: ast.expr) -> bool:
    """Conservatively true when an expression is statically a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    return False


_MUTABLE_CONSTRUCTORS = ("list", "dict", "set")

#: struct-module call names that are per-record when issued in a loop.
#: ``iter_unpack`` is deliberately absent — it is the batched form.
_STRUCT_CALLS = frozenset({"pack", "unpack", "pack_into", "unpack_from"})


def _is_range_iter(node: ast.expr) -> bool:
    """True for ``range(...)`` loop iterables — the page-range pattern."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


#: Leaf entry sequences the query path must consume through the kernels.
_LEAF_ENTRY_ATTRS = frozenset({"points", "values"})


def _leaf_entry_attr(node: ast.expr) -> Optional[str]:
    """The ``.points``/``.values`` attribute a loop iterable reads, if any.

    Walks the whole iterable expression so wrappers like
    ``zip(leaf.points, leaf.values)`` and ``enumerate(leaf.points)``
    still match.  Attributes used as a call's function (``d.values()``)
    are method calls on something else entirely and never match.
    """
    called = {
        id(child.func)
        for child in ast.walk(node)
        if isinstance(child, ast.Call)
    }
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr in _LEAF_ENTRY_ATTRS
            and id(child) not in called
        ):
            return child.attr
    return None


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CONSTRUCTORS
        )
    return False


class _LintVisitor(ast.NodeVisitor):
    """Collects findings for every enabled rule in one AST walk."""

    def __init__(self, path: str, exempt: Set[str]) -> None:
        self.path = path
        self.exempt = exempt
        self.findings: List[LintFinding] = []
        self._loop_depth = 0
        self._range_loop_depth = 0

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.exempt:
            return
        self.findings.append(
            LintFinding(
                rule,
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    # -- runtime-assert ------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            "runtime-assert",
            node,
            "assert statement in production code; raise a typed "
            "exception from repro.errors instead",
        )
        self.generic_visit(node)

    # -- direct-disk-read / struct-in-loop -----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "read_page"
            and self._is_disk_ref(func.value)
        ):
            self._flag(
                "direct-disk-read",
                node,
                "read bypasses the BufferPool; use pool.fetch_page so "
                "the access is cached and pinned",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _STRUCT_CALLS
            and self._loop_depth > 0
        ):
            self._flag(
                "struct-in-loop",
                node,
                f"per-record .{func.attr}() inside a loop; batch the "
                f"whole page (encode_many/decode_many/iter_unpack)",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "fetch_page"
            and self._range_loop_depth > 0
        ):
            self._flag(
                "sequential-fetch-loop",
                node,
                "fetch_page in a loop over a sequential page range "
                "bypasses scan admission and read-ahead; use the "
                "run-scan helper instead",
            )
        self.generic_visit(node)

    # -- struct-in-loop loop tracking ----------------------------------
    def _visit_loop(self, node: ast.AST) -> None:
        ranged = isinstance(node, ast.For) and _is_range_iter(node.iter)
        self._check_leaf_entry_loop(node)
        self._loop_depth += 1
        if ranged:
            self._range_loop_depth += 1
        self.generic_visit(node)
        if ranged:
            self._range_loop_depth -= 1
        self._loop_depth -= 1

    # -- leaf-entry-loop ------------------------------------------------
    def _check_leaf_entry_loop(self, node: ast.AST) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        ):
            iters = [gen.iter for gen in node.generators]
        else:  # while loops have no iterable to inspect
            return
        for iterable in iters:
            attr = _leaf_entry_attr(iterable)
            if attr is not None:
                self._flag(
                    "leaf-entry-loop",
                    node,
                    f"per-entry loop over leaf .{attr}; go through the "
                    f"column kernels (repro.rtree.kernels)",
                )
                return

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop
    visit_ListComp = _visit_loop
    visit_SetComp = _visit_loop
    visit_DictComp = _visit_loop
    visit_GeneratorExp = _visit_loop

    @staticmethod
    def _is_disk_ref(node: ast.expr) -> bool:
        """Matches ``disk`` / ``*.disk`` / ``*.disk_manager`` receivers."""
        if isinstance(node, ast.Name):
            return node.id in ("disk", "disk_manager")
        if isinstance(node, ast.Attribute):
            return node.attr in ("disk", "disk_manager")
        return False

    # -- float-equality ------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floaty(left) or _is_floaty(right):
                self._flag(
                    "float-equality",
                    node,
                    "exact equality against a float; use math.isclose "
                    "(measure values are accumulated float64 states)",
                )
                break
        self.generic_visit(node)

    # -- mutable-default -----------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self._flag(
                    "mutable-default",
                    default,
                    f"mutable default in {node.name}(); the object is "
                    f"shared across every call",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- magic-page-size -----------------------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            isinstance(node.value, int)
            and not isinstance(node.value, bool)
            and node.value == _PAGE_SIZE_LITERAL
        ):
            self._flag(
                "magic-page-size",
                node,
                "literal 4096; use repro.constants.PAGE_SIZE",
            )
        self.generic_visit(node)


def format_findings(findings: Sequence[LintFinding]) -> str:
    """Render findings plus a one-line summary."""
    lines = [finding.format() for finding in findings]
    lines.append(
        f"{len(findings)} finding(s) across "
        f"{len({finding.path for finding in findings})} file(s)"
        if findings
        else "0 findings"
    )
    return "\n".join(lines)
