"""Flow-aware invariant rules over the repro source tree.

Four rules that need paths, not nodes (see :mod:`repro.analysis.cfg` and
:mod:`repro.analysis.dataflow`):

``pin-balance``
    Every page acquired through ``BufferPool.fetch_page`` /
    ``BufferPool.new_page`` (or the trees' ``_fetch_node`` wrapper) must
    reach a matching release (``unpin_page`` / ``_release`` /
    ``_flush_node`` / ``discard_page``) on **every** path out of the
    enclosing function — including generator abandonment at a ``yield``
    and explicit ``raise`` exits.  The alias analysis tracks which local
    names may hold each pinned page; ownership transfers (returning the
    page, or passing it to a call whose result is returned) close the
    obligation in the acquiring function.

``crash-point-coverage``
    Every durable write site in the checkpoint/disk layer (file-handle
    ``.write``, ``os.rename``/``replace``/``truncate``,
    ``shutil.rmtree``) must be dominated by a
    :class:`~repro.storage.wal.CrashPoint` hit — either directly, via a
    helper that hits (``_crash_hit``), via the guarded
    ``if self.crash_point is not None: ...hit(...)`` idiom, or because
    *every* intra-project caller hits before delegating.  ``os.fsync``
    and ``os.remove`` are deliberately not durable sites: fsync only
    publishes bytes already covered by the preceding write's hit, and
    file removal is modelled as non-recoverable cleanup.

``obs-isolation``
    The observability core (``repro/obs/`` minus the workload harness
    ``bench.py``) must not import or transitively call into storage cost
    accounting (``IOCostModel.record_read``/``record_write``), and no
    instrumented production module may *branch* on metrics state — the
    zero-simulated-drift guarantee: unplugging metrics must not change a
    single simulated I/O.

``shared-state``
    The concurrency-readiness audit for the ROADMAP item-1 server:
    module-level mutable containers, singleton instances, names rebound
    via ``global``, ``functools.lru_cache`` module caches, and
    ``*cache*`` instance attributes mutated outside ``__init__`` are
    flagged unless annotated::

        _REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
        _ENABLED = False       # repro: worker-local
        KEYWORDS = {...}       # repro: read-only

    ``read-only`` additionally promises the object is never mutated
    after import; a mutation of a read-only-annotated name is itself a
    finding.

Findings reuse :class:`~repro.analysis.lint.LintFinding` and honour the
same ``# lint: ignore[rule]`` suppressions.  A committed baseline
(``tools/flow-baseline.json``) records accepted findings by
(rule, path, message) — line-number drift does not invalidate it — so CI
gates on *new* violations only.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    module_name_for_path,
)
from repro.analysis.cfg import (
    CFG,
    CFGNode,
    FunctionNode,
    build_cfg,
    iter_functions,
    walk_statement,
)
from repro.analysis.dataflow import ForwardAnalysis, run_forward
from repro.analysis.lint import (
    LintFinding,
    _normalize,
    _suppressions,
    is_test_path,
    iter_python_files,
)

#: rule id -> short description (merged into ``tools/lint.py
#: --list-rules``).
FLOW_RULES: Dict[str, str] = {  # repro: read-only
    "pin-balance": (
        "a page pinned by fetch_page/new_page/_fetch_node may not be "
        "unpinned on every path out of the function (including yield "
        "abandonment and raise exits)"
    ),
    "crash-point-coverage": (
        "a durable write site (file write/rename/truncate/rmtree) in "
        "the checkpoint layer is not dominated by a CrashPoint hit"
    ),
    "obs-isolation": (
        "observability reaches storage cost accounting, or production "
        "code branches on metrics state (breaks zero simulated-I/O "
        "drift)"
    ),
    "shared-state": (
        "module-level mutable state, singleton, or cache without a "
        "concurrency annotation (# repro: guarded-by(<lock>) / "
        "worker-local / read-only)"
    ),
}

#: Path suffixes exempt per flow rule, by design.
FLOW_PATH_EXEMPTIONS: Dict[str, Tuple[str, ...]] = {  # repro: read-only
    # The pool implements the pin protocol; inside it, pin_count
    # manipulation is the mechanism, not a client obligation.
    "pin-balance": ("repro/storage/buffer.py",),
}

#: Only these modules have durable write sites worth auditing; the rest
#: of the tree writes through them.
CRASH_AUDITED_SUFFIXES: Tuple[str, ...] = (
    "repro/core/persistence.py",
    "repro/storage/disk.py",
    "repro/storage/wal.py",
)

#: The observability core: must stay import- and call-isolated from the
#: engine.  ``obs/bench.py`` is the workload harness — it *drives* the
#: engine by design and is exempt.
OBS_CORE_SUFFIXES: Tuple[str, ...] = (
    "repro/obs/__init__.py",
    "repro/obs/registry.py",
    "repro/obs/trace.py",
)

#: Engine-layer module prefixes the obs core may not import.
ENGINE_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.storage",
    "repro.core",
    "repro.rtree",
    "repro.btree",
    "repro.query",
    "repro.relational",
    "repro.sql",
    "repro.warehouse",
    "repro.experiments",
)

#: Paths where branching on metrics is the point (reporting layers).
METRIC_BRANCH_EXEMPT_PREFIXES: Tuple[str, ...] = (
    "repro/obs/",
    "repro/experiments/",
    "repro/cli.py",
)

_ANNOTATION_RE = re.compile(
    r"#\s*repro:\s*(guarded-by\(([^)]*)\)|worker-local|read-only)"
)


@dataclass(frozen=True)
class Annotation:
    """One ``# repro: ...`` concurrency annotation on a source line."""

    kind: str  # "guarded-by" | "worker-local" | "read-only"
    detail: str = ""

    def format(self) -> str:
        if self.kind == "guarded-by":
            return f"guarded-by({self.detail})"
        return self.kind


def parse_annotations(source: str) -> Dict[int, Annotation]:
    """``# repro: ...`` markers, keyed by line number."""
    out: Dict[int, Annotation] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ANNOTATION_RE.search(line)
        if not match:
            continue
        if match.group(1).startswith("guarded-by"):
            out[lineno] = Annotation("guarded-by", match.group(2).strip())
        else:
            out[lineno] = Annotation(match.group(1))
    return out


@dataclass(frozen=True)
class SharedStateEntry:
    """One shared-state site for the concurrency-readiness report."""

    path: str
    line: int
    name: str
    description: str
    annotation: Optional[str]  # None = unannotated (also a finding)


@dataclass
class FlowReport:
    """Everything one flow-analysis run produced."""

    findings: List[LintFinding] = field(default_factory=list)
    inventory: List[SharedStateEntry] = field(default_factory=list)


@dataclass
class _Module:
    path: str
    source: str
    tree: ast.Module
    annotations: Dict[int, Annotation]
    suppressions: Dict[int, Set[str]]

    @property
    def norm_path(self) -> str:
        return _normalize(self.path)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def analyze_sources(
    sources: Mapping[str, str], include_tests: bool = False
) -> FlowReport:
    """Run every flow rule over a {path: source} mapping."""
    modules: List[_Module] = []
    for path in sorted(sources):
        if not include_tests and is_test_path(path):
            continue
        source = sources[path]
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # the classic lint reports syntax errors
        modules.append(
            _Module(
                path,
                source,
                tree,
                parse_annotations(source),
                _suppressions(source),
            )
        )

    graph = CallGraph.from_sources(
        {module.path: module.source for module in modules}
    )
    hitters = _hitter_names(graph)
    report = FlowReport()

    analyses = _FunctionAnalyses(hitters)
    for module in modules:
        report.findings.extend(_check_pin_balance(module))
        report.findings.extend(
            _check_crash_coverage(module, graph, analyses)
        )
        report.findings.extend(_check_metric_branches(module))
        report.findings.extend(_check_obs_imports(module))
        _check_shared_state(module, report)
    report.findings.extend(_check_obs_reachability(modules, graph))

    by_path = {module.path: module for module in modules}
    report.findings = [
        finding
        for finding in report.findings
        if finding.rule
        not in by_path[finding.path].suppressions.get(
            finding.line, set()
        )
    ]
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def analyze_paths(
    paths: Iterable[str], include_tests: bool = False
) -> FlowReport:
    """Run every flow rule over files/directories on disk."""
    sources: Dict[str, str] = {}
    for root in paths:
        for path in iter_python_files(root):
            with open(path, "r", encoding="utf-8") as handle:
                sources[path] = handle.read()
    return analyze_sources(sources, include_tests=include_tests)


def _path_exempt(rule: str, norm_path: str) -> bool:
    return any(
        norm_path.endswith(suffix)
        for suffix in FLOW_PATH_EXEMPTIONS.get(rule, ())
    )


# ----------------------------------------------------------------------
# rule 1: pin-balance
# ----------------------------------------------------------------------
_PIN_ACQUIRERS = frozenset({"fetch_page", "new_page", "_fetch_node"})
_PIN_RELEASERS_BY_ID = frozenset({"unpin_page", "discard_page"})


@dataclass(frozen=True)
class _PinSite:
    """One acquisition site: where a page gets pinned."""

    line: int
    col: int
    call_text: str
    id_expr: Optional[str]  # unparsed page-id argument, when there is one


#: may-analysis state: open acquisition site -> names that may alias it.
_PinState = Tuple[Tuple[_PinSite, FrozenSet[str]], ...]


class _PinAnalysis(ForwardAnalysis[_PinState]):
    def __init__(self) -> None:
        self.sites: Set[_PinSite] = set()

    def initial(self) -> _PinState:
        return ()

    def merge(self, a: _PinState, b: _PinState) -> _PinState:
        merged: Dict[_PinSite, FrozenSet[str]] = dict(a)
        for site, aliases in b:
            merged[site] = merged.get(site, frozenset()) | aliases
        return _freeze_pins(merged)

    def transfer(self, node: CFGNode, state: _PinState) -> _PinState:
        stmt = node.stmt
        if stmt is None:
            return state
        pins: Dict[_PinSite, FrozenSet[str]] = dict(state)
        calls = [
            expr
            for expr in walk_statement(stmt)
            if isinstance(expr, ast.Call)
        ]
        self._apply_releases(calls, pins)
        self._apply_assignments(stmt, pins)
        self._apply_acquisitions(stmt, calls, pins)
        self._apply_escapes(stmt, pins)
        return _freeze_pins(pins)

    # -- releases ------------------------------------------------------
    def _apply_releases(
        self,
        calls: Sequence[ast.Call],
        pins: Dict[_PinSite, FrozenSet[str]],
    ) -> None:
        for call in calls:
            name = _callee_name(call)
            if name in _PIN_RELEASERS_BY_ID and call.args:
                arg = call.args[0]
                for site in list(pins):
                    if _release_arg_matches(arg, pins[site], site):
                        del pins[site]
            elif name == "_release" and call.args:
                self._release_by_var(call.args[0], pins)
            elif name == "_flush_node" and len(call.args) >= 2:
                self._release_by_var(call.args[1], pins)

    @staticmethod
    def _release_by_var(
        arg: ast.expr, pins: Dict[_PinSite, FrozenSet[str]]
    ) -> None:
        if not isinstance(arg, ast.Name):
            return
        for site in list(pins):
            if arg.id in pins[site]:
                del pins[site]

    # -- alias copy / rebinding ----------------------------------------
    def _apply_assignments(
        self, stmt: ast.stmt, pins: Dict[_PinSite, FrozenSet[str]]
    ) -> None:
        pairs: List[Tuple[str, Optional[str]]] = []  # (target, source)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                pairs.extend(_assignment_pairs(target, stmt.value))
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs.extend(_assignment_pairs(stmt.target, stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            pairs.extend(_assignment_pairs(stmt.target, None))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    pairs.extend(
                        _assignment_pairs(item.optional_vars, None)
                    )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    pairs.append((target.id, None))
        if not pairs:
            return
        # compute gains against the pre-assignment state, then rebind
        gains: Dict[_PinSite, Set[str]] = {}
        for target, source in pairs:
            if source is None:
                continue
            for site, aliases in pins.items():
                if source in aliases:
                    gains.setdefault(site, set()).add(target)
        rebound = {target for target, _ in pairs}
        for site in list(pins):
            remaining = pins[site] - rebound
            remaining |= frozenset(gains.get(site, set()))
            pins[site] = frozenset(remaining)

    # -- acquisitions --------------------------------------------------
    def _apply_acquisitions(
        self,
        stmt: ast.stmt,
        calls: Sequence[ast.Call],
        pins: Dict[_PinSite, FrozenSet[str]],
    ) -> None:
        for call in calls:
            name = _callee_name(call)
            if name not in _PIN_ACQUIRERS:
                continue
            aliases = _acquisition_aliases(stmt, call, name)
            id_expr: Optional[str] = None
            if name == "fetch_page" and call.args:
                id_expr = ast.unparse(call.args[0])
            site = _PinSite(
                call.lineno,
                call.col_offset,
                ast.unparse(call.func) + "(...)",
                id_expr,
            )
            self.sites.add(site)
            pins[site] = pins.get(site, frozenset()) | aliases

    # -- ownership transfer --------------------------------------------
    def _apply_escapes(
        self, stmt: ast.stmt, pins: Dict[_PinSite, FrozenSet[str]]
    ) -> None:
        escaping: Set[str] = set()
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            escaping |= _escaping_names(stmt.value)
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, (ast.Attribute, ast.Subscript))
            for t in stmt.targets
        ):
            escaping |= _escaping_names(stmt.value)
        if not escaping:
            return
        for site in list(pins):
            if pins[site] & escaping:
                del pins[site]


def _freeze_pins(
    pins: Mapping[_PinSite, FrozenSet[str]]
) -> _PinState:
    return tuple(
        sorted(
            pins.items(), key=lambda kv: (kv[0].line, kv[0].col)
        )
    )


def _assignment_pairs(
    target: ast.expr, value: Optional[ast.expr]
) -> List[Tuple[str, Optional[str]]]:
    """(bound name, aliased source name or None) pairs of an assignment."""
    if isinstance(target, ast.Name):
        source = value.id if isinstance(value, ast.Name) else None
        return [(target.id, source)]
    if isinstance(target, (ast.Tuple, ast.List)):
        values: List[Optional[ast.expr]]
        if isinstance(value, (ast.Tuple, ast.List)) and len(
            value.elts
        ) == len(target.elts):
            values = list(value.elts)
        else:
            values = [None] * len(target.elts)
        out: List[Tuple[str, Optional[str]]] = []
        for sub_target, sub_value in zip(target.elts, values):
            out.extend(_assignment_pairs(sub_target, sub_value))
        return out
    return []


def _acquisition_aliases(
    stmt: ast.stmt, call: ast.Call, acquirer: str
) -> FrozenSet[str]:
    """Names bound to the pinned page by the acquiring statement."""
    target: Optional[ast.expr] = None
    if isinstance(stmt, ast.Assign) and stmt.value is call:
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is call:
        target = stmt.target
    if target is None:
        return frozenset()
    if acquirer == "_fetch_node":
        # the wrappers return (node, pinned page)
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and len(target.elts) >= 2
            and isinstance(target.elts[1], ast.Name)
        ):
            return frozenset({target.elts[1].id})
        if isinstance(target, ast.Name):
            return frozenset({target.id})
        return frozenset()
    if isinstance(target, ast.Name):
        return frozenset({target.id})
    return frozenset()


def _release_arg_matches(
    arg: ast.expr, aliases: FrozenSet[str], site: _PinSite
) -> bool:
    """Does ``unpin_page(arg)`` release this acquisition?"""
    if isinstance(arg, ast.Name) and arg.id in aliases:
        return True
    if (
        isinstance(arg, ast.Attribute)
        and arg.attr == "page_id"
        and isinstance(arg.value, ast.Name)
        and arg.value.id in aliases
    ):
        return True
    if site.id_expr is not None and ast.unparse(arg) == site.id_expr:
        return True
    return False


def _escaping_names(expr: ast.expr) -> Set[str]:
    """Names whose object ownership a return/store hands elsewhere.

    Only *bare* occurrences count — the value itself, elements of a
    returned tuple/list, or direct call arguments.  ``page.page_id``
    does not transfer ownership of ``page``.
    """
    out: Set[str] = set()

    def visit(node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                visit(elt)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                visit(arg)
            for keyword in node.keywords:
                visit(keyword.value)
        elif isinstance(node, ast.IfExp):
            visit(node.body)
            visit(node.orelse)
        elif isinstance(node, ast.Starred):
            visit(node.value)

    visit(expr)
    return out


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _check_pin_balance(module: _Module) -> List[LintFinding]:
    if _path_exempt("pin-balance", module.norm_path):
        return []
    findings: List[LintFinding] = []
    for qual, func in iter_functions(module.tree):
        cfg = build_cfg(func)
        analysis = _PinAnalysis()
        in_states = run_forward(cfg, analysis)
        exit_state = in_states.get(cfg.exit)
        if not exit_state:
            continue
        for site, _aliases in exit_state:
            findings.append(
                LintFinding(
                    "pin-balance",
                    module.path,
                    site.line,
                    site.col,
                    f"page pinned by {site.call_text} in {qual}() may "
                    f"not be unpinned on every path out of the function",
                )
            )
    return findings


# ----------------------------------------------------------------------
# rule 2: crash-point-coverage
# ----------------------------------------------------------------------
_DURABLE_ATTR_CALLS = frozenset(
    {"rename", "replace", "truncate", "rmtree"}
)
_FILE_HANDLE_ATTRS = frozenset({"_file", "file"})


def _hitter_names(graph: CallGraph) -> FrozenSet[str]:
    """Simple names of functions that (transitively) hit a CrashPoint."""
    seeds = {
        qual
        for qual, info in graph.functions.items()
        if _contains_hit_call(info.node)
    }
    closure = graph.transitive_closure_matching(seeds)
    return frozenset(
        graph.functions[qual].simple_name for qual in closure
    )


def _contains_hit_call(func: FunctionNode) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "hit"
        ):
            return True
    return False


def _with_open_handles(func: FunctionNode) -> Set[str]:
    """Names bound by ``with open(...) as h`` (incl. ``path.open``)."""
    handles: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            name = _callee_name(expr)
            if name == "open" and isinstance(
                item.optional_vars, ast.Name
            ):
                handles.add(item.optional_vars.id)
    return handles


def _durable_calls(
    stmt: ast.stmt, handles: Set[str]
) -> List[ast.Call]:
    out: List[ast.Call] = []
    for node in walk_statement(stmt):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        attr = node.func.attr
        if attr in _DURABLE_ATTR_CALLS:
            out.append(node)
        elif attr == "write":
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in handles
            ):
                out.append(node)
            elif (
                isinstance(receiver, ast.Attribute)
                and receiver.attr in _FILE_HANDLE_ATTRS
            ):
                out.append(node)
    return out


def _mentions_crash_name(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "crash" in node.id:
            return True
        if isinstance(node, ast.Attribute) and "crash" in node.attr:
            return True
    return False


def _is_hit_marker(stmt: ast.stmt, hitters: FrozenSet[str]) -> bool:
    """Does executing this statement imply crash-point coverage?

    Either it hits (``*.hit(...)`` or a call into a transitively
    hitting helper), or it is the guarded idiom
    ``if <crash thing> is not None: ... .hit(...)`` — the None branch
    has no crash point to thread, so the fact holds on both arms.
    """
    for node in walk_statement(stmt):
        if not isinstance(node, ast.Call):
            continue
        name = _callee_name(node)
        if name == "hit" or (name is not None and name in hitters):
            return True
    if isinstance(stmt, ast.If) and _mentions_crash_name(stmt.test):
        for inner in ast.walk(stmt):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "hit"
            ):
                return True
    return False


class _CrashAnalysis(ForwardAnalysis[bool]):
    """Must-analysis: has a crash hit happened on *every* path here?"""

    def __init__(self, hitters: FrozenSet[str]) -> None:
        self.hitters = hitters

    def initial(self) -> bool:
        return False

    def merge(self, a: bool, b: bool) -> bool:
        return a and b

    def transfer(self, node: CFGNode, state: bool) -> bool:
        if node.stmt is not None and _is_hit_marker(
            node.stmt, self.hitters
        ):
            return True
        return state


class _FunctionAnalyses:
    """Lazy per-function CFG + crash must-analysis cache (for the
    all-callers-hit rescue)."""

    def __init__(self, hitters: FrozenSet[str]) -> None:
        self.hitters = hitters
        self._cache: Dict[int, Tuple[CFG, Dict[int, bool]]] = {}  # repro: worker-local

    def crash_states(
        self, func: FunctionNode
    ) -> Tuple[CFG, Dict[int, bool]]:
        key = id(func)
        if key not in self._cache:
            cfg = build_cfg(func)
            states = run_forward(cfg, _CrashAnalysis(self.hitters))
            self._cache[key] = (cfg, states)
        return self._cache[key]


def _check_crash_coverage(
    module: _Module, graph: CallGraph, analyses: _FunctionAnalyses
) -> List[LintFinding]:
    if not any(
        module.norm_path.endswith(suffix)
        for suffix in CRASH_AUDITED_SUFFIXES
    ):
        return []
    findings: List[LintFinding] = []
    for qual, func in iter_functions(module.tree):
        handles = _with_open_handles(func)
        cfg, states = analyses.crash_states(func)
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            durables = _durable_calls(node.stmt, handles)
            if not durables:
                continue
            if states.get(node.index, True):
                continue  # dominated by a hit (or unreachable)
            graph_qual = (
                f"{module_name_for_path(module.path)}:{qual}"
            )
            if graph_qual in graph.functions and _rescued_by_callers(
                graph_qual, graph, analyses, set()
            ):
                continue
            for call in durables:
                findings.append(
                    LintFinding(
                        "crash-point-coverage",
                        module.path,
                        call.lineno,
                        call.col_offset,
                        f"durable write {ast.unparse(call.func)}(...) "
                        f"in {qual}() is not preceded by a CrashPoint "
                        f"hit on every path",
                    )
                )
    return findings


def _rescued_by_callers(
    qualname: str,
    graph: CallGraph,
    analyses: _FunctionAnalyses,
    visited: Set[str],
) -> bool:
    """True when every intra-project caller hits before delegating."""
    if qualname in visited:
        return False
    visited.add(qualname)
    info = graph.functions[qualname]
    callers = graph.callers_of(qualname)
    if not callers:
        return False
    for caller in callers:
        cfg, states = analyses.crash_states(caller.node)
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            if not _stmt_calls(node.stmt, info.simple_name):
                continue
            if states.get(node.index, True):
                continue
            if not _rescued_by_callers(
                caller.qualname, graph, analyses, visited
            ):
                return False
    return True


def _stmt_calls(stmt: ast.stmt, simple_name: str) -> bool:
    for node in walk_statement(stmt):
        if isinstance(node, ast.Call) and _callee_name(
            node
        ) == simple_name:
            return True
    return False


# ----------------------------------------------------------------------
# rule 3: obs-isolation
# ----------------------------------------------------------------------
def _is_obs_core(norm_path: str) -> bool:
    return any(
        norm_path.endswith(suffix) for suffix in OBS_CORE_SUFFIXES
    )


def _check_obs_imports(module: _Module) -> List[LintFinding]:
    if not _is_obs_core(module.norm_path):
        return []
    findings: List[LintFinding] = []
    for node in ast.walk(module.tree):
        target: Optional[str] = None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(ENGINE_MODULE_PREFIXES):
                    target = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.module.startswith(
                ENGINE_MODULE_PREFIXES
            ):
                target = node.module
        if target is not None:
            findings.append(
                LintFinding(
                    "obs-isolation",
                    module.path,
                    node.lineno,
                    node.col_offset,
                    f"observability core imports engine module "
                    f"{target}; obs must not feed back into storage "
                    f"cost accounting",
                )
            )
    return findings


def _forbidden_for_obs(info: FunctionInfo) -> bool:
    return (
        info.module == "repro.storage.iomodel"
        or info.simple_name in ("record_read", "record_write")
    )


def _check_obs_reachability(
    modules: Sequence[_Module], graph: CallGraph
) -> List[LintFinding]:
    core_paths = {
        module.path: module
        for module in modules
        if _is_obs_core(module.norm_path)
    }
    findings: List[LintFinding] = []
    for qual, info in sorted(graph.functions.items()):
        module = core_paths.get(info.path)
        if module is None:
            continue
        chain = graph.reaches(qual, _forbidden_for_obs)
        if chain is None:
            continue
        findings.append(
            LintFinding(
                "obs-isolation",
                info.path,
                info.node.lineno,
                info.node.col_offset,
                f"{qual} can reach storage cost accounting via "
                + " -> ".join(chain),
            )
        )
    return findings


def _check_metric_branches(module: _Module) -> List[LintFinding]:
    norm = module.norm_path
    if any(
        f"/{prefix}" in f"/{norm}" or norm.endswith(prefix)
        for prefix in METRIC_BRANCH_EXEMPT_PREFIXES
    ):
        return []
    handles: Set[str] = set()
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr
            in ("counter", "gauge", "histogram")
        ):
            handles.add(stmt.targets[0].id)
    if not handles:
        return []
    findings: List[LintFinding] = []
    for node in ast.walk(module.tree):
        tests: List[ast.expr] = []
        if isinstance(node, (ast.If, ast.While)):
            tests.append(node.test)
        elif isinstance(node, ast.IfExp):
            tests.append(node.test)
        elif isinstance(node, ast.Assert):
            tests.append(node.test)
        elif isinstance(node, ast.comprehension):
            tests.extend(node.ifs)
        for test in tests:
            used = {
                inner.id
                for inner in ast.walk(test)
                if isinstance(inner, ast.Name) and inner.id in handles
            }
            if used:
                findings.append(
                    LintFinding(
                        "obs-isolation",
                        module.path,
                        test.lineno,
                        test.col_offset,
                        f"hot path branches on metrics state "
                        f"({', '.join(sorted(used))}); control flow "
                        f"must not depend on observability",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# rule 4: shared-state
# ----------------------------------------------------------------------
_MUTABLE_CALL_NAMES = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "deque",
        "Counter",
    }
)
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "appendleft",
    }
)


def _check_shared_state(module: _Module, report: FlowReport) -> None:
    tree = module.tree
    local_classes = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    }
    project_imports: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.module is not None and node.module.startswith(
                "repro"
            ):
                for alias in node.names:
                    project_imports.add(alias.asname or alias.name)

    module_assign_line: Dict[str, int] = {}
    for stmt in tree.body:
        name = _single_name_target(stmt)
        if name is not None:
            module_assign_line.setdefault(name, stmt.lineno)

    def annotation_at(line: int) -> Optional[Annotation]:
        return module.annotations.get(line)

    def flag(
        line: int,
        col: int,
        name: str,
        description: str,
        annotation: Optional[Annotation],
    ) -> None:
        report.inventory.append(
            SharedStateEntry(
                module.path,
                line,
                name,
                description,
                annotation.format() if annotation else None,
            )
        )
        if annotation is None:
            report.findings.append(
                LintFinding(
                    "shared-state",
                    module.path,
                    line,
                    col,
                    f"{description}; annotate with # repro: "
                    f"guarded-by(<lock>) / worker-local / read-only",
                )
            )

    read_only_names: Set[str] = set()

    # -- module-level assignments --------------------------------------
    for stmt in tree.body:
        name = _single_name_target(stmt)
        if name is None:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue  # __all__ and friends: conventionally immutable
        value = getattr(stmt, "value", None)
        if value is None:
            continue
        description = _shared_value_description(
            value, local_classes, project_imports
        )
        if description is None:
            # a handle derived from an annotated singleton (e.g.
            # _OBS_X = _REG.counter(...)) inherits that annotation
            continue
        annotation = annotation_at(stmt.lineno)
        if annotation is not None and annotation.kind == "read-only":
            read_only_names.add(name)
        flag(
            stmt.lineno,
            stmt.col_offset,
            name,
            f"module-level {description} '{name}' is shared process "
            f"state",
            annotation,
        )

    # -- names rebound via ``global`` ----------------------------------
    for func_qual, func in iter_functions(tree):
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Global):
                continue
            for name in stmt.names:
                def_line = module_assign_line.get(name, stmt.lineno)
                annotation = annotation_at(def_line) or annotation_at(
                    stmt.lineno
                )
                if annotation is not None and annotation.kind == (
                    "read-only"
                ):
                    report.findings.append(
                        LintFinding(
                            "shared-state",
                            module.path,
                            stmt.lineno,
                            stmt.col_offset,
                            f"'{name}' is annotated read-only but "
                            f"rebound via global in {func_qual}()",
                        )
                    )
                    continue
                flag(
                    stmt.lineno,
                    stmt.col_offset,
                    name,
                    f"module global '{name}' rebound at runtime in "
                    f"{func_qual}()",
                    annotation,
                )

    # -- functools.lru_cache module caches -----------------------------
    for stmt in tree.body:
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        for decorator in stmt.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            dec_name = None
            if isinstance(target, ast.Name):
                dec_name = target.id
            elif isinstance(target, ast.Attribute):
                dec_name = target.attr
            if dec_name not in ("lru_cache", "cache"):
                continue
            annotation = annotation_at(
                decorator.lineno
            ) or annotation_at(stmt.lineno)
            flag(
                decorator.lineno,
                decorator.col_offset,
                stmt.name,
                f"lru_cache on module function '{stmt.name}' is a "
                f"shared mutable cache",
                annotation,
            )

    # -- instance caches mutated outside __init__ ----------------------
    for class_node in tree.body:
        if not isinstance(class_node, ast.ClassDef):
            continue
        init_lines = _init_attr_lines(class_node)
        for method in class_node.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if method.name == "__init__":
                continue
            for line, col, attr in _cache_mutations(method):
                annotation = (
                    annotation_at(line)
                    or annotation_at(init_lines.get(attr, -1))
                )
                flag(
                    line,
                    col,
                    attr,
                    f"cache attribute 'self.{attr}' mutated outside "
                    f"__init__ (in {class_node.name}.{method.name})",
                    annotation,
                )

    # -- read-only contradiction ---------------------------------------
    if read_only_names:
        for func_qual, func in iter_functions(tree):
            for line, col, name in _name_mutations(
                func, read_only_names
            ):
                report.findings.append(
                    LintFinding(
                        "shared-state",
                        module.path,
                        line,
                        col,
                        f"'{name}' is annotated read-only but mutated "
                        f"in {func_qual}()",
                    )
                )


def _single_name_target(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    elif isinstance(stmt, ast.AnnAssign) and isinstance(
        stmt.target, ast.Name
    ):
        return stmt.target.id
    return None


def _shared_value_description(
    value: ast.expr,
    local_classes: Set[str],
    project_imports: Set[str],
) -> Optional[str]:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "mutable dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "mutable list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "mutable set"
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            if func.id in _MUTABLE_CALL_NAMES:
                return f"mutable {func.id}()"
            if func.id in local_classes:
                return f"singleton {func.id}() instance"
            if func.id in project_imports:
                return f"singleton from {func.id}()"
    return None


def _init_attr_lines(class_node: ast.ClassDef) -> Dict[str, int]:
    """``self.X = ...`` line numbers inside ``__init__``."""
    out: Dict[str, int] = {}
    for method in class_node.body:
        if (
            isinstance(method, ast.FunctionDef)
            and method.name == "__init__"
        ):
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        out.setdefault(target.attr, node.lineno)
    return out


def _cache_mutations(
    method: FunctionNode,
) -> List[Tuple[int, int, str]]:
    """Mutations of ``self.*cache*`` attributes inside a method."""
    out: List[Tuple[int, int, str]] = []

    def is_cache_attr(node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and "cache" in node.attr.lower()
        ):
            return node.attr
        return None

    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = is_cache_attr(target.value)
                    if attr is not None:
                        out.append(
                            (node.lineno, node.col_offset, attr)
                        )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATOR_METHODS:
                attr = is_cache_attr(node.func.value)
                if attr is not None:
                    out.append(
                        (node.lineno, node.col_offset, attr)
                    )
    return out


def _name_mutations(
    func: FunctionNode, names: Set[str]
) -> List[Tuple[int, int, str]]:
    """Mutations of module-level names inside a function."""
    out: List[Tuple[int, int, str]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    out.append(
                        (node.lineno, node.col_offset, target.value.id)
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    out.append(
                        (node.lineno, node.col_offset, target.value.id)
                    )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if (
                node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
            ):
                out.append(
                    (node.lineno, node.col_offset, node.func.value.id)
                )
    return out


# ----------------------------------------------------------------------
# suppression baseline
# ----------------------------------------------------------------------
BASELINE_SCHEMA_VERSION = 1


def canonical_path(path: str) -> str:
    """Repo-stable form of a finding path (suffix from ``repro/``)."""
    norm = _normalize(path)
    marker = norm.rfind("repro/")
    if marker >= 0:
        return norm[marker:]
    return norm


def finding_fingerprint(
    finding: LintFinding,
) -> Tuple[str, str, str]:
    """Baseline identity: line numbers deliberately excluded so
    unrelated edits do not invalidate accepted findings."""
    return (
        finding.rule,
        canonical_path(finding.path),
        finding.message,
    )


def findings_payload(findings: Sequence[LintFinding]) -> dict:
    """The JSON document shared by ``--format json``, the CI artifact,
    and the baseline file."""
    return {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "findings": [
            {
                "rule": finding.rule,
                "path": canonical_path(finding.path),
                "line": finding.line,
                "message": finding.message,
            }
            for finding in findings
        ],
    }


def load_baseline(path: str) -> "Counter[Tuple[str, str, str]]":
    """Fingerprints accepted by a committed baseline file, each counted
    once per entry (an entry accepts exactly one finding)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema_version") != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported flow baseline schema "
            f"{payload.get('schema_version')!r} in {path!r}"
        )
    return Counter(
        (
            str(entry["rule"]),
            canonical_path(str(entry["path"])),
            str(entry["message"]),
        )
        for entry in payload.get("findings", [])
    )


def apply_baseline(
    findings: Sequence[LintFinding],
    baseline: Iterable[Tuple[str, str, str]],
) -> Tuple[List[LintFinding], int]:
    """Split findings into (new, count suppressed by the baseline).

    Matching is by count: a fingerprint listed twice accepts two
    findings, and a third identical one is new.  An entry no finding
    uses is stale and comes back as a new finding of its own (line 0),
    so the baseline has to shrink with the code it excuses.
    """
    remaining = Counter(baseline)
    fresh: List[LintFinding] = []
    suppressed = 0
    for finding in findings:
        key = finding_fingerprint(finding)
        if remaining[key] > 0:
            remaining[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    for (rule, path, message), unused in sorted(remaining.items()):
        fresh.extend(
            LintFinding(
                rule, path, 0, 0,
                f"stale baseline entry (matches no finding): {message}",
            )
            for _ in range(unused)
        )
    return fresh, suppressed


def format_inventory(inventory: Sequence[SharedStateEntry]) -> str:
    """Human-readable concurrency-readiness report."""
    if not inventory:
        return "shared-state inventory: empty"
    lines = [
        f"shared-state inventory ({len(inventory)} site(s)):"
    ]
    for entry in sorted(
        inventory, key=lambda e: (e.path, e.line)
    ):
        marker = entry.annotation or "UNANNOTATED"
        lines.append(
            f"  {canonical_path(entry.path)}:{entry.line}: "
            f"{entry.name} [{marker}] — {entry.description}"
        )
    return "\n".join(lines)
