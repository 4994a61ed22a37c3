"""Tests for the flow-aware invariant rules.

Covers per-rule detection and non-detection on synthetic fixtures, the
four acceptance mutants seeded from real sources (deleted unpin, removed
crash hit, obs->storage call, unannotated module dict), and the
suppression-baseline machinery.
"""

import json
import os
import textwrap

import pytest

from repro.analysis.flowrules import (
    FLOW_RULES,
    analyze_paths,
    analyze_sources,
    apply_baseline,
    canonical_path,
    finding_fingerprint,
    findings_payload,
    format_inventory,
    load_baseline,
    parse_annotations,
)

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")


def flow(source, path="src/repro/core/unit.py", **extra):
    sources = {path: textwrap.dedent(source)}
    for extra_path, extra_src in extra.items():
        sources[extra_path] = textwrap.dedent(extra_src)
    return analyze_sources(sources).findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# pin-balance
# ----------------------------------------------------------------------
def test_pin_leak_on_early_return_detected():
    findings = flow(
        """
        def f(pool, pid, flag):
            page = pool.fetch_page(pid)
            if flag:
                return 0
            pool.unpin_page(page.page_id)
            return 1
        """
    )
    assert rules_of(findings) == ["pin-balance"]
    assert "fetch_page" in findings[0].message


def test_balanced_try_finally_is_clean():
    assert (
        flow(
            """
            def f(pool, pid):
                page = pool.fetch_page(pid)
                try:
                    return page.data[0]
                finally:
                    pool.unpin_page(page.page_id)
            """
        )
        == []
    )


def test_release_by_id_expression_matches():
    assert (
        flow(
            """
            def f(pool, pid):
                page = pool.fetch_page(pid)
                value = page.data[0]
                pool.unpin_page(pid)
                return value
            """
        )
        == []
    )


def test_returning_the_page_transfers_ownership():
    assert (
        flow(
            """
            def f(pool, pid):
                page = pool.fetch_page(pid)
                return decode(page), page
            """
        )
        == []
    )


def test_returning_only_an_attribute_does_not_escape():
    findings = flow(
        """
        def f(pool):
            page = pool.new_page()
            return page.page_id
        """
    )
    assert rules_of(findings) == ["pin-balance"]


def test_fetch_node_tuple_unpack_and_release_helper():
    assert (
        flow(
            """
            def f(self, pid):
                node, page = self._fetch_node(pid)
                value = node.keys[0]
                self._release(page)
                return value
            """
        )
        == []
    )


def test_yield_abandonment_without_finally_detected():
    findings = flow(
        """
        def gen(pool, pid):
            page = pool.fetch_page(pid)
            yield page.data[0]
            pool.unpin_page(page.page_id)
        """
    )
    assert rules_of(findings) == ["pin-balance"]


def test_yield_inside_try_finally_is_clean():
    assert (
        flow(
            """
            def gen(pool, pid):
                page = pool.fetch_page(pid)
                try:
                    yield page.data[0]
                finally:
                    pool.unpin_page(page.page_id)
            """
        )
        == []
    )


def test_loop_with_per_iteration_release_is_clean():
    assert (
        flow(
            """
            def walk(pool, pid):
                while pid != -1:
                    page = pool.fetch_page(pid)
                    pid = page.data[0]
                    pool.unpin_page(page.page_id)
                return pid
            """
        )
        == []
    )


def test_raise_path_leak_detected():
    findings = flow(
        """
        def f(pool, pid):
            page = pool.fetch_page(pid)
            if page.data[0] == 0:
                raise ValueError("empty")
            pool.unpin_page(page.page_id)
            return 1
        """
    )
    assert rules_of(findings) == ["pin-balance"]


def test_lint_ignore_suppresses_pin_finding():
    assert (
        flow(
            """
            def f(pool, handoff):
                page = pool.new_page()  # lint: ignore[pin-balance]
                handoff[page.page_id] = page
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# crash-point-coverage
# ----------------------------------------------------------------------
CRASH_PATH = "src/repro/core/persistence.py"


def test_unhit_durable_write_detected():
    findings = flow(
        """
        def save(path, payload):
            with open(path, "wb") as handle:
                handle.write(payload)
        """,
        path=CRASH_PATH,
    )
    assert rules_of(findings) == ["crash-point-coverage"]


def test_hit_before_write_is_clean():
    assert (
        flow(
            """
            def save(path, payload, crash_point):
                crash_point.hit("save")
                with open(path, "wb") as handle:
                    handle.write(payload)
            """,
            path=CRASH_PATH,
        )
        == []
    )


def test_guarded_hit_idiom_counts_as_coverage():
    assert (
        flow(
            """
            def save(self, data):
                if self.crash_point is not None:
                    self.crash_point.hit("write")
                self._file.write(data)
            """,
            path=CRASH_PATH,
        )
        == []
    )


def test_hit_via_helper_counts_as_coverage():
    assert (
        flow(
            """
            def _crash_hit(crash_point, context):
                if crash_point is not None:
                    crash_point.hit(context)

            def save(path, payload, crash_point):
                _crash_hit(crash_point, "save")
                with open(path, "wb") as handle:
                    handle.write(payload)
            """,
            path=CRASH_PATH,
        )
        == []
    )


def test_hit_on_only_one_branch_detected():
    findings = flow(
        """
        def save(path, payload, crash_point, fast):
            if not fast:
                crash_point.hit("save")
            with open(path, "wb") as handle:
                handle.write(payload)
        """,
        path=CRASH_PATH,
    )
    assert rules_of(findings) == ["crash-point-coverage"]


def test_delegated_helper_rescued_when_all_callers_hit():
    assert (
        flow(
            """
            import shutil

            def _prune(paths):
                for path in paths:
                    shutil.rmtree(path, ignore_errors=True)

            def commit(paths, crash_point):
                crash_point.hit("prune")
                _prune(paths)
            """,
            path=CRASH_PATH,
        )
        == []
    )


def test_delegated_helper_not_rescued_when_a_caller_skips_the_hit():
    findings = flow(
        """
        import shutil

        def _prune(paths):
            for path in paths:
                shutil.rmtree(path, ignore_errors=True)

        def commit(paths, crash_point):
            crash_point.hit("prune")
            _prune(paths)

        def sloppy(paths):
            _prune(paths)
        """,
        path=CRASH_PATH,
    )
    assert rules_of(findings) == ["crash-point-coverage"]


def test_rule_only_audits_durable_modules():
    assert (
        flow(
            """
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
            """,
            path="src/repro/obs/bench.py",
        )
        == []
    )


# ----------------------------------------------------------------------
# obs-isolation
# ----------------------------------------------------------------------
def test_obs_importing_storage_detected():
    findings = flow(
        """
        from repro.storage.iomodel import IOCostModel

        def snapshot():
            return IOCostModel()
        """,
        path="src/repro/obs/registry.py",
    )
    assert "obs-isolation" in rules_of(findings)


def test_obs_reaching_cost_accounting_detected():
    findings = flow(
        """
        from repro.obs.helpers import relay

        def publish(value):
            return relay(value)
        """,
        path="src/repro/obs/trace.py",
        **{
            "src/repro/obs/helpers.py": """
            def record_write(value):
                return value

            def relay(value):
                return record_write(value)
            """
        },
    )
    obs = [f for f in findings if f.rule == "obs-isolation"]
    assert obs and "record_write" in obs[0].message


def test_branching_on_metrics_state_detected():
    findings = flow(
        """
        from repro.obs import get_registry

        _REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
        _OBS_HITS = _REG.counter("unit.hits")

        def lookup(cache, key):
            if _OBS_HITS.value > 100:
                return None
            return cache[key]
        """
    )
    assert rules_of(findings) == ["obs-isolation"]
    assert "_OBS_HITS" in findings[0].message


def test_updating_metrics_without_branching_is_clean():
    assert (
        flow(
            """
            from repro.obs import get_registry

            _REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
            _OBS_HITS = _REG.counter("unit.hits")

            def lookup(cache, key):
                _OBS_HITS.value += 1
                return cache[key]
            """
        )
        == []
    )


def test_reporting_layer_may_branch_on_metrics():
    assert (
        flow(
            """
            from repro.obs import get_registry

            _REG = get_registry()  # repro: guarded-by(MetricsRegistry._lock)
            _OBS_RUNS = _REG.counter("bench.runs")

            def report():
                if _OBS_RUNS.value:
                    return "ran"
                return "idle"
            """,
            path="src/repro/obs/bench.py",
        )
        == []
    )


# ----------------------------------------------------------------------
# shared-state
# ----------------------------------------------------------------------
def test_unannotated_module_dict_detected():
    findings = flow(
        """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
        """
    )
    assert rules_of(findings) == ["shared-state"]


def test_annotated_module_dict_is_clean_and_inventoried():
    report = analyze_sources(
        {
            "src/repro/core/unit.py": textwrap.dedent(
                """
                _CACHE = {}  # repro: guarded-by(_CACHE_LOCK)
                """
            )
        }
    )
    assert report.findings == []
    (entry,) = report.inventory
    assert entry.annotation == "guarded-by(_CACHE_LOCK)"
    assert "_CACHE" in format_inventory(report.inventory)


def test_read_only_annotation_contradicted_by_mutation():
    findings = flow(
        """
        TABLE = {"a": 1}  # repro: read-only

        def poison(key):
            TABLE[key] = 0
        """
    )
    assert rules_of(findings) == ["shared-state"]
    assert "read-only" in findings[0].message


def test_global_rebind_requires_annotation():
    findings = flow(
        """
        _MODE = None

        def set_mode(mode):
            global _MODE
            _MODE = mode
        """
    )
    assert rules_of(findings) == ["shared-state"]
    assert (
        flow(
            """
            _MODE = None  # repro: worker-local

            def set_mode(mode):
                global _MODE
                _MODE = mode
            """
        )
        == []
    )


def test_lru_cache_requires_annotation():
    findings = flow(
        """
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def codec(arity):
            return object()
        """
    )
    assert rules_of(findings) == ["shared-state"]


def test_cache_attribute_mutated_outside_init_detected():
    findings = flow(
        """
        class Codec:
            def __init__(self):
                self._struct_cache = {}

            def lookup(self, key):
                value = self._struct_cache.get(key)
                if value is None:
                    value = build(key)
                    self._struct_cache[key] = value
                return value
        """
    )
    assert rules_of(findings) == ["shared-state"]


def test_dunder_assignments_are_exempt():
    assert flow('__all__ = ["a", "b"]\n') == []


def test_parse_annotations_grammar():
    annotations = parse_annotations(
        "a = {}  # repro: guarded-by(Reg._lock)\n"
        "b = 0  # repro: worker-local\n"
        "c = {}  # repro: read-only\n"
        "d = {}  # unrelated comment\n"
    )
    assert annotations[1].kind == "guarded-by"
    assert annotations[1].detail == "Reg._lock"
    assert annotations[2].kind == "worker-local"
    assert annotations[3].kind == "read-only"
    assert 4 not in annotations


# ----------------------------------------------------------------------
# acceptance mutants: seeded regressions in REAL sources
# ----------------------------------------------------------------------
def read_src(rel):
    with open(os.path.join(SRC, rel), "r", encoding="utf-8") as handle:
        return handle.read()


def test_mutant_deleted_unpin_in_rtree_is_caught():
    source = read_src("repro/rtree/tree.py")
    mutated = source.replace("self._release(page)", "pass")
    assert mutated != source
    findings = analyze_sources({"src/repro/rtree/tree.py": mutated})
    assert "pin-balance" in rules_of(findings.findings)


def test_mutant_removed_crash_hit_in_persistence_is_caught():
    source = read_src("repro/core/persistence.py")
    mutated = source.replace("_crash_hit(", "_noop_hit(").replace(
        "def _noop_hit(", "def _crash_hit("  # keep the def; gut the calls
    )
    # also neutralize the gutted helper so nothing hits
    mutated = mutated.replace("crash_point.hit(context)", "pass")
    assert mutated != source
    findings = analyze_sources(
        {"src/repro/core/persistence.py": mutated}
    )
    assert "crash-point-coverage" in rules_of(findings.findings)


def test_mutant_obs_calling_storage_is_caught():
    source = read_src("repro/obs/registry.py")
    mutated = source.replace(
        '"""', '"""', 1
    )  # no-op anchor; the real mutation is the import below
    mutated = (
        "from repro.storage.iomodel import IOCostModel\n" + mutated
    )
    findings = analyze_sources({"src/repro/obs/registry.py": mutated})
    assert "obs-isolation" in rules_of(findings.findings)


def test_mutant_unannotated_module_dict_is_caught():
    source = read_src("repro/storage/codec.py")
    mutated = source + "\n_MUTANT_CACHE = {}\n"
    findings = analyze_sources({"src/repro/storage/codec.py": mutated})
    shared = [
        f for f in findings.findings if f.rule == "shared-state"
    ]
    assert any("_MUTANT_CACHE" in f.message for f in shared)


# ----------------------------------------------------------------------
# the tree at HEAD is clean modulo the committed baseline
# ----------------------------------------------------------------------
def test_src_tree_is_flow_clean_modulo_baseline():
    report = analyze_paths([os.path.join(SRC, "repro")])
    baseline = load_baseline(
        os.path.join(REPO_ROOT, "tools", "flow-baseline.json")
    )
    fresh, suppressed = apply_baseline(report.findings, baseline)
    assert fresh == [], [f.format() for f in fresh]
    assert suppressed == len(report.findings)
    # the audit inventory covers the known shared-state surfaces
    names = {entry.name for entry in report.inventory}
    assert {"_REG", "_REGISTRY", "_active"} <= names
    assert all(
        entry.annotation is not None for entry in report.inventory
    )


# ----------------------------------------------------------------------
# baseline machinery
# ----------------------------------------------------------------------
def test_fingerprint_ignores_line_numbers_and_path_prefixes():
    findings = flow(
        """
        def f(pool, pid):
            page = pool.fetch_page(pid)
            return page.data
        """
    )
    shifted = flow(
        """
        # a new comment shifts every line
        def f(pool, pid):
            page = pool.fetch_page(pid)
            return page.data
        """,
        path="/elsewhere/checkout/src/repro/core/unit.py",
    )
    assert finding_fingerprint(findings[0]) == finding_fingerprint(
        shifted[0]
    )
    assert canonical_path(findings[0].path) == "repro/core/unit.py"


def test_apply_and_load_baseline_roundtrip(tmp_path):
    findings = flow(
        """
        def f(pool, pid):
            page = pool.fetch_page(pid)
            return page.data
        """
    )
    payload = findings_payload(findings)
    assert payload["schema_version"] == 1
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "path", "line", "message"}

    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps(payload))
    baseline = load_baseline(str(baseline_file))
    fresh, suppressed = apply_baseline(findings, baseline)
    assert fresh == [] and suppressed == 1

    fresh, suppressed = apply_baseline(findings, set())
    assert len(fresh) == 1 and suppressed == 0


def test_baseline_entry_accepts_one_finding_not_all(tmp_path):
    findings = flow(
        """
        def f(pool, pid):
            page = pool.fetch_page(pid)
            return page.data
        """
    )
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps(findings_payload(findings)))
    baseline = load_baseline(str(baseline_file))
    duplicate = findings + findings
    fresh, suppressed = apply_baseline(duplicate, baseline)
    assert suppressed == 1
    assert fresh == findings[:1]  # the one over the entry's count
    # Listing the fingerprint twice accepts both.
    twice = findings_payload(duplicate)
    baseline_file.write_text(json.dumps(twice))
    fresh, suppressed = apply_baseline(
        duplicate, load_baseline(str(baseline_file))
    )
    assert fresh == [] and suppressed == 2


def test_stale_baseline_entry_is_reported(tmp_path):
    findings = flow(
        """
        def f(pool, pid):
            page = pool.fetch_page(pid)
            return page.data
        """
    )
    baseline_file = tmp_path / "baseline.json"
    baseline_file.write_text(json.dumps(findings_payload(findings)))
    fresh, suppressed = apply_baseline([], load_baseline(str(baseline_file)))
    assert suppressed == 0
    (stale,) = fresh
    assert stale.rule == findings[0].rule
    assert stale.path == canonical_path(findings[0].path)
    assert "stale baseline entry" in stale.message


def test_load_baseline_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"schema_version": 99, "findings": []}')
    with pytest.raises(ValueError):
        load_baseline(str(bad))


def test_flow_rule_registry_is_complete():
    assert set(FLOW_RULES) == {
        "pin-balance",
        "crash-point-coverage",
        "obs-isolation",
        "shared-state",
    }
