"""Tests for the repo-specific AST lint rules and the tools/lint.py runner."""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis.flowrules import apply_baseline, load_baseline
from repro.analysis.lint import (
    RULES,
    LintFinding,
    format_findings,
    is_test_path,
    lint_paths,
    lint_source,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
LINT_RUNNER = os.path.join(REPO_ROOT, "tools", "lint.py")


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint(snippet, path="repro/somewhere.py"):
    return lint_source(textwrap.dedent(snippet), path)


# ----------------------------------------------------------------------
# runtime-assert
# ----------------------------------------------------------------------
def test_assert_flagged_in_production_code():
    findings = lint("""
        def f(x):
            assert x > 0
            return x
    """)
    assert rules_of(findings) == ["runtime-assert"]
    assert findings[0].line == 3


def test_assert_allowed_in_tests():
    source = "def test_f():\n    assert 1 + 1 == 2\n"
    assert lint_source(source, "tests/test_f.py") == []
    assert lint_source(source, "tests/sub/conftest.py") == []
    assert is_test_path("tests/analysis/test_lint.py")
    assert not is_test_path("src/repro/analysis/lint.py")


def test_raise_not_flagged():
    assert lint("""
        def f(x):
            if x <= 0:
                raise ValueError("x")
            return x
    """) == []


# ----------------------------------------------------------------------
# direct-disk-read
# ----------------------------------------------------------------------
def test_direct_disk_read_flagged():
    findings = lint("""
        def f(pool, page_id):
            return pool.disk.read_page(page_id)
    """)
    assert rules_of(findings) == ["direct-disk-read"]


def test_bare_disk_name_flagged():
    findings = lint("""
        def f(disk):
            return disk.read_page(0)
    """)
    assert rules_of(findings) == ["direct-disk-read"]


def test_pool_fetch_not_flagged():
    assert lint("""
        def f(pool, page_id):
            return pool.fetch_page(page_id)
    """) == []


def test_buffer_pool_module_is_exempt():
    snippet = """
        def fetch(self, page_id):
            return self.disk.read_page(page_id)
    """
    assert lint(snippet, "src/repro/storage/buffer.py") == []
    assert rules_of(lint(snippet, "src/repro/core/engine.py")) == [
        "direct-disk-read"
    ]


# ----------------------------------------------------------------------
# float-equality
# ----------------------------------------------------------------------
def test_float_literal_equality_flagged():
    findings = lint("""
        def f(total):
            return total == 1.0
    """)
    assert rules_of(findings) == ["float-equality"]


def test_float_call_inequality_flagged():
    findings = lint("""
        def f(row):
            return float(row[0]) != 0.5
    """)
    assert rules_of(findings) == ["float-equality"]


def test_float_ordering_not_flagged():
    assert lint("""
        def f(fill):
            return 0.0 < fill <= 1.0
    """) == []


def test_int_equality_not_flagged():
    assert lint("""
        def f(n):
            return n == 42
    """) == []


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
def test_mutable_default_flagged():
    findings = lint("""
        def f(items=[]):
            return items
    """)
    assert rules_of(findings) == ["mutable-default"]


def test_mutable_kwonly_and_constructor_defaults_flagged():
    findings = lint("""
        def f(*, cache={}, pool=set()):
            return cache, pool
    """)
    assert rules_of(findings) == ["mutable-default", "mutable-default"]


def test_none_default_not_flagged():
    assert lint("""
        def f(items=None, name="x", count=0):
            return items
    """) == []


# ----------------------------------------------------------------------
# magic-page-size
# ----------------------------------------------------------------------
def test_magic_page_size_flagged():
    findings = lint("""
        def f():
            return bytearray(4096)
    """)
    assert rules_of(findings) == ["magic-page-size"]


def test_constants_module_is_exempt():
    snippet = "PAGE_SIZE = 4096\n"
    assert lint(snippet, "src/repro/constants.py") == []
    assert rules_of(lint(snippet, "src/repro/storage/page.py")) == [
        "magic-page-size"
    ]


def test_other_literals_not_flagged():
    assert lint("""
        def f():
            return 4095 + 4097
    """) == []


# ----------------------------------------------------------------------
# struct-in-loop
# ----------------------------------------------------------------------
def test_struct_pack_in_for_loop_flagged():
    findings = lint("""
        def f(codec, rows, out):
            for row in rows:
                out += codec.pack(*row)
    """)
    assert rules_of(findings) == ["struct-in-loop"]


def test_struct_unpack_from_in_while_loop_flagged():
    findings = lint("""
        import struct
        def f(raw):
            offset = 0
            while offset < len(raw):
                yield struct.unpack_from("<qd", raw, offset)
                offset += 16
    """)
    assert rules_of(findings) == ["struct-in-loop"]


def test_struct_call_in_comprehension_flagged():
    findings = lint("""
        def f(item, rows):
            return [item.unpack(chunk) for chunk in rows]
    """)
    assert rules_of(findings) == ["struct-in-loop"]


def test_struct_call_outside_loop_not_flagged():
    assert lint("""
        def f(codec, rows):
            return codec.pack(*[v for row in rows for v in row])
    """) == []


def test_iter_unpack_in_loop_not_flagged():
    assert lint("""
        def f(item, raw):
            for page in raw:
                yield from item.iter_unpack(page)
    """) == []


def test_nested_function_in_loop_body_still_flagged():
    findings = lint("""
        def f(codec, pages):
            for page in pages:
                def decode():
                    return codec.unpack(page)
                yield decode()
    """)
    assert rules_of(findings) == ["struct-in-loop"]


# ----------------------------------------------------------------------
# sequential-fetch-loop
# ----------------------------------------------------------------------
def test_fetch_page_in_range_loop_flagged():
    findings = lint("""
        def f(pool, first, count):
            for page_id in range(first, first + count):
                pool.fetch_page(page_id)
    """)
    assert rules_of(findings) == ["sequential-fetch-loop"]


def test_fetch_page_in_nested_range_loop_flagged():
    findings = lint("""
        def f(pool, runs):
            for run in runs:
                for idx in range(run.first, run.last + 1):
                    page = pool.fetch_page(run.page_ids[idx])
                    yield page
    """)
    assert rules_of(findings) == ["sequential-fetch-loop"]


def test_fetch_page_over_explicit_ids_not_flagged():
    # Iterating an arbitrary id collection is not the sequential-range
    # pattern the read-ahead helper replaces.
    assert lint("""
        def f(pool, page_ids):
            for page_id in page_ids:
                pool.fetch_page(page_id)
    """) == []


def test_fetch_page_outside_loop_not_flagged():
    assert lint("""
        def f(pool, page_id):
            return pool.fetch_page(page_id)
    """) == []


def test_fetch_page_after_range_loop_not_flagged():
    assert lint("""
        def f(pool, n):
            total = 0
            for i in range(n):
                total += i
            return pool.fetch_page(total)
    """) == []


def test_buffer_module_exempt_from_fetch_loop_rule():
    snippet = """
        def prefetch(self, first, count):
            for page_id in range(first, first + count):
                self.fetch_page(page_id)
    """
    assert lint(snippet, "src/repro/storage/buffer.py") == []
    assert rules_of(lint(snippet, "src/repro/rtree/tree.py")) == [
        "sequential-fetch-loop"
    ]


# ----------------------------------------------------------------------
# leaf-entry-loop (path-restricted to the query layer + rtree/tree.py)
# ----------------------------------------------------------------------
def test_leaf_entry_loop_flagged_in_tree():
    findings = lint("""
        def search(leaf, rect):
            for point in leaf.points:
                rect.contains_point(point)
    """, "src/repro/rtree/tree.py")
    assert rules_of(findings) == ["leaf-entry-loop"]
    assert ".points" in findings[0].message


def test_leaf_entry_loop_sees_through_zip_and_comprehensions():
    snippet = """
        def search(node):
            return [v for p, v in zip(node.points, node.values)]
    """
    findings = lint(snippet, "src/repro/query/batch.py")
    assert rules_of(findings) == ["leaf-entry-loop"]


def test_leaf_entry_loop_restricted_to_query_paths():
    snippet = """
        def pack(leaf):
            for point in leaf.points:
                encode(point)
    """
    # Packers/codecs legitimately walk entries row by row.
    assert lint(snippet, "src/repro/rtree/pack.py") == []
    assert lint(snippet, "src/repro/storage/codec.py") == []


def test_leaf_entry_loop_ignores_dict_values_calls():
    # ``d.values()`` is a method call, not a leaf column read.
    assert lint("""
        def f(d):
            for v in d.values():
                use(v)
    """, "src/repro/rtree/tree.py") == []


# ----------------------------------------------------------------------
# suppression + registry + formatting
# ----------------------------------------------------------------------
def test_inline_suppression():
    findings = lint("""
        def f():
            return bytearray(4096)  # lint: ignore[magic-page-size]
    """)
    assert findings == []


def test_suppression_is_rule_specific():
    findings = lint("""
        def f(x):
            assert x  # lint: ignore[magic-page-size]
    """)
    assert rules_of(findings) == ["runtime-assert"]


def test_every_rule_is_registered():
    # Linted as rtree/tree.py so the path-restricted leaf-entry-loop
    # rule is in play alongside the everywhere rules.
    sample = """
        def f(x, items=[]):
            assert x
            for item in items:
                x.codec.unpack(item)
            for page_id in range(8):
                x.pool.fetch_page(page_id)
            for point in x.leaf.points:
                x.use(point)
            if float(x) == 1.0:
                return x.disk.read_page(4096)
    """
    findings = lint(sample, "src/repro/rtree/tree.py")
    assert set(rules_of(findings)) == set(RULES)


def test_syntax_error_yields_structured_finding():
    findings = lint_source("def broken(:\n", "bad.py")
    assert rules_of(findings) == ["syntax-error"]
    assert "does not parse" in findings[0].message


def test_format_findings():
    finding = LintFinding("runtime-assert", "a.py", 3, 4, "boom")
    text = format_findings([finding])
    assert "a.py:3:4: [runtime-assert] boom" in text
    assert "1 finding(s)" in text
    assert format_findings([]) == "0 findings"


# ----------------------------------------------------------------------
# the runner: zero on src/ at HEAD, non-zero on a seeded violation
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    # The committed lint baseline accepts the tree's deliberate scalar
    # fallbacks (leaf-entry-loop); nothing new may appear beyond it.
    findings = lint_paths([os.path.join(REPO_ROOT, "src")])
    baseline = load_baseline(
        os.path.join(REPO_ROOT, "tools", "lint-baseline.json")
    )
    fresh, suppressed = apply_baseline(findings, baseline)
    assert fresh == []
    assert suppressed == len(findings)


def test_runner_exits_zero_on_clean_src():
    proc = subprocess.run(
        [sys.executable, LINT_RUNNER],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_runner_exits_nonzero_on_seeded_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n    assert x\n    return 4096\n")
    proc = subprocess.run(
        [sys.executable, LINT_RUNNER, str(bad)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert "runtime-assert" in proc.stdout
    assert "magic-page-size" in proc.stdout


def test_runner_rejects_missing_path(tmp_path):
    proc = subprocess.run(
        [sys.executable, LINT_RUNNER, str(tmp_path / "nope.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 2
    assert "no such path" in proc.stderr


# ----------------------------------------------------------------------
# the runner's flow-mode flags
# ----------------------------------------------------------------------
def test_runner_list_rules_includes_flow_rules():
    proc = subprocess.run(
        [sys.executable, LINT_RUNNER, "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "pin-balance (flow):" in proc.stdout
    assert "crash-point-coverage (flow):" in proc.stdout
    assert "obs-isolation (flow):" in proc.stdout
    assert "shared-state (flow):" in proc.stdout


def test_runner_flow_is_clean_modulo_baseline():
    proc = subprocess.run(
        [sys.executable, LINT_RUNNER, "--flow"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 baselined" in proc.stdout
    assert "shared-state inventory" in proc.stdout


def test_runner_json_format(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(pool, pid):\n"
        "    page = pool.fetch_page(pid)\n"
        "    return page.data\n"
    )
    out = tmp_path / "findings.json"
    proc = subprocess.run(
        [
            sys.executable, LINT_RUNNER, str(bad),
            "--flow", "--no-baseline", "--format", "json",
            "--out", str(out),
        ],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["schema_version"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "pin-balance"
    assert set(finding) == {"rule", "path", "line", "message"}
    assert json.loads(out.read_text()) == payload


def test_runner_write_baseline_roundtrip(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(pool, pid):\n"
        "    page = pool.fetch_page(pid)\n"
        "    return page.data\n"
    )
    baseline = tmp_path / "baseline.json"
    proc = subprocess.run(
        [
            sys.executable, LINT_RUNNER, str(bad),
            "--write-baseline", str(baseline),
        ],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "wrote 1 finding(s)" in proc.stdout
    proc = subprocess.run(
        [
            sys.executable, LINT_RUNNER, str(bad),
            "--flow", "--baseline", str(baseline),
        ],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 baselined" in proc.stdout
