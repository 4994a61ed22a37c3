"""Tests for the ``repro bench`` harness: JSON schema, comparison
semantics, and the CLI regression gate."""

import copy
import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    SCHEMA_VERSION,
    SUITES,
    compare,
    format_report,
    load_result,
    run_suite,
)

#: Tiny but non-trivial: ~hundreds of fact rows.
SCALE = 0.0005


@pytest.fixture(scope="module")
def smoke_result():
    return run_suite("smoke", scale=SCALE, seed=42, queries_per_node=2)


class TestRunSuite:
    def test_document_shape(self, smoke_result):
        assert smoke_result["schema_version"] == SCHEMA_VERSION
        assert smoke_result["suite"] == "smoke"
        assert smoke_result["config"]["scale_factor"] == SCALE
        env = smoke_result["env"]
        assert env["page_size"] == 4096
        assert "repro_version" in env
        names = [p["name"] for p in smoke_result["phases"]]
        assert names == ["load", "queries", "update"]

    def test_phases_carry_io_buffer_and_timings(self, smoke_result):
        for phase in smoke_result["phases"]:
            io = phase["io"]
            for key in ("sequential_reads", "random_reads",
                        "sequential_writes", "random_writes"):
                assert isinstance(io[key], int)
            buf = phase["buffer"]
            assert buf["accesses"] == buf["hits"] + buf["misses"]
            assert buf["hit_ratio"] is None or 0.0 <= buf["hit_ratio"] <= 1.0
            assert phase["simulated_ms"] >= 0.0
        # The load phase did real work.
        load = smoke_result["phases"][0]
        assert load["simulated_ms"] > 0.0
        assert load["io"]["sequential_writes"] > 0

    def test_metrics_snapshot_embedded(self, smoke_result):
        metrics = smoke_result["metrics"]
        counters = metrics["counters"]
        assert counters["io.writes.sequential"] > 0
        assert counters["rtree.pack.leaves"] > 0
        # Only the counters, which reproduce run to run.
        assert set(metrics) == {"counters"}

    def test_no_wall_clock_in_the_document(self, smoke_result):
        assert "wall_ms" not in smoke_result["totals"]
        for phase in smoke_result["phases"]:
            assert "wall_ms" not in phase and "wall_only" not in phase

    def test_document_is_json_serializable(self, smoke_result):
        text = json.dumps(smoke_result)
        assert json.loads(text)["suite"] == "smoke"

    def test_deterministic_simulated_costs(self, smoke_result):
        again = run_suite("smoke", scale=SCALE, seed=42, queries_per_node=2)
        for a, b in zip(smoke_result["phases"], again["phases"]):
            assert a["simulated_ms"] == b["simulated_ms"]
            assert a["io"] == b["io"]
            assert a["buffer"] == b["buffer"]

    def test_two_runs_equal_outside_env(self, smoke_result):
        # Everything but the environment fingerprint reproduces, so a
        # fresh document can be checked against a committed baseline.
        again = run_suite("smoke", scale=SCALE, seed=42, queries_per_node=2)
        first = dict(smoke_result, env=None)
        assert dict(again, env=None) == first

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_suite_names(self):
        assert SUITES == (
            "smoke", "loading", "queries", "updates", "serving",
            "sharding", "columnar",
        )


class TestCompare:
    def _doc(self, phases):
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": "smoke",
            "phases": [
                {"name": name, "simulated_ms": ms} for name, ms in phases
            ],
        }

    def test_no_regression_on_identical_runs(self):
        doc = self._doc([("load", 100.0), ("queries", 50.0)])
        assert compare(doc, copy.deepcopy(doc)) == []

    def test_flags_regression_past_threshold(self):
        old = self._doc([("load", 100.0), ("queries", 50.0)])
        new = self._doc([("load", 130.0), ("queries", 50.0)])
        regs = compare(old, new, threshold=0.2)
        assert len(regs) == 1
        assert regs[0]["phase"] == "load"
        assert regs[0]["ratio"] == pytest.approx(1.3)

    def test_within_threshold_passes(self):
        old = self._doc([("load", 100.0)])
        new = self._doc([("load", 119.0)])
        assert compare(old, new, threshold=0.2) == []

    def test_improvement_passes(self):
        old = self._doc([("load", 100.0)])
        new = self._doc([("load", 10.0)])
        assert compare(old, new) == []

    def test_near_zero_baseline_skipped(self):
        old = self._doc([("queries", 0.1)])
        new = self._doc([("queries", 0.9)])
        assert compare(old, new) == []

    def test_unmatched_phases_ignored(self):
        old = self._doc([("load", 100.0)])
        new = self._doc([("renamed", 500.0)])
        assert compare(old, new) == []

    def test_one_moved_read_fails(self):
        # Simulated I/O is deterministic, so any counter change is
        # reported, in either direction and well inside the threshold.
        io = {
            "sequential_reads": 40, "random_reads": 12,
            "sequential_writes": 0, "random_writes": 0,
        }
        old = self._doc([("queries", 100.0), ("load", 50.0)])
        for phase in old["phases"]:
            phase["io"] = dict(io)
        for delta in (1, -1):
            new = copy.deepcopy(old)
            new["phases"][0]["io"]["random_reads"] += delta
            regs = compare(old, new, threshold=0.2)
            assert [reg["phase"] for reg in regs] == ["queries"]
            assert regs[0]["new_io"]["random_reads"] == 12 + delta
        assert compare(old, copy.deepcopy(old)) == []

    def test_suite_mismatch_rejected(self):
        old = self._doc([])
        new = dict(self._doc([]), suite="queries")
        with pytest.raises(ValueError, match="cannot compare"):
            compare(old, new)


class TestFormatReport:
    def test_report_table(self, smoke_result):
        report = format_report(smoke_result)
        assert "suite: smoke" in report
        assert "load" in report
        assert "hit ratio" in report
        assert "total:" in report


class TestLoadResult:
    def test_round_trip(self, tmp_path, smoke_result):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(smoke_result))
        assert load_result(str(path))["suite"] == "smoke"

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="schema_version"):
            load_result(str(path))


class TestCli:
    def test_bench_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        code = main([
            "bench", "--suite", "smoke", "--scale", str(SCALE),
            "--queries", "2", "--out", str(out), "--report",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["phases"]
        captured = capsys.readouterr().out
        assert "suite: smoke" in captured

    def test_compare_fails_on_injected_regression(
        self, tmp_path, smoke_result, capsys
    ):
        # Baseline doctored to be 2x faster than reality: the fresh run
        # then reads as a +100% simulated-ms regression and must fail.
        baseline = copy.deepcopy(smoke_result)
        for phase in baseline["phases"]:
            phase["simulated_ms"] /= 2.0
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))

        out = tmp_path / "new.json"
        code = main([
            "bench", "--suite", "smoke", "--scale", str(SCALE),
            "--queries", "2", "--out", str(out),
            "--compare", str(base_path), "--threshold", "0.2",
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
